#ifndef NUP_OBS_JOURNAL_HPP
#define NUP_OBS_JOURNAL_HPP

/// Flight recorder: an always-on, lock-free ring of compact structured
/// events, one ring per recording thread, plus a post-mortem dumper that
/// bundles the last-N events (merged across threads, time-ordered) with a
/// metrics snapshot and the offending design's describe() text whenever a
/// frame fails, is cancelled, deadlocks, or violates its Eq. 2 depth bound.
///
/// The write path is a seqlock per 64-byte slot: one sequence word and
/// seven relaxed payload words bracketed by release/acquire fences, so
/// recording never takes a lock and never blocks a reader; a reader that
/// races a writer simply discards the torn slot. Under -DNUP_OBS_DISABLE
/// record() compiles to an empty function.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace nup::obs {

class Registry;

/// What happened. Kept to one byte in the packed slot.
enum class JournalKind : std::uint8_t {
  kNone = 0,
  kFrameAdmitted,    ///< a = admission wait us, b = tiles in the frame
  kFrameCompleted,   ///< a = frame latency us
  kFrameFailed,      ///< a = frame latency us
  kFrameCancelled,   ///< a = frame latency us
  kTileExecuted,     ///< a = tile latency us
  kTileSkipped,      ///< tile dropped by cancellation / abort
  kDepResolved,      ///< stage dependency resolved; tile released downstream
  kSlabLeased,       ///< a = elements, b = 1 when the lease hit the heap
  kSlabRecycled,     ///< a = elements returned to the pool
  kPassStarted,      ///< a = pass index, b = generations in the pass
  kFifoHighWater,    ///< a = high water, b = designed depth
  kDepthViolation,   ///< a = high water, b = designed (Eq. 2) depth
  kDeadlock,         ///< simulator returned a deadlock verdict
  // Trace events (obs::Tracer), one per Chrome phase. name = event name;
  // b = category id | "program" arg id << 32; stage and tile are the
  // "stage"/"tile" args when >= 0.
  kTraceSpan,        ///< 'X': ts = start, a = duration ns
  kTraceInstant,     ///< 'i'
  kTraceCounter,     ///< 'C': a = value
  kTraceAsyncBegin,  ///< 'b': frame = lane id, a = seed
  kTraceAsyncEnd,    ///< 'e': frame = lane id
  kTraceFlowStart,   ///< 's': frame = flow id
  kTraceFlowStep,    ///< 't': frame = flow id
  kTraceFlowEnd,     ///< 'f': frame = flow id
};

const char* to_string(JournalKind kind);

/// One decoded event. `name` resolves the writer's interned name id
/// (engine / pipeline / edge instance); empty when the writer passed 0.
struct JournalRecord {
  std::int64_t ts_ns = 0;  ///< Journal::now_ns() (the Tracer's base too)
  JournalKind kind = JournalKind::kNone;
  std::uint32_t thread = 0;  ///< recording thread (registration order)
  std::uint64_t frame = 0;   ///< causal frame id (obs::next_frame_id)
  std::int32_t stage = -1;   ///< pipeline stage, -1 outside a pipeline
  std::int64_t tile = -1;    ///< tile index, -1 for frame-level events
  std::int64_t a = 0;        ///< kind-specific payload (see JournalKind)
  std::int64_t b = 0;        ///< kind-specific payload
  std::string name;          ///< interned component name
};

/// The FIFO a depth violation names in its post-mortem bundle.
struct FifoDetail {
  std::string array;
  std::size_t fifo = 0;
  std::int64_t depth = 0;
  std::int64_t high_water = 0;
  bool word_level = false;  ///< Eq. 2 / W word bound rather than elements
};

/// Everything a post-mortem bundle records beside the event log and the
/// metrics snapshot.
struct PostmortemInfo {
  std::string reason;  ///< "frame_failed" | "frame_cancelled" |
                       ///< "depth_violation" | "deadlock"
  std::string detail;  ///< human-readable error text
  std::uint64_t frame = 0;
  std::int64_t stage = -1;
  std::int64_t tile = -1;
  std::string design;  ///< arch::describe() of the offending design
  bool has_fifo = false;
  FifoDetail fifo;
  std::size_t last_n = 256;  ///< events to include, newest first
};

class Journal {
 public:
  /// ring_capacity is rounded up to a power of two; each recording thread
  /// owns one ring of that many 64-byte slots.
  explicit Journal(std::size_t ring_capacity = kDefaultRingCapacity);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Maps a component name to a small id carried in the packed slot.
  /// Takes a lock; call once at construction and cache the id.
  std::uint32_t intern(std::string_view name);

  /// Records one event into the calling thread's ring. Lock-free after the
  /// thread's first call; wait-free against readers. No-op when disabled
  /// at run time or compiled out. A non-zero `ts_ns` (an earlier now_ns()
  /// reading) stamps the event instead of the time of the call: a span is
  /// recorded at its end but stamped with its start.
  void record(JournalKind kind, std::uint64_t frame, std::int32_t stage = -1,
              std::int64_t tile = -1, std::int64_t a = 0, std::int64_t b = 0,
              std::uint32_t name_id = 0, std::int64_t ts_ns = 0) noexcept;

  /// Names the calling thread's ring (its own, or the one its first
  /// record() allocates later). Allocates no ring.
  void set_thread_name(std::string_view name);

  /// Interned names by id, and each ring's thread name by
  /// JournalRecord::thread ("" when unnamed). Ids and rings only grow, so
  /// tables read after a snapshot() resolve every record in it.
  std::vector<std::string> names() const;
  std::vector<std::string> thread_names() const;

  /// The steady-clock reading every event is stamped with, in ns.
  static std::int64_t now_ns();

  /// Merges every thread's ring into one time-ordered log. last_n == 0
  /// returns everything still buffered; otherwise the newest last_n.
  /// Torn slots (racing a concurrent writer) are skipped, not waited on.
  std::vector<JournalRecord> snapshot(std::size_t last_n = 0) const;

  /// Total events ever recorded (including those overwritten by ring wrap)
  /// and events dropped because the thread-ring budget was exhausted.
  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  /// Bytes currently committed to slot storage across all thread rings.
  std::size_t capacity_bytes() const;

  /// Run-time kill switch (the compile-time one is -DNUP_OBS_DISABLE).
  /// The journal is always-on by default; benches A/B against this.
  void set_enabled(bool enabled);
  bool enabled() const;

  /// Post-mortem bundles are written under this directory; empty (the
  /// default) disables dumping entirely.
  void set_postmortem_dir(std::string dir);
  std::string postmortem_dir() const;

  /// Writes `postmortem-<reason>-<seq>.json` under the post-mortem dir:
  /// the info header, the last-N merged events, and (when `metrics` is
  /// non-null) a full registry snapshot. Callers record the failure event
  /// itself (kDeadlock, kDepthViolation, ...) before dumping, so the
  /// bundle's own log names it and the flight recorder keeps the event
  /// even when no directory is configured. Returns the path written, or
  /// "" when no directory is configured or the write failed. Never
  /// throws.
  std::string dump_postmortem(const PostmortemInfo& info,
                              const Registry* metrics = nullptr);

  /// Process-wide journal, used unless an EngineOptions/PipelineOptions
  /// override is given. Never destroyed.
  static Journal& global();

  static constexpr std::size_t kDefaultRingCapacity = 4096;
  /// Budget backstop: threads beyond this many get their events dropped
  /// (and counted) instead of growing slot storage without bound.
  static constexpr std::size_t kMaxThreadRings = 512;

 private:
  struct ThreadRing;
  struct ThreadState;
  struct Impl;
  ThreadState& thread_state() const;
  std::unique_ptr<Impl> impl_;
};

/// Process-wide causal frame-id allocator: every frame that enters any
/// engine, pipeline, or temporal runner gets a unique id so journal events
/// and trace flows from different components stitch into one lane.
std::uint64_t next_frame_id();

}  // namespace nup::obs

#endif  // NUP_OBS_JOURNAL_HPP
