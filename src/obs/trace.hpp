#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/journal.hpp"

namespace nup::obs {

/// An event name and its category, interned once by the component that
/// emits the event.
struct TraceName {
  std::uint32_t name = 0;
  std::uint32_t cat = 0;
};

/// Args of one trace event: integers and interned ids only, so recording
/// formats nothing. A field left at its default is omitted from the export.
struct TraceArgs {
  std::int32_t stage = -1;    ///< "stage" when >= 0
  std::int64_t tile = -1;     ///< "tile" when >= 0
  std::uint32_t program = 0;  ///< "program": interned name, 0 = none
};

/// Span tracer exporting Chrome `trace_event` JSON (loadable in
/// chrome://tracing and Perfetto). Events are recorded into the per-thread
/// seqlock rings of a Journal the tracer owns: the hot path is one relaxed
/// enabled-flag load, then one lock-free 64-byte slot write. A thread's
/// ring (kRingCapacity slots) is allocated on its first record while
/// tracing is enabled, so disabled tracers (the default) hold no event
/// storage. Rings are bounded: the export reports the events lost to wrap.
class Tracer {
 public:
  /// Slots per thread ring (64 bytes each, 4 MiB per recording thread).
  static constexpr std::size_t kRingCapacity = 65536;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Interns an event name and category, or a "program" arg value. Takes
  /// a lock; intern event names once, not per event.
  TraceName intern(std::string_view name, std::string_view cat);
  std::uint32_t intern(std::string_view program);

  /// Records a complete ('X') event spanning [start_ns, end_ns], in ns
  /// since the tracer's construction (its trace epoch), on the calling
  /// thread. No-op when disabled.
  void complete(TraceName name, std::int64_t start_ns, std::int64_t end_ns,
                const TraceArgs& args = {});

  /// Records an instant ('i') event at the current time. No-op when
  /// disabled, as are all the events below.
  void instant(TraceName name, const TraceArgs& args = {}) {
    emit(JournalKind::kTraceInstant, name, 0, 0, args);
  }

  /// Records a counter ('C') sample; chrome://tracing draws these as a
  /// stacked time series.
  void counter(TraceName name, std::int64_t value) {
    emit(JournalKind::kTraceCounter, name, 0, value);
  }

  /// Async events ('b'/'e'): one open-ended lane per id, drawn as a
  /// nestable track in Perfetto. The begin and end may come from
  /// different threads — the id ties them together. The begin carries
  /// the frame's seed.
  void async_begin(TraceName name, std::uint64_t id, std::uint64_t seed) {
    emit(JournalKind::kTraceAsyncBegin, name, id,
         static_cast<std::int64_t>(seed));
  }
  void async_end(TraceName name, std::uint64_t id) {
    emit(JournalKind::kTraceAsyncEnd, name, id);
  }

  /// Flow events ('s'/'t'/'f'): arrows between slices across threads with
  /// the same id. A step/end binds to the enclosing slice on its thread,
  /// so emit them while a Span covering the moment is open. The end is
  /// recorded with binding point "enclosing" ("bp":"e").
  void flow_start(TraceName name, std::uint64_t id) {
    emit(JournalKind::kTraceFlowStart, name, id);
  }
  void flow_step(TraceName name, std::uint64_t id) {
    emit(JournalKind::kTraceFlowStep, name, id);
  }
  void flow_end(TraceName name, std::uint64_t id) {
    emit(JournalKind::kTraceFlowEnd, name, id);
  }

  /// Names the calling thread in the exported trace (thread_name
  /// metadata). Registered even while disabled, so worker threads can
  /// name themselves up front; allocates no ring.
  void set_thread_name(std::string_view name);

  /// {"traceEvents": [...], "otherData": {...}} with every retained event
  /// plus thread_name metadata; otherData counts the events recorded and
  /// those overwritten by ring wrap. Safe to call concurrently with
  /// recording; events recorded during the export may or may not be
  /// included.
  std::string to_chrome_json() const;

  /// Drops every event recorded so far. Slots stay owned by their writer
  /// threads: the export skips events stamped before the cut.
  void clear();

  /// Retained events across all threads (after the last clear()).
  std::size_t event_count() const;

  /// Events lost to ring wrap: recorded minus still retained.
  std::uint64_t overwritten() const;

  /// Bytes of ring storage allocated across recording threads.
  std::size_t capacity_bytes() const { return journal_.capacity_bytes(); }

  /// Process-wide tracer used by the runtime and stencilcc.
  static Tracer& global();

 private:
  friend class Span;
  /// Records one event stamped now, when enabled.
  void emit(JournalKind kind, TraceName name, std::uint64_t id,
            std::int64_t value = 0, const TraceArgs& args = {}) {
    if (enabled()) record(kind, 0, name, id, value, args);
  }
  /// `ts_ns` as in Journal::record (0 = now).
  void record(JournalKind kind, std::int64_t ts_ns, TraceName name,
              std::uint64_t id, std::int64_t value,
              const TraceArgs& args) noexcept;

  Journal journal_;
  const std::int64_t epoch_ns_;  ///< Journal::now_ns() at construction
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> cut_ns_{0};  ///< clear(): drop ts <= cut
};

/// RAII span: captures the start time at construction and records one
/// complete event at destruction. When the tracer is disabled at
/// construction the span is inert (one atomic load, no clock reads).
class Span {
 public:
  Span(Tracer& tracer, TraceName name, const TraceArgs& args = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span now (idempotent; the destructor then does nothing).
  void end();

 private:
  Tracer& tracer_;
  TraceName name_;
  TraceArgs args_;
  std::int64_t start_ns_ = 0;
  bool active_ = false;
};

}  // namespace nup::obs
