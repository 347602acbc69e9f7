#include "obs/journal.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "obs/metrics.hpp"

namespace nup::obs {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

constexpr std::uint8_t kMaxKind =
    static_cast<std::uint8_t>(JournalKind::kTraceFlowEnd);

}  // namespace

using detail::append_json_string;

const char* to_string(JournalKind kind) {
  switch (kind) {
    case JournalKind::kNone: return "none";
    case JournalKind::kFrameAdmitted: return "frame.admitted";
    case JournalKind::kFrameCompleted: return "frame.completed";
    case JournalKind::kFrameFailed: return "frame.failed";
    case JournalKind::kFrameCancelled: return "frame.cancelled";
    case JournalKind::kTileExecuted: return "tile.executed";
    case JournalKind::kTileSkipped: return "tile.skipped";
    case JournalKind::kDepResolved: return "dep.resolved";
    case JournalKind::kSlabLeased: return "slab.leased";
    case JournalKind::kSlabRecycled: return "slab.recycled";
    case JournalKind::kPassStarted: return "pass.started";
    case JournalKind::kFifoHighWater: return "fifo.high_water";
    case JournalKind::kDepthViolation: return "fifo.depth_violation";
    case JournalKind::kDeadlock: return "deadlock";
    case JournalKind::kTraceSpan: return "trace.span";
    case JournalKind::kTraceInstant: return "trace.instant";
    case JournalKind::kTraceCounter: return "trace.counter";
    case JournalKind::kTraceAsyncBegin: return "trace.async_begin";
    case JournalKind::kTraceAsyncEnd: return "trace.async_end";
    case JournalKind::kTraceFlowStart: return "trace.flow_start";
    case JournalKind::kTraceFlowStep: return "trace.flow_step";
    case JournalKind::kTraceFlowEnd: return "trace.flow_end";
  }
  return "unknown";
}

/// One 64-byte seqlock slot. seq: 0 = never written, odd = write in
/// progress, even = the payload words are consistent for that sequence.
struct alignas(64) JournalSlot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> w[7] = {};
};

struct Journal::ThreadRing {
  ThreadRing(std::size_t cap_, std::uint32_t tid_)
      : cap(cap_), tid(tid_), slots(new JournalSlot[cap_]) {}

  const std::size_t cap;   ///< power of two
  const std::uint32_t tid;
  std::unique_ptr<JournalSlot[]> slots;
  std::uint64_t head = 0;  ///< owner-thread only
  std::atomic<std::uint64_t> written{0};
  std::atomic<std::uint32_t> name_id{0};  ///< set_thread_name
};

/// The calling thread's state in one journal. `ring` stays null until the
/// first record() (and for good once the ring budget is exhausted). It is
/// owned by the journal, so a destroyed journal's rings are freed even
/// while the thread that wrote them lives on.
struct Journal::ThreadState {
  ThreadRing* ring = nullptr;
  bool ring_claimed = false;
  std::uint32_t name_id = 0;
};

struct Journal::Impl {
  std::uint64_t id = 0;
  std::size_t cap = 0;
  std::atomic<bool> enabled{true};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> dump_seq{0};

  mutable std::mutex mu;  ///< rings list, intern table, post-mortem dir
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::vector<std::string> names{std::string()};  ///< id 0 = anonymous
  struct NameHash : std::hash<std::string_view> {
    using is_transparent = void;
  };
  std::unordered_map<std::string, std::uint32_t, NameHash, std::equal_to<>>
      name_ids;
  std::string dir;
};

namespace {
std::atomic<std::uint64_t> g_next_journal_id{1};
std::atomic<std::uint64_t> g_next_frame_id{1};
}  // namespace

std::uint64_t next_frame_id() {
  return g_next_frame_id.fetch_add(1, std::memory_order_relaxed);
}

Journal::ThreadState& Journal::thread_state() const {
  // Keyed by journal instance id so tests can hold several journals at
  // once. The last journal used is remembered, so a thread recording into
  // one journal skips the hash lookup (map nodes never move).
  thread_local std::unordered_map<std::uint64_t, ThreadState> states;
  thread_local std::uint64_t last_id = 0;
  thread_local ThreadState* last = nullptr;
  if (last_id != impl_->id) {
    last = &states[impl_->id];
    last_id = impl_->id;
  }
  return *last;
}

Journal::Journal(std::size_t ring_capacity) : impl_(std::make_unique<Impl>()) {
  impl_->id = g_next_journal_id.fetch_add(1, std::memory_order_relaxed);
  impl_->cap = round_up_pow2(std::max<std::size_t>(ring_capacity, 8));
}

Journal::~Journal() = default;

std::uint32_t Journal::intern(std::string_view name) {
  if (name.empty()) return 0;
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->name_ids.find(name);
  if (it != impl_->name_ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(impl_->names.size());
  impl_->names.emplace_back(name);
  impl_->name_ids.emplace(std::string(name), id);
  return id;
}

std::int64_t Journal::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Journal::record(JournalKind kind, std::uint64_t frame, std::int32_t stage,
                     std::int64_t tile, std::int64_t a, std::int64_t b,
                     std::uint32_t name_id, std::int64_t ts_ns) noexcept {
#ifdef NUP_OBS_DISABLE
  (void)kind, (void)frame, (void)stage, (void)tile;
  (void)a, (void)b, (void)name_id, (void)ts_ns;
#else
  Impl& im = *impl_;
  if (!im.enabled.load(std::memory_order_relaxed)) return;

  // A thread that arrives after the ring budget is exhausted gets no ring:
  // its events are counted as dropped.
  ThreadState& state = thread_state();
  if (!state.ring_claimed) {
    state.ring_claimed = true;
    std::lock_guard<std::mutex> lock(im.mu);
    if (im.rings.size() < kMaxThreadRings) {
      im.rings.push_back(std::make_shared<ThreadRing>(
          im.cap, static_cast<std::uint32_t>(im.rings.size())));
      state.ring = im.rings.back().get();
      state.ring->name_id.store(state.name_id, std::memory_order_relaxed);
    }
  }
  ThreadRing* ring = state.ring;
  if (ring == nullptr) {
    im.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  JournalSlot& slot = ring->slots[ring->head & (ring->cap - 1)];
  ++ring->head;

  const std::uint64_t seq0 = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq0 + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.w[0].store(static_cast<std::uint64_t>(ts_ns != 0 ? ts_ns : now_ns()),
                  std::memory_order_relaxed);
  slot.w[1].store(frame, std::memory_order_relaxed);
  slot.w[2].store(static_cast<std::uint64_t>(static_cast<std::uint8_t>(kind)) |
                      (static_cast<std::uint64_t>(ring->tid & 0xffffff) << 8) |
                      (static_cast<std::uint64_t>(name_id) << 32),
                  std::memory_order_relaxed);
  slot.w[3].store(static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(stage)),
                  std::memory_order_relaxed);
  slot.w[4].store(static_cast<std::uint64_t>(tile), std::memory_order_relaxed);
  slot.w[5].store(static_cast<std::uint64_t>(a), std::memory_order_relaxed);
  slot.w[6].store(static_cast<std::uint64_t>(b), std::memory_order_relaxed);
  slot.seq.store(seq0 + 2, std::memory_order_release);
  ring->written.fetch_add(1, std::memory_order_relaxed);
#endif
}

std::vector<JournalRecord> Journal::snapshot(std::size_t last_n) const {
  Impl& im = *impl_;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    rings = im.rings;
    names = im.names;
  }

  std::vector<JournalRecord> out;
  for (const auto& ring : rings) {
    for (std::size_t i = 0; i < ring->cap; ++i) {
      const JournalSlot& slot = ring->slots[i];
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 == 0 || (s1 & 1) != 0) continue;  // unwritten or mid-write
      std::uint64_t w[7];
      for (int k = 0; k < 7; ++k) {
        w[k] = slot.w[k].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != s1) continue;  // torn

      const auto kind_byte = static_cast<std::uint8_t>(w[2] & 0xff);
      if (kind_byte == 0 || kind_byte > kMaxKind) continue;
      JournalRecord r;
      r.ts_ns = static_cast<std::int64_t>(w[0]);
      r.kind = static_cast<JournalKind>(kind_byte);
      r.thread = static_cast<std::uint32_t>((w[2] >> 8) & 0xffffff);
      const auto name_id = static_cast<std::uint32_t>(w[2] >> 32);
      if (name_id < names.size()) r.name = names[name_id];
      r.frame = w[1];
      r.stage = static_cast<std::int32_t>(static_cast<std::int64_t>(w[3]));
      r.tile = static_cast<std::int64_t>(w[4]);
      r.a = static_cast<std::int64_t>(w[5]);
      r.b = static_cast<std::int64_t>(w[6]);
      out.push_back(std::move(r));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const JournalRecord& x, const JournalRecord& y) {
              if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
              return x.thread < y.thread;
            });
  if (last_n > 0 && out.size() > last_n) {
    out.erase(out.begin(), out.end() - static_cast<std::ptrdiff_t>(last_n));
  }
  return out;
}

void Journal::set_thread_name(std::string_view name) {
  const std::uint32_t id = intern(name);
  ThreadState& state = thread_state();
  state.name_id = id;
  if (state.ring) state.ring->name_id.store(id, std::memory_order_relaxed);
}

std::vector<std::string> Journal::names() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->names;
}

std::vector<std::string> Journal::thread_names() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::string> out;
  out.reserve(impl_->rings.size());
  for (const auto& ring : impl_->rings) {
    out.push_back(
        impl_->names[ring->name_id.load(std::memory_order_relaxed)]);
  }
  return out;
}

std::uint64_t Journal::recorded() const {
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    rings = impl_->rings;
  }
  std::uint64_t total = 0;
  for (const auto& ring : rings) {
    total += ring->written.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Journal::dropped() const {
  return impl_->dropped.load(std::memory_order_relaxed);
}

std::size_t Journal::capacity_bytes() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->rings.size() * impl_->cap * sizeof(JournalSlot);
}

void Journal::set_enabled(bool enabled) {
  impl_->enabled.store(enabled, std::memory_order_relaxed);
}

bool Journal::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void Journal::set_postmortem_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->dir = std::move(dir);
}

std::string Journal::postmortem_dir() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->dir;
}

std::string Journal::dump_postmortem(const PostmortemInfo& info,
                                     const Registry* metrics) {
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    dir = impl_->dir;
  }
  if (dir.empty()) return std::string();

  const std::vector<JournalRecord> events =
      snapshot(info.last_n == 0 ? 256 : info.last_n);

  std::string json;
  json.reserve(4096 + events.size() * 160);
  json += "{\n  \"reason\": ";
  append_json_string(json, info.reason);
  json += ",\n  \"detail\": ";
  append_json_string(json, info.detail);
  json += ",\n  \"frame\": " + std::to_string(info.frame);
  json += ",\n  \"stage\": " + std::to_string(info.stage);
  json += ",\n  \"tile\": " + std::to_string(info.tile);
  if (!info.design.empty()) {
    json += ",\n  \"design\": ";
    append_json_string(json, info.design);
  }
  if (info.has_fifo) {
    json += ",\n  \"fifo\": {\"array\": ";
    append_json_string(json, info.fifo.array);
    json += ", \"index\": " + std::to_string(info.fifo.fifo);
    json += ", \"depth\": " + std::to_string(info.fifo.depth);
    json += ", \"high_water\": " + std::to_string(info.fifo.high_water);
    json += std::string(", \"word_level\": ") +
            (info.fifo.word_level ? "true" : "false") + "}";
  }
  json += ",\n  \"journal\": {\"recorded\": " + std::to_string(recorded());
  json += ", \"dropped\": " + std::to_string(dropped());
  json += ", \"capacity_bytes\": " + std::to_string(capacity_bytes()) + "}";
  json += ",\n  \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JournalRecord& r = events[i];
    json += i == 0 ? "\n" : ",\n";
    json += "    {\"ts_ns\": " + std::to_string(r.ts_ns);
    json += ", \"kind\": ";
    append_json_string(json, to_string(r.kind));
    json += ", \"thread\": " + std::to_string(r.thread);
    json += ", \"frame\": " + std::to_string(r.frame);
    json += ", \"stage\": " + std::to_string(r.stage);
    json += ", \"tile\": " + std::to_string(r.tile);
    json += ", \"a\": " + std::to_string(r.a);
    json += ", \"b\": " + std::to_string(r.b);
    if (!r.name.empty()) {
      json += ", \"name\": ";
      append_json_string(json, r.name);
    }
    json += "}";
  }
  json += "\n  ]";
  if (metrics != nullptr) {
    json += ",\n  \"metrics\": " + metrics->snapshot().to_json();
  }
  json += "\n}\n";

  ::mkdir(dir.c_str(), 0755);  // best effort; may already exist
  const std::uint64_t seq =
      impl_->dump_seq.fetch_add(1, std::memory_order_relaxed);
  const std::string path =
      dir + "/postmortem-" + info.reason + "-" + std::to_string(seq) + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return std::string();
  out << json;
  out.close();
  if (!out) return std::string();
  return path;
}

Journal& Journal::global() {
  static Journal* const journal = new Journal();  // immortal
  return *journal;
}

}  // namespace nup::obs
