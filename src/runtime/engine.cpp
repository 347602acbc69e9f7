#include "runtime/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "obs/trace.hpp"
#include "runtime/telemetry.hpp"
#include "sim/fast.hpp"
#include "util/error.hpp"

namespace nup::runtime {

namespace detail {

/// Shared state of one submitted frame. Workers write outputs lock-free at
/// the disjoint ranks the tiler precomputed; the tile countdown
/// (acquire-release) publishes those writes to whichever worker resolves
/// the frame, and the result mutex publishes them to waiters.
struct FrameState {
  std::shared_ptr<const TilePlan> plan;
  /// Tile->node map the engine dispatches this frame with; null when the
  /// engine runs single-node (every tile on node 0).
  std::shared_ptr<const PlacementPlan> placement;
  std::uint64_t seed = 0;
  SubmitOptions options;  ///< per-frame hooks (empty for plain submits)
  std::chrono::steady_clock::time_point submitted_at;

  std::atomic<bool> cancelled{false};
  std::atomic<std::int64_t> remaining{0};
  std::atomic<std::int64_t> executed{0};
  std::atomic<std::int64_t> skipped{0};

  std::mutex mu;
  std::condition_variable cv;
  bool resolved = false;
  FrameResult result;

  std::mutex error_mu;
  std::string error;  // first failure wins

  /// Returns true for the first failure only (its caller owns the
  /// post-mortem dump; later tile failures of the same frame are noise).
  bool fail(const std::string& what) {
    bool first = false;
    {
      std::lock_guard<std::mutex> lock(error_mu);
      if (error.empty()) {
        error = what;
        first = true;
      }
    }
    cancelled.store(true, std::memory_order_relaxed);  // skip the rest
    return first;
  }
};

}  // namespace detail

using detail::FrameState;

// ---- FrameHandle -------------------------------------------------------

FrameHandle::FrameHandle(std::shared_ptr<FrameState> state)
    : state_(std::move(state)) {}

const FrameResult& FrameHandle::wait() {
  if (!state_) throw Error("FrameHandle::wait on an empty handle");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->resolved; });
  return state_->result;
}

bool FrameHandle::wait_for(std::chrono::milliseconds timeout) {
  if (!state_) throw Error("FrameHandle::wait_for on an empty handle");
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, timeout,
                             [&] { return state_->resolved; });
}

bool FrameHandle::done() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->resolved;
}

void FrameHandle::cancel() {
  if (state_) state_->cancelled.store(true, std::memory_order_relaxed);
}

// ---- FrameEngine -------------------------------------------------------

namespace {

struct Job {
  std::shared_ptr<FrameState> frame;
  std::size_t tile = 0;
};

/// Kernel-visible thread name ("nup-w<node>.<i>", 15-char limit) so
/// traces, postmortem bundles and TSan reports attribute work to the
/// right pool.
void set_os_thread_name(const std::string& name) {
#if defined(__linux__)
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
#else
  (void)name;
#endif
}

/// Pins the calling worker to its node's CPU set. Best-effort: an empty
/// set or a failing syscall (containers often mask CPUs) leaves the
/// thread unpinned rather than failing the engine.
void pin_to_cpus(const std::vector<int>& cpus) {
#if defined(__linux__)
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) {
    if (c >= 0 && c < CPU_SETSIZE) CPU_SET(c, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpus;
#endif
}

std::int64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Default tile shape: split outer dimensions until there are about four
/// tiles per worker (load balance without drowning in halo), keeping the
/// innermost dimension whole so the reuse FIFOs keep their row-buffer
/// shape and tiles stay wide enough to pipeline.
poly::IntVec auto_tile_shape(const stencil::StencilProgram& program,
                             std::size_t threads) {
  poly::IntVec lo, hi;
  domain_bounding_box(program.iteration(), &lo, &hi);
  const std::size_t dim = program.dim();
  poly::IntVec extent(dim), shape(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    extent[d] = hi[d] - lo[d] + 1;
    shape[d] = extent[d];
  }
  const std::size_t splittable = dim > 1 ? dim - 1 : dim;
  const std::int64_t target =
      4 * static_cast<std::int64_t>(std::max<std::size_t>(threads, 1));
  const auto tile_count = [&] {
    std::int64_t n = 1;
    for (std::size_t d = 0; d < dim; ++d) {
      n *= (extent[d] + shape[d] - 1) / shape[d];
    }
    return n;
  };
  while (tile_count() < target) {
    std::size_t best = dim;  // largest outer dim still worth halving
    for (std::size_t d = 0; d < splittable; ++d) {
      if (shape[d] >= 8 && (best == dim || shape[d] > shape[best])) best = d;
    }
    if (best == dim) break;
    shape[best] = (shape[best] + 1) / 2;
  }
  return shape;
}

/// Worker->node assignment: weighted round-robin by node CPU count, so a
/// node with twice the CPUs gets about twice the workers (plain
/// round-robin on a symmetric topology). With fewer threads than nodes
/// some nodes get no worker; their tiles still run, via steals.
std::vector<std::size_t> worker_nodes(std::size_t threads,
                                      const Topology& topo) {
  const std::size_t nodes = topo.node_count();
  std::vector<std::size_t> out;
  out.reserve(threads);
  if (nodes <= 1) {
    out.assign(threads, 0);
    return out;
  }
  const double total =
      static_cast<double>(std::max<std::size_t>(topo.cpu_count(), 1));
  std::vector<double> share(nodes), got(nodes, 0.0);
  for (std::size_t n = 0; n < nodes; ++n) {
    share[n] =
        std::max<double>(static_cast<double>(topo.node(n).cpus.size()), 0.5) /
        total;
  }
  for (std::size_t i = 0; i < threads; ++i) {
    std::size_t best = 0;
    double best_lag = -1.0;
    for (std::size_t n = 0; n < nodes; ++n) {
      const double lag = share[n] * static_cast<double>(i + 1) - got[n];
      if (lag > best_lag) {
        best_lag = lag;
        best = n;
      }
    }
    out.push_back(best);
    got[best] += 1.0;
  }
  return out;
}

/// Engine whose worker loop runs on this thread (null on other threads).
thread_local const void* tls_worker_of = nullptr;

}  // namespace

struct FrameEngine::Impl {
  EngineOptions options;
  std::string prefix;  ///< "engine." or "engine.<name>." (metric namespace)
  std::size_t thread_count = 1;
  obs::Registry* registry = nullptr;
  obs::Journal* journal = nullptr;
  std::uint32_t jname = 0;  ///< this engine's interned journal name
  obs::Tracer& tracer = obs::Tracer::global();
  /// Trace event names, interned once.
  struct TraceNames {
    obs::TraceName tile, tile_skipped, queue_depth, frame, frame_completed,
        frame_failed, frame_cancelled;
  } tn;
  DesignCache cache;

  /// Scheduling topology: exactly one node with --numa off (the queues
  /// vector then degenerates to the historical single run queue), the
  /// discovered (or NUP_FAKE_TOPOLOGY-simulated) layout otherwise.
  Topology topo;

  mutable std::mutex qmu;
  std::condition_variable not_empty;  // workers wait for jobs
  std::condition_variable not_full;   // submitters wait for space
  /// One run queue per node; a tile is enqueued on its placed node and
  /// stolen cross-node only by idle workers. Each queue is bounded by
  /// options.queue_capacity.
  std::vector<std::deque<Job>> queues;
  bool accepting = true;
  bool stopping = false;
  std::size_t max_queue_depth = 0;

  std::mutex plans_mu;
  std::unordered_map<std::string, std::shared_ptr<const TilePlan>> plans;
  /// Placement per registered plan (keyed by plan identity; computed once,
  /// shared with the pipeline executor via placement_for).
  std::unordered_map<const TilePlan*, std::shared_ptr<const PlacementPlan>>
      placements;

  std::mutex join_mu;  // serializes shutdown calls
  std::vector<std::thread> workers;

  /// Frame/tile counters behind one mutex: stats() reads them as a group,
  /// so a frame resolving concurrently never yields a snapshot where
  /// completed + cancelled + failed exceeds submitted. (Lock ordering:
  /// stats_mu is a leaf -- never acquired while holding qmu, and nothing
  /// is acquired while holding it.)
  mutable std::mutex stats_mu;
  struct Counts {
    std::int64_t frames_submitted = 0;
    std::int64_t frames_completed = 0;
    std::int64_t frames_cancelled = 0;
    std::int64_t frames_failed = 0;
    std::int64_t tiles_executed = 0;
    std::int64_t tiles_skipped = 0;
    std::int64_t tiles_stolen = 0;
  } counts;

  /// Dispatch totals feeding the placement.local_fraction gauge (relaxed:
  /// the gauge is a monitoring ratio, not a synchronization point).
  std::atomic<std::int64_t> dispatched{0};
  std::atomic<std::int64_t> stolen{0};

  // Registry metrics (pointers stay valid across Registry::reset()).
  obs::Gauge* m_queue_depth = nullptr;
  obs::Gauge* m_queue_depth_max = nullptr;
  obs::Histogram* m_backpressure_us = nullptr;
  obs::Histogram* m_tile_latency_us = nullptr;
  obs::Histogram* m_frame_latency_us = nullptr;
  obs::Counter* m_tiles_executed = nullptr;
  obs::Counter* m_tiles_skipped = nullptr;
  obs::Counter* m_frames_submitted = nullptr;
  obs::Counter* m_frames_completed = nullptr;
  obs::Counter* m_frames_cancelled = nullptr;
  obs::Counter* m_frames_failed = nullptr;
  // Per-node dispatch series (engine.node.<n>.*) plus the locality ratio.
  // The gauge is int64, so the fraction is published in permille
  // (0..1000); see docs/OBSERVABILITY.md.
  std::vector<obs::Counter*> m_node_tiles;
  std::vector<obs::Counter*> m_node_steals;
  std::vector<obs::Counter*> m_node_remote_bytes;
  obs::Gauge* m_local_fraction = nullptr;

  explicit Impl(EngineOptions opts)
      : options(std::move(opts)),
        prefix(options.name.empty() ? std::string("engine.")
                                    : "engine." + options.name + "."),
        registry(options.metrics ? options.metrics
                                 : &obs::Registry::global()),
        journal(options.journal ? options.journal
                                : &obs::Journal::global()),
        cache(options.cache_capacity, registry, options.name) {
    topo = options.numa == NumaMode::kOff ? Topology::single_node()
                                          : Topology::discover();
    queues.resize(topo.node_count());
    jname = journal->intern(options.name.empty() ? "engine" : options.name);
    tn.tile = tracer.intern("tile", "engine");
    tn.tile_skipped = tracer.intern("tile.skipped", "engine");
    tn.queue_depth = tracer.intern(prefix + "queue_depth", "counter");
    tn.frame = tracer.intern("frame", "frame");
    tn.frame_completed = tracer.intern("frame.completed", "engine");
    tn.frame_failed = tracer.intern("frame.failed", "engine");
    tn.frame_cancelled = tracer.intern("frame.cancelled", "engine");
    m_queue_depth = &registry->gauge(prefix + "queue_depth");
    m_queue_depth_max = &registry->gauge(prefix + "queue_depth_max");
    m_backpressure_us = &registry->histogram(prefix + "backpressure_wait_us");
    m_tile_latency_us = &registry->histogram(prefix + "tile_latency_us");
    m_frame_latency_us = &registry->histogram(prefix + "frame_latency_us");
    m_tiles_executed = &registry->counter(prefix + "tiles_executed");
    m_tiles_skipped = &registry->counter(prefix + "tiles_skipped");
    m_frames_submitted = &registry->counter(prefix + "frames_submitted");
    m_frames_completed = &registry->counter(prefix + "frames_completed");
    m_frames_cancelled = &registry->counter(prefix + "frames_cancelled");
    m_frames_failed = &registry->counter(prefix + "frames_failed");
    for (std::size_t n = 0; n < topo.node_count(); ++n) {
      const std::string npfx = prefix + "node." + std::to_string(n) + ".";
      m_node_tiles.push_back(&registry->counter(npfx + "tiles"));
      m_node_steals.push_back(&registry->counter(npfx + "steals"));
      m_node_remote_bytes.push_back(&registry->counter(npfx + "remote_bytes"));
    }
    m_local_fraction =
        &registry->gauge(prefix + "placement.local_fraction");
    m_local_fraction->set(1000);  // no dispatches yet == fully local
  }

  /// Sum of all node queues; call under qmu.
  std::size_t total_depth_locked() const {
    std::size_t depth = 0;
    for (const std::deque<Job>& q : queues) depth += q.size();
    return depth;
  }

  /// Tile->node placement for a registered plan; computed once per plan.
  /// Null when the engine schedules a single node (numa off / one-node
  /// host): the placement is then trivially "everything on node 0".
  std::shared_ptr<const PlacementPlan> placement_for(
      const std::shared_ptr<const TilePlan>& plan) {
    if (!plan || topo.node_count() <= 1 ||
        options.numa == NumaMode::kOff) {
      return nullptr;
    }
    std::lock_guard<std::mutex> lock(plans_mu);
    const auto found = placements.find(plan.get());
    if (found != placements.end()) return found->second;
    std::shared_ptr<const PlacementPlan> placement;
    if (options.place_tile) {
      auto p = std::make_shared<PlacementPlan>();
      p->node_of.resize(plan->tiles.size());
      p->node_bytes.assign(topo.node_count(), 0);
      for (std::size_t t = 0; t < plan->tiles.size(); ++t) {
        int n = options.place_tile(plan->tiles[t], t, topo.node_count());
        n = std::clamp(n, 0, static_cast<int>(topo.node_count()) - 1);
        p->node_of[t] = n;
        p->node_bytes[n] +=
            std::max<std::int64_t>(plan->tiles[t].streamed_elements * 8, 1);
      }
      placement = std::move(p);
    } else {
      placement = std::make_shared<const PlacementPlan>(
          plan_placement(*plan, topo.node_count(), options.numa));
    }
    placements.emplace(plan.get(), placement);
    return placement;
  }

  /// Records one dispatched tile for the locality series: `node` is the
  /// executing worker's node, `stolen_job` whether the tile came off
  /// another node's queue.
  void note_dispatch(std::size_t node, bool stolen_job,
                     std::int64_t streamed_bytes) {
    m_node_tiles[node]->inc();
    if (stolen_job) {
      m_node_steals[node]->inc();
      m_node_remote_bytes[node]->add(streamed_bytes);
      stolen.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(stats_mu);
        ++counts.tiles_stolen;
      }
    }
    const std::int64_t total =
        dispatched.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::int64_t remote = stolen.load(std::memory_order_relaxed);
    m_local_fraction->set(1000 * (total - remote) / total);
  }

  /// Sets the live queue-depth gauge and mirrors it as a Chrome counter
  /// track; call with the size observed under qmu (after a push or pop).
  void note_queue_depth(std::size_t depth) {
    m_queue_depth->set(static_cast<std::int64_t>(depth));
    m_queue_depth_max->update_max(static_cast<std::int64_t>(depth));
    tracer.counter(tn.queue_depth, static_cast<std::int64_t>(depth));
  }

  void resolve(FrameState& frame) {
    {
      std::lock_guard<std::mutex> lock(frame.error_mu);
      frame.result.error = frame.error;
    }
    frame.result.cancelled =
        frame.result.error.empty() &&
        frame.cancelled.load(std::memory_order_relaxed);
    frame.result.tiles_executed =
        frame.executed.load(std::memory_order_relaxed);
    frame.result.tiles_skipped =
        frame.skipped.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(stats_mu);
      if (!frame.result.error.empty()) {
        ++counts.frames_failed;
      } else if (frame.result.cancelled) {
        ++counts.frames_cancelled;
      } else {
        ++counts.frames_completed;
      }
    }
    if (!frame.result.error.empty()) {
      m_frames_failed->inc();
    } else if (frame.result.cancelled) {
      m_frames_cancelled->inc();
    } else {
      m_frames_completed->inc();
    }
    const std::int64_t frame_us = elapsed_us(frame.submitted_at);
    m_frame_latency_us->observe(frame_us);
    journal->record(!frame.result.error.empty()
                        ? obs::JournalKind::kFrameFailed
                    : frame.result.cancelled
                        ? obs::JournalKind::kFrameCancelled
                        : obs::JournalKind::kFrameCompleted,
                    frame.options.frame_id, frame.options.stage, -1,
                    frame_us, 0, jname);
    tracer.instant(!frame.result.error.empty() ? tn.frame_failed
                   : frame.result.cancelled        ? tn.frame_cancelled
                                                   : tn.frame_completed);
    if (frame.options.own_frame_events) {
      tracer.flow_end(tn.frame, frame.options.frame_id);
      tracer.async_end(tn.frame, frame.options.frame_id);
    }
    if (frame.result.cancelled && frame.options.own_frame_events) {
      // Failure post-mortems are dumped at the failing tile (where the
      // design and FIFO detail live); cancellation has no tile, so the
      // frame's owner dumps it here.
      obs::PostmortemInfo pm;
      pm.reason = "frame_cancelled";
      pm.detail = "frame " + std::to_string(frame.options.frame_id) +
                  " cancelled after " +
                  std::to_string(frame.result.tiles_executed) + " of " +
                  std::to_string(frame.result.tiles_total) + " tiles";
      pm.frame = frame.options.frame_id;
      pm.stage = frame.options.stage;
      journal->dump_postmortem(pm, registry);
    }
    {
      std::lock_guard<std::mutex> lock(frame.mu);
      frame.resolved = true;
    }
    frame.cv.notify_all();
    if (frame.options.on_frame) frame.options.on_frame(frame.result);
  }

  /// Counts one tile down; the worker that brings the count to zero
  /// resolves the frame (acquire pairs with every other worker's release,
  /// so all stitched outputs are visible).
  void finish_tiles(FrameState& frame, std::int64_t n) {
    if (frame.remaining.fetch_sub(n, std::memory_order_acq_rel) == n) {
      resolve(frame);
    }
  }

  /// Trace args naming one tile of a frame; interns the tile's program
  /// name only while tracing.
  obs::TraceArgs tile_args(const FrameState& frame, std::size_t tile_idx) {
    obs::TraceArgs args;
    args.tile = static_cast<std::int64_t>(tile_idx);
    if (tracer.enabled()) {
      args.program =
          tracer.intern(frame.plan->tiles[tile_idx].program->name());
    }
    return args;
  }

  /// Resolves tiles [first, first + n) of a frame as skipped (cancelled,
  /// aborted, or cut off by shutdown): counts, a journal event, a
  /// `tile.skipped` instant and the on_tile hook per tile, then the
  /// countdown that may resolve the frame. A trace of a cancelled frame
  /// thereby accounts for every tile: a `tile` span or a skip instant.
  void skip_tiles(FrameState& frame, std::size_t first, std::size_t n) {
    const auto count = static_cast<std::int64_t>(n);
    frame.cancelled.store(true, std::memory_order_relaxed);
    frame.skipped.fetch_add(count, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(stats_mu);
      counts.tiles_skipped += count;
    }
    m_tiles_skipped->add(count);
    for (std::size_t t = first; t < first + n; ++t) {
      journal->record(obs::JournalKind::kTileSkipped, frame.options.frame_id,
                      frame.options.stage, static_cast<std::int64_t>(t), 0,
                      0, jname);
      tracer.instant(tn.tile_skipped, tile_args(frame, t));
      if (frame.options.on_tile) frame.options.on_tile(t, nullptr, false);
    }
    finish_tiles(frame, count);
  }

  /// Dumps the failing tile's post-mortem bundle (the first failure of a
  /// frame owns it), with the offending design and FIFO when known.
  void dump_tile_postmortem(const FrameState& frame, std::size_t tile_idx,
                            const char* reason, const std::string& detail,
                            const arch::AcceleratorDesign* design = nullptr,
                            const obs::FifoDetail* fifo = nullptr) {
    obs::PostmortemInfo pm;
    pm.reason = reason;
    pm.detail = detail;
    pm.frame = frame.options.frame_id;
    pm.stage = frame.options.stage;
    pm.tile = static_cast<std::int64_t>(tile_idx);
    if (design != nullptr) pm.design = arch::describe(*design);
    if (fifo != nullptr) {
      pm.has_fifo = true;
      pm.fifo = *fifo;
    }
    journal->dump_postmortem(pm, registry);
  }

  /// Executes one tile, or skips it when its frame is cancelled, then
  /// counts it down.
  void run_tile(FrameState& frame, const Tile& tile, std::size_t tile_idx,
                obs::Counter& worker_busy_us, obs::Counter& worker_tiles) {
    if (frame.cancelled.load(std::memory_order_relaxed)) {
      skip_tiles(frame, tile_idx, 1);
      return;
    }
    frame.executed.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(stats_mu);
      ++counts.tiles_executed;
    }
    m_tiles_executed->inc();

    // RAII span: closes on every exit path (including a tile that throws),
    // so cancelled or failed frames never leave a dangling span.
    obs::Span span(tracer, tn.tile, tile_args(frame, tile_idx));
    const auto t0 = std::chrono::steady_clock::now();
    bool ok = true;
    try {
      // Steady-state path: a pre-resolved design (pinned by the pipeline
      // executor at construction) skips the cache lookup entirely.
      std::shared_ptr<const CachedDesign> entry;
      if (frame.options.designs &&
          tile_idx < frame.options.designs->size()) {
        entry = (*frame.options.designs)[tile_idx];
      }
      if (!entry) {
        entry = cache.get_or_compile(*tile.program, options.build);
      }
      sim::SimOptions so = options.sim;
      so.backend = sim::SimBackend::kFast;
      so.seed = frame.seed;
      so.record_outputs = false;
      so.trace_cycles = 0;
      sim::FastSim sim(*tile.program, entry->design, entry->plan, so);
      if (frame.options.feed) {
        for (std::size_t a = 0; a < entry->design.systems.size(); ++a) {
          const std::size_t segments =
              entry->design.systems[a].stream_count();
          for (std::size_t s = 0; s < segments; ++s) {
            if (std::shared_ptr<sim::ExternalFeed> feed =
                    frame.options.feed(tile, tile_idx, a, s)) {
              sim.set_feed(a, s, std::move(feed));
            }
          }
        }
      }
      sim.set_output_ranks(frame.result.outputs.data(),
                           tile.output_ranks.data());
      const sim::SimResult r = sim.run();
      // Emitted while the tile span is open, so the frame's flow arrow
      // binds to this tile slice in Perfetto.
      tracer.flow_step(tn.frame, frame.options.frame_id);
      obs::FifoDetail violation;
      const int violations =
          publish_sim_telemetry(*registry, entry->design, r, &violation);
      // The first failing tile owns the frame's post-mortem: it records
      // the verdict event (so the bundle's log names frame, stage, tile
      // and FIFO) and dumps the bundle with the offending design's
      // describe() while both are still in hand.
      if (r.deadlocked) {
        ok = false;
        const std::string what = tile.program->name() + " deadlocked: " +
                                 r.deadlock_detail;
        if (frame.fail(what)) {
          journal->record(obs::JournalKind::kDeadlock,
                          frame.options.frame_id, frame.options.stage,
                          static_cast<std::int64_t>(tile_idx), r.cycles, 0,
                          jname);
          dump_tile_postmortem(frame, tile_idx, "deadlock", what,
                               &entry->design);
        }
      } else if (r.kernel_fires != tile.outputs()) {
        ok = false;
        const std::string what =
            tile.program->name() + " produced " +
            std::to_string(r.kernel_fires) + " of " +
            std::to_string(tile.outputs()) + " outputs";
        if (frame.fail(what)) {
          dump_tile_postmortem(frame, tile_idx, "frame_failed", what,
                               &entry->design);
        }
      } else if (violations > 0) {
        ok = false;
        const std::string what = tile.program->name() + ": " +
                                 std::to_string(violations) +
                                 " FIFO(s) exceeded their designed depth";
        if (frame.fail(what)) {
          journal->record(obs::JournalKind::kDepthViolation,
                          frame.options.frame_id, frame.options.stage,
                          static_cast<std::int64_t>(tile_idx),
                          violation.high_water, violation.depth, jname);
          dump_tile_postmortem(frame, tile_idx, "depth_violation", what,
                               &entry->design, &violation);
        }
      }
    } catch (const std::exception& e) {
      ok = false;
      const std::string what = tile.program->name() + ": " + e.what();
      if (frame.fail(what)) {
        dump_tile_postmortem(frame, tile_idx, "frame_failed", what);
      }
    }
    const std::int64_t us = elapsed_us(t0);
    m_tile_latency_us->observe(us);
    worker_busy_us.add(us);
    worker_tiles.inc();
    journal->record(obs::JournalKind::kTileExecuted, frame.options.frame_id,
                    frame.options.stage,
                    static_cast<std::int64_t>(tile_idx), us,
                    ok ? 1 : 0, jname);
    if (frame.options.on_tile) {
      frame.options.on_tile(tile_idx,
                            ok ? frame.result.outputs.data() : nullptr, ok);
    }
    // The tile's span is recorded before the countdown can resolve the
    // frame and wake its waiter.
    span.end();
    finish_tiles(frame, 1);
  }

  void worker_loop(std::size_t worker, std::size_t node,
                   std::size_t node_slot) {
    set_os_thread_name("nup-w" + std::to_string(node) + "." +
                       std::to_string(node_slot));
    tracer.set_thread_name(
        (options.name.empty() ? std::string() : options.name + ".") +
        "worker-" + std::to_string(worker));
    if (options.numa != NumaMode::kOff) pin_to_cpus(topo.node(node).cpus);
    tls_worker_of = this;
    obs::Counter& busy_us = registry->counter(
        prefix + "worker." + std::to_string(worker) + ".busy_us");
    obs::Counter& worker_tiles = registry->counter(
        prefix + "worker." + std::to_string(worker) + ".tiles");
    const std::size_t nodes = queues.size();
    for (;;) {
      Job job;
      bool stolen_job = false;
      std::size_t depth = 0;
      {
        std::unique_lock<std::mutex> lock(qmu);
        not_empty.wait(lock,
                       [&] { return total_depth_locked() != 0 || stopping; });
        // Sticky dispatch: drain the own node's queue first (FIFO, like
        // the historical single queue) ...
        std::size_t src = node;
        if (queues[node].empty()) {
          // ... and only an idle worker scans the other nodes, starting
          // after its own so steal pressure spreads instead of all
          // landing on node 0.
          for (std::size_t k = 1; k < nodes; ++k) {
            const std::size_t cand = (node + k) % nodes;
            if (!queues[cand].empty()) {
              src = cand;
              break;
            }
          }
          if (queues[src].empty()) return;  // stopping and drained
        }
        if (src == node) {
          job = std::move(queues[src].front());
          queues[src].pop_front();
        } else {
          // Steal from the back: the owner keeps its FIFO front, the
          // thief takes the tile that would have waited longest.
          job = std::move(queues[src].back());
          queues[src].pop_back();
          stolen_job = true;
        }
        depth = total_depth_locked();
      }
      note_queue_depth(depth);
      not_full.notify_all();
      const Tile& tile = job.frame->plan->tiles[job.tile];
      note_dispatch(node, stolen_job, tile.streamed_elements * 8);
      run_tile(*job.frame, tile, job.tile, busy_us, worker_tiles);
    }
  }

  /// Enqueues one tile on its placed node's queue: at the back, blocking
  /// while that queue is full (backpressure), or `from_worker` at the
  /// front without waiting (see release_tile). Returns false when shutdown
  /// raced the push. Observes the backpressure wait and notifies a worker.
  bool push_job(Job job, std::size_t node, bool from_worker = false) {
    std::size_t depth = 0;
    const auto w0 = std::chrono::steady_clock::now();
    {
      std::unique_lock<std::mutex> lock(qmu);
      not_full.wait(lock, [&] {
        return from_worker ||
               queues[node].size() < options.queue_capacity || !accepting;
      });
      if (!accepting) return false;
      std::deque<Job>& queue = queues[node];
      queue.insert(from_worker ? queue.begin() : queue.end(), std::move(job));
      const std::size_t total = total_depth_locked();
      max_queue_depth = std::max(max_queue_depth, total);
      depth = total;
    }
    m_backpressure_us->observe(elapsed_us(w0));
    note_queue_depth(depth);
    not_empty.notify_one();
    return true;
  }

  /// Node a tile of this frame is placed on (0 when single-node).
  std::size_t node_of(const FrameState& frame, std::size_t tile_idx) const {
    if (!frame.placement || tile_idx >= frame.placement->node_of.size()) {
      return 0;
    }
    return static_cast<std::size_t>(frame.placement->node_of[tile_idx]);
  }
};

FrameEngine::FrameEngine(EngineOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {
  Impl& im = *impl_;
  im.thread_count =
      im.options.threads != 0
          ? im.options.threads
          : std::max(1u, std::thread::hardware_concurrency());
  if (im.options.queue_capacity == 0) im.options.queue_capacity = 1;
  im.workers.reserve(im.thread_count);
  const std::vector<std::size_t> nodes =
      worker_nodes(im.thread_count, im.topo);
  std::vector<std::size_t> slots(im.topo.node_count(), 0);
  for (std::size_t t = 0; t < im.thread_count; ++t) {
    const std::size_t node = nodes[t];
    const std::size_t slot = slots[node]++;
    im.workers.emplace_back(
        [&im, t, node, slot] { im.worker_loop(t, node, slot); });
  }
}

FrameEngine::~FrameEngine() { shutdown(Drain::kCancelPending); }

std::shared_ptr<const TilePlan> FrameEngine::plan_for(
    const stencil::StencilProgram& program) {
  Impl& im = *impl_;
  TilerOptions topts;
  topts.tile_shape = im.options.tile_shape.empty()
                         ? auto_tile_shape(program, im.thread_count)
                         : im.options.tile_shape;
  // Unlike the design cache, plans must NOT be shared across programs
  // that differ only in kernel: plan_tiles embeds the kernel in every
  // tile's program, so two same-shaped stencils with different kernels
  // (jacobi vs denoise) need distinct plans. The name stands in for the
  // kernel identity (a std::function has none).
  std::string key = program.name() + "|";
  key += DesignCache::canonical_key(program, im.options.build);
  key += "|tile=";
  for (const std::int64_t s : topts.tile_shape) {
    key += std::to_string(s) + ",";
  }

  std::lock_guard<std::mutex> lock(im.plans_mu);
  const auto found = im.plans.find(key);
  if (found != im.plans.end()) return found->second;
  auto plan = std::make_shared<const TilePlan>(plan_tiles(program, topts));
  // Pre-compile every tile design now, in the submitting thread: workers
  // then run on cache hits and the first frame costs the same as the rest.
  for (const Tile& tile : plan->tiles) {
    im.cache.get_or_compile(*tile.program, im.options.build);
  }
  im.plans.emplace(std::move(key), plan);
  return plan;
}

FrameHandle FrameEngine::submit(const stencil::StencilProgram& program,
                                std::uint64_t seed) {
  return submit(program, seed, SubmitOptions{});
}

FrameHandle FrameEngine::submit(const stencil::StencilProgram& program,
                                std::uint64_t seed, SubmitOptions options) {
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.qmu);
    if (!im.accepting) throw Error("FrameEngine::submit after shutdown");
  }
  return submit(plan_for(program), seed, std::move(options));
}

FrameHandle FrameEngine::submit(std::shared_ptr<const TilePlan> plan,
                                std::uint64_t seed, SubmitOptions options) {
  Impl& im = *impl_;
  if (!plan) throw Error("FrameEngine::submit: null tile plan");
  {
    std::lock_guard<std::mutex> lock(im.qmu);
    if (!im.accepting) throw Error("FrameEngine::submit after shutdown");
  }

  auto frame = std::make_shared<FrameState>();
  frame->plan = plan;
  frame->placement = im.placement_for(plan);
  frame->seed = seed;
  frame->options = std::move(options);
  if (frame->options.frame_id == 0) {
    frame->options.frame_id = obs::next_frame_id();
  }
  frame->submitted_at = std::chrono::steady_clock::now();
  frame->result.seed = seed;
  frame->result.tiles_total =
      static_cast<std::int64_t>(plan->tiles.size());
  frame->result.outputs.assign(
      static_cast<std::size_t>(plan->total_outputs), 0.0);
  frame->remaining.store(static_cast<std::int64_t>(plan->tiles.size()),
                         std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(im.stats_mu);
    ++im.counts.frames_submitted;
  }
  im.m_frames_submitted->inc();
  im.journal->record(obs::JournalKind::kFrameAdmitted,
                     frame->options.frame_id, frame->options.stage, -1, 0,
                     static_cast<std::int64_t>(plan->tiles.size()),
                     im.jname);
  if (frame->options.own_frame_events) {
    im.tracer.async_begin(im.tn.frame, frame->options.frame_id, seed);
    im.tracer.flow_start(im.tn.frame, frame->options.frame_id);
  }
  if (frame->options.deferred) {
    // The caller releases tiles itself (release_tile) as dependencies
    // resolve; nothing is enqueued here.
    return FrameHandle(frame);
  }

  std::size_t pushed = 0;
  for (std::size_t t = 0; t < plan->tiles.size(); ++t) {
    // Sticky dispatch: the tile lands on its placed node's queue.
    // push_job blocks while that queue is full (backpressure, observed in
    // the histogram on every push so it stays a wait distribution) and
    // fails only when shutdown raced this submission.
    if (!im.push_job(Job{frame, t}, im.node_of(*frame, t))) break;
    ++pushed;
  }
  if (pushed < plan->tiles.size()) {
    im.skip_tiles(*frame, pushed, plan->tiles.size() - pushed);
  }
  return FrameHandle(frame);
}

void FrameEngine::release_tile(const FrameHandle& frame,
                               std::size_t tile_idx) {
  Impl& im = *impl_;
  if (!frame.state_) {
    throw Error("FrameEngine::release_tile on an empty handle");
  }
  FrameState& state = *frame.state_;
  if (tile_idx >= state.plan->tiles.size()) {
    throw Error("FrameEngine::release_tile: tile " +
                std::to_string(tile_idx) + " out of range");
  }

  if (im.push_job(Job{frame.state_, tile_idx}, im.node_of(state, tile_idx),
                  /*from_worker=*/tls_worker_of == &im)) {
    return;
  }

  // Shutdown raced the release: the tile resolves as skipped so the
  // deferred frame still terminates (mirrors submit()'s truncation path).
  im.skip_tiles(state, tile_idx, 1);
}

void FrameEngine::skip_tile(const FrameHandle& frame,
                            std::size_t tile_idx) {
  Impl& im = *impl_;
  if (!frame.state_) {
    throw Error("FrameEngine::skip_tile on an empty handle");
  }
  FrameState& state = *frame.state_;
  if (tile_idx >= state.plan->tiles.size()) {
    throw Error("FrameEngine::skip_tile: tile " + std::to_string(tile_idx) +
                " out of range");
  }
  im.skip_tiles(state, tile_idx, 1);
}

DesignCache& FrameEngine::cache() { return impl_->cache; }

const Topology& FrameEngine::topology() const { return impl_->topo; }

std::shared_ptr<const PlacementPlan> FrameEngine::placement_for(
    const std::shared_ptr<const TilePlan>& plan) {
  return impl_->placement_for(plan);
}

void FrameEngine::shutdown(Drain mode) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> join_lock(im.join_mu);
  {
    std::lock_guard<std::mutex> lock(im.qmu);
    im.accepting = false;
    if (mode == Drain::kCancelPending) {
      for (const std::deque<Job>& queue : im.queues) {
        for (const Job& job : queue) {
          job.frame->cancelled.store(true, std::memory_order_relaxed);
        }
      }
    }
    im.stopping = true;
  }
  im.not_empty.notify_all();
  im.not_full.notify_all();
  for (std::thread& worker : im.workers) {
    if (worker.joinable()) worker.join();
  }
  im.workers.clear();
}

EngineStats FrameEngine::stats() const {
  const Impl& im = *impl_;
  EngineStats s;
  {
    std::lock_guard<std::mutex> lock(im.stats_mu);
    s.frames_submitted = im.counts.frames_submitted;
    s.frames_completed = im.counts.frames_completed;
    s.frames_cancelled = im.counts.frames_cancelled;
    s.frames_failed = im.counts.frames_failed;
    s.tiles_executed = im.counts.tiles_executed;
    s.tiles_skipped = im.counts.tiles_skipped;
    s.tiles_stolen = im.counts.tiles_stolen;
  }
  s.nodes = im.topo.node_count();
  {
    std::lock_guard<std::mutex> lock(im.qmu);
    s.max_queue_depth = im.max_queue_depth;
  }
  s.cache = im.cache.stats();
  return s;
}

}  // namespace nup::runtime
