#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <functional>

#include "arch/builder.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "poly/int_vec.hpp"
#include "runtime/design_cache.hpp"
#include "runtime/placement.hpp"
#include "runtime/tiler.hpp"
#include "runtime/topology.hpp"
#include "sim/feed.hpp"
#include "sim/simulator.hpp"
#include "stencil/program.hpp"

namespace nup::runtime {

namespace detail {
struct FrameState;
}

struct EngineOptions {
  /// Instance label. Empty keeps the historical flat metric names
  /// (engine.queue_depth, cache.hits, ...); non-empty namespaces them as
  /// engine.<name>.* / cache.<name>.* so several engines in one process
  /// (one per pipeline, say) publish distinct series instead of
  /// aggregating into one.
  std::string name;

  /// Worker threads; 0 means std::thread::hardware_concurrency (min 1).
  std::size_t threads = 0;

  /// Bound of the tile submission queue. submit() blocks (backpressure)
  /// while the queue is full; workers drain it one tile at a time.
  std::size_t queue_capacity = 64;

  /// Tile extents per dimension; empty selects an automatic shape that
  /// splits outer dimensions into about 4 tiles per worker thread.
  poly::IntVec tile_shape;

  /// Microarchitecture generation options (part of the design-cache key).
  arch::BuildOptions build;

  /// Capacity of the embedded design cache (distinct tile designs).
  std::size_t cache_capacity = 256;

  /// Metrics registry receiving the engine.*, cache.*, sim.* and fifo.*
  /// metrics (see docs/OBSERVABILITY.md); nullptr selects the process-wide
  /// obs::Registry::global().
  obs::Registry* metrics = nullptr;

  /// Flight recorder receiving frame/tile lifecycle events and post-mortem
  /// dumps (see docs/OBSERVABILITY.md); nullptr selects
  /// obs::Journal::global().
  obs::Journal* journal = nullptr;

  /// Base simulator options for tile execution. The engine always runs the
  /// compiled fast backend, overrides the seed per frame and disables
  /// per-tile output recording (outputs are stitched into the frame).
  sim::SimOptions sim;

  /// Locality policy. kOff (default) keeps one run queue and no affinity
  /// pinning -- bit-identical to the pre-locality scheduler. kAuto /
  /// kInterleave discover the host topology (honouring NUP_FAKE_TOPOLOGY),
  /// pin per-node worker pools, and dispatch each tile to its placed
  /// node's queue; idle workers steal cross-node (see docs/RUNTIME.md,
  /// "Locality").
  NumaMode numa = NumaMode::kOff;

  /// Test hook overriding the placement cost model: returns the node
  /// (clamped to [0, node_count)) for a tile. The steal-path regression
  /// uses it to pile every tile onto one node and assert the other nodes'
  /// workers steal. Null uses plan_placement.
  std::function<int(const Tile& tile, std::size_t tile_idx,
                    std::size_t node_count)>
      place_tile;
};

struct FrameResult;

/// Per-frame hooks used by the pipeline executor (src/pipeline); plain
/// submit(program, seed) is the empty default.
struct SubmitOptions {
  /// Replaces the off-chip feed of one chain segment: called once per
  /// (tile, input array, segment) before the tile simulates; a non-null
  /// return is installed via FastSim::set_feed, nullptr keeps the
  /// synthetic DRAM. Called in the executing worker thread.
  std::function<std::shared_ptr<sim::ExternalFeed>(
      const Tile& tile, std::size_t tile_idx, std::size_t array_idx,
      std::size_t segment)>
      feed;

  /// Tile-resolution hook, called in the executing worker thread after the
  /// tile's outputs are stitched into the frame (ok == true) or after the
  /// tile was skipped / failed (ok == false). A tile skipped outside the
  /// workers (skip_tile, or a submit or release_tile cut off by shutdown)
  /// runs the hook in that caller's thread. `outputs` points at the
  /// frame's full output vector; only this tile's output_ranks entries are
  /// safe to read (other tiles may still be written concurrently). It is
  /// nullptr for skipped tiles. It runs before the tile is counted done,
  /// so the frame resolves only after every hook returned.
  std::function<void(std::size_t tile_idx, const double* outputs, bool ok)>
      on_tile;

  /// Frame-resolution hook, called exactly once in the resolving worker
  /// thread after the result is assembled and waiters have been released.
  /// The reference stays valid as long as any FrameHandle to the frame is
  /// alive. The multi-tenant serving layer uses it as its submit-side
  /// completion signal (free an admission slot, update per-tenant SLOs)
  /// without parking a waiter thread per frame. Must not throw.
  std::function<void(const FrameResult&)> on_frame;

  /// When true, submit() registers the frame but enqueues no tiles; the
  /// caller feeds them to the workers one by one with release_tile() as
  /// their dependencies resolve. Every tile must eventually be released
  /// (cancellation included -- released tiles of a cancelled frame resolve
  /// as skipped), or the frame never resolves.
  bool deferred = false;

  /// Pre-resolved per-tile designs, indexed like the plan's tiles. When
  /// set, workers use the entry directly instead of a design-cache lookup
  /// per tile -- the pipeline executor passes the designs it pinned at
  /// construction, so re-arming a frame on a live engine touches no cache
  /// key at all. Null (or short) entries fall back to the cache.
  std::shared_ptr<const std::vector<std::shared_ptr<const CachedDesign>>>
      designs;

  /// Causal identity of the frame across the whole pipeline: journal
  /// events and Perfetto flow events carry it, so one frame's admission,
  /// per-stage tiles and retirement stitch into a single lane. 0 (the
  /// default) allocates a fresh process-wide id (obs::next_frame_id).
  std::uint64_t frame_id = 0;

  /// Pipeline stage index recorded with the frame's journal events; -1
  /// outside a pipeline.
  std::int32_t stage = -1;

  /// When false this frame is one stage of a larger pipelined frame: the
  /// owner (pipeline executor / temporal runner) emits the frame-level
  /// async lane, flow start/end, and post-mortem on cancellation; the
  /// engine then only records per-stage lifecycle and tile events.
  bool own_frame_events = true;
};

/// The assembled result of one frame request.
struct FrameResult {
  std::uint64_t seed = 0;
  /// Kernel outputs in full-frame lexicographic iteration order;
  /// bit-identical to stencil::run_golden(program, seed). Partially filled
  /// when the frame was cancelled or failed.
  std::vector<double> outputs;
  bool cancelled = false;
  std::string error;  ///< non-empty when a tile simulation failed
  std::int64_t tiles_total = 0;
  std::int64_t tiles_executed = 0;
  std::int64_t tiles_skipped = 0;

  bool ok() const { return !cancelled && error.empty(); }
};

/// Future of a submitted frame. Handles are cheap shared references; the
/// result is resolved exactly once, even across cancellation and engine
/// shutdown, so wait() never blocks forever.
class FrameHandle {
 public:
  FrameHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// Blocks until the frame resolves; the reference stays valid for the
  /// lifetime of the handle.
  const FrameResult& wait();

  /// True when the frame resolved within the timeout.
  bool wait_for(std::chrono::milliseconds timeout);

  bool done() const;

  /// Requests cancellation: tiles not yet started are skipped (the tile
  /// currently executing, if any, completes). Idempotent; a frame that
  /// already finished is unaffected.
  void cancel();

 private:
  friend class FrameEngine;
  explicit FrameHandle(std::shared_ptr<detail::FrameState> state);
  std::shared_ptr<detail::FrameState> state_;
};

/// Mutex-consistent snapshot of the engine's activity: the frame counters
/// are read in one critical section (a resolving frame updates them
/// atomically as a group, so completed + cancelled + failed never
/// transiently exceeds submitted), and `cache` is one consistent
/// DesignCache snapshot.
struct EngineStats {
  std::int64_t frames_submitted = 0;
  std::int64_t frames_completed = 0;  ///< resolved ok
  std::int64_t frames_cancelled = 0;
  std::int64_t frames_failed = 0;
  std::int64_t tiles_executed = 0;
  std::int64_t tiles_skipped = 0;
  /// Tiles a worker dequeued from another node's queue (always 0 with
  /// --numa off or on a single-node topology).
  std::int64_t tiles_stolen = 0;
  std::size_t max_queue_depth = 0;
  std::size_t nodes = 1;  ///< scheduling nodes (1 unless numa is on)
  DesignCacheStats cache;
};

/// Multi-threaded tiled serving engine: turns the one-shot compiler into a
/// frame service. A submitted (program, seed) pair is tiled by the halo
/// tiler, each tile's microarchitecture is fetched from the design cache
/// (compiled once, then served from memory), and a fixed pool of workers
/// executes the tiles on the compiled fast simulator backend and stitches
/// the outputs into the frame.
class FrameEngine {
 public:
  enum class Drain {
    kDrainAll,        ///< finish every queued tile before stopping
    kCancelPending,   ///< finish in-flight tiles, cancel queued frames
  };

  explicit FrameEngine(EngineOptions options = {});
  ~FrameEngine();  // shutdown(kCancelPending) if still running

  FrameEngine(const FrameEngine&) = delete;
  FrameEngine& operator=(const FrameEngine&) = delete;

  /// Enqueues one frame. First use of a program tiles it and pre-compiles
  /// every tile design into the cache (in the calling thread); subsequent
  /// frames reuse both. Blocks while the tile queue is full; throws Error
  /// after shutdown.
  FrameHandle submit(const stencil::StencilProgram& program,
                     std::uint64_t seed);

  /// submit with per-frame hooks (custom feeds, tile-resolution callback,
  /// deferred tile release). See SubmitOptions.
  FrameHandle submit(const stencil::StencilProgram& program,
                     std::uint64_t seed, SubmitOptions options);

  /// Re-arms a frame over an already-registered tile plan (as returned by
  /// plan_for): no canonicalization, no plan lookup, no compilation --
  /// the steady-state path for callers that pump many frames of the same
  /// program through a live engine.
  FrameHandle submit(std::shared_ptr<const TilePlan> plan,
                     std::uint64_t seed, SubmitOptions options = {});

  /// Hands one tile of a deferred frame to the workers (see
  /// SubmitOptions::deferred). A call from one of this engine's workers
  /// (an on_tile hook readying a dependent tile) goes to the front of the
  /// queue and never waits: a worker waiting on the queue it drains can
  /// deadlock the pool. Other calls join the back, blocking while the
  /// queue is full. After shutdown the tile resolves as skipped, so a
  /// deferred frame still terminates. Releasing the same tile twice is
  /// the caller's bug; the engine does not dedupe.
  void release_tile(const FrameHandle& frame, std::size_t tile_idx);

  /// Resolves one tile of a deferred frame as skipped without touching the
  /// queue. Never blocks; the cancellation path of a pipeline abort uses
  /// it from any thread. Marks the frame cancelled.
  void skip_tile(const FrameHandle& frame, std::size_t tile_idx);

  /// The embedded design cache (for pinning a pipeline's stage designs).
  DesignCache& cache();

  /// Tile plan the engine uses for this program (registering it if new).
  std::shared_ptr<const TilePlan> plan_for(
      const stencil::StencilProgram& program);

  /// Node topology the engine schedules over. One node with --numa off.
  const Topology& topology() const;

  /// Tile->node placement the engine uses for this plan (computed once per
  /// plan, cached). Null when the engine runs single-node (numa off or a
  /// one-node topology) -- every tile is then on node 0. The pipeline
  /// executor hands the returned map to StageBuffers so edge slabs recycle
  /// through the producer tile's arena.
  std::shared_ptr<const PlacementPlan> placement_for(
      const std::shared_ptr<const TilePlan>& plan);

  /// Stops the workers. kDrainAll completes all queued work first;
  /// kCancelPending resolves queued frames as cancelled after the tiles
  /// already executing finish. Idempotent; submit() fails afterwards.
  void shutdown(Drain mode = Drain::kDrainAll);

  EngineStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nup::runtime
