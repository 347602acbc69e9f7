#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/builder.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "pipeline/stage_buffer.hpp"
#include "pipeline/stage_graph.hpp"
#include "poly/int_vec.hpp"
#include "runtime/engine.hpp"
#include "sim/simulator.hpp"

namespace nup::pipeline {

namespace detail {
struct FrameCtx;
}

struct PipelineOptions {
  /// Instance label of the engine (engine.<name>.*, cache.<name>.*) and
  /// edge buffers (pipeline.edge.<name>.<label>.*). Empty uses engine.*,
  /// cache.* and pipeline.edge.<label>.* (one anonymous pipeline).
  std::string name;

  /// The one shared pool has threads_per_stage x stage count workers, any
  /// of which runs any stage's tiles; 0 uses the hardware threads.
  std::size_t threads_per_stage = 0;

  /// Tile queue bound of the engine. It bounds only source-tile admission
  /// (the submitting thread blocks while the queue is full); consumer
  /// tiles released by workers never wait for it and run first.
  std::size_t queue_capacity = 16;

  poly::IntVec tile_shape;       ///< per-stage tiler shape (empty = auto)
  arch::BuildOptions build;      ///< microarchitecture generation options
  std::size_t cache_capacity = 256;  ///< design cache capacity (all stages)
  obs::Registry* metrics = nullptr;  ///< nullptr = obs::Registry::global()
  /// Flight recorder the pipeline (and its engine, edge slab pools)
  /// journals into; nullptr = obs::Journal::global().
  obs::Journal* journal = nullptr;
  sim::SimOptions sim;

  /// Frame-barrier baseline: every consumer tile waits for the producer
  /// frame to finish. Same engine, buffers, and stitching -- only the
  /// dependency structure changes -- so benchmarks compare scheduling
  /// policies, not implementations.
  bool barrier = false;

  /// Cross-frame admission window: how many pipelined frames may be in
  /// flight at once. submit() blocks while the window is full, so a
  /// caller pumping frames in a loop overlaps frame f+1's source tiles
  /// with frame f's drain -- the source stage never idles between frames.
  /// 1 is frame-serial (a frame is admitted only after the previous one
  /// fully resolves); 0 removes the bound (every submitted frame is
  /// admitted immediately -- unbounded buffer occupancy, use with care).
  std::size_t max_frames_in_flight = 4;

  /// Locality policy handed to the pipeline's engine (see
  /// runtime::EngineOptions::numa). When on, each edge's SlabPool is
  /// split into per-node arenas and StageBuffers route slabs through the
  /// producer tile's arena, so inter-stage storage recycles node-locally.
  runtime::NumaMode numa = runtime::NumaMode::kOff;
};

/// Per-submit hooks of one pipelined frame. The empty default reproduces
/// submit(seed) exactly: external inputs stream synthetic data derived
/// from the seed.
struct FrameOptions {
  /// Replaces the off-chip feed of one external (edge-less) stage input:
  /// called per tile from the executing worker thread; a non-null return
  /// is installed instead of the synthetic DRAM. This is how the temporal
  /// runner chains passes -- pass p+1's first replica streams pass p's
  /// sink output instead of fresh synthetic data. Edge-fed inputs are
  /// never offered (their data comes from the stage buffers).
  std::function<std::shared_ptr<sim::ExternalFeed>(
      std::size_t stage, std::size_t input, const runtime::Tile& tile)>
      external_feed;

  /// Causal trace identity of the frame; 0 allocates a fresh process-wide
  /// id (obs::next_frame_id). The temporal runner passes one id through
  /// every pass of an iterative frame so the whole chain renders as a
  /// single flow lane.
  std::uint64_t frame_id = 0;

  /// When true (default) the pipeline owns the frame's trace lane
  /// (async begin/end, flow start/end) and the cancellation post-mortem.
  /// The temporal runner sets false and owns both at frame granularity.
  bool own_frame_events = true;
};

/// Milestones of one stage within a pipelined frame, relative to submit.
struct StageTiming {
  std::int64_t first_tile_us = -1;  ///< first tile resolved ok (-1 = none)
  std::int64_t last_tile_us = -1;   ///< last tile resolved ok
};

/// The assembled result of one pipelined frame.
struct PipelineResult {
  std::uint64_t seed = 0;
  bool cancelled = false;
  std::string error;  ///< first stage error, prefixed with the stage name

  /// Per-stage frame results, in stage-id order. Outputs of stage k are
  /// bit-identical to running the stage alone on its stitched inputs;
  /// sink-stage outputs are the pipeline's results.
  std::vector<runtime::FrameResult> stages;
  std::vector<StageTiming> timing;            ///< per stage
  std::vector<StageBuffer::Occupancy> edges;  ///< per edge, frame totals
  std::int64_t total_us = 0;  ///< submit to last tile resolution

  bool ok() const { return !cancelled && error.empty(); }
};

/// Future of a submitted pipelined frame (cheap shared reference).
class PipelineHandle {
 public:
  PipelineHandle() = default;

  bool valid() const { return ctx_ != nullptr; }

  /// Blocks until every stage resolves, then assembles (once) and returns
  /// the result; never blocks forever (cancellation and executor shutdown
  /// resolve all stages).
  const PipelineResult& wait();

  bool wait_for(std::chrono::milliseconds timeout);
  bool done() const;

  /// Aborts the frame: all stage frames are cancelled and every tile not
  /// yet handed to a worker resolves as skipped. Idempotent.
  void cancel();

 private:
  friend class PipelineExecutor;
  explicit PipelineHandle(std::shared_ptr<detail::FrameCtx> ctx);
  std::shared_ptr<detail::FrameCtx> ctx_;
};

/// Tile-granular dataflow scheduler over a StageGraph: one FrameEngine
/// whose worker pool runs every stage's tiles (all stages' tile designs
/// pinned in its cache), one deferred frame per stage per submitted seed,
/// and a DependencyTracker releasing each consumer tile the moment the
/// producer tiles covering its halo have resolved. Stage k+1 starts
/// consuming while stage k is still producing; inter-stage data moves
/// through bounded StageBuffers that retire producer tiles as soon as
/// their last consumer is served. Stage names must be distinct (plans
/// register in the engine by program name); construction throws otherwise.
///
/// Successive frames pipeline across the same engine: frames are
/// data-independent, so while frame f's sink tiles drain, frame f+1's
/// source tiles already run in whatever workers go idle, up to
/// max_frames_in_flight frames at once (the admission window -- submit()
/// blocks while it is full). Steady state re-arms the live engine over the
/// plans and pinned designs resolved at construction and recycles all
/// inter-stage slab storage through per-edge SlabPools, so pumping frames
/// performs no per-tile heap allocation and no design-cache lookups.
class PipelineExecutor {
 public:
  enum class Drain {
    kDrainAll,       ///< finish every in-flight frame before stopping
    kCancelPending,  ///< abort in-flight frames, then stop
  };

  explicit PipelineExecutor(StageGraph graph, PipelineOptions options = {});
  ~PipelineExecutor();  // shutdown(kCancelPending) if still running

  PipelineExecutor(const PipelineExecutor&) = delete;
  PipelineExecutor& operator=(const PipelineExecutor&) = delete;

  /// Starts one frame: every external input array streams synthetic data
  /// derived from `seed` (exactly as a standalone engine frame would), and
  /// edge-fed inputs stream upstream output. Source-stage tiles are
  /// released immediately; the rest follow their dependencies. Throws
  /// Error after shutdown.
  PipelineHandle submit(std::uint64_t seed);

  /// submit with per-frame hooks (external-input feed override); see
  /// FrameOptions.
  PipelineHandle submit(std::uint64_t seed, FrameOptions frame);

  const StageGraph& graph() const;

  /// The pipeline's one engine, shared by every stage.
  runtime::FrameEngine& engine();

  void shutdown(Drain mode = Drain::kDrainAll);

 private:
  friend class PipelineHandle;
  friend struct detail::FrameCtx;
  struct Impl;
  std::shared_ptr<Impl> impl_;  ///< shared: aborts may outlive shutdown
};

}  // namespace nup::pipeline
