// PipelineExecutor end-to-end: tile-granular pipelined execution of stage
// chains must be bit-identical to (a) sequential stage-at-a-time golden
// execution and (b) a monolithically fused program, across gallery chains,
// fifty random fusible pairs, degenerate tile shapes, and the barrier
// baseline; cancellation and shutdown must never hang; stage buffers must
// retire slabs instead of holding whole frames.

#include "pipeline/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/stage_graph.hpp"
#include "stencil/fuse.hpp"
#include "stencil/gallery.hpp"
#include "stencil/golden.hpp"
#include "util/error.hpp"
#include "testing/stencil_gen.hpp"

namespace nup::pipeline {
namespace {

using std::chrono::milliseconds;

stencil::StencilProgram smoother(const std::string& name, std::int64_t lo,
                                 std::int64_t rows, std::int64_t cols) {
  stencil::StencilProgram p(
      name, poly::Domain::box({lo, lo}, {rows - 1 - lo, cols - 1 - lo}));
  p.add_input("A", {{-1, 0}, {0, -1}, {0, 0}, {0, 1}, {1, 0}});
  // Unequal weights: any gather-order or stitching mistake changes bits.
  p.set_kernel(stencil::make_weighted_sum({0.05, 0.2, 0.5, 0.15, 0.1}));
  return p;
}

// Random fusible stage pairs come from the shared generator (legacy
// recipe: window containment by construction, random weighted-sum
// kernels installed via set_weighted_sum).
using ::nup::testing::random_stage_pair;

// Sequential stage-at-a-time reference: stage 0 is golden on synthetic
// data, each later stage gathers from its predecessor's dense output
// (addressed by lex rank of the producer domain) in source reference
// order -- the same gather order the engine and fuse() use.
std::vector<double> reference_chain(
    const std::vector<stencil::StencilProgram>& stages,
    std::uint64_t seed) {
  std::vector<double> prev;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const stencil::StencilProgram& p = stages[s];
    if (s == 0) {
      prev = stencil::run_golden(p, seed).outputs;
      continue;
    }
    const poly::Domain& producer = stages[s - 1].iteration();
    std::vector<double> out;
    std::vector<double> gathered;
    p.iteration().for_each([&](const poly::IntVec& i) {
      gathered.clear();
      for (const stencil::InputArray& in : p.inputs()) {
        for (const stencil::ArrayReference& ref : in.refs) {
          poly::IntVec h = i;
          for (std::size_t d = 0; d < h.size(); ++d) {
            h[d] += ref.offset[d];
          }
          gathered.push_back(
              prev[static_cast<std::size_t>(producer.lex_rank(h))]);
        }
      }
      out.push_back(p.kernel()(gathered));
    });
    prev = std::move(out);
  }
  return prev;
}

void expect_pipeline_matches(
    const std::vector<stencil::StencilProgram>& stages,
    const PipelineResult& result, std::uint64_t seed) {
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.stages.size(), stages.size());

  // (a) bit-identical to the sequential stage-at-a-time reference.
  const std::vector<double> reference = reference_chain(stages, seed);
  EXPECT_EQ(result.stages.back().outputs, reference)
      << stages.back().name() << " seed " << seed;

  // (b) bit-identical to the monolithically fused program.
  const stencil::StencilProgram fused = stencil::fuse_chain(stages);
  EXPECT_EQ(result.stages.back().outputs,
            stencil::run_golden(fused, seed).outputs)
      << "fused " << fused.name() << " seed " << seed;
}

// ---- bit-identical chains ----------------------------------------------

TEST(PipelineExecutor, GalleryTwoStageChainMatchesSequentialAndFused) {
  std::vector<stencil::StencilProgram> stages = {
      stencil::denoise_2d(20, 24), smoother("INNER", 2, 20, 24)};
  PipelineOptions options;
  options.threads_per_stage = 2;
  options.tile_shape = {3, 0};
  PipelineExecutor executor(StageGraph::chain(stages), options);
  for (const std::uint64_t seed : {7ull, 4242ull}) {
    expect_pipeline_matches(stages, executor.submit(seed).wait(), seed);
  }
}

TEST(PipelineExecutor, GalleryThreeStageChainMatchesSequentialAndFused) {
  std::vector<stencil::StencilProgram> stages = {
      smoother("S0", 1, 22, 26), smoother("S1", 2, 22, 26),
      smoother("S2", 3, 22, 26)};
  PipelineOptions options;
  options.threads_per_stage = 2;
  options.tile_shape = {4, 0};
  PipelineExecutor executor(StageGraph::chain(stages), options);

  // Several frames in flight at once: designs are pinned, state per frame.
  std::vector<PipelineHandle> handles;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    handles.push_back(executor.submit(seed));
  }
  for (std::size_t k = 0; k < handles.size(); ++k) {
    expect_pipeline_matches(stages, handles[k].wait(), k + 1);
  }
}

TEST(PipelineExecutor, FiftyRandomPairsMatchSequentialAndFused) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const std::vector<stencil::StencilProgram> stages =
        random_stage_pair(seed);
    PipelineOptions options;
    options.threads_per_stage = 2;
    options.tile_shape = {3, 0};
    PipelineExecutor executor(StageGraph::chain(stages), options);
    // Two frames in flight per chain: cross-frame interleaving must not
    // leak state between data-independent frames.
    PipelineHandle first = executor.submit(seed);
    PipelineHandle second = executor.submit(seed + 1000);
    expect_pipeline_matches(stages, first.wait(), seed);
    expect_pipeline_matches(stages, second.wait(), seed + 1000);
  }
}

TEST(PipelineExecutor, DegenerateTileShapes) {
  std::vector<stencil::StencilProgram> stages = {
      smoother("S0", 1, 16, 12), smoother("S1", 2, 16, 12)};
  // 1xN row tiles and Nx1 column tiles: the tracker and buffers must
  // handle single-row halos and per-column stitching alike.
  for (const poly::IntVec& shape :
       {poly::IntVec{1, 0}, poly::IntVec{0, 1}, poly::IntVec{1, 1}}) {
    PipelineOptions options;
    options.threads_per_stage = 2;
    options.tile_shape = shape;
    PipelineExecutor executor(StageGraph::chain(stages), options);
    expect_pipeline_matches(stages, executor.submit(11).wait(), 11);
  }
}

TEST(PipelineExecutor, BarrierModeMatchesToo) {
  std::vector<stencil::StencilProgram> stages = {
      smoother("S0", 1, 18, 20), smoother("S1", 2, 18, 20)};
  PipelineOptions options;
  options.threads_per_stage = 2;
  options.tile_shape = {3, 0};
  options.barrier = true;
  PipelineExecutor executor(StageGraph::chain(stages), options);
  const PipelineResult& result = executor.submit(5).wait();
  expect_pipeline_matches(stages, result, 5);
  // The barrier actually barriers: no consumer tile resolved before the
  // producer's last tile.
  ASSERT_EQ(result.timing.size(), 2u);
  EXPECT_GE(result.timing[1].first_tile_us, result.timing[0].last_tile_us);
}

TEST(PipelineExecutor, DiamondGraphJoinsBitIdentically) {
  // s0 -> {s1, s2} -> s3(A, B): the join consumes both branches; feeding
  // branch outputs through distinct inputs exercises per-input slices.
  const auto pointwise = [](const std::string& name, double w) {
    stencil::StencilProgram p(name, poly::Domain::box({2, 2}, {13, 13}));
    p.add_input("A", {{-1, 0}, {0, 0}, {0, 1}});
    p.set_kernel(stencil::make_weighted_sum({w, 1.0 - w, 0.5 * w}));
    return p;
  };
  StageGraph graph;
  graph.add_stage(smoother("SRC", 1, 16, 16));
  graph.add_stage(pointwise("L", 0.25));
  graph.add_stage(pointwise("R", 0.75));
  stencil::StencilProgram join("JOIN", poly::Domain::box({3, 3}, {12, 12}));
  join.add_input("A", {{0, 0}, {1, 0}});
  join.add_input("B", {{0, -1}, {0, 0}});
  join.set_kernel(stencil::make_weighted_sum({0.1, 0.2, 0.3, 0.4}));
  graph.add_stage(join);
  graph.add_edge(0, 1);
  graph.add_edge(0, 2);
  graph.add_edge(1, 3, 0);
  graph.add_edge(2, 3, 1);

  PipelineOptions options;
  options.threads_per_stage = 1;
  options.tile_shape = {3, 0};
  PipelineExecutor executor(std::move(graph), options);
  const PipelineResult& result = executor.submit(9).wait();
  ASSERT_TRUE(result.ok()) << result.error;

  // Reference: golden source, then branches, then the join gathering from
  // both branch outputs in source order (inputs flattened, then refs).
  const StageGraph& g = executor.graph();
  const std::vector<double> src =
      stencil::run_golden(g.stages()[0].program, 9).outputs;
  const auto eval_on = [&](const stencil::StencilProgram& p,
                           const std::vector<const std::vector<double>*>&
                               feeds,
                           const std::vector<const poly::Domain*>& doms) {
    std::vector<double> out;
    std::vector<double> gathered;
    p.iteration().for_each([&](const poly::IntVec& i) {
      gathered.clear();
      for (std::size_t a = 0; a < p.inputs().size(); ++a) {
        for (const stencil::ArrayReference& ref : p.inputs()[a].refs) {
          poly::IntVec h = i;
          for (std::size_t d = 0; d < h.size(); ++d) {
            h[d] += ref.offset[d];
          }
          gathered.push_back(
              (*feeds[a])[static_cast<std::size_t>(doms[a]->lex_rank(h))]);
        }
      }
      out.push_back(p.kernel()(gathered));
    });
    return out;
  };
  const poly::Domain& src_dom = g.stages()[0].program.iteration();
  const std::vector<double> left =
      eval_on(g.stages()[1].program, {&src}, {&src_dom});
  const std::vector<double> right =
      eval_on(g.stages()[2].program, {&src}, {&src_dom});
  const std::vector<double> expect =
      eval_on(g.stages()[3].program, {&left, &right},
              {&g.stages()[1].program.iteration(),
               &g.stages()[2].program.iteration()});
  EXPECT_EQ(result.stages[3].outputs, expect);
}

TEST(PipelineExecutor, RepeatedStageNameIsRejected) {
  // Two same-shaped branches under one name would share a tile plan in
  // the pipeline's engine (plans register by program name), so the right
  // branch would silently run the left branch's kernel.
  StageGraph graph;
  graph.add_stage(smoother("SRC", 1, 16, 16));
  stencil::StencilProgram left = smoother("BRANCH", 2, 16, 16);
  stencil::StencilProgram right = smoother("BRANCH", 2, 16, 16);
  right.set_kernel(stencil::make_weighted_sum({0.3, 0.1, 0.2, 0.1, 0.3}));
  graph.add_stage(left);
  graph.add_stage(right);
  graph.add_edge(0, 1);
  graph.add_edge(0, 2);
  PipelineOptions options;
  options.threads_per_stage = 1;
  EXPECT_THROW(PipelineExecutor(std::move(graph), options), Error);
}

// ---- pipelining behaviour ----------------------------------------------

TEST(PipelineExecutor, StageBuffersRetireInsteadOfHoldingTheFrame) {
  // Tall frame, band tiles, a tight queue, a pool of two: the producer
  // can only run a bounded distance ahead, so the edge buffer's
  // high-water mark must stay a band -- independent of frame height.
  const auto run = [](std::int64_t rows) {
    std::vector<stencil::StencilProgram> stages = {
        smoother("S0", 1, rows, 12), smoother("S1", 2, rows, 12)};
    PipelineOptions options;
    options.threads_per_stage = 1;
    options.queue_capacity = 2;
    options.tile_shape = {2, 0};
    PipelineExecutor executor(StageGraph::chain(stages), options);
    const PipelineResult& result = executor.submit(3).wait();
    EXPECT_TRUE(result.ok()) << result.error;
    return result.edges.at(0);
  };
  const StageBuffer::Occupancy short_frame = run(24);
  const StageBuffer::Occupancy tall_frame = run(96);

  EXPECT_GT(tall_frame.retired, 0);
  EXPECT_EQ(tall_frame.tiles, 0) << "slabs left resident at frame end";
  // Bounded steady state: the tall frame's high-water mark does not grow
  // with the frame (47 producer bands) -- it stays within the small
  // run-ahead window the queues allow.
  EXPECT_LE(tall_frame.max_tiles, short_frame.max_tiles + 2);
  EXPECT_LE(tall_frame.max_tiles, 10);
}

TEST(PipelineExecutor, ConsumerStartsBeforeProducerFinishes) {
  // With real per-tile work, tile-granular scheduling must start the
  // consumer strictly before the producer's frame completes. (The same
  // observation backs bench_pipeline's overlap metric.)
  std::vector<stencil::StencilProgram> stages = {
      smoother("S0", 1, 40, 16), smoother("S1", 2, 40, 16)};
  stages[0].set_kernel([](const std::vector<double>& v) {
    std::this_thread::sleep_for(std::chrono::microseconds(40));
    return std::accumulate(v.begin(), v.end(), 0.0) / 5.0;
  });
  PipelineOptions options;
  options.threads_per_stage = 2;
  options.tile_shape = {2, 0};
  PipelineExecutor executor(StageGraph::chain(stages), options);
  const PipelineResult& result = executor.submit(1).wait();
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_LT(result.timing[1].first_tile_us, result.timing[0].last_tile_us)
      << "no producer/consumer overlap";
}

// ---- cross-frame pipelining --------------------------------------------

TEST(PipelineExecutor, CrossFrameInterleavingBitIdentical) {
  // Sixteen frames pumped through a window of three: every frame must be
  // bit-identical to its own frame-serial reference, and the window gauge
  // must show that frames genuinely overlapped and fully drained.
  obs::Registry registry;
  std::vector<stencil::StencilProgram> stages = {
      smoother("S0", 1, 22, 26), smoother("S1", 2, 22, 26),
      smoother("S2", 3, 22, 26)};
  PipelineOptions options;
  options.name = "xf";
  options.threads_per_stage = 1;
  options.tile_shape = {4, 0};
  options.metrics = &registry;
  options.max_frames_in_flight = 3;
  PipelineExecutor executor(StageGraph::chain(stages), options);

  std::vector<PipelineHandle> handles;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    handles.push_back(executor.submit(seed));  // blocks at the window
  }
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    expect_pipeline_matches(stages, handles[seed].wait(), seed);
  }
  EXPECT_GE(registry.gauge("pipeline.xf.frames_in_flight_max").value(), 2)
      << "frames never overlapped";
  EXPECT_LE(registry.gauge("pipeline.xf.frames_in_flight_max").value(), 3)
      << "admission window exceeded";
  EXPECT_EQ(registry.gauge("pipeline.xf.frames_in_flight").value(), 0);
  EXPECT_EQ(registry.counter("pipeline.xf.frames_completed").value(), 16);
  EXPECT_EQ(
      registry.histogram("pipeline.xf.frame_interleave_overlap_us")
          .snapshot()
          .count,
      16);
}

TEST(PipelineExecutor, FrameSerialWindowAdmitsOneFrameAtATime) {
  obs::Registry registry;
  std::vector<stencil::StencilProgram> stages = {
      smoother("S0", 1, 16, 12), smoother("S1", 2, 16, 12)};
  PipelineOptions options;
  options.name = "serial";
  options.threads_per_stage = 1;
  options.tile_shape = {3, 0};
  options.metrics = &registry;
  options.max_frames_in_flight = 1;
  PipelineExecutor executor(StageGraph::chain(stages), options);

  // Pumping without waiting: submit() itself must serialize the frames.
  std::vector<PipelineHandle> handles;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    handles.push_back(executor.submit(seed));
  }
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expect_pipeline_matches(stages, handles[seed].wait(), seed);
  }
  EXPECT_EQ(registry.gauge("pipeline.serial.frames_in_flight_max").value(),
            1);
}

TEST(PipelineExecutor, SteadyStateRecyclesSlabsInsteadOfAllocating) {
  // The zero-allocation hot path: pumping many frames through one executor
  // must reuse retired slab storage, so fresh pool allocations are bounded
  // by the window's worst-case footprint -- one frame's slabs and slices
  // per admitted frame -- never by the number of frames.
  obs::Registry registry;
  std::vector<stencil::StencilProgram> stages = {
      smoother("S0", 1, 20, 14), smoother("S1", 2, 20, 14)};
  PipelineOptions options;
  options.name = "ss";
  options.threads_per_stage = 1;
  options.tile_shape = {2, 0};
  options.metrics = &registry;
  options.max_frames_in_flight = 3;
  PipelineExecutor executor(StageGraph::chain(stages), options);

  const std::size_t frames = 12;
  std::vector<PipelineHandle> handles;
  for (std::uint64_t seed = 0; seed < frames; ++seed) {
    handles.push_back(executor.submit(seed));
  }
  for (std::uint64_t seed = 0; seed < frames; ++seed) {
    expect_pipeline_matches(stages, handles[seed].wait(), seed);
  }

  const std::int64_t allocated =
      registry.counter("pipeline.edge.ss.s0_to_s1.slab_allocated").value();
  const std::int64_t recycled =
      registry.counter("pipeline.edge.ss.s0_to_s1.slab_recycled").value();
  const std::size_t footprint =
      executor.engine().plan_for(stages[0])->tiles.size() +
      executor.engine().plan_for(stages[1])->tiles.size();
  EXPECT_LE(allocated,
            static_cast<std::int64_t>(options.max_frames_in_flight *
                                      footprint))
      << "pool allocations grew past the window footprint";
  EXPECT_GT(recycled, allocated)
      << "steady state allocated more than it recycled over " << frames
      << " frames";
}

TEST(PipelineExecutor, DesignPinsReleasedAtShutdown) {
  // The executor pins every tile design at construction (the re-arm fast
  // path); a cancelled mid-flight frame must not leak those pins past
  // shutdown -- the cache must drop back to zero pinned entries.
  std::vector<stencil::StencilProgram> stages = {
      smoother("S0", 1, 30, 16), smoother("S1", 2, 30, 16)};
  std::atomic<int> fired{0};
  stages[0].set_kernel([&fired](const std::vector<double>& v) {
    fired.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(milliseconds(1));
    return std::accumulate(v.begin(), v.end(), 0.0) / 5.0;
  });
  PipelineOptions options;
  options.threads_per_stage = 1;
  options.queue_capacity = 2;
  options.tile_shape = {2, 0};
  PipelineExecutor executor(StageGraph::chain(stages), options);
  EXPECT_GT(executor.engine().cache().stats().pinned, 0u);

  PipelineHandle handle = executor.submit(8);
  while (fired.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  handle.cancel();
  EXPECT_FALSE(handle.wait().ok());

  executor.shutdown(PipelineExecutor::Drain::kCancelPending);
  EXPECT_EQ(executor.engine().cache().stats().pinned, 0u)
      << "stage designs still pinned after shutdown";
}

TEST(PipelineExecutor, DesignPinsReleasedAfterDrainAllShutdown) {
  std::vector<stencil::StencilProgram> stages = {
      smoother("S0", 1, 16, 12), smoother("S1", 2, 16, 12)};
  PipelineOptions options;
  options.threads_per_stage = 1;
  options.tile_shape = {3, 0};
  PipelineExecutor executor(StageGraph::chain(stages), options);
  PipelineHandle handle = executor.submit(2);
  executor.shutdown(PipelineExecutor::Drain::kDrainAll);
  EXPECT_TRUE(handle.wait().ok());
  EXPECT_EQ(executor.engine().cache().stats().pinned, 0u);
}

TEST(PipelineExecutor, AbortedFrameDrainsEdgeSlabs) {
  // A frame cancelled mid-flight must not strand producer slabs in the
  // edge buffers: the abort path releases every skipped consumer tile, so
  // by the time the frame resolves the buffers are empty.
  std::vector<stencil::StencilProgram> stages = {
      smoother("S0", 1, 30, 16), smoother("S1", 2, 30, 16)};
  std::atomic<int> fired{0};
  stages[0].set_kernel([&fired](const std::vector<double>& v) {
    fired.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(milliseconds(1));
    return std::accumulate(v.begin(), v.end(), 0.0) / 5.0;
  });
  PipelineOptions options;
  options.threads_per_stage = 1;
  options.queue_capacity = 2;
  options.tile_shape = {2, 0};
  PipelineExecutor executor(StageGraph::chain(stages), options);

  PipelineHandle handle = executor.submit(8);
  while (fired.load(std::memory_order_relaxed) < 3) {
    std::this_thread::yield();
  }
  handle.cancel();
  const PipelineResult& result = handle.wait();
  EXPECT_TRUE(result.cancelled);
  ASSERT_EQ(result.edges.size(), 1u);
  EXPECT_EQ(result.edges[0].tiles, 0)
      << "aborted frame left slabs resident in the edge buffer";
  EXPECT_EQ(result.edges[0].elements, 0);
}

// ---- one shared worker pool --------------------------------------------

TEST(PipelineExecutor, IdleStageWorkersRunBusyStageTiles) {
  // One pool of two workers (threads_per_stage = 1 over two stages) and a
  // slow source stage: the consumer has nothing to do for most of the
  // frame, so the pool must lend both workers to the producer's tiles.
  std::vector<stencil::StencilProgram> stages = {
      smoother("S0", 1, 26, 12), smoother("S1", 2, 26, 12)};
  std::mutex mu;
  std::set<std::thread::id> producers;
  stages[0].set_kernel([&mu, &producers](const std::vector<double>& v) {
    {
      std::lock_guard<std::mutex> lock(mu);
      producers.insert(std::this_thread::get_id());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return std::accumulate(v.begin(), v.end(), 0.0) / 5.0;
  });
  PipelineOptions options;
  options.threads_per_stage = 1;
  options.tile_shape = {2, 0};
  PipelineExecutor executor(StageGraph::chain(stages), options);
  const PipelineResult& result = executor.submit(4).wait();
  std::set<std::thread::id> seen;
  {
    std::lock_guard<std::mutex> lock(mu);
    seen = producers;  // before the golden reference runs the kernel too
  }
  EXPECT_EQ(seen.size(), 2u) << "stage 0 tiles ran on only one worker";
  expect_pipeline_matches(stages, result, 4);
}

TEST(PipelineExecutor, WorkerReleasesNeverBlockOnTheSharedQueue) {
  // Queue bound 1, one-row tiles, three stages and eight frames in
  // flight over a pool of three: each producer tile readies consumer
  // tiles from a worker thread while the queue is full. A worker waiting
  // for space in the queue it drains would hang the pool.
  std::vector<stencil::StencilProgram> stages = {
      smoother("S0", 1, 18, 12), smoother("S1", 2, 18, 12),
      smoother("S2", 3, 18, 12)};
  PipelineOptions options;
  options.threads_per_stage = 1;
  options.queue_capacity = 1;
  options.tile_shape = {1, 0};
  options.max_frames_in_flight = 8;
  PipelineExecutor executor(StageGraph::chain(stages), options);

  std::vector<PipelineHandle> handles;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    handles.push_back(executor.submit(seed));
  }
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    ASSERT_TRUE(handles[seed].wait_for(milliseconds(30000)))
        << "frame " << seed << " never resolved";
    const PipelineResult& result = handles[seed].wait();
    ASSERT_TRUE(result.ok()) << result.error;
    ASSERT_EQ(result.stages.size(), stages.size());
    for (std::size_t k = 1; k <= stages.size(); ++k) {
      const std::vector<stencil::StencilProgram> prefix(
          stages.begin(), stages.begin() + static_cast<std::ptrdiff_t>(k));
      EXPECT_EQ(result.stages[k - 1].outputs, reference_chain(prefix, seed))
          << "stage " << k - 1 << " seed " << seed;
    }
  }
}

// ---- control surface ---------------------------------------------------

TEST(PipelineExecutor, CancelMidStageResolvesWithoutHanging) {
  std::vector<stencil::StencilProgram> stages = {
      smoother("S0", 1, 30, 16), smoother("S1", 2, 30, 16)};
  std::atomic<int> fired{0};
  stages[0].set_kernel([&fired](const std::vector<double>& v) {
    fired.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(milliseconds(1));
    return std::accumulate(v.begin(), v.end(), 0.0) / 5.0;
  });
  PipelineOptions options;
  options.threads_per_stage = 1;
  options.queue_capacity = 2;
  options.tile_shape = {2, 0};
  PipelineExecutor executor(StageGraph::chain(stages), options);

  PipelineHandle handle = executor.submit(8);
  while (fired.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  handle.cancel();
  const PipelineResult& result = handle.wait();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.cancelled) << result.error;

  // The executor survives the abort: the next frame completes normally.
  stages[0] = smoother("S0", 1, 30, 16);
  const PipelineResult& next = executor.submit(9).wait();
  EXPECT_TRUE(next.ok()) << next.error;
}

TEST(PipelineExecutor, TraceAccountsForEveryTileOfACancelledFrame) {
  // Tiles of an aborted frame resolve as skipped on several paths (a
  // worker finding the frame cancelled, the abort skipping unreleased
  // tiles); every one must leave a `tile.skipped` instant, so each stage's
  // tile spans plus skip instants add up to its tile count.
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  std::vector<stencil::StencilProgram> stages = {
      smoother("S0", 1, 30, 16), smoother("S1", 2, 30, 16)};
  std::atomic<int> fired{0};
  stages[0].set_kernel([&fired](const std::vector<double>& v) {
    fired.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(milliseconds(1));
    return std::accumulate(v.begin(), v.end(), 0.0) / 5.0;
  });
  PipelineOptions options;
  options.threads_per_stage = 1;
  options.queue_capacity = 2;
  options.tile_shape = {2, 0};
  PipelineResult result;
  {
    PipelineExecutor executor(StageGraph::chain(stages), options);
    PipelineHandle handle = executor.submit(8);
    while (fired.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
    handle.cancel();
    result = handle.wait();
  }
  tracer.set_enabled(false);
  ASSERT_TRUE(result.cancelled) << result.error;

  const std::string json = tracer.to_chrome_json();
  tracer.clear();
  std::vector<std::string> events;
  const std::string head = "{\"ph\":";
  for (std::size_t at = json.find(head); at != std::string::npos;) {
    const std::size_t next = json.find(head, at + 1);
    events.push_back(json.substr(at, next - at));
    at = next;
  }
  ASSERT_EQ(result.stages.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    const std::string program =
        "\"program\":\"S" + std::to_string(k) + "_t";
    std::int64_t spans = 0;
    std::int64_t skips = 0;
    for (const std::string& e : events) {
      if (e.find(program) == std::string::npos) continue;
      if (e.find("\"name\":\"tile\",") != std::string::npos) ++spans;
      if (e.find("\"name\":\"tile.skipped\",") != std::string::npos) ++skips;
    }
    const runtime::FrameResult& stage = result.stages[k];
    EXPECT_EQ(spans, stage.tiles_executed) << "stage " << k;
    EXPECT_EQ(skips, stage.tiles_skipped) << "stage " << k;
    EXPECT_EQ(spans + skips, stage.tiles_total) << "stage " << k;
  }
}

TEST(PipelineExecutor, ShutdownCancelPendingAbortsInFlight) {
  std::vector<stencil::StencilProgram> stages = {
      smoother("S0", 1, 30, 16), smoother("S1", 2, 30, 16)};
  stages[0].set_kernel([](const std::vector<double>& v) {
    std::this_thread::sleep_for(milliseconds(1));
    return std::accumulate(v.begin(), v.end(), 0.0) / 5.0;
  });
  PipelineOptions options;
  options.threads_per_stage = 1;
  options.tile_shape = {2, 0};
  PipelineExecutor executor(StageGraph::chain(stages), options);
  PipelineHandle handle = executor.submit(4);
  executor.shutdown(PipelineExecutor::Drain::kCancelPending);
  EXPECT_FALSE(handle.wait().ok());
  EXPECT_THROW(executor.submit(5), Error);
}

TEST(PipelineExecutor, ShutdownDrainAllFinishesInFlight) {
  std::vector<stencil::StencilProgram> stages = {
      smoother("S0", 1, 18, 20), smoother("S1", 2, 18, 20)};
  PipelineOptions options;
  options.threads_per_stage = 2;
  options.tile_shape = {3, 0};
  PipelineExecutor executor(StageGraph::chain(stages), options);
  PipelineHandle handle = executor.submit(6);
  executor.shutdown(PipelineExecutor::Drain::kDrainAll);
  expect_pipeline_matches(stages, handle.wait(), 6);
}

// ---- observability -----------------------------------------------------

TEST(PipelineExecutor, MetricsAreNamespacedPerPipeline) {
  obs::Registry registry;
  std::vector<stencil::StencilProgram> stages = {
      smoother("S0", 1, 16, 12), smoother("S1", 2, 16, 12)};
  PipelineOptions options;
  options.name = "demo";
  options.threads_per_stage = 1;
  options.tile_shape = {3, 0};
  options.metrics = &registry;
  PipelineExecutor executor(StageGraph::chain(stages), options);
  const PipelineResult& result = executor.submit(2).wait();
  ASSERT_TRUE(result.ok()) << result.error;

  // The pipeline's one engine publishes under the pipeline's name: every
  // stage's tiles count into one series, and each stage still resolves
  // one engine frame per pipelined frame.
  ASSERT_EQ(result.stages.size(), 2u);
  EXPECT_GT(result.stages[0].tiles_executed, 0);
  EXPECT_GT(result.stages[1].tiles_executed, 0);
  EXPECT_EQ(registry.counter("engine.demo.tiles_executed").value(),
            result.stages[0].tiles_executed +
                result.stages[1].tiles_executed);
  EXPECT_EQ(registry.counter("engine.demo.frames_completed").value(), 2);
  EXPECT_GT(registry.counter("cache.demo.hits").value(), 0);
  EXPECT_EQ(registry.counter("pipeline.demo.frames_completed").value(), 1);
  EXPECT_GT(registry.counter("pipeline.demo.tiles_released").value(), 0);
  // Edge telemetry: readiness histogram and retirement counter.
  EXPECT_GT(
      registry.counter("pipeline.edge.demo.s0_to_s1.tiles_retired").value(),
      0);
  EXPECT_GE(registry.gauge("pipeline.edge.demo.s0_to_s1.buffer_tiles_max")
                .value(),
            1);
  // Cross-frame telemetry: window gauges, overlap histogram (one sample
  // per completed frame), and the edge pool's allocation tallies.
  EXPECT_EQ(registry.gauge("pipeline.demo.frames_in_flight").value(), 0);
  EXPECT_GE(registry.gauge("pipeline.demo.frames_in_flight_max").value(), 1);
  EXPECT_EQ(registry.histogram("pipeline.demo.frame_interleave_overlap_us")
                .snapshot()
                .count,
            1);
  EXPECT_GT(
      registry.counter("pipeline.edge.demo.s0_to_s1.slab_allocated").value(),
      0);
}

}  // namespace
}  // namespace nup::pipeline
