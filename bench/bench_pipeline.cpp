// Stage-pipelined execution vs the frame-barrier baseline vs monolithic
// fusion.
//
// The artifact runs 2- and 3-stage smoother chains through three
// schedules that all produce bit-identical sink outputs:
//
//   pipelined  PipelineExecutor, tile-granular: a consumer tile starts
//              the moment the producer tiles covering its halo resolve
//   barrier    the same executor with every consumer tile waiting for
//              the whole producer frame (the sequential baseline; same
//              engine, buffers and stitching -- only the dependency
//              structure differs)
//   fused      stencil::fuse_chain collapses the chain into one stencil
//              and a single FrameEngine runs it (no inter-stage traffic,
//              but a larger window and a deeper per-point kernel)
//
// For each chain it prints end-to-end frame latency and the time to the
// first sink-stage output tile, and checks the acceptance claims: the
// sink stage produces its first tile before the first stage has finished
// (overlap), time-to-first-output beats the barrier schedule, and -- on a
// machine with enough cores to actually run the stages concurrently
// (>= stages + 1) -- pipelined end-to-end latency does not exceed the
// barrier baseline on the 3-stage chain. On smaller machines the
// end-to-end comparison is reported but not scored (a single core cannot
// overlap anything; EXPERIMENTS.md records the measured curve and the
// core count that produced it).
//
// The steady-state section then measures cross-frame throughput on the
// 3-stage chain: 24 frames pumped through one executor, frames/sec
// computed over the middle 16 completions (fill and drain excluded), for
// the interleaved window (4 frames in flight), the frame-serial window
// (1), and the fused single-engine schedule. The claim -- interleaving
// sustains >= 1.3x the frame-serial rate -- is scored only with >= 4
// cores, for the same reason as the end-to-end comparison.
//
// The timed google-benchmarks then measure one frame per iteration of
// each schedule on the 3-stage chain.

#include <chrono>
#include <cstdio>
#include <deque>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/stage_graph.hpp"
#include "runtime/engine.hpp"
#include "stencil/fuse.hpp"
#include "stencil/gallery.hpp"

namespace {

using namespace nup;

constexpr std::int64_t kRows = 384;
constexpr std::int64_t kCols = 512;
constexpr std::int64_t kTileRows = 32;
constexpr std::size_t kThreadsPerStage = 1;
constexpr int kFrames = 5;

// 5-point smoother on [lo, lo] .. [rows-1-lo, cols-1-lo]: successive lo
// values chain with exact window containment, so the same stages feed
// StageGraph::chain and fuse_chain.
stencil::StencilProgram smoother(const std::string& name, std::int64_t lo) {
  stencil::StencilProgram p(
      name, poly::Domain::box({lo, lo}, {kRows - 1 - lo, kCols - 1 - lo}));
  p.add_input("A", {{-1, 0}, {0, -1}, {0, 0}, {0, 1}, {1, 0}});
  p.set_kernel(stencil::make_weighted_sum({0.1, 0.2, 0.4, 0.2, 0.1}));
  return p;
}

std::vector<stencil::StencilProgram> chain_stages(int n) {
  std::vector<stencil::StencilProgram> stages;
  for (int s = 0; s < n; ++s) {
    stages.push_back(smoother("S" + std::to_string(s), s + 1));
  }
  return stages;
}

struct ChainNumbers {
  double end_to_end_us = 0;     ///< mean submit-to-done, one frame in flight
  double first_output_us = -1;  ///< mean time to first sink tile (-1: n/a)
  bool overlapped = false;      ///< sink started before stage 0 finished
};

ChainNumbers run_pipeline(int n, bool barrier) {
  obs::Registry registry;
  pipeline::PipelineOptions options;
  options.threads_per_stage = kThreadsPerStage;
  options.tile_shape = {kTileRows, 0};
  options.metrics = &registry;
  options.barrier = barrier;
  pipeline::PipelineExecutor executor(
      pipeline::StageGraph::chain(chain_stages(n)), options);

  ChainNumbers out;
  out.overlapped = true;
  double first_sum = 0;
  for (int f = 0; f < kFrames; ++f) {
    const auto t0 = std::chrono::steady_clock::now();
    const pipeline::PipelineResult& result =
        executor.submit(static_cast<std::uint64_t>(f)).wait();
    out.end_to_end_us +=
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (!result.ok()) {
      std::fprintf(stderr, "pipelined frame failed: %s\n",
                   result.error.c_str());
    }
    first_sum += static_cast<double>(result.timing.back().first_tile_us);
    out.overlapped = out.overlapped &&
                     result.timing.back().first_tile_us <
                         result.timing.front().last_tile_us;
  }
  out.end_to_end_us /= kFrames;
  out.first_output_us = first_sum / kFrames;
  return out;
}

ChainNumbers run_fused(int n) {
  const stencil::StencilProgram fused = stencil::fuse_chain(chain_stages(n));
  obs::Registry registry;
  runtime::EngineOptions options;
  options.threads = kThreadsPerStage * static_cast<std::size_t>(n);
  options.tile_shape = {kTileRows, 0};
  options.metrics = &registry;
  runtime::FrameEngine engine(options);
  engine.plan_for(fused);  // compile outside the timed region

  ChainNumbers out;
  for (int f = 0; f < kFrames; ++f) {
    const auto t0 = std::chrono::steady_clock::now();
    engine.submit(fused, static_cast<std::uint64_t>(f)).wait();
    out.end_to_end_us +=
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count();
  }
  out.end_to_end_us /= kFrames;
  return out;
}

// ---- steady-state cross-frame throughput -------------------------------

constexpr int kSteadyTotal = 24;   ///< frames pumped per schedule
constexpr int kSteadyFill = 4;     ///< leading completions excluded
constexpr int kSteadyMeasured = 16;  ///< completions the rate is taken over
constexpr std::size_t kSteadyWindow = 4;  ///< interleaved frames in flight

struct Throughput {
  double frames_per_sec = 0;    ///< over the middle kSteadyMeasured frames
  double first_output_us = -1;  ///< first sink tile of the very first frame
};

// Pumps kSteadyTotal frames keeping `lag` in flight from the caller's
// side (matching the executor's own admission window, so submit() never
// parks long and each wait() returns right after its frame completes --
// the completion timestamps are accurate). The rate excludes the fill
// (pipeline not yet full) and the drain (no frames left to admit).
Throughput run_steady_pipeline(int n, std::size_t window) {
  obs::Registry registry;
  pipeline::PipelineOptions options;
  options.threads_per_stage = kThreadsPerStage;
  options.tile_shape = {kTileRows, 0};
  options.metrics = &registry;
  options.max_frames_in_flight = window;
  pipeline::PipelineExecutor executor(
      pipeline::StageGraph::chain(chain_stages(n)), options);

  Throughput out;
  std::vector<pipeline::PipelineHandle> handles;
  std::vector<std::chrono::steady_clock::time_point> done(kSteadyTotal);
  std::size_t next_wait = 0;
  const auto drain_to = [&](std::size_t bound) {
    while (next_wait < bound) {
      const pipeline::PipelineResult& result = handles[next_wait].wait();
      done[next_wait] = std::chrono::steady_clock::now();
      if (!result.ok()) {
        std::fprintf(stderr, "steady frame %zu failed: %s\n", next_wait,
                     result.error.c_str());
      }
      if (next_wait == 0) {
        out.first_output_us =
            static_cast<double>(result.timing.back().first_tile_us);
      }
      ++next_wait;
    }
  };
  for (int f = 0; f < kSteadyTotal; ++f) {
    handles.push_back(executor.submit(static_cast<std::uint64_t>(f)));
    if (handles.size() >= next_wait + window) drain_to(handles.size() - window + 1);
  }
  drain_to(handles.size());

  const double span_s =
      std::chrono::duration<double>(done[kSteadyFill + kSteadyMeasured] -
                                    done[kSteadyFill])
          .count();
  out.frames_per_sec = kSteadyMeasured / span_s;
  return out;
}

Throughput run_steady_fused(int n) {
  const stencil::StencilProgram fused = stencil::fuse_chain(chain_stages(n));
  obs::Registry registry;
  runtime::EngineOptions options;
  options.threads = kThreadsPerStage * static_cast<std::size_t>(n);
  options.tile_shape = {kTileRows, 0};
  options.metrics = &registry;
  runtime::FrameEngine engine(options);
  engine.plan_for(fused);

  Throughput out;
  std::vector<runtime::FrameHandle> handles;
  std::vector<std::chrono::steady_clock::time_point> done(kSteadyTotal);
  std::size_t next_wait = 0;
  for (int f = 0; f < kSteadyTotal; ++f) {
    handles.push_back(engine.submit(fused, static_cast<std::uint64_t>(f)));
    while (handles.size() >= next_wait + kSteadyWindow) {
      handles[next_wait].wait();
      done[next_wait] = std::chrono::steady_clock::now();
      ++next_wait;
    }
  }
  while (next_wait < handles.size()) {
    handles[next_wait].wait();
    done[next_wait] = std::chrono::steady_clock::now();
    ++next_wait;
  }
  const double span_s =
      std::chrono::duration<double>(done[kSteadyFill + kSteadyMeasured] -
                                    done[kSteadyFill])
          .count();
  out.frames_per_sec = kSteadyMeasured / span_s;
  return out;
}

void print_artifact() {
  const unsigned cores = std::thread::hardware_concurrency();
  // 3 stages overlapping need at least one core per stage (plus slack);
  // below that the end-to-end comparison measures the OS scheduler, not
  // the pipeline.
  const bool score_end_to_end = cores >= 4;
  std::printf("smoother chains on %lldx%lld, tile rows=%lld, %zu workers "
              "per stage, %d frames per cell, %u hardware threads\n\n",
              static_cast<long long>(kRows), static_cast<long long>(kCols),
              static_cast<long long>(kTileRows), kThreadsPerStage, kFrames,
              cores);
  std::printf("%-8s %-10s %14s %16s %10s\n", "stages", "schedule",
              "end-to-end(us)", "first-output(us)", "overlap");

  std::ostringstream json;
  json << "{\"benchmark\": \"pipeline\", \"rows\": " << kRows
       << ", \"cols\": " << kCols << ", \"tile_rows\": " << kTileRows
       << ", \"threads_per_stage\": " << kThreadsPerStage
       << ", \"frames\": " << kFrames << ", \"chains\": [";

  bool claims_ok = true;
  for (int n = 2; n <= 3; ++n) {
    const ChainNumbers pipelined = run_pipeline(n, /*barrier=*/false);
    const ChainNumbers barrier = run_pipeline(n, /*barrier=*/true);
    const ChainNumbers fused = run_fused(n);

    std::printf("%-8d %-10s %14.0f %16.0f %10s\n", n, "pipelined",
                pipelined.end_to_end_us, pipelined.first_output_us,
                pipelined.overlapped ? "yes" : "NO");
    std::printf("%-8s %-10s %14.0f %16.0f %10s\n", "", "barrier",
                barrier.end_to_end_us, barrier.first_output_us, "-");
    std::printf("%-8s %-10s %14.0f %16s %10s\n", "", "fused",
                fused.end_to_end_us, "-", "-");

    if (!pipelined.overlapped) claims_ok = false;
    if (pipelined.first_output_us >= barrier.first_output_us) {
      claims_ok = false;
    }
    if (n == 3 && score_end_to_end &&
        pipelined.end_to_end_us > barrier.end_to_end_us) {
      claims_ok = false;
    }

    json << (n == 2 ? "" : ", ") << "{\"stages\": " << n
         << ", \"pipelined_us\": " << pipelined.end_to_end_us
         << ", \"barrier_us\": " << barrier.end_to_end_us
         << ", \"fused_us\": " << fused.end_to_end_us
         << ", \"first_output_us\": {\"pipelined\": "
         << pipelined.first_output_us
         << ", \"barrier\": " << barrier.first_output_us
         << "}, \"overlap\": " << (pipelined.overlapped ? "true" : "false")
         << ", \"speedup_vs_barrier\": "
         << barrier.end_to_end_us / pipelined.end_to_end_us << "}";
  }
  // Cross-frame steady state on the 3-stage chain: interleaved window vs
  // frame-serial vs fused, frames/sec with fill and drain excluded.
  std::printf("\nsteady state, 3-stage chain, %d frames (rate over the "
              "middle %d):\n", kSteadyTotal, kSteadyMeasured);
  std::printf("%-14s %12s %18s\n", "schedule", "frames/s",
              "first-output(us)");
  const Throughput interleaved = run_steady_pipeline(3, kSteadyWindow);
  const Throughput serial = run_steady_pipeline(3, 1);
  const Throughput fused3 = run_steady_fused(3);
  std::printf("%-14s %12.2f %18.0f\n", "interleaved",
              interleaved.frames_per_sec, interleaved.first_output_us);
  std::printf("%-14s %12.2f %18.0f\n", "frame-serial",
              serial.frames_per_sec, serial.first_output_us);
  std::printf("%-14s %12.2f %18s\n", "fused", fused3.frames_per_sec, "-");

  const double steady_speedup =
      interleaved.frames_per_sec / serial.frames_per_sec;
  std::printf("interleaved vs frame-serial: %.2fx\n", steady_speedup);
  if (score_end_to_end && steady_speedup < 1.3) claims_ok = false;

  json << "], \"steady_state\": {\"chain_stages\": 3, \"frames\": "
       << kSteadyTotal << ", \"measured\": " << kSteadyMeasured
       << ", \"window\": " << kSteadyWindow
       << ", \"interleaved_fps\": " << interleaved.frames_per_sec
       << ", \"serial_fps\": " << serial.frames_per_sec
       << ", \"fused_fps\": " << fused3.frames_per_sec
       << ", \"first_output_us\": {\"interleaved\": "
       << interleaved.first_output_us
       << ", \"serial\": " << serial.first_output_us
       << "}, \"speedup_vs_serial\": " << steady_speedup
       << ", \"scored\": " << (score_end_to_end ? "true" : "false") << "}";

  json << ", \"cores\": " << cores << ", \"end_to_end_scored\": "
       << (score_end_to_end ? "true" : "false")
       << ", \"claims_ok\": " << (claims_ok ? "true" : "false") << "}";

  std::printf("\nacceptance: sink overlaps stage 0, first output beats "
              "the barrier schedule%s: %s\n",
              score_end_to_end
                  ? ", 3-stage pipelined end-to-end <= barrier, "
                    "interleaved >= 1.3x frame-serial frames/sec"
                  : " (end-to-end and steady-state rates not scored: too "
                    "few cores to overlap)",
              claims_ok ? "ok" : "VIOLATED");
  nup::bench::write_json("BENCH_pipeline.json", json.str());
}

// ---- timed benchmarks: one 3-stage frame per iteration ----------------

void BM_PipelinedChain3(benchmark::State& state) {
  obs::Registry registry;
  pipeline::PipelineOptions options;
  options.threads_per_stage = kThreadsPerStage;
  options.tile_shape = {kTileRows, 0};
  options.metrics = &registry;
  pipeline::PipelineExecutor executor(
      pipeline::StageGraph::chain(chain_stages(3)), options);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.submit(seed++).wait().stages);
  }
}
BENCHMARK(BM_PipelinedChain3)->Unit(benchmark::kMillisecond);

// One steady-state frame per iteration: the admission window is kept full
// from the caller's side, so each wait() measures the sustained
// cross-frame completion period, not a cold frame's latency.
void BM_InterleavedChain3(benchmark::State& state) {
  obs::Registry registry;
  pipeline::PipelineOptions options;
  options.threads_per_stage = kThreadsPerStage;
  options.tile_shape = {kTileRows, 0};
  options.metrics = &registry;
  options.max_frames_in_flight = kSteadyWindow;
  pipeline::PipelineExecutor executor(
      pipeline::StageGraph::chain(chain_stages(3)), options);
  std::deque<pipeline::PipelineHandle> inflight;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    while (inflight.size() < kSteadyWindow) {
      inflight.push_back(executor.submit(seed++));
    }
    benchmark::DoNotOptimize(inflight.front().wait().stages);
    inflight.pop_front();
  }
  for (pipeline::PipelineHandle& handle : inflight) handle.wait();
}
BENCHMARK(BM_InterleavedChain3)->Unit(benchmark::kMillisecond);

void BM_BarrierChain3(benchmark::State& state) {
  obs::Registry registry;
  pipeline::PipelineOptions options;
  options.threads_per_stage = kThreadsPerStage;
  options.tile_shape = {kTileRows, 0};
  options.metrics = &registry;
  options.barrier = true;
  pipeline::PipelineExecutor executor(
      pipeline::StageGraph::chain(chain_stages(3)), options);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.submit(seed++).wait().stages);
  }
}
BENCHMARK(BM_BarrierChain3)->Unit(benchmark::kMillisecond);

void BM_FusedChain3(benchmark::State& state) {
  const stencil::StencilProgram fused = stencil::fuse_chain(chain_stages(3));
  obs::Registry registry;
  runtime::EngineOptions options;
  options.threads = kThreadsPerStage * 3;
  options.tile_shape = {kTileRows, 0};
  options.metrics = &registry;
  runtime::FrameEngine engine(options);
  engine.plan_for(fused);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.submit(fused, seed++).wait().outputs);
  }
}
BENCHMARK(BM_FusedChain3)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  nup::bench::banner(
      "Stage-pipelined execution: tile-granular overlap vs barriers vs "
      "fusion");
  print_artifact();
  return nup::bench::run(argc, argv);
}
