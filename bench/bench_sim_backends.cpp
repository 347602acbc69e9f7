// Simulator backend comparison: reference (per-token grid points, deque
// FIFOs, per-cycle polyhedral membership) vs the compiled fast lane
// (precompiled row programs, flat double ring buffers). Prints measured
// cycles/sec and the speedup for all six gallery kernels, then runs timed
// benchmarks on the headline DENOISE 768x1024 configuration. Acceptance
// target: >= 5x cycles/sec on DENOISE with zero behavioral divergence
// (the divergence half is enforced by tests/sim/differential_test.cpp).

#include <chrono>
#include <cstdio>
#include <sstream>

#include "arch/builder.hpp"
#include "bench_common.hpp"
#include "sim/simulator.hpp"
#include "stencil/gallery.hpp"

namespace {

using namespace nup;

sim::SimOptions backend_options(sim::SimBackend backend) {
  sim::SimOptions options;
  options.backend = backend;
  options.record_outputs = false;
  return options;
}

struct Measured {
  std::int64_t cycles = 0;
  double seconds = 0.0;
  double cycles_per_sec() const { return cycles / seconds; }
};

Measured run_once(const stencil::StencilProgram& p,
                  const arch::AcceleratorDesign& design,
                  sim::SimBackend backend) {
  const auto t0 = std::chrono::steady_clock::now();
  const sim::SimResult r = sim::simulate(p, design, backend_options(backend));
  const auto t1 = std::chrono::steady_clock::now();
  Measured m;
  m.cycles = r.cycles;
  m.seconds = std::chrono::duration<double>(t1 - t0).count();
  return m;
}

void print_comparison_table() {
  // The paper-scale 3-D grids take ~1.5M simulated cycles; the 2-D kernels
  // run at the full 768x1024 the paper evaluates.
  const std::vector<stencil::StencilProgram> programs = {
      stencil::denoise_2d(),          stencil::rician_2d(),
      stencil::sobel_2d(),            stencil::bicubic_2d(),
      stencil::denoise_3d(48, 64, 64),
      stencil::segmentation_3d(48, 64, 64)};
  std::printf("%-16s %12s %16s %16s %9s\n", "kernel", "cycles",
              "reference cyc/s", "fast cyc/s", "speedup");
  std::ostringstream json;
  json << "{\"benchmark\": \"sim_backends\", \"kernels\": [";
  bool first = true;
  for (const stencil::StencilProgram& p : programs) {
    const arch::AcceleratorDesign design = arch::build_design(p);
    const Measured ref = run_once(p, design, sim::SimBackend::kReference);
    const Measured fast = run_once(p, design, sim::SimBackend::kFast);
    std::printf("%-16s %12lld %16.3g %16.3g %8.1fx\n", p.name().c_str(),
                static_cast<long long>(ref.cycles), ref.cycles_per_sec(),
                fast.cycles_per_sec(),
                fast.cycles_per_sec() / ref.cycles_per_sec());
    json << (first ? "" : ", ") << "{\"kernel\": \"" << p.name()
         << "\", \"cycles\": " << ref.cycles
         << ", \"reference_cycles_per_sec\": " << ref.cycles_per_sec()
         << ", \"fast_cycles_per_sec\": " << fast.cycles_per_sec()
         << ", \"speedup\": "
         << fast.cycles_per_sec() / ref.cycles_per_sec() << "}";
    first = false;
  }
  json << "]}";
  nup::bench::write_json("BENCH_sim.json", json.str());
}

/// W-wide sweep on the headline DENOISE 768x1024: wall-clock throughput in
/// scalar cycles/sec (work rate) and datapath cycles/sec (machine rate).
/// Firing bursts batch every W alike, so the work rate is about the same
/// at every W; only the machine rate scales with W. (The earlier
/// acceptance bar, W=8 retiring >= 2x the cycles/sec of W=1, is
/// superseded; EXPERIMENTS.md records both sets of numbers.)
void print_width_sweep() {
  const stencil::StencilProgram p = stencil::denoise_2d();
  std::printf("\nW-wide fast backend, DENOISE 768x1024:\n");
  std::printf("%5s %12s %16s %16s %9s\n", "W", "cycles", "cycles/s",
              "datapath cyc/s", "speedup");
  std::ostringstream json;
  json << "{\"benchmark\": \"sim_width_sweep\", \"kernel\": \""
       << p.name() << "\", \"points\": [";
  double base = 0.0;
  bool first = true;
  for (const std::int64_t w : {1, 4, 8}) {
    arch::BuildOptions opts;
    opts.datapath_width = w;
    const arch::AcceleratorDesign design = arch::build_design(p, opts);
    const auto t0 = std::chrono::steady_clock::now();
    const sim::SimResult r =
        sim::simulate(p, design, backend_options(sim::SimBackend::kFast));
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    const double rate = static_cast<double>(r.cycles) / seconds;
    const double dp_rate =
        static_cast<double>(r.datapath_cycles) / seconds;
    if (w == 1) base = rate;
    std::printf("%5lld %12lld %16.3g %16.3g %8.2fx\n",
                static_cast<long long>(w),
                static_cast<long long>(r.cycles), rate, dp_rate,
                rate / base);
    json << (first ? "" : ", ") << "{\"width\": " << w
         << ", \"cycles\": " << r.cycles
         << ", \"datapath_cycles\": " << r.datapath_cycles
         << ", \"cycles_per_sec\": " << rate
         << ", \"datapath_cycles_per_sec\": " << dp_rate
         << ", \"speedup_vs_w1\": " << rate / base << "}";
    first = false;
  }
  json << "]}";
  nup::bench::write_json("BENCH_sim_width.json", json.str());
}

void BM_ReferenceBackendDenoise(benchmark::State& state) {
  const stencil::StencilProgram p = stencil::denoise_2d();
  const arch::AcceleratorDesign design = arch::build_design(p);
  std::int64_t cycles = 0;
  for (auto _ : state) {
    cycles = sim::simulate(p, design,
                           backend_options(sim::SimBackend::kReference))
                 .cycles;
    benchmark::DoNotOptimize(cycles);
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReferenceBackendDenoise)->Unit(benchmark::kMillisecond);

void BM_FastBackendDenoise(benchmark::State& state) {
  const stencil::StencilProgram p = stencil::denoise_2d();
  const arch::AcceleratorDesign design = arch::build_design(p);
  std::int64_t cycles = 0;
  for (auto _ : state) {
    cycles =
        sim::simulate(p, design, backend_options(sim::SimBackend::kFast))
            .cycles;
    benchmark::DoNotOptimize(cycles);
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FastBackendDenoise)->Unit(benchmark::kMillisecond);

void BM_FastBackendDenoiseWide(benchmark::State& state) {
  const stencil::StencilProgram p = stencil::denoise_2d();
  arch::BuildOptions opts;
  opts.datapath_width = state.range(0);
  const arch::AcceleratorDesign design = arch::build_design(p, opts);
  std::int64_t cycles = 0;
  for (auto _ : state) {
    cycles =
        sim::simulate(p, design, backend_options(sim::SimBackend::kFast))
            .cycles;
    benchmark::DoNotOptimize(cycles);
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FastBackendDenoiseWide)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_FastBackendConstruction(benchmark::State& state) {
  // Row-program compilation cost: what the fast lane pays up front.
  const stencil::StencilProgram p = stencil::denoise_2d();
  const arch::AcceleratorDesign design = arch::build_design(p);
  sim::SimOptions options = backend_options(sim::SimBackend::kFast);
  options.max_cycles = 0;  // construct, run zero cycles
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(p, design, options).cycles);
  }
}
BENCHMARK(BM_FastBackendConstruction);

}  // namespace

int main(int argc, char** argv) {
  nup::bench::banner(
      "Simulator backends: reference vs compiled fast lane (cycles/sec)");
  print_comparison_table();
  print_width_sweep();
  return nup::bench::run(argc, argv);
}
