// The burst contract of the fast backend: every guaranteed-firing run is
// retired in one step() at every datapath width, the design's W only sets
// the datapath_cycles accounting, and bursts never cross max_cycles or
// start inside the trace window. Also pins that the block kernel takes its
// weights from the running program, not from a plan shared with another
// kernel.

#include "sim/fast.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arch/builder.hpp"
#include "stencil/gallery.hpp"
#include "stencil/golden.hpp"

namespace nup::sim {
namespace {

arch::AcceleratorDesign design_at(const stencil::StencilProgram& p,
                                  std::int64_t width) {
  arch::BuildOptions options;
  options.datapath_width = width;
  return arch::build_design(p, options);
}

SimOptions fast_options() {
  SimOptions options;
  options.backend = SimBackend::kFast;
  return options;
}

TEST(FastSimBurst, SteadyStateRetiresRunsAtWidthOne) {
  const stencil::StencilProgram p = stencil::denoise_2d(24, 64);
  const arch::AcceleratorDesign design = design_at(p, 1);
  FastSim sim(p, design, fast_options());
  std::int64_t longest = 0;
  while (!sim.done()) {
    sim.step();
    longest = std::max(longest, sim.last_step_width());
  }
  // An interior row fires for its whole 62-point interval in one burst
  // (blocks are internal to the step).
  EXPECT_EQ(longest, 62);
  const SimResult r = sim.run();
  EXPECT_EQ(r.datapath_cycles, r.cycles);

  const DifferentialReport report = run_differential(p, design);
  EXPECT_TRUE(report.agreed) << report.divergence;
  EXPECT_EQ(report.fast.datapath_cycles, report.fast.cycles);
}

TEST(FastSimBurst, DatapathCyclesCountWideStepsThenRemainder) {
  const stencil::StencilProgram p = stencil::denoise_2d(24, 64);
  for (const std::int64_t width : {4, 8}) {
    const arch::AcceleratorDesign design = design_at(p, width);
    FastSim sim(p, design, fast_options());
    std::int64_t expected = 0;
    while (!sim.done()) {
      sim.step();
      const std::int64_t run = sim.last_step_width();
      expected += run / width + run % width;
    }
    const SimResult r = sim.run();
    EXPECT_EQ(r.datapath_cycles, expected) << "W=" << width;
    EXPECT_LT(r.datapath_cycles, r.cycles) << "W=" << width;
  }
}

TEST(FastSimBurst, VectorizeOffRetiresOneMicroCyclePerStep) {
  const stencil::StencilProgram p = stencil::denoise_2d(16, 40);
  for (const std::int64_t width : {1, 4}) {
    SimOptions options = fast_options();
    options.vectorize = false;
    const arch::AcceleratorDesign design = design_at(p, width);
    FastSim sim(p, design, options);
    std::int64_t steps = 0;
    while (!sim.done()) {
      sim.step();
      ++steps;
      ASSERT_EQ(sim.last_step_width(), 1) << "W=" << width;
      ASSERT_EQ(sim.cycle(), steps) << "W=" << width;
    }
    const SimResult r = sim.run();
    EXPECT_EQ(r.datapath_cycles, r.cycles) << "W=" << width;
  }
}

TEST(FastSimBurst, StopsExactlyAtMaxCycles) {
  const stencil::StencilProgram p = stencil::denoise_2d(24, 64);
  const arch::AcceleratorDesign design = design_at(p, 4);
  const SimResult full = simulate(p, design, fast_options());
  // Cut inside a steady firing run, a few cycles into the third output row.
  for (const std::int64_t cut :
       {full.fill_latency + 3, full.fill_latency + 64 + 17}) {
    SimOptions options = fast_options();
    options.max_cycles = cut;
    FastSim sim(p, design, options);
    while (!sim.done() && sim.cycle() < cut) {
      sim.step();
      ASSERT_LE(sim.cycle(), cut);
    }
    const SimResult r = sim.run();
    EXPECT_EQ(r.cycles, cut);
    options.vectorize = false;
    const SimResult scalar = simulate(p, design, options);
    EXPECT_EQ(r.kernel_fires, scalar.kernel_fires) << "cut " << cut;
    EXPECT_EQ(r.outputs, scalar.outputs) << "cut " << cut;
  }
}

TEST(FastSimBurst, NeverStartsInsideTheTraceWindow) {
  const stencil::StencilProgram p = stencil::denoise_2d(24, 64);
  const arch::AcceleratorDesign design = design_at(p, 1);
  const SimResult untraced = simulate(p, design, fast_options());
  SimOptions options = fast_options();
  options.trace_cycles = untraced.fill_latency + 70;  // deep into row 2
  FastSim sim(p, design, options);
  bool burst_after_window = false;
  while (!sim.done()) {
    const std::int64_t start = sim.cycle();
    sim.step();
    if (start < options.trace_cycles) {
      ASSERT_EQ(sim.last_step_width(), 1) << "burst at cycle " << start;
    } else if (sim.last_step_width() > 1) {
      burst_after_window = true;
    }
  }
  EXPECT_TRUE(burst_after_window);
  const SimResult traced = sim.run();
  EXPECT_EQ(static_cast<std::int64_t>(traced.trace.size()),
            options.trace_cycles);
  EXPECT_EQ(traced.cycles, untraced.cycles);
  EXPECT_EQ(traced.outputs, untraced.outputs);
}

TEST(FastSimBurst, KernelComesFromTheRunningProgramNotTheSharedPlan) {
  // JACOBI_2D and DENOISE share window and domain, so the design cache
  // hands both the same design and plan. A DENOISE run on the
  // JACOBI-compiled plan must still evaluate DENOISE's weights.
  const stencil::StencilProgram jacobi = stencil::jacobi_2d(24, 64);
  const stencil::StencilProgram denoise = stencil::denoise_2d(24, 64);
  const stencil::GoldenRun golden = stencil::run_golden(denoise, 1);
  ASSERT_NE(golden.outputs, stencil::run_golden(jacobi, 1).outputs);
  for (const std::int64_t width : {1, 4}) {
    const arch::AcceleratorDesign design = design_at(jacobi, width);
    const std::shared_ptr<const FastPlan> plan =
        compile_fast_plan(jacobi, design);
    FastSim sim(denoise, design, plan, fast_options());
    const SimResult r = sim.run();
    ASSERT_EQ(r.outputs.size(), golden.outputs.size()) << "W=" << width;
    for (std::size_t i = 0; i < r.outputs.size(); ++i) {
      ASSERT_EQ(r.outputs[i], golden.outputs[i])
          << "W=" << width << " output " << i;
    }
  }
}

TEST(FastSimBurst, RankSinkStoresEveryOutputAtItsRank) {
  const stencil::StencilProgram p = stencil::denoise_2d(16, 40);
  const stencil::GoldenRun golden = stencil::run_golden(p, 1);
  const arch::AcceleratorDesign design = design_at(p, 1);
  const std::size_t n = golden.outputs.size();
  std::vector<std::int64_t> ranks(n);
  for (std::size_t k = 0; k < n; ++k) {
    ranks[k] = static_cast<std::int64_t>(n - 1 - k);  // reversed
  }
  for (const bool bursts : {true, false}) {
    SimOptions options = fast_options();
    options.vectorize = bursts;
    options.record_outputs = false;
    FastSim sim(p, design, options);
    std::vector<double> values(n, -1.0);
    sim.set_output_ranks(values.data(), ranks.data());
    sim.run();
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(values[n - 1 - k], golden.outputs[k])
          << "output " << k << (bursts ? " (bursts)" : " (per cycle)");
    }
  }
}

}  // namespace
}  // namespace nup::sim
