// The fast backend must reproduce the reference's deadlock behaviour under
// the condition violations of DESIGN.md section 7.6: same verdict, same
// diagnostic classification (the describe_stall string format is shared),
// at the same cycle -- so the safety guarantees hold on the fast lane too.

#include "sim/fast.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "arch/builder.hpp"
#include "sim/simulator.hpp"
#include "stencil/gallery.hpp"
#include "util/error.hpp"

namespace nup::sim {
namespace {

SimOptions fast_deadlock_options(SimBackend backend = SimBackend::kFast) {
  SimOptions options;
  options.backend = backend;
  options.stall_limit = 3000;
  return options;
}

/// Runs the broken design on both backends and requires the same outcome
/// class (clean, deadlocked, or validation error) with matching detail.
void expect_same_verdict(const stencil::StencilProgram& p,
                         const arch::AcceleratorDesign& design) {
  SimResult ref;
  SimResult fast;
  bool ref_threw = false;
  bool fast_threw = false;
  try {
    ref = simulate(p, design, fast_deadlock_options(SimBackend::kReference));
  } catch (const SimulationError&) {
    ref_threw = true;
  }
  try {
    fast = simulate(p, design, fast_deadlock_options(SimBackend::kFast));
  } catch (const SimulationError&) {
    fast_threw = true;
  }
  ASSERT_EQ(ref_threw, fast_threw);
  if (ref_threw) return;
  EXPECT_EQ(ref.deadlocked, fast.deadlocked);
  EXPECT_EQ(ref.cycles, fast.cycles);
  EXPECT_EQ(ref.kernel_fires, fast.kernel_fires);
  EXPECT_EQ(ref.deadlock_detail, fast.deadlock_detail);
}

TEST(FastDeadlock, UndersizedFifoSameVerdict) {
  // Violating condition 2 (Eq. 2): FIFO below the maximum reuse distance.
  const stencil::StencilProgram p = stencil::denoise_2d(20, 24);
  arch::AcceleratorDesign design = arch::build_design(p);
  design.systems[0].fifos[0].depth -= 1;
  expect_same_verdict(p, design);
}

TEST(FastDeadlock, BadlyUndersizedFifoSameVerdict) {
  const stencil::StencilProgram p = stencil::denoise_2d(20, 24);
  arch::AcceleratorDesign design = arch::build_design(p);
  design.systems[0].fifos[3].depth = 1;  // needs 23
  expect_same_verdict(p, design);
}

TEST(FastDeadlock, ShuffledFilterOrderSameVerdict) {
  // Violating condition 1: offsets no longer descending lexicographically.
  const stencil::StencilProgram p = stencil::denoise_2d(16, 20);
  arch::AcceleratorDesign design = arch::build_design(p);
  arch::MemorySystem& sys = design.systems[0];
  std::swap(sys.ordered_offsets[0], sys.ordered_offsets[4]);
  std::swap(sys.ref_order[0], sys.ref_order[4]);
  expect_same_verdict(p, design);
}

TEST(FastDeadlock, FastBackendDeadlocksOnUndersizedFifo) {
  const stencil::StencilProgram p = stencil::denoise_2d(20, 24);
  arch::AcceleratorDesign design = arch::build_design(p);
  design.systems[0].fifos[3].depth = 1;
  SimResult r;
  bool corrupted = false;
  try {
    r = simulate(p, design, fast_deadlock_options());
  } catch (const SimulationError&) {
    corrupted = true;
  }
  EXPECT_TRUE(corrupted || r.deadlocked);
}

TEST(FastDeadlock, ReportNamesTheStall) {
  const stencil::StencilProgram p = stencil::denoise_2d(16, 20);
  arch::AcceleratorDesign design = arch::build_design(p);
  design.systems[0].fifos[0].depth = 2;
  const SimResult r = simulate(p, design, fast_deadlock_options());
  if (r.deadlocked) {
    EXPECT_NE(r.deadlock_detail.find("fifo_fill"), std::string::npos);
    EXPECT_NE(r.deadlock_detail.find("array A"), std::string::npos);
  }
}

TEST(FastDeadlock, DifferentialCheckerCoversBrokenDesigns) {
  // The lockstep checker itself must agree even when the design deadlocks:
  // both backends stall on the same cycles with the same occupancies.
  const stencil::StencilProgram p = stencil::denoise_2d(16, 20);
  arch::AcceleratorDesign design = arch::build_design(p);
  design.systems[0].fifos[0].depth = 2;
  SimOptions options;
  options.stall_limit = 2000;
  const DifferentialReport report = run_differential(p, design, options);
  EXPECT_TRUE(report.agreed) << report.divergence;
  EXPECT_TRUE(report.reference.deadlocked);
  EXPECT_TRUE(report.fast.deadlocked);
}

TEST(FastDeadlock, CorrectDesignsNeverDeadlock) {
  const std::vector<stencil::StencilProgram> programs = {
      stencil::denoise_2d(12, 16), stencil::sobel_2d(12, 16),
      stencil::bicubic_2d(8, 24), stencil::heat_3d(6, 8, 10),
      stencil::triangular_demo(14), stencil::skewed_demo(10, 16)};
  SimOptions options;
  options.backend = SimBackend::kFast;
  for (const stencil::StencilProgram& p : programs) {
    const SimResult r = simulate(p, arch::build_design(p), options);
    EXPECT_FALSE(r.deadlocked) << p.name() << ": " << r.deadlock_detail;
  }
}

// ---- the same condition violations on the W-wide datapath -------------
//
// Batching must never mask a wedge: a W-wide FastSim on a broken design
// has to reach the identical verdict, deadlock_detail, cycle count and
// per-filter stall tally as W=1 (the scalar path detects the stall, so
// firing bursts simply stop once the chain wedges).

/// Builds the design at each width, applies the same mutation, and
/// requires the W>1 fast runs to match the W=1 fast run field for field.
void expect_same_verdict_across_widths(
    const stencil::StencilProgram& p,
    const std::function<void(arch::AcceleratorDesign&)>& mutate) {
  SimResult base;
  bool base_threw = false;
  for (const std::int64_t w : {std::int64_t{1}, std::int64_t{4},
                               std::int64_t{8}}) {
    arch::BuildOptions opts;
    opts.datapath_width = w;
    arch::AcceleratorDesign design = arch::build_design(p, opts);
    mutate(design);
    SimResult r;
    bool threw = false;
    try {
      r = simulate(p, design, fast_deadlock_options());
    } catch (const SimulationError&) {
      threw = true;
    }
    if (w == 1) {
      base = r;
      base_threw = threw;
      continue;
    }
    ASSERT_EQ(threw, base_threw) << p.name() << " W=" << w;
    if (threw) continue;
    EXPECT_EQ(r.deadlocked, base.deadlocked) << p.name() << " W=" << w;
    EXPECT_EQ(r.cycles, base.cycles) << p.name() << " W=" << w;
    EXPECT_EQ(r.kernel_fires, base.kernel_fires) << p.name() << " W=" << w;
    EXPECT_EQ(r.deadlock_detail, base.deadlock_detail)
        << p.name() << " W=" << w;
    EXPECT_EQ(r.filter_stall_cycles, base.filter_stall_cycles)
        << p.name() << " W=" << w;
  }
}

TEST(FastDeadlock, UndersizedFifoSameVerdictAtEveryWidth) {
  const stencil::StencilProgram p = stencil::denoise_2d(20, 24);
  expect_same_verdict_across_widths(p, [](arch::AcceleratorDesign& d) {
    d.systems[0].fifos[0].depth -= 1;
  });
}

TEST(FastDeadlock, BadlyUndersizedFifoSameVerdictAtEveryWidth) {
  const stencil::StencilProgram p = stencil::denoise_2d(20, 24);
  expect_same_verdict_across_widths(p, [](arch::AcceleratorDesign& d) {
    d.systems[0].fifos[3].depth = 1;  // needs 23
  });
}

TEST(FastDeadlock, ShuffledFilterOrderSameVerdictAtEveryWidth) {
  const stencil::StencilProgram p = stencil::denoise_2d(16, 20);
  expect_same_verdict_across_widths(p, [](arch::AcceleratorDesign& d) {
    arch::MemorySystem& sys = d.systems[0];
    std::swap(sys.ordered_offsets[0], sys.ordered_offsets[4]);
    std::swap(sys.ref_order[0], sys.ref_order[4]);
  });
}

TEST(FastDeadlock, IntactDesignSameStallsAtEveryWidth) {
  // Control case: no mutation. Stall accounting (fill-phase waits) must
  // still be cycle-identical between the scalar and batched machines.
  const stencil::StencilProgram p = stencil::sobel_2d(16, 20);
  expect_same_verdict_across_widths(p, [](arch::AcceleratorDesign&) {});
}

TEST(FastDeadlock, WideDifferentialCheckerCoversBrokenDesigns) {
  // The lockstep checker holds on wedged W>1 designs too: the wide run
  // degrades to scalar stepping around the stall and tracks the
  // reference cycle for cycle.
  const stencil::StencilProgram p = stencil::denoise_2d(16, 20);
  arch::BuildOptions opts;
  opts.datapath_width = 8;
  arch::AcceleratorDesign design = arch::build_design(p, opts);
  design.systems[0].fifos[0].depth = 2;
  SimOptions options;
  options.stall_limit = 2000;
  const DifferentialReport report = run_differential(p, design, options);
  EXPECT_TRUE(report.agreed) << report.divergence;
  EXPECT_EQ(report.width, 8);
  EXPECT_TRUE(report.reference.deadlocked);
  EXPECT_TRUE(report.fast.deadlocked);
}

TEST(FastDeadlock, MaxCyclesGuardStopsRunaways) {
  const stencil::StencilProgram p = stencil::denoise_2d(16, 20);
  SimOptions options;
  options.backend = SimBackend::kFast;
  options.max_cycles = 10;  // far too few to finish
  const SimResult r = simulate(p, arch::build_design(p), options);
  EXPECT_EQ(r.cycles, 10);
  EXPECT_LT(r.kernel_fires, p.iteration().count());
}

}  // namespace
}  // namespace nup::sim
