// Differential fuzz harness for the W-wide vectorized fast backend. The
// sweep drives >= 400 random stencils (rect, sheared, triangular; ragged
// inner widths including rows narrower than W and rows with width % W != 0)
// through W in {1, 4, 8}, each checked three ways:
//
//   1. run_differential: the bursting fast backend against the scalar
//      reference, cycle-exact at every burst boundary;
//   2. bursts against single-cycle stepping (options.vectorize = false):
//      every SimResult field except datapath_cycles must be bit-identical;
//   3. datapath_cycles bounds: ceil(cycles / W) <= datapath_cycles <=
//      cycles.
//
// The same binary passes with AVX2 (-march=native) and with the scalar
// fallback (-DNUP_DISABLE_AVX2); CI runs both, plus ASan/UBSan.

#include "sim/fast.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "arch/builder.hpp"
#include "sim/simulator.hpp"
#include "stencil/gallery.hpp"
#include "stencil/golden.hpp"
#include "testing/stencil_gen.hpp"
#include "util/error.hpp"

namespace nup::sim {
namespace {

constexpr std::int64_t kWidths[] = {1, 4, 8};

arch::AcceleratorDesign widened_design(const stencil::StencilProgram& p,
                                       std::int64_t width) {
  arch::BuildOptions options;
  options.datapath_width = width;
  return arch::build_design(p, options);
}

/// Longest streamed row of the program's first input hull (the quantity
/// widen_design validates W against).
std::int64_t longest_row(const stencil::StencilProgram& p) {
  const poly::Domain hull = p.data_domain_hull(0);
  poly::IntVec lo;
  poly::IntVec hi;
  EXPECT_TRUE(hull.as_single_box(&lo, &hi));
  return hi.back() - lo.back() + 1;
}

SimResult run_fast(const stencil::StencilProgram& p,
                   const arch::AcceleratorDesign& design, bool vectorize) {
  SimOptions options;
  options.backend = SimBackend::kFast;
  options.vectorize = vectorize;
  return simulate(p, design, options);
}

void expect_results_match(const SimResult& scalar, const SimResult& wide,
                          const std::string& label) {
  EXPECT_EQ(scalar.cycles, wide.cycles) << label;
  EXPECT_EQ(scalar.kernel_fires, wide.kernel_fires) << label;
  EXPECT_EQ(scalar.fill_latency, wide.fill_latency) << label;
  EXPECT_EQ(scalar.steady_ii, wide.steady_ii) << label;
  EXPECT_EQ(scalar.deadlocked, wide.deadlocked) << label;
  EXPECT_EQ(scalar.deadlock_detail, wide.deadlock_detail) << label;
  EXPECT_EQ(scalar.fifo_max_fill, wide.fifo_max_fill) << label;
  EXPECT_EQ(scalar.filter_stall_cycles, wide.filter_stall_cycles) << label;
  EXPECT_EQ(scalar.drain_start, wide.drain_start) << label;
  ASSERT_EQ(scalar.outputs.size(), wide.outputs.size()) << label;
  // Bit-identity, not closeness: the wide kernel path is only legal when
  // it reproduces the scalar kernel exactly.
  for (std::size_t i = 0; i < scalar.outputs.size(); ++i) {
    ASSERT_EQ(scalar.outputs[i], wide.outputs[i])
        << label << " output " << i;
  }
}

/// The full three-way check of one (program, W) point; returns false when
/// the width was (correctly) rejected for this program.
bool check_program_at_width(const stencil::StencilProgram& p,
                            std::int64_t width) {
  arch::AcceleratorDesign design;
  try {
    design = widened_design(p, width);
  } catch (const Error&) {
    // widen_design rejects widths no streamed row can ever fill -- and
    // only those.
    EXPECT_LT(longest_row(p), width)
        << p.name() << ": W=" << width
        << " rejected although a row could fill a vector";
    return false;
  }
  EXPECT_GE(longest_row(p), width) << p.name();
  const std::string label = p.name() + " W=" + std::to_string(width);

  const DifferentialReport report = run_differential(p, design);
  EXPECT_TRUE(report.agreed) << label << ": " << report.divergence;
  EXPECT_EQ(report.width, width) << label;

  const SimResult scalar = run_fast(p, design, /*vectorize=*/false);
  const SimResult wide = run_fast(p, design, /*vectorize=*/true);
  expect_results_match(scalar, wide, label);
  EXPECT_EQ(scalar.datapath_cycles, scalar.cycles) << label;
  EXPECT_LE(wide.datapath_cycles, wide.cycles) << label;
  EXPECT_GE(wide.datapath_cycles, (wide.cycles + width - 1) / width)
      << label;
  return true;
}

class VectorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// 144 parameter points x 3 shape families = 432 random stencils, each at
// W in {1, 4, 8}: the >= 400-stencil sweep of the acceptance criteria.
TEST_P(VectorFuzz, WideBackendMatchesScalarAndReference) {
  const std::uint64_t seed = GetParam();

  // Family 1: the legacy recipe (even seed rect, odd sheared), alternating
  // between the equal-weight default kernel and random weights.
  ::nup::testing::StencilGenOptions legacy;
  legacy.random_weights = (seed % 4) >= 2;
  check_program_at_width(::nup::testing::random_program(seed, legacy), 1);
  for (std::int64_t w : {4, 8}) {
    check_program_at_width(::nup::testing::random_program(seed, legacy), w);
  }

  // Family 2: triangular domains -- inner rows ramp 1..extent+1, so every
  // remainder class width % W != 0 and rows narrower than W occur inside
  // one run.
  ::nup::testing::StencilGenOptions tri;
  tri.shape = ::nup::testing::StencilGenOptions::Shape::kTriangular;
  tri.random_weights = (seed % 2) == 1;
  for (std::int64_t w : kWidths) {
    check_program_at_width(::nup::testing::random_program(seed, tri), w);
  }

  // Family 3: ragged narrow boxes (extents 1..9): domains narrower than
  // W=8 (and sometimes W=4) exercise the rejected-width property and
  // all-remainder accounting right at the boundary.
  ::nup::testing::StencilGenOptions narrow;
  narrow.shape = ::nup::testing::StencilGenOptions::Shape::kRect;
  narrow.min_extent = 1;
  narrow.max_extent = 9;
  narrow.random_weights = (seed % 2) == 0;
  for (std::int64_t w : kWidths) {
    check_program_at_width(::nup::testing::random_program(seed, narrow), w);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorFuzz,
                         ::testing::Range<std::uint64_t>(0, 144));

// ---- targeted cases beyond the sweep ----------------------------------

TEST(VectorFuzzGallery, AllGalleryBenchmarksAtEveryWidth) {
  const std::vector<stencil::StencilProgram> programs = {
      stencil::denoise_2d(24, 32),  stencil::rician_2d(24, 32),
      stencil::sobel_2d(24, 32),    stencil::bicubic_2d(12, 48),
      stencil::jacobi_2d(24, 32),   stencil::heat_3d(8, 10, 12),
      stencil::triangular_demo(18), stencil::skewed_demo(12, 20)};
  for (const stencil::StencilProgram& p : programs) {
    for (std::int64_t w : kWidths) {
      check_program_at_width(p, w);
    }
  }
}

TEST(VectorFuzzGallery, WideStepsActuallyBatchOnDenoise) {
  // Guards against the W=8 accounting silently degenerating to scalar:
  // DENOISE rows are long and rectangular, so steady-state bursts count
  // one machine cycle per 8 cells (row boundaries and the fill phase count
  // one per cell, which is why the bar is 3x rather than the asymptotic
  // 8x).
  const stencil::StencilProgram p = stencil::denoise_2d(96, 128);
  const arch::AcceleratorDesign design = widened_design(p, 8);
  const SimResult wide = run_fast(p, design, /*vectorize=*/true);
  EXPECT_FALSE(wide.deadlocked);
  EXPECT_LT(wide.datapath_cycles, wide.cycles / 3)
      << "W=8 retired fewer than 3 cells per machine cycle";
}

TEST(VectorFuzzGallery, WideOutputsMatchGolden) {
  for (std::int64_t w : kWidths) {
    const stencil::StencilProgram p = stencil::denoise_2d(24, 32);
    const SimResult r = run_fast(p, widened_design(p, w), true);
    const stencil::GoldenRun golden = stencil::run_golden(p, 1);
    ASSERT_EQ(r.outputs.size(), golden.outputs.size());
    for (std::size_t i = 0; i < r.outputs.size(); ++i) {
      ASSERT_EQ(r.outputs[i], golden.outputs[i]) << "W=" << w;
    }
  }
}

TEST(VectorFuzzGallery, TimedFeedForcesScalarPathButAgrees) {
  // A QueueFeed is not time-invariant: the wide backend must fall back to
  // scalar stepping around it and still match the reference exactly.
  const stencil::StencilProgram p = stencil::sobel_2d(12, 16);
  const arch::AcceleratorDesign design = widened_design(p, 4);

  const auto preloaded_feed = [&]() {
    auto feed = std::make_shared<QueueFeed>();
    design.systems[0].input_domain.for_each([&](const poly::IntVec& h) {
      feed->push(h, stencil::synthetic_value(7, 0, h));
    });
    return feed;
  };

  SimOptions options;
  AcceleratorSim ref(p, design, options);
  ref.set_feed(0, 0, preloaded_feed());
  FastSim fast(p, design, options);
  fast.set_feed(0, 0, preloaded_feed());
  const SimResult a = ref.run();
  const SimResult b = fast.run();
  EXPECT_FALSE(a.deadlocked);
  expect_results_match(a, b, "sobel queue-feed W=4");
  // Every step stayed scalar: a queue feed's availability may change
  // between micro-cycles, so batching would be unsound.
  EXPECT_EQ(b.datapath_cycles, b.cycles);
}

TEST(VectorFuzzGallery, WidthWiderThanAnyRowIsRejected) {
  const stencil::StencilProgram p = stencil::denoise_2d(12, 16);
  EXPECT_THROW(widened_design(p, 32), Error);   // rows are ~17 wide
  EXPECT_THROW(widened_design(p, 0), Error);    // below range
  EXPECT_THROW(widened_design(p, arch::kMaxDatapathWidth + 1), Error);
  EXPECT_NO_THROW(widened_design(p, 16));
}

}  // namespace
}  // namespace nup::sim
