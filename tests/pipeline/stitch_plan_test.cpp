// The stitch copy plan: StageBuffer::stitch assembles each consumer
// slice from precomputed row runs, and must land exactly the doubles a
// point-by-point walk of every covering producer tile's domain lands --
// over sheared, triangular, multi-piece and 3-D producer tilings, and
// over slice boxes expanded to the producer's domain (wrap edges).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/dependency.hpp"
#include "pipeline/stage_buffer.hpp"
#include "runtime/tiler.hpp"
#include "stencil/gallery.hpp"
#include "stencil/program.hpp"

namespace nup::pipeline {
namespace {

std::vector<std::int64_t> strides_of(const poly::IntVec& lo,
                                     const poly::IntVec& hi) {
  std::vector<std::int64_t> strides(lo.size(), 1);
  for (std::size_t d = lo.size(); d-- > 1;) {
    strides[d - 1] = strides[d] * (hi[d] - lo[d] + 1);
  }
  return strides;
}

/// The per-point stitch: walk every covering producer tile's domain in
/// lex order (its slab order) and write each point that falls inside the
/// slice box to its row-major slot. Uncovered slots stay 0.0, as a
/// pool lease hands them out.
std::vector<double> reference_stitch(const runtime::TilePlan& producers,
                                     const EdgeTileMap& map,
                                     const std::vector<double>& frame,
                                     std::size_t consumer,
                                     const poly::IntVec& lo,
                                     const poly::IntVec& hi) {
  const std::vector<std::int64_t> strides = strides_of(lo, hi);
  std::int64_t total = 1;
  for (std::size_t d = 0; d < lo.size(); ++d) total *= hi[d] - lo[d] + 1;
  std::vector<double> slice(static_cast<std::size_t>(total), 0.0);
  for (const std::size_t p : map.producers_of[consumer]) {
    const runtime::Tile& tile = producers.tiles[p];
    std::size_t k = 0;
    tile.program->iteration().for_each([&](const poly::IntVec& point) {
      bool inside = true;
      std::int64_t idx = 0;
      for (std::size_t d = 0; d < point.size(); ++d) {
        inside = inside && point[d] >= lo[d] && point[d] <= hi[d];
        idx += (point[d] - lo[d]) * strides[d];
      }
      if (inside) {
        slice[static_cast<std::size_t>(idx)] =
            frame[static_cast<std::size_t>(tile.output_ranks[k])];
      }
      ++k;
    });
  }
  return slice;
}

struct StitchCase {
  std::string name;
  stencil::StencilProgram program;
  poly::IntVec producer_shape, consumer_shape;
  bool expand = false;  ///< union the producer domain's box into slices
};

/// Two disjoint column bands: every row of the domain is two intervals.
stencil::StencilProgram two_band_program() {
  poly::Domain domain = poly::Domain::box({1, 1}, {14, 6});
  domain.add_piece(poly::Polyhedron::box({1, 11}, {14, 18}));
  stencil::StencilProgram p("TWO_BAND", std::move(domain));
  p.add_input("A", {{-1, 0}, {0, -1}, {0, 0}, {0, 1}, {1, 0}});
  return p;
}

std::vector<StitchCase> stitch_cases() {
  std::vector<StitchCase> cases;
  // Sheared parallelogram tiles: rows start and end at different columns
  // in every band.
  cases.push_back({"skewed", stencil::skewed_demo(24, 48), {6, 12}, {5, 0}});
  cases.push_back(
      {"skewed_whole_rows", stencil::skewed_demo(20, 40), {3, 0}, {4, 0}});
  // Triangular tiles clip to triangles; one corner tile is a single point.
  cases.push_back(
      {"triangular", stencil::triangular_demo(32), {8, 8}, {7, 5}});
  cases.push_back(
      {"triangular_tiny", stencil::triangular_demo(14), {3, 3}, {2, 4}});
  cases.push_back({"two_band", two_band_program(), {4, 0}, {3, 7}});
  cases.push_back(
      {"heat3d", stencil::heat_3d(6, 8, 10), {2, 4, 0}, {3, 3, 0}});
  // Wrap edges stitch the producer's whole domain box into each slice.
  cases.push_back(
      {"wrap_box", stencil::jacobi_2d(16, 20), {4, 0}, {0, 0}, true});
  cases.push_back(
      {"wrap_tiled", stencil::jacobi_2d(16, 20), {4, 0}, {5, 0}, true});
  cases.push_back(
      {"wrap_skewed", stencil::skewed_demo(16, 24), {4, 0}, {3, 0}, true});
  return cases;
}

TEST(StitchPlan, RunStitchMatchesPointStitch) {
  for (StitchCase& c : stitch_cases()) {
    SCOPED_TRACE(c.name);
    runtime::TilerOptions popts, copts;
    popts.tile_shape = c.producer_shape;
    copts.tile_shape = c.consumer_shape;
    auto producers = std::make_shared<const runtime::TilePlan>(
        runtime::plan_tiles(c.program, popts));
    auto consumers = std::make_shared<const runtime::TilePlan>(
        runtime::plan_tiles(c.program, copts));
    auto map = std::make_shared<const EdgeTileMap>(
        map_tile_dependencies(*producers, *consumers, 0));

    poly::IntVec expand_lo, expand_hi;
    if (c.expand) {
      // The domain's bounding box, the way StageGraph derives an edge's
      // producer box.
      const std::size_t dim = c.program.iteration().dim();
      for (std::size_t d = 0; d < dim; ++d) {
        expand_lo.push_back(INT64_MAX);
        expand_hi.push_back(INT64_MIN);
      }
      c.program.iteration().for_each([&](const poly::IntVec& h) {
        for (std::size_t d = 0; d < dim; ++d) {
          expand_lo[d] = std::min(expand_lo[d], h[d]);
          expand_hi[d] = std::max(expand_hi[d], h[d]);
        }
      });
    }
    auto plan = std::make_shared<const StitchPlan>(
        plan_stitch(*producers, *consumers, *map, 0, expand_lo, expand_hi));
    ASSERT_EQ(plan->tiles.size(), consumers->tiles.size());

    // Distinct value per output rank: each slot names its source point.
    std::vector<double> frame(static_cast<std::size_t>(
        producers->total_outputs));
    for (std::size_t k = 0; k < frame.size(); ++k) {
      frame[k] = 0.5 + static_cast<double>(k);
    }
    obs::Registry registry;
    StageBuffer buffer(producers, consumers, map, 0, registry, c.name,
                       nullptr, plan);
    for (std::size_t p = 0; p < producers->tiles.size(); ++p) {
      buffer.admit(p, frame.data());
    }
    std::int64_t runs = 0;
    for (std::size_t t = 0; t < consumers->tiles.size(); ++t) {
      SCOPED_TRACE("consumer tile " + std::to_string(t));
      poly::IntVec lo, hi;
      ASSERT_TRUE(consumers->tiles[t].input_hulls[0].as_single_box(&lo, &hi));
      for (std::size_t d = 0; d < expand_lo.size(); ++d) {
        lo[d] = std::min(lo[d], expand_lo[d]);
        hi[d] = std::max(hi[d], expand_hi[d]);
      }
      const std::vector<double> expected =
          reference_stitch(*producers, *map, frame, t, lo, hi);
      const Slice slice = buffer.stitch(t);
      EXPECT_EQ(slice.lo, lo);
      EXPECT_EQ(slice.hi, hi);
      ASSERT_EQ(slice.data->size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>((*slice.data)[i]),
                  std::bit_cast<std::uint64_t>(expected[i]))
            << "slot " << i;
      }
      runs += static_cast<std::int64_t>(plan->tiles[t].runs.size());
    }
    EXPECT_GT(runs, 0);
    EXPECT_EQ(buffer.occupancy().tiles, 0) << "slabs left resident";
  }
}

TEST(StitchPlan, RunsStayInsideSlabAndSliceWithoutOverlap) {
  const stencil::StencilProgram program = stencil::skewed_demo(20, 40);
  runtime::TilerOptions popts, copts;
  popts.tile_shape = {4, 0};
  copts.tile_shape = {3, 0};
  const runtime::TilePlan producers = runtime::plan_tiles(program, popts);
  const runtime::TilePlan consumers = runtime::plan_tiles(program, copts);
  const EdgeTileMap map = map_tile_dependencies(producers, consumers, 0);
  const StitchPlan plan = plan_stitch(producers, consumers, map, 0);
  ASSERT_EQ(plan.tiles.size(), consumers.tiles.size());
  for (std::size_t t = 0; t < plan.tiles.size(); ++t) {
    poly::IntVec lo, hi;
    ASSERT_TRUE(consumers.tiles[t].input_hulls[0].as_single_box(&lo, &hi));
    EXPECT_EQ(plan.tiles[t].lo, lo);
    EXPECT_EQ(plan.tiles[t].hi, hi);
    // Runs never overlap and stay inside the slice.
    std::vector<int> hit(static_cast<std::size_t>(plan.tiles[t].size), 0);
    for (const CopyRun& run : plan.tiles[t].runs) {
      ASSERT_GT(run.length, 0);
      ASSERT_GE(run.slice_offset, 0);
      ASSERT_LE(run.slice_offset + run.length, plan.tiles[t].size);
      ASSERT_GE(run.slab_offset, 0);
      ASSERT_LE(run.slab_offset + run.length,
                producers.tiles[run.producer].outputs());
      for (std::int64_t i = 0; i < run.length; ++i) {
        EXPECT_EQ(++hit[static_cast<std::size_t>(run.slice_offset + i)], 1);
      }
    }
  }
}

}  // namespace
}  // namespace nup::pipeline
