// The run-read contract of the stage feeds: ExternalFeed::read_run over a
// row run must return exactly the doubles per-point read() returns, bit
// for bit -- for SliceFeed, and for BoundaryFeed under every boundary
// policy -- whether the run lies left of the box, inside it, crosses
// either end or both, or sits on a row whose outer coordinates leave the
// box.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/stage_buffer.hpp"
#include "sim/feed.hpp"

namespace nup::pipeline {
namespace {

/// A slice over [lo, hi] whose every element is distinct (its row-major
/// index, scaled), so a misplaced copy cannot go unnoticed.
Slice make_slice(poly::IntVec lo, poly::IntVec hi) {
  std::int64_t total = 1;
  for (std::size_t d = 0; d < lo.size(); ++d) total *= hi[d] - lo[d] + 1;
  auto data = std::make_shared<std::vector<double>>();
  for (std::int64_t k = 0; k < total; ++k) {
    data->push_back(1.0 + 0.37 * static_cast<double>(k));
  }
  Slice slice;
  slice.data = std::move(data);
  slice.lo = std::move(lo);
  slice.hi = std::move(hi);
  return slice;
}

/// Checks read_run against per-point read for every run of `count`
/// points that starts at each innermost coordinate in [x_lo, x_hi] on
/// every given outer prefix.
void expect_runs_match(sim::ExternalFeed& feed,
                       const std::vector<poly::IntVec>& prefixes,
                       std::int64_t x_lo, std::int64_t x_hi,
                       const std::vector<std::int64_t>& counts) {
  for (const poly::IntVec& prefix : prefixes) {
    for (std::int64_t x = x_lo; x <= x_hi; ++x) {
      for (const std::int64_t count : counts) {
        poly::IntVec first = prefix;
        first.push_back(x);
        std::vector<double> run(static_cast<std::size_t>(count), -7.0);
        feed.read_run(first, count, run.data());
        poly::IntVec point = first;
        for (std::int64_t l = 0; l < count; ++l) {
          const double expected = feed.read(point);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(run[l]),
                    std::bit_cast<std::uint64_t>(expected))
              << "run at " << poly::to_string(first) << " count " << count
              << " lane " << l;
          ++point.back();
        }
      }
    }
  }
}

// Box rows 2..5, columns 3..9. Rows 0, 1, 6 and 7 leave the box; starts
// from column -2 to 12 with these counts cover runs entirely left of the
// box, entirely right of it, inside it, and across one or both ends.
const std::vector<poly::IntVec> kRows2d = {{0}, {1}, {2}, {4}, {5}, {6}, {7}};
const std::vector<std::int64_t> kCounts = {1, 3, 7, 15};

TEST(FeedRunRead, SliceFeedRunsMatchPointReads) {
  SliceFeed feed(make_slice({2, 3}, {5, 9}));
  expect_runs_match(feed, kRows2d, -2, 12, kCounts);
}

TEST(FeedRunRead, SliceFeedRunCopiesTheRowAndZeroPadsOutside) {
  SliceFeed feed(make_slice({2, 3}, {5, 9}));
  // Row 3 from column 1: two padding zeros, the row's seven values, then
  // three padding zeros.
  std::vector<double> run(12, -1.0);
  feed.read_run({3, 1}, 12, run.data());
  EXPECT_EQ(run[0], 0.0);
  EXPECT_EQ(run[1], 0.0);
  for (int l = 0; l < 7; ++l) {
    EXPECT_EQ(run[2 + l], 1.0 + 0.37 * (7 + l)) << "lane " << 2 + l;
  }
  for (int l = 9; l < 12; ++l) EXPECT_EQ(run[l], 0.0) << "lane " << l;
}

TEST(FeedRunRead, SliceFeedRunsMatchPointReads3d) {
  SliceFeed feed(make_slice({1, 2, 3}, {3, 4, 8}));
  const std::vector<poly::IntVec> prefixes = {
      {0, 3}, {1, 1}, {1, 2}, {2, 4}, {3, 3}, {3, 5}, {4, 2}};
  expect_runs_match(feed, prefixes, 0, 10, kCounts);
}

struct PolicyCase {
  const char* name;
  stencil::BoundaryPolicy policy;
};

const std::vector<PolicyCase> kPolicies = {
    {"clamp", stencil::BoundaryPolicy::kClamp},
    {"wrap", stencil::BoundaryPolicy::kWrap},
    {"constant", stencil::BoundaryPolicy::kConstant},
    {"none", stencil::BoundaryPolicy::kNone},
};

TEST(FeedRunRead, BoundaryFeedRunsMatchPointReadsOverTheBoxSlice) {
  // The temporal runner's shape: the inner slice spans exactly the
  // boundary box, so every remapped coordinate is resident.
  for (const PolicyCase& c : kPolicies) {
    SCOPED_TRACE(c.name);
    auto inner = std::make_shared<SliceFeed>(make_slice({2, 3}, {5, 9}));
    BoundaryFeed feed(inner, {2, 3}, {5, 9}, c.policy, 2.5);
    expect_runs_match(feed, kRows2d, -2, 12, kCounts);
  }
}

TEST(FeedRunRead, BoundaryFeedRunsMatchPointReadsOverAWiderSlice) {
  // The executor's shape: the inner slice is the consumer's hull, which
  // pokes past the producer's domain box; the box, not the slice, decides
  // which points are remapped.
  for (const PolicyCase& c : kPolicies) {
    SCOPED_TRACE(c.name);
    auto inner = std::make_shared<SliceFeed>(make_slice({1, 2}, {6, 10}));
    BoundaryFeed feed(inner, {2, 3}, {5, 9}, c.policy, -1.25);
    expect_runs_match(feed, kRows2d, -2, 12, kCounts);
  }
}

TEST(FeedRunRead, BoundaryFeedRunsMatchPointReads3d) {
  const std::vector<poly::IntVec> prefixes = {
      {0, 3}, {1, 1}, {1, 2}, {2, 4}, {3, 3}, {3, 5}, {4, 2}};
  for (const PolicyCase& c : kPolicies) {
    SCOPED_TRACE(c.name);
    auto inner = std::make_shared<SliceFeed>(make_slice({1, 2, 3}, {3, 4, 8}));
    BoundaryFeed feed(inner, {1, 2, 3}, {3, 4, 8}, c.policy, 4.0);
    expect_runs_match(feed, prefixes, 0, 10, kCounts);
  }
}

TEST(FeedRunRead, DefaultRunReadLoopsOverPointReads) {
  sim::SyntheticFeed feed(42, 1);
  expect_runs_match(feed, {{-3}, {0}, {5}}, -4, 4, kCounts);
}

}  // namespace
}  // namespace nup::pipeline
