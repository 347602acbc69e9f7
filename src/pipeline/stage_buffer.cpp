#include "pipeline/stage_buffer.hpp"

#include <algorithm>

#include "sim/row_program.hpp"
#include "util/error.hpp"

namespace nup::pipeline {

namespace {

std::vector<std::int64_t> row_major_strides(const poly::IntVec& lo,
                                            const poly::IntVec& hi) {
  std::vector<std::int64_t> strides(lo.size(), 1);
  for (std::size_t d = lo.size(); d-- > 1;) {
    strides[d - 1] = strides[d] * (hi[d] - lo[d] + 1);
  }
  return strides;
}

std::int64_t box_index(const poly::IntVec& point, const poly::IntVec& lo,
                       const std::vector<std::int64_t>& strides) {
  std::int64_t idx = 0;
  for (std::size_t d = 0; d < point.size(); ++d) {
    idx += (point[d] - lo[d]) * strides[d];
  }
  return idx;
}

bool in_box(const poly::IntVec& point, const poly::IntVec& lo,
            const poly::IntVec& hi) {
  for (std::size_t d = 0; d < point.size(); ++d) {
    if (point[d] < lo[d] || point[d] > hi[d]) return false;
  }
  return true;
}

/// The part [in_lo, in_hi) of the row run [first.back(), first.back() +
/// count) that lies inside the box [lo, hi]; empty (both at the run's end)
/// when the run's outer coordinates leave the box.
struct RunSplit {
  std::int64_t in_lo, in_hi;
};

RunSplit split_run(const poly::IntVec& first, std::int64_t count,
                   const poly::IntVec& lo, const poly::IntVec& hi) {
  const std::size_t last = first.size() - 1;
  const std::int64_t end = first[last] + count;
  for (std::size_t d = 0; d < last; ++d) {
    if (first[d] < lo[d] || first[d] > hi[d]) return {end, end};
  }
  const std::int64_t in_lo = std::clamp(lo[last], first[last], end);
  return {in_lo, std::clamp(hi[last] + 1, in_lo, end)};
}

}  // namespace

SliceFeed::SliceFeed(Slice slice)
    : slice_(std::move(slice)),
      strides_(row_major_strides(slice_.lo, slice_.hi)) {}

double SliceFeed::read(const poly::IntVec& h) {
  if (!in_box(h, slice_.lo, slice_.hi)) return 0.0;
  return (*slice_.data)[static_cast<std::size_t>(
      box_index(h, slice_.lo, strides_))];
}

void SliceFeed::read_run(const poly::IntVec& first, std::int64_t count,
                         double* out) {
  const std::int64_t begin = first.back();
  const auto [in_lo, in_hi] = split_run(first, count, slice_.lo, slice_.hi);
  std::fill(out, out + (in_lo - begin), 0.0);
  if (in_lo < in_hi) {
    const std::int64_t row = box_index(first, slice_.lo, strides_) - begin;
    const double* src = slice_.data->data() + (row + in_lo);
    std::copy(src, src + (in_hi - in_lo), out + (in_lo - begin));
  }
  std::fill(out + (in_hi - begin), out + count, 0.0);
}

BoundaryFeed::BoundaryFeed(std::shared_ptr<sim::ExternalFeed> inner,
                           poly::IntVec lo, poly::IntVec hi,
                           stencil::BoundaryPolicy policy,
                           double constant_value)
    : inner_(std::move(inner)),
      lo_(std::move(lo)),
      hi_(std::move(hi)),
      policy_(policy),
      constant_(constant_value) {}

double BoundaryFeed::read(const poly::IntVec& h) {
  if (in_box(h, lo_, hi_)) return inner_->read(h);
  switch (policy_) {
    case stencil::BoundaryPolicy::kConstant:
      return constant_;
    case stencil::BoundaryPolicy::kClamp:
    case stencil::BoundaryPolicy::kWrap:
      return inner_->read(stencil::map_into_box(h, lo_, hi_, policy_));
    default:
      // Containment policies never read past the box; any such read is
      // hull padding the consumer's data filters discard.
      return 0.0;
  }
}

void BoundaryFeed::read_run(const poly::IntVec& first, std::int64_t count,
                            double* out) {
  const std::int64_t begin = first.back();
  const auto [in_lo, in_hi] = split_run(first, count, lo_, hi_);
  point_ = first;
  if (in_lo < in_hi) {
    point_.back() = in_lo;
    inner_->read_run(point_, in_hi - in_lo, out + (in_lo - begin));
  }
  const auto edge = [&](std::int64_t from, std::int64_t to) {
    for (std::int64_t x = from; x < to; ++x) {
      point_.back() = x;
      out[x - begin] = read(point_);
    }
  };
  edge(begin, in_lo);
  edge(in_hi, begin + count);
}

StitchPlan plan_stitch(const runtime::TilePlan& producer_plan,
                       const runtime::TilePlan& consumer_plan,
                       const EdgeTileMap& map, std::size_t input_index,
                       const poly::IntVec& expand_lo,
                       const poly::IntVec& expand_hi) {
  // Each producer tile's rows in slab order, compiled on first use.
  std::vector<std::unique_ptr<sim::RowProgram>> rows(
      producer_plan.tiles.size());
  StitchPlan plan;
  plan.tiles.resize(consumer_plan.tiles.size());
  for (std::size_t c = 0; c < consumer_plan.tiles.size(); ++c) {
    StitchPlan::TileRuns& t = plan.tiles[c];
    if (!consumer_plan.tiles[c].input_hulls[input_index].as_single_box(
            &t.lo, &t.hi)) {
      throw Error("plan_stitch: consumer hull is not a box");
    }
    for (std::size_t d = 0; d < expand_lo.size(); ++d) {
      t.lo[d] = std::min(t.lo[d], expand_lo[d]);
      t.hi[d] = std::max(t.hi[d], expand_hi[d]);
    }
    const std::vector<std::int64_t> strides = row_major_strides(t.lo, t.hi);
    t.size = 1;
    for (std::size_t d = 0; d < t.lo.size(); ++d) {
      t.size *= t.hi[d] - t.lo[d] + 1;
    }
    const std::size_t last = t.lo.size() - 1;
    for (const std::size_t p : map.producers_of[c]) {
      if (!rows[p]) {
        rows[p] = std::make_unique<sim::RowProgram>(sim::RowProgram::compile(
            producer_plan.tiles[p].program->iteration()));
      }
      std::int64_t k = 0;  // slab offset of the interval's first point
      for (const sim::RowProgram::Row& row : rows[p]->rows) {
        bool inside = true;
        std::int64_t row_base = 0;  // slice offset of (prefix, lo[last])
        for (std::size_t d = 0; d < last; ++d) {
          inside = inside && row.prefix[d] >= t.lo[d] &&
                   row.prefix[d] <= t.hi[d];
          row_base += (row.prefix[d] - t.lo[d]) * strides[d];
        }
        for (const poly::Interval& iv : row.intervals) {
          const std::int64_t a = std::max(iv.lo, t.lo[last]);
          const std::int64_t b = std::min(iv.hi, t.hi[last]);
          if (inside && a <= b) {
            const CopyRun run{p, k + (a - iv.lo),
                              row_base + (a - t.lo[last]), b - a + 1};
            CopyRun* prev = t.runs.empty() ? nullptr : &t.runs.back();
            if (prev && prev->producer == p &&
                prev->slab_offset + prev->length == run.slab_offset &&
                prev->slice_offset + prev->length == run.slice_offset) {
              prev->length += run.length;  // rows adjoin in both layouts
            } else {
              t.runs.push_back(run);
            }
          }
          k += iv.size();
        }
      }
    }
  }
  return plan;
}

StageBuffer::StageBuffer(
    std::shared_ptr<const runtime::TilePlan> producer_plan,
    std::shared_ptr<const runtime::TilePlan> consumer_plan,
    std::shared_ptr<const EdgeTileMap> map, std::size_t input_index,
    obs::Registry& metrics, const std::string& label,
    std::shared_ptr<SlabPool> pool,
    std::shared_ptr<const StitchPlan> stitch_plan,
    std::shared_ptr<const runtime::PlacementPlan> producer_nodes,
    std::shared_ptr<const runtime::PlacementPlan> consumer_nodes)
    : producer_plan_(std::move(producer_plan)),
      map_(std::move(map)),
      pool_(pool ? std::move(pool) : std::make_shared<SlabPool>()),
      stitch_plan_(stitch_plan ? std::move(stitch_plan)
                               : std::make_shared<const StitchPlan>(
                                     plan_stitch(*producer_plan_,
                                                 *consumer_plan, *map_,
                                                 input_index))),
      producer_nodes_(std::move(producer_nodes)),
      consumer_nodes_(std::move(consumer_nodes)) {
  slabs_.resize(producer_plan_->tiles.size());
  pending_.resize(producer_plan_->tiles.size());
  for (std::size_t p = 0; p < pending_.size(); ++p) {
    pending_[p] = static_cast<std::int64_t>(map_->consumers_of[p].size());
  }
  const std::string prefix = "pipeline.edge." + label + ".";
  g_tiles_ = &metrics.gauge(prefix + "buffer_tiles");
  g_elements_ = &metrics.gauge(prefix + "buffer_elements");
  g_max_tiles_ = &metrics.gauge(prefix + "buffer_tiles_max");
  g_max_elements_ = &metrics.gauge(prefix + "buffer_elements_max");
  c_retired_ = &metrics.counter(prefix + "tiles_retired");
}

StageBuffer::~StageBuffer() {
  // Hand whatever an aborted frame left resident back to the pool and
  // drop it from the shared gauges.
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t p = 0; p < slabs_.size(); ++p) {
    if (!slabs_[p].empty()) {
      pool_->give(std::move(slabs_[p]), producer_arena(p));
    }
  }
  g_tiles_->add(-occ_.tiles);
  g_elements_->add(-occ_.elements);
}

// A slab lives in the arena of the node its producer tile was placed on
// (the worker that admitted it first-touched the storage there); stitched
// slices lease from the consumer tile's node for the same reason.
std::size_t StageBuffer::producer_arena(std::size_t tile_idx) const {
  if (!producer_nodes_ || tile_idx >= producer_nodes_->node_of.size()) {
    return 0;
  }
  return static_cast<std::size_t>(producer_nodes_->node_of[tile_idx]);
}

std::size_t StageBuffer::consumer_arena(std::size_t tile_idx) const {
  if (!consumer_nodes_ || tile_idx >= consumer_nodes_->node_of.size()) {
    return 0;
  }
  return static_cast<std::size_t>(consumer_nodes_->node_of[tile_idx]);
}

void StageBuffer::admit(std::size_t tile_idx, const double* frame_outputs) {
  const runtime::Tile& tile = producer_plan_->tiles[tile_idx];
  std::vector<double> slab =
      pool_->take(tile.output_ranks.size(), producer_arena(tile_idx));
  for (std::size_t k = 0; k < slab.size(); ++k) {
    slab[k] = frame_outputs[tile.output_ranks[k]];
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (pending_[tile_idx] == 0) {  // no consumer covers (or all skipped)
    pool_->give(std::move(slab), producer_arena(tile_idx));
    return;
  }
  const std::int64_t elems = static_cast<std::int64_t>(slab.size());
  slabs_[tile_idx] = std::move(slab);
  occ_.tiles += 1;
  occ_.elements += elems;
  occ_.max_tiles = std::max(occ_.max_tiles, occ_.tiles);
  occ_.max_elements = std::max(occ_.max_elements, occ_.elements);
  g_tiles_->add(1);
  g_elements_->add(elems);
  g_max_tiles_->update_max(occ_.max_tiles);
  g_max_elements_->update_max(occ_.max_elements);
}

Slice StageBuffer::stitch(std::size_t tile_idx) {
  const StitchPlan::TileRuns& plan = stitch_plan_->tiles[tile_idx];
  Slice slice;
  slice.lo = plan.lo;
  slice.hi = plan.hi;
  const std::shared_ptr<std::vector<double>> data = pool_->lease(
      static_cast<std::size_t>(plan.size), consumer_arena(tile_idx));
  // No lock for the copies: every covering slab was admitted before this
  // tile was released, and none can retire before this tile's pending
  // count drops below -- slabs_[p] is neither written nor moved meanwhile.
  for (const CopyRun& run : plan.runs) {
    const double* src = slabs_[run.producer].data() + run.slab_offset;
    std::copy(src, src + run.length, data->data() + run.slice_offset);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::size_t p : map_->producers_of[tile_idx]) {
    if (--pending_[p] == 0) retire_locked(p);
  }
  slice.data = data;
  return slice;
}

void StageBuffer::release_consumer(std::size_t tile_idx) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::size_t p : map_->producers_of[tile_idx]) {
    if (--pending_[p] == 0) retire_locked(p);
  }
}

void StageBuffer::retire_locked(std::size_t producer_tile) {
  std::vector<double>& slab = slabs_[producer_tile];
  const std::int64_t elems = static_cast<std::int64_t>(slab.size());
  if (elems == 0) return;  // skipped producer: nothing was admitted
  pool_->give(std::move(slab), producer_arena(producer_tile));
  slab = {};
  occ_.tiles -= 1;
  occ_.elements -= elems;
  occ_.retired += 1;
  g_tiles_->add(-1);
  g_elements_->add(-elems);
  c_retired_->inc();
}

StageBuffer::Occupancy StageBuffer::occupancy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return occ_;
}

}  // namespace nup::pipeline
