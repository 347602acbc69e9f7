#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/dependency.hpp"
#include "pipeline/slab_pool.hpp"
#include "poly/int_vec.hpp"
#include "runtime/placement.hpp"
#include "runtime/tiler.hpp"
#include "sim/feed.hpp"
#include "stencil/boundary.hpp"

namespace nup::pipeline {

/// A dense row-major block of producer output over an axis-aligned box:
/// the stitched input of one consumer tile. Data is shared and immutable
/// once built, so the feed object and the buffer can both hold it without
/// copying; when the storage came from a SlabPool lease, dropping the last
/// reference recycles it for a later tile.
struct Slice {
  std::shared_ptr<const std::vector<double>> data;
  poly::IntVec lo, hi;  ///< inclusive box corners (grid coordinates)
};

/// ExternalFeed serving a stitched Slice: always available (the data is
/// resident by construction -- the consumer tile was only released after
/// every covering producer tile resolved), values looked up row-major, a
/// run of one row in one contiguous copy. Points outside the slice box
/// read 0.0; they can only be hull padding the consumer's data filters
/// discard, never kernel inputs.
class SliceFeed final : public sim::ExternalFeed {
 public:
  explicit SliceFeed(Slice slice);

  bool available(const poly::IntVec&) override { return true; }
  double read(const poly::IntVec& h) override;
  void read_run(const poly::IntVec& first, std::int64_t count,
                double* out) override;
  /// Slice data is resident and immutable for the tile's whole run, so the
  /// fast backend may retire firing bursts over this feed.
  bool time_invariant() const override { return true; }

 private:
  Slice slice_;
  std::vector<std::int64_t> strides_;
};

/// Wraps another feed with a boundary policy over the producer's domain
/// box [lo, hi]: coordinates inside the box pass through, coordinates
/// outside are clamped / wrapped into it (then served by the inner feed)
/// or answered with a constant. This is how an edge whose consumer shares
/// the producer's iteration domain -- a temporal replica reading the
/// previous generation -- defines the reads its halo makes past the grid
/// edge. Mapped clamp coordinates always land inside the consumer tile's
/// clipped hull, so the stitched slice already holds them; wrap reaches
/// the opposite side of the grid and therefore requires the inner slice
/// to span the whole producer domain (the temporal runner forces
/// whole-frame tiles for wrap edges). A run hands its part inside the box
/// to the inner feed's read_run and maps only the edge points one by one.
class BoundaryFeed final : public sim::ExternalFeed {
 public:
  BoundaryFeed(std::shared_ptr<sim::ExternalFeed> inner, poly::IntVec lo,
               poly::IntVec hi, stencil::BoundaryPolicy policy,
               double constant_value);

  bool available(const poly::IntVec&) override { return true; }
  double read(const poly::IntVec& h) override;
  void read_run(const poly::IntVec& first, std::int64_t count,
                double* out) override;
  bool time_invariant() const override { return inner_->time_invariant(); }

 private:
  std::shared_ptr<sim::ExternalFeed> inner_;
  poly::IntVec lo_, hi_;
  stencil::BoundaryPolicy policy_;
  double constant_;
  poly::IntVec point_;  ///< read_run scratch
};

/// One contiguous copy of a stitch: `length` doubles from producer tile
/// `producer`'s slab, starting at `slab_offset`, to the slice starting at
/// `slice_offset`.
struct CopyRun {
  std::size_t producer = 0;
  std::int64_t slab_offset = 0;
  std::int64_t slice_offset = 0;
  std::int64_t length = 0;
};

/// The static copy plan of one edge, computed once per (producer plan,
/// consumer plan) pair and shared by every frame: per consumer tile, the
/// slice box and the copy runs that assemble it from the covering producer
/// slabs. A producer slab holds its tile's domain rows back to back in lex
/// order, so each row interval clipped to the slice box is one run --
/// exact for sheared and triangular producer domains, whose rows start and
/// end anywhere.
struct StitchPlan {
  struct TileRuns {
    poly::IntVec lo, hi;   ///< slice box (inclusive grid corners)
    std::int64_t size = 0; ///< elements in the box
    std::vector<CopyRun> runs;
  };
  std::vector<TileRuns> tiles;  ///< per consumer tile
};

/// Builds the copy plan of one edge from the producer tiles' row intervals
/// clipped to each consumer tile's slice box: the consumer's streamed hull
/// of input `input_index`, unioned with [expand_lo, expand_hi] when those
/// are non-empty (see StageBuffer). `map` must come from
/// map_tile_dependencies over the same two plans; runs appear in its
/// producers_of order. Throws when a consumer hull is not a box.
StitchPlan plan_stitch(const runtime::TilePlan& producer_plan,
                       const runtime::TilePlan& consumer_plan,
                       const EdgeTileMap& map, std::size_t input_index,
                       const poly::IntVec& expand_lo = {},
                       const poly::IntVec& expand_hi = {});

/// Per-edge, per-frame staging buffer between a producer and a consumer
/// stage. Producer workers admit() finished tile slabs; when a consumer
/// tile's covering set is complete, stitch() assembles its input slice and
/// retires every producer slab whose last consumer has been served -- so
/// steady-state occupancy is the band of producer rows the consumer halo
/// still needs, not the frame. Slab and slice storage comes from the
/// edge's SlabPool, shared by every frame of the pipeline: successive
/// frames recycle retired storage instead of reallocating it, making the
/// steady-state admit/stitch/retire cycle allocation-free. Thread-safe
/// (engine workers of both stages call in concurrently).
class StageBuffer {
 public:
  struct Occupancy {
    std::int64_t tiles = 0;         ///< producer slabs currently resident
    std::int64_t elements = 0;      ///< doubles currently resident
    std::int64_t max_tiles = 0;     ///< high-water marks over the frame
    std::int64_t max_elements = 0;
    std::int64_t retired = 0;       ///< slabs freed before frame end
  };

  /// `label` names the pipeline.edge.<label>.* metric series; the map must
  /// come from map_tile_dependencies over the same two plans. `pool` is
  /// the edge's cross-frame slab arena; a null pool gets the buffer a
  /// private one (single-frame uses, tests). `stitch_plan` is the edge's
  /// copy plan from plan_stitch; a null plan gets the buffer its own,
  /// without box expansion. Wrap edges pass a plan whose slice boxes are
  /// expanded to the producer's domain, because a wrapped halo read maps
  /// to the opposite edge of the grid, which a one-sided window's hull does
  /// not cover. `producer_nodes` / `consumer_nodes` (optional) are the
  /// engines' tile placements: admit/retire then route a producer tile's
  /// slab through its placed node's pool arena and stitch leases from the
  /// consumer tile's arena, keeping steady-state slab recycling
  /// node-local. Null placements use arena 0.
  StageBuffer(std::shared_ptr<const runtime::TilePlan> producer_plan,
              std::shared_ptr<const runtime::TilePlan> consumer_plan,
              std::shared_ptr<const EdgeTileMap> map,
              std::size_t input_index, obs::Registry& metrics,
              const std::string& label,
              std::shared_ptr<SlabPool> pool = nullptr,
              std::shared_ptr<const StitchPlan> stitch_plan = nullptr,
              std::shared_ptr<const runtime::PlacementPlan> producer_nodes =
                  nullptr,
              std::shared_ptr<const runtime::PlacementPlan> consumer_nodes =
                  nullptr);
  ~StageBuffer();

  StageBuffer(const StageBuffer&) = delete;
  StageBuffer& operator=(const StageBuffer&) = delete;

  /// Copies producer tile `tile_idx`'s outputs out of the frame vector
  /// (called from the worker that just wrote them -- only this tile's
  /// output_ranks entries are read). A tile no consumer covers is dropped
  /// immediately.
  void admit(std::size_t tile_idx, const double* frame_outputs);

  /// Assembles consumer tile `tile_idx`'s input slice over its streamed
  /// hull box from the covering producer slabs (all admitted by
  /// construction) by the plan's copy runs, then retires slabs whose
  /// consumers are all served.
  Slice stitch(std::size_t tile_idx);

  /// Drops consumer tile `tile_idx` from every covering producer slab's
  /// pending count without stitching -- the abort path calls this for
  /// consumer tiles skipped mid-frame, so slabs those tiles were holding
  /// retire (and recycle) instead of lingering until teardown. Must be
  /// called at most once per consumer tile, and never after stitch() for
  /// the same tile.
  void release_consumer(std::size_t tile_idx);

  Occupancy occupancy() const;

 private:
  void retire_locked(std::size_t producer_tile);
  std::size_t producer_arena(std::size_t tile_idx) const;
  std::size_t consumer_arena(std::size_t tile_idx) const;

  std::shared_ptr<const runtime::TilePlan> producer_plan_;
  std::shared_ptr<const EdgeTileMap> map_;
  std::shared_ptr<SlabPool> pool_;
  std::shared_ptr<const StitchPlan> stitch_plan_;
  std::shared_ptr<const runtime::PlacementPlan> producer_nodes_;
  std::shared_ptr<const runtime::PlacementPlan> consumer_nodes_;

  mutable std::mutex mu_;
  std::vector<std::vector<double>> slabs_;     // per producer tile
  std::vector<std::int64_t> pending_;          // consumers left per slab
  Occupancy occ_;

  obs::Gauge* g_tiles_ = nullptr;
  obs::Gauge* g_elements_ = nullptr;
  obs::Gauge* g_max_tiles_ = nullptr;
  obs::Gauge* g_max_elements_ = nullptr;
  obs::Counter* c_retired_ = nullptr;
};

}  // namespace nup::pipeline
