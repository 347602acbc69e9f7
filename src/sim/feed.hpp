#pragma once

#include <cstdint>
#include <deque>
#include <utility>

#include "poly/int_vec.hpp"

namespace nup::sim {

/// Produces the off-chip data stream for one chain segment. The consumer
/// (the segment's source module) asks for grid points in lexicographic
/// order of the streamed input domain; a feed may refuse a point this cycle
/// (back-pressure from a slower producer, e.g. a chained accelerator).
class ExternalFeed {
 public:
  virtual ~ExternalFeed() = default;

  /// Called once per simulation cycle per attachment, before any
  /// availability query, so timed feeds (PrefetchFeed) can advance their
  /// internal state. Untimed feeds ignore it.
  virtual void tick() {}

  /// True when the element at grid point `h` can be delivered this cycle.
  virtual bool available(const poly::IntVec& h) = 0;

  /// Value of the element at `h`. Called at most once per point, only after
  /// available(h) returned true in the same cycle.
  virtual double read(const poly::IntVec& h) = 0;

  /// Values of the `count` points first, first + e, ..., first +
  /// (count - 1) e, where e steps the innermost coordinate, into out[0,
  /// count): a run of one row. Equivalent to read() on each point in
  /// order; the default does exactly that, and feeds backed by row-major
  /// storage override it with one contiguous copy.
  virtual void read_run(const poly::IntVec& first, std::int64_t count,
                        double* out);

  /// True when the feed is available for every point and read(h) is pure:
  /// neither depends on the cycle the query happens on, nor on which
  /// points were read before. The fast backend only retires a firing run
  /// in one burst when every live feed is time-invariant, and then reads
  /// the run with read_run() without asking available() -- a timed feed
  /// (PrefetchFeed) or a mid-run producer (QueueFeed) could change state
  /// between the burst's micro-cycles, which must stay observable.
  virtual bool time_invariant() const { return false; }
};

/// Deterministic synthetic DRAM: always ready, values from
/// stencil::synthetic_value. Models the burst prefetcher of Fig 13(b),
/// which hides bus latency behind a small buffer.
class SyntheticFeed final : public ExternalFeed {
 public:
  SyntheticFeed(std::uint64_t seed, std::size_t array_index)
      : seed_(seed), array_index_(array_index) {}

  bool available(const poly::IntVec&) override { return true; }
  double read(const poly::IntVec& h) override;
  bool time_invariant() const override { return true; }

 private:
  std::uint64_t seed_;
  std::size_t array_index_;
};

/// In-order queue feed for accelerator chaining (Fig 13c): a producer
/// pushes (point, value) pairs in lexicographic order; the consumer is
/// stalled until the point it needs arrives at the front.
class QueueFeed final : public ExternalFeed {
 public:
  void push(poly::IntVec point, double value) {
    queue_.emplace_back(std::move(point), value);
  }

  bool available(const poly::IntVec& h) override {
    return !queue_.empty() && queue_.front().first == h;
  }

  double read(const poly::IntVec& h) override;

  std::size_t pending() const { return queue_.size(); }

 private:
  std::deque<std::pair<poly::IntVec, double>> queue_;
};

}  // namespace nup::sim
