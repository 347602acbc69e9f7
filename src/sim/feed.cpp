#include "sim/feed.hpp"

#include "stencil/golden.hpp"
#include "util/error.hpp"

namespace nup::sim {

void ExternalFeed::read_run(const poly::IntVec& first, std::int64_t count,
                            double* out) {
  poly::IntVec point = first;
  for (std::int64_t l = 0; l < count; ++l) {
    out[l] = read(point);
    ++point.back();
  }
}

double SyntheticFeed::read(const poly::IntVec& h) {
  return stencil::synthetic_value(seed_, array_index_, h);
}

double QueueFeed::read(const poly::IntVec& h) {
  if (!available(h)) {
    throw SimulationError("QueueFeed::read of unavailable point " +
                          poly::to_string(h));
  }
  const double value = queue_.front().second;
  queue_.pop_front();
  return value;
}

}  // namespace nup::sim
