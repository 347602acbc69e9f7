#pragma once

#include <cstdint>
#include <vector>

#include "poly/int_vec.hpp"
#include "stencil/program.hpp"

namespace nup::stencil {

/// The pieces of synthetic_value, exposed so a caller generating a row at a
/// time can absorb the outer coordinates once: the state starts from
/// synthetic_state, absorbs each coordinate in order through synthetic_mix
/// (a SplitMix64-style avalanche: any change to seed, array index, or one
/// coordinate flips roughly half the output bits), and synthetic_unit maps
/// it to [0, 1).
inline std::uint64_t synthetic_state(std::uint64_t seed,
                                     std::size_t array_idx) {
  return seed ^ (0x9e3779b97f4a7c15ull * (array_idx + 1));
}

inline std::uint64_t synthetic_mix(std::uint64_t x, std::int64_t c) {
  x += static_cast<std::uint64_t>(c) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline double synthetic_unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
}

/// Deterministic synthetic value of array `array_idx` at grid point `h`.
/// The paper's benchmarks run on medical images we do not have; a hash of
/// the coordinates exercises exactly the same data paths (DESIGN.md §3),
/// and the same function feeds both the golden executor and the simulated
/// off-chip memory so results are directly comparable.
inline double synthetic_value(std::uint64_t seed, std::size_t array_idx,
                              const poly::IntVec& h) {
  std::uint64_t x = synthetic_state(seed, array_idx);
  for (const std::int64_t c : h) x = synthetic_mix(x, c);
  return synthetic_unit(x);
}

/// Result of a pure-software stencil execution.
struct GoldenRun {
  /// One kernel output per iteration, in lexicographic iteration order.
  std::vector<double> outputs;
};

/// Executes the stencil in plain software: for every iteration of the
/// iteration domain in lexicographic order, gathers A[i + f_x] for every
/// reference (synthetic values) and applies the kernel.
GoldenRun run_golden(const StencilProgram& program, std::uint64_t seed);

}  // namespace nup::stencil
