#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "arch/design.hpp"
#include "sim/feed.hpp"
#include "sim/row_program.hpp"
#include "sim/simulator.hpp"
#include "stencil/program.hpp"

namespace nup::sim {

/// Everything FastSim precomputes at construction that depends only on the
/// (program, design) pair and not on a particular run: the compiled row
/// programs of the iteration domain, of every streamed input hull and of
/// every filter's data domain D_Ax, plus the structural port-validity
/// proof. Compiling these tables dominates FastSim's construction cost, so
/// the runtime's design cache memoizes a shared plan and every simulation
/// of the same design starts in O(FIFO storage) instead. Nothing in a plan
/// depends on the kernel, so programs that differ only in their kernel
/// (which the design cache's key ignores) may share one; FastSim always
/// evaluates the running program's kernel. A FastPlan is immutable after
/// compile_fast_plan returns and is safe to share across threads.
struct FastPlan {
  struct SystemPlan {
    RowProgram input;                    ///< streamed hull of the segments
    std::vector<RowProgram> filter_out;  ///< D_Ax per filter, filter order
  };

  RowProgram iteration;
  std::int64_t total_iterations = 0;
  std::vector<SystemPlan> systems;
  /// Every output counter proved to track the iteration counter + offset;
  /// the per-fire port validation is then a no-op.
  bool ports_structurally_valid = false;
};

/// Compiles the shared plan for one (program, design) pair. Also forces the
/// lazy default kernel of `program` to materialize, so concurrent FastSim
/// runs over the same program object never mutate it. Throws
/// SimulationError when the design's system count does not match the
/// program's input arrays.
std::shared_ptr<const FastPlan> compile_fast_plan(
    const stencil::StencilProgram& program,
    const arch::AcceleratorDesign& design);

/// Compiled fast-lane backend of the cycle-accurate simulator.
///
/// Semantically identical to AcceleratorSim (same fire/stall decisions,
/// same FIFO occupancies, same outputs on every cycle), but the per-cycle
/// work is compiled away at construction: each filter's domain D_Ax and
/// each streamed input hull become incremental row programs (precomputed
/// lexicographic row/interval tables mirroring Fig 10's input and output
/// counters), and the reuse FIFOs hold flat ring buffers of double values
/// only -- no heap-allocated grid point ever flows through the chain in
/// steady state. The candidate point at every filter is recovered from the
/// invariant that a chain segment carries the segment stream in order, so
/// a per-filter input counter replaces the per-token points of the
/// reference backend.
///
/// Steady state is retired in bursts. At every step() the backend computes
/// the guaranteed-firing run R: the number of consecutive cycles on which
/// every filter of every chain provably fires (each filter's match is
/// established and runs for R consecutive stream ranks, every cursor has R
/// points left in its row interval, every upstream FIFO is non-empty, the
/// feeds are synthetic or time-invariant, the cycles are not traced, the
/// ports are structurally valid). One step() then retires all R
/// micro-cycles, reading each block of a feed with one read_run() call,
/// moving fixed-size blocks through the FIFO rings and
/// evaluating the kernel over each block -- with an AVX2 inner loop when
/// the host supports it and the kernel's weighted-sum structure is known,
/// bit-identically to the scalar path (verified once per kernel by
/// probing, and continuously by run_differential). Stall cycles, traced
/// cycles, timed feeds and SimOptions::vectorize = false take the
/// per-cycle path, so every scalar-cycle observable (cycles, fires,
/// occupancies, outputs, stalls) is invariant in how the run is retired.
///
/// The design's datapath_width W does not gate batching; it only sets the
/// hardware accounting. A burst of R counts floor(R / W) + R mod W machine
/// cycles in SimResult::datapath_cycles -- W-wide steps followed by a
/// scalar remainder -- and a per-cycle step counts one.
class FastSim {
 public:
  FastSim(const stencil::StencilProgram& program,
          const arch::AcceleratorDesign& design, SimOptions options = {});

  /// Construction from a memoized plan (see FastPlan): skips all row-table
  /// compilation. `plan` must have been compiled for this design and a
  /// program with the same iteration domain and references (the kernel may
  /// differ); `program` and `design` must outlive the sim.
  FastSim(const stencil::StencilProgram& program,
          const arch::AcceleratorDesign& design,
          std::shared_ptr<const FastPlan> plan, SimOptions options = {});
  ~FastSim();

  FastSim(const FastSim&) = delete;
  FastSim& operator=(const FastSim&) = delete;

  /// Replaces the off-chip feed of one chain segment (default: synthetic).
  void set_feed(std::size_t array_idx, std::size_t segment,
                std::shared_ptr<ExternalFeed> feed);

  /// Invoked with every kernel output, in iteration order.
  void set_output_callback(
      std::function<void(const poly::IntVec&, double)> callback);

  /// Rank-indexed output sink: the n-th kernel output (iteration order) is
  /// stored to values[ranks[n]]. Both arrays must cover every iteration and
  /// outlive the run. Independent of set_output_callback; either, both or
  /// neither may be installed.
  void set_output_ranks(double* values, const std::int64_t* ranks);

  /// Advances one clock cycle, or a whole burst of cycles (see
  /// last_step_width). Returns true if any module made progress.
  bool step();

  bool done() const;

  /// Runs until completion, deadlock, or the cycle limit; same contract as
  /// AcceleratorSim::run.
  SimResult run();

  // Lockstep observers (used by the differential checker).
  std::int64_t cycle() const;
  std::int64_t kernel_fires() const;
  std::int64_t fifo_fill(std::size_t system, std::size_t fifo) const;
  /// Scalar micro-cycles the most recent step() retired: the burst length
  /// R on a burst, 1 on the per-cycle path. The differential checker steps
  /// the reference this many times to stay in lockstep.
  std::int64_t last_step_width() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Outcome of running both backends in lockstep and comparing every
/// per-cycle decision plus the final results.
struct DifferentialReport {
  bool agreed = true;
  std::int64_t cycles = 0;      ///< lockstep scalar cycles compared
  std::int64_t width = 1;       ///< the design's datapath width
  std::string divergence;       ///< first difference; empty when agreed
  SimResult reference;
  SimResult fast;
};

/// Differential checker: steps AcceleratorSim and FastSim in lockstep and
/// asserts identical progress flags, kernel-fire counts and per-FIFO
/// occupancies on every cycle, then compares the finalized results
/// (cycles, fires, fill latency, steady II, deadlock verdict and detail,
/// per-FIFO max fill, stall cycles, drain boundary, outputs). One fast
/// step may retire a burst of R scalar micro-cycles; the reference is then
/// stepped R times and the comparison happens at the burst boundary, so
/// every run is checked cycle-exact against the scalar reference
/// semantics. Any divergence is reported with the first
/// offending cycle; the fast path can never silently drift.
DifferentialReport run_differential(const stencil::StencilProgram& program,
                                    const arch::AcceleratorDesign& design,
                                    SimOptions options = {});

}  // namespace nup::sim
