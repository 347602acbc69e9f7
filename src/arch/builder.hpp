#pragma once

#include <cstdint>

#include "arch/design.hpp"
#include "stencil/program.hpp"

namespace nup::arch {

struct BuildOptions {
  /// When true, FIFO depths are the exact maximum reuse distances over the
  /// exact input data domain (Definition 6's union). When false (default),
  /// the paper's closed form on the bounding-box hull is used -- the same
  /// rule that yields Table 2's {1023, 1, 1, 1023} for DENOISE. Exact
  /// sizing matters for skewed/non-rectangular grids (Fig 9).
  bool exact_sizing = false;

  /// When true, the off-chip stream iterates the exact union domain instead
  /// of its bounding box (consistent with exact_sizing).
  bool exact_streaming = false;

  /// Physical-mapping thresholds (Table 2 / Section 3.5.1): depths at most
  /// register_max map to slice registers, at most shift_register_max to
  /// SRL-based distributed memory, larger to block RAM.
  std::int64_t register_max_depth = 4;
  std::int64_t shift_register_max_depth = 128;

  /// Guard for the exact reuse-distance scan on non-box domains.
  std::int64_t exact_iteration_limit = 5'000'000;

  /// Datapath width W of the generated design (Fig 14's bandwidth knob):
  /// W elements enter per stream per cycle and every reuse FIFO is
  /// organized as ceil(depth / W) W-element words. 1 = the paper's scalar
  /// microarchitecture. See widen_design for the validation rules.
  std::int64_t datapath_width = 1;
};

/// Hard ceiling on datapath_width: wider than any realistic burst port,
/// and the simulator's lane buffers are sized against it.
inline constexpr std::int64_t kMaxDatapathWidth = 64;

/// Generates the paper's microarchitecture for every input array of the
/// stencil program (Section 3): references sorted by offset in descending
/// lexicographic order, one reuse FIFO per adjacent pair sized to the
/// maximum reuse distance, heterogeneous physical mapping.
AcceleratorDesign build_design(const stencil::StencilProgram& program,
                               const BuildOptions& options = {});

/// Chooses the physical implementation for a buffer of the given depth.
BufferImpl map_physical(std::int64_t depth, const BuildOptions& options);

/// Promotes `design` to a W-wide datapath: sets datapath_width and
/// re-derives every uncut FIFO's physical mapping from its word depth
/// (Eq. 2 / W words of W elements). FIFO `depth` fields keep the Eq. 2
/// element bounds so element-stream semantics are width-invariant.
/// Throws Error when width < 1 or width > kMaxDatapathWidth. Rows
/// narrower than W are legal -- their cells count as scalar remainder
/// cycles, they just waste lanes -- but widths that cannot
/// ever fill a vector (W larger than the longest streamed row) are
/// rejected, because such a design buys padding without any bandwidth.
AcceleratorDesign widen_design(AcceleratorDesign design, std::int64_t width,
                               const BuildOptions& options = {});

}  // namespace nup::arch
