#include "sim/fast.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <sstream>
#include <utility>

#include "stencil/golden.hpp"
#include "util/error.hpp"

#if defined(__x86_64__) && !defined(NUP_DISABLE_AVX2)
#define NUP_HAVE_AVX2 1
#include <immintrin.h>
#else
#define NUP_HAVE_AVX2 0
#endif

namespace nup::sim {

namespace {

constexpr std::int64_t kNever = kNeverMatches;

/// Micro-cycles a burst retires per block: the lane matrix holds this many
/// values per kernel reference, small enough to stay in L1 for the widest
/// gallery window.
constexpr std::int64_t kBlock = 128;

/// Ring buffer of data values only: the point of the token at the head is
/// recovered from the consumer filter's stream position, so tokens shrink
/// to one double.
struct FastFifo {
  std::vector<double> values;
  std::size_t head = 0;
  std::int64_t count = 0;
  std::int64_t capacity = 0;
  bool cut = false;
  std::int64_t max_fill = 0;

  void init(std::int64_t depth, bool is_cut) {
    capacity = depth;
    cut = is_cut;
    values.assign(static_cast<std::size_t>(std::max<std::int64_t>(depth, 1)),
                  0.0);
  }

  void push(double v) {
    std::size_t tail = head + static_cast<std::size_t>(count);
    if (tail >= values.size()) tail -= values.size();
    values[tail] = v;
    ++count;
    if (count > max_fill) max_fill = count;
  }

  double pop() {
    const double v = values[head];
    if (++head == values.size()) head = 0;
    --count;
    return v;
  }

  /// Pops the `n` oldest values into dst (ring-split into at most two
  /// memcpy segments). Requires n <= count.
  void pop_block(std::int64_t n, double* dst) {
    const std::size_t cap = values.size();
    const std::size_t first =
        std::min<std::size_t>(static_cast<std::size_t>(n), cap - head);
    std::memcpy(dst, values.data() + head, first * sizeof(double));
    std::memcpy(dst + first, values.data(),
                (static_cast<std::size_t>(n) - first) * sizeof(double));
    head += static_cast<std::size_t>(n);
    if (head >= cap) head -= cap;
    count -= n;
  }

  /// Pushes `n` values from src. Requires count + n <= capacity. A burst
  /// block pops before pushing (like the scalar firing cycle), so occupancy
  /// never exceeds the value it had entering the burst and max_fill is
  /// untouched -- a burst is only entered at steady occupancy.
  void push_block(const double* src, std::int64_t n) {
    const std::size_t cap = values.size();
    std::size_t tail = head + static_cast<std::size_t>(count);
    if (tail >= cap) tail -= cap;
    const std::size_t first =
        std::min<std::size_t>(static_cast<std::size_t>(n), cap - tail);
    std::memcpy(values.data() + tail, src, first * sizeof(double));
    std::memcpy(values.data(), src + first,
                (static_cast<std::size_t>(n) - first) * sizeof(double));
    count += n;
    if (count > max_fill) max_fill = count;
  }
};

struct FastFilter {
  const RowProgram* out_prog = nullptr;  // D_Ax in filter order (plan-owned)
  RowCursor out;        // output counter (Fig 10)
  /// Segment heads only: the grid point of the next stream element (needed
  /// to address the external feed). Non-head filters carry no points at
  /// all -- only `in_pos` below.
  RowCursor in;
  MatchScanner scanner;       // over the segment's input program
  std::int64_t in_pos = 0;    // stream elements consumed so far
  std::int64_t next_match = kNever;  // stream position of out's point
  /// Contiguous stream ranks starting at next_match (scanner run length):
  /// the next match_run output points match consecutive stream elements,
  /// one of the bounds on a burst.
  std::int64_t match_run = 0;
  int segment = -1;           // feed index when this filter heads a segment

  void reseek() {
    next_match = out.valid() ? scanner.seek(out.point()) : kNever;
    match_run = next_match == kNever ? 0 : scanner.run;
  }
};

/// True when `out` enumerates exactly `iter` shifted by `offset`: then the
/// kernel-port check "filter k delivers A[i + f_k] on every fire" holds by
/// construction (both counters advance in lockstep from rank 0) and the
/// per-fire validation loop can be skipped entirely.
bool aligned_with_iteration(const RowProgram& iter, const RowProgram& out,
                            const poly::IntVec& offset) {
  if (iter.dim != out.dim || iter.rows.size() != out.rows.size()) {
    return false;
  }
  const std::int64_t inner = offset.empty() ? 0 : offset.back();
  for (std::size_t r = 0; r < iter.rows.size(); ++r) {
    const RowProgram::Row& a = iter.rows[r];
    const RowProgram::Row& b = out.rows[r];
    for (std::size_t d = 0; d + 1 < iter.dim; ++d) {
      if (b.prefix[d] != a.prefix[d] + offset[d]) return false;
    }
    if (a.intervals.size() != b.intervals.size()) return false;
    for (std::size_t v = 0; v < a.intervals.size(); ++v) {
      if (b.intervals[v].lo != a.intervals[v].lo + inner ||
          b.intervals[v].hi != a.intervals[v].hi + inner) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Block weighted-sum kernel. All variants evaluate, for every lane l < count,
//   out[l] = sum_k weights[k] * lanes[k*stride + l]
// in ascending k with one multiply-accumulate per term -- the same
// per-lane operation sequence as make_weighted_sum's scalar loop. Whether
// the scalar loop compiled to separate mul+add or to fused fma depends on
// the build's contraction rules, so FastSim picks the variant at
// construction by probing each candidate against the program's actual
// KernelFn on random vectors and falls back to per-lane kernel calls when
// none is bit-identical. Correctness therefore never depends on compiler
// flags; only the burst path's speed does.

enum class VecKernelMode { kPerLane, kScalarMulAdd, kScalarFma, kAvx2 };

void weighted_sum_muladd(const double* lanes, std::size_t stride,
                         const double* weights, std::size_t refs,
                         std::int64_t count, double* out) {
  for (std::int64_t l = 0; l < count; ++l) {
    double acc = 0.0;
    for (std::size_t k = 0; k < refs; ++k) {
      const double prod = weights[k] * lanes[k * stride + l];
      acc += prod;
    }
    out[l] = acc;
  }
}

void weighted_sum_fma(const double* lanes, std::size_t stride,
                      const double* weights, std::size_t refs,
                      std::int64_t count, double* out) {
  for (std::int64_t l = 0; l < count; ++l) {
    double acc = 0.0;
    for (std::size_t k = 0; k < refs; ++k) {
      acc = std::fma(weights[k], lanes[k * stride + l], acc);
    }
    out[l] = acc;
  }
}

#if NUP_HAVE_AVX2
/// 4 lanes per iteration with fused multiply-add; remainder lanes use
/// std::fma so every lane sees the identical fma-contracted sequence.
__attribute__((target("avx2,fma"))) void weighted_sum_avx2(
    const double* lanes, std::size_t stride, const double* weights,
    std::size_t refs, std::int64_t count, double* out) {
  const std::int64_t vector_end = count - count % 4;
  std::int64_t l = 0;
  for (; l < vector_end; l += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t k = 0; k < refs; ++k) {
      const __m256d v = _mm256_loadu_pd(lanes + k * stride + l);
      acc = _mm256_fmadd_pd(_mm256_set1_pd(weights[k]), v, acc);
    }
    _mm256_storeu_pd(out + l, acc);
  }
  for (; l < count; ++l) {
    double acc = 0.0;
    for (std::size_t k = 0; k < refs; ++k) {
      acc = std::fma(weights[k], lanes[k * stride + l], acc);
    }
    out[l] = acc;
  }
}

bool avx2_supported() {
  static const bool supported = __builtin_cpu_supports("avx2") &&
                                __builtin_cpu_supports("fma");
  return supported;
}
#endif

void run_vec_kernel(VecKernelMode mode, const double* lanes,
                    std::size_t stride, const double* weights,
                    std::size_t refs, std::int64_t count, double* out) {
  switch (mode) {
#if NUP_HAVE_AVX2
    case VecKernelMode::kAvx2:
      weighted_sum_avx2(lanes, stride, weights, refs, count, out);
      return;
#endif
    case VecKernelMode::kScalarFma:
      weighted_sum_fma(lanes, stride, weights, refs, count, out);
      return;
    default:
      weighted_sum_muladd(lanes, stride, weights, refs, count, out);
      return;
  }
}

/// Picks the fastest vector variant that is bit-identical to `kernel` on
/// deterministic pseudo-random probes (64 lanes' worth of values per
/// variant); kPerLane when none is -- e.g. a kernel compiled with an
/// association the candidates do not reproduce.
VecKernelMode probe_vec_kernel(const stencil::KernelFn& kernel,
                               const std::vector<double>& weights) {
  const std::size_t refs = weights.size();
  // The probe is a safety net on top of the structural guarantee (the
  // canonical kernel is itself an fma chain, see make_weighted_sum): a
  // candidate that differs from the kernel anywhere is overwhelmingly
  // unlikely to match all of these lanes bit-for-bit.
  constexpr std::size_t probe_lanes = 256;
  std::vector<double> lanes(refs * probe_lanes);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (double& v : lanes) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<double>(state >> 11) * 0x1.0p-53;  // [0, 1)
  }
  std::vector<double> expected(probe_lanes);
  std::vector<double> values(refs);
  for (std::size_t l = 0; l < probe_lanes; ++l) {
    for (std::size_t k = 0; k < refs; ++k) {
      values[k] = lanes[k * probe_lanes + l];
    }
    expected[l] = kernel(values);
  }
  std::vector<double> got(probe_lanes);
  std::vector<VecKernelMode> candidates;
#if NUP_HAVE_AVX2
  if (avx2_supported()) candidates.push_back(VecKernelMode::kAvx2);
#endif
  candidates.push_back(VecKernelMode::kScalarFma);
  candidates.push_back(VecKernelMode::kScalarMulAdd);
  for (VecKernelMode mode : candidates) {
    run_vec_kernel(mode, lanes.data(), probe_lanes, weights.data(), refs,
                   probe_lanes, got.data());
    if (std::memcmp(got.data(), expected.data(),
                    got.size() * sizeof(double)) == 0) {
      return mode;
    }
  }
  return VecKernelMode::kPerLane;
}

/// The block kernel for `program`: the probe verdict for its recorded
/// weights, or kPerLane for an opaque kernel. The weights always come from
/// the running program, never from the shared plan -- the design cache's
/// key ignores the kernel, so programs with different weights share one
/// plan. A program with recorded weights always runs
/// make_weighted_sum(weights) (set_kernel clears them), so the verdict is
/// a function of the weights alone and is memoized per weight vector:
/// each kernel is probed once per process, not once per simulated tile.
VecKernelMode vec_kernel_for(const stencil::StencilProgram& program) {
  const std::vector<double>& weights = program.weighted_sum_weights();
  if (weights.empty() || weights.size() != program.total_references()) {
    return VecKernelMode::kPerLane;
  }
  static std::mutex mu;
  static std::vector<std::pair<std::vector<double>, VecKernelMode>> memo;
  const auto same = [&weights](const std::vector<double>& w) {
    return w.size() == weights.size() &&
           std::memcmp(w.data(), weights.data(),
                       w.size() * sizeof(double)) == 0;
  };
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [w, mode] : memo) {
      if (same(w)) return mode;
    }
  }
  const VecKernelMode mode = probe_vec_kernel(program.kernel(), weights);
  std::lock_guard<std::mutex> lock(mu);
  if (memo.size() >= 64) memo.clear();  // bounded: random-weight sweeps
  memo.emplace_back(weights, mode);
  return mode;
}

struct FastSystem {
  const arch::MemorySystem* design = nullptr;
  const RowProgram* input_prog = nullptr;  // streamed hull (plan-owned)
  std::vector<std::shared_ptr<ExternalFeed>> feeds;  // one per segment
  /// Nonzero while a segment still uses the constructor-installed
  /// SyntheticFeed: tick/available are no-ops and read devirtualizes to
  /// stencil::synthetic_value.
  std::vector<unsigned char> synthetic;
  std::vector<FastFifo> fifos;
  std::vector<FastFilter> filters;
  /// lane_slot[k]: row of filter k's block in the Impl's lane matrix = the
  /// kernel's reference slot (arrays then refs, source order).
  std::vector<std::size_t> lane_slot;

  // Per-cycle scratch, indexed by filter.
  std::vector<unsigned char> avail;
  std::vector<unsigned char> match;
  std::vector<unsigned char> advance;
  std::vector<double> moved;  // value consumed by each advancing filter
};

}  // namespace

struct FastSim::Impl {
  const stencil::StencilProgram* program = nullptr;
  const arch::AcceleratorDesign* design = nullptr;
  std::shared_ptr<const FastPlan> plan;  // owns every RowProgram below
  SimOptions options;

  RowCursor kernel_cursor;
  std::int64_t total_iterations = 0;

  std::vector<FastSystem> systems;
  /// Every output counter proved to track kernel_cursor + offset at plan
  /// compile time; the per-fire port validation is then a no-op.
  bool ports_structurally_valid = false;

  std::function<void(const poly::IntVec&, double)> output_callback;
  double* sink_values = nullptr;  ///< rank-indexed sink (set_output_ranks)
  const std::int64_t* sink_ranks = nullptr;

  SimResult result;
  std::string stream_point_this_cycle;  // only filled while tracing
  std::int64_t cycle = 0;
  std::int64_t stall_cycles = 0;
  std::int64_t last_fire_cycle = 0;
  std::vector<double> gathered;  // kernel argument scratch

  // Burst state.
  std::int64_t width = 1;         ///< design datapath width (accounting only)
  std::int64_t last_retired = 1;  ///< micro-cycles the last step() retired
  std::int64_t datapath_cycles = 0;  ///< machine cycles of the W-wide datapath
  VecKernelMode vec_mode = VecKernelMode::kPerLane;
  std::vector<double> lane_vals;  ///< refs x kBlock lane matrix, slot-major
  std::vector<double> lane_out;   ///< kBlock kernel outputs
  poly::IntVec lane_point;        ///< per-lane point scratch

  bool done() const { return result.kernel_fires == total_iterations; }

  double read_source(FastSystem& sys, FastFilter& filter);
  void tick_feeds();
  bool hypothesize(const FastSystem& sys) const;
  void fill_scratch(FastSystem& sys);
  void commit_fire(FastSystem& sys);
  void commit_stalled(FastSystem& sys);
  void validate_ports() const;
  void commit_kernel();
  void record_trace(bool fire);
  std::string describe_stall() const;
  std::int64_t burst_length();
  void retire_block(std::int64_t count);
  void retire_burst(std::int64_t run);
  bool step();
};

std::shared_ptr<const FastPlan> compile_fast_plan(
    const stencil::StencilProgram& program,
    const arch::AcceleratorDesign& design) {
  if (design.systems.size() != program.inputs().size()) {
    throw SimulationError("design has " +
                          std::to_string(design.systems.size()) +
                          " memory systems for " +
                          std::to_string(program.inputs().size()) +
                          " input arrays");
  }
  auto plan = std::make_shared<FastPlan>();
  plan->iteration = RowProgram::compile(program.iteration());
  plan->total_iterations = program.iteration().count();
  plan->ports_structurally_valid = true;
  plan->systems.resize(design.systems.size());
  for (std::size_t s = 0; s < design.systems.size(); ++s) {
    const arch::MemorySystem& ms = design.systems[s];
    FastPlan::SystemPlan& sys = plan->systems[s];
    sys.input = RowProgram::compile(ms.input_domain);
    sys.filter_out.resize(ms.filter_count());
    for (std::size_t k = 0; k < ms.filter_count(); ++k) {
      sys.filter_out[k] = RowProgram::compile(
          program.iteration().translated(ms.ordered_offsets[k]));
      plan->ports_structurally_valid =
          plan->ports_structurally_valid &&
          aligned_with_iteration(plan->iteration, sys.filter_out[k],
                                 ms.ordered_offsets[k]);
    }
  }
  // Force the lazy default kernel now, while we are still single-threaded
  // with respect to this program object; kernel() is then a pure read for
  // every concurrent simulation that shares the plan.
  (void)program.kernel();
  return plan;
}

FastSim::FastSim(const stencil::StencilProgram& program,
                 const arch::AcceleratorDesign& design, SimOptions options)
    : FastSim(program, design, compile_fast_plan(program, design),
              std::move(options)) {}

FastSim::FastSim(const stencil::StencilProgram& program,
                 const arch::AcceleratorDesign& design,
                 std::shared_ptr<const FastPlan> plan, SimOptions options)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.program = &program;
  im.design = &design;
  im.plan = std::move(plan);
  im.options = options;

  if (!im.plan || im.plan->systems.size() != design.systems.size()) {
    throw SimulationError("fast plan does not match the design");
  }
  im.total_iterations = im.plan->total_iterations;
  im.kernel_cursor.reset(im.plan->iteration);
  im.ports_structurally_valid = im.plan->ports_structurally_valid;

  im.systems.resize(design.systems.size());
  for (std::size_t s = 0; s < design.systems.size(); ++s) {
    const arch::MemorySystem& ms = design.systems[s];
    const FastPlan::SystemPlan& sp = im.plan->systems[s];
    FastSystem& sys = im.systems[s];
    sys.design = &ms;
    sys.input_prog = &sp.input;

    const std::size_t n = ms.filter_count();
    if (sp.filter_out.size() != n) {
      throw SimulationError("fast plan does not match the design");
    }
    sys.filters.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      FastFilter& filter = sys.filters[k];
      filter.out_prog = &sp.filter_out[k];
      filter.out.reset(*filter.out_prog);
      filter.scanner.reset(*sys.input_prog);
      filter.reseek();
    }
    sys.fifos.resize(ms.fifos.size());
    for (std::size_t k = 0; k < ms.fifos.size(); ++k) {
      sys.fifos[k].init(ms.fifos[k].depth, ms.fifos[k].cut);
    }
    const std::vector<std::size_t> heads = ms.segment_heads();
    sys.feeds.resize(heads.size());
    sys.synthetic.assign(heads.size(), true);
    for (std::size_t seg = 0; seg < heads.size(); ++seg) {
      FastFilter& head = sys.filters[heads[seg]];
      head.segment = static_cast<int>(seg);
      head.in.reset(*sys.input_prog);
      sys.feeds[seg] =
          std::make_shared<SyntheticFeed>(options.seed, ms.array_index);
    }
    sys.avail.assign(n, 0);
    sys.match.assign(n, 0);
    sys.advance.assign(n, 0);
    sys.moved.assign(n, 0.0);
  }

  im.width = std::max<std::int64_t>(1, design.datapath_width);
  if (options.vectorize) {
    std::size_t base = 0;
    for (FastSystem& sys : im.systems) {
      sys.lane_slot.resize(sys.filters.size());
      for (std::size_t k = 0; k < sys.filters.size(); ++k) {
        sys.lane_slot[k] = base + sys.design->ref_order[k];
      }
      base += sys.filters.size();
    }
    im.lane_vals.assign(program.total_references() * kBlock, 0.0);
    im.lane_out.assign(kBlock, 0.0);
    im.vec_mode = vec_kernel_for(program);
  }

  im.result.fifo_max_fill.resize(design.systems.size());
  im.result.filter_stall_cycles.resize(design.systems.size());
  for (std::size_t s = 0; s < design.systems.size(); ++s) {
    im.result.fifo_max_fill[s].assign(design.systems[s].fifos.size(), 0);
    im.result.filter_stall_cycles[s].assign(
        design.systems[s].filter_count(), 0);
  }
  im.gathered.resize(program.total_references());
}

FastSim::~FastSim() = default;

void FastSim::set_feed(std::size_t array_idx, std::size_t segment,
                       std::shared_ptr<ExternalFeed> feed) {
  FastSystem& sys = impl_->systems.at(array_idx);
  sys.feeds.at(segment) = std::move(feed);
  sys.synthetic[segment] = false;  // back to the generic virtual protocol
}

void FastSim::set_output_callback(
    std::function<void(const poly::IntVec&, double)> callback) {
  impl_->output_callback = std::move(callback);
}

void FastSim::set_output_ranks(double* values, const std::int64_t* ranks) {
  impl_->sink_values = values;
  impl_->sink_ranks = ranks;
}

bool FastSim::done() const { return impl_->done(); }

std::int64_t FastSim::cycle() const { return impl_->cycle; }

std::int64_t FastSim::kernel_fires() const {
  return impl_->result.kernel_fires;
}

std::int64_t FastSim::fifo_fill(std::size_t system, std::size_t fifo) const {
  return impl_->systems.at(system).fifos.at(fifo).count;
}

std::int64_t FastSim::last_step_width() const {
  return impl_->last_retired;
}

double FastSim::Impl::read_source(FastSystem& sys, FastFilter& filter) {
  if (sys.synthetic[filter.segment]) {
    return stencil::synthetic_value(options.seed, sys.design->array_index,
                                    filter.in.point());
  }
  return sys.feeds[filter.segment]->read(filter.in.point());
}

void FastSim::Impl::tick_feeds() {
  for (FastSystem& sys : systems) {
    for (std::size_t seg = 0; seg < sys.feeds.size(); ++seg) {
      if (!sys.synthetic[seg]) sys.feeds[seg]->tick();
    }
  }
}

/// Same downstream-to-upstream hypothesis resolution as the reference
/// backend (and the generated RTL's advance logic), fused with the
/// availability/match evaluation so the common firing cycle touches no
/// scratch state at all. Side-effect free; ExternalFeed::available is pure
/// by contract so re-evaluating it on a stall cycle is safe.
bool FastSim::Impl::hypothesize(const FastSystem& sys) const {
  const std::size_t n = sys.filters.size();
  bool fire = true;
  bool downstream_advances = true;  // filter n-1 has no downstream FIFO
  for (std::size_t k = n; k-- > 0;) {
    const FastFilter& filter = sys.filters[k];
    bool avail = false;
    if (filter.out.is_valid) {  // else: done forwarding
      if (filter.segment >= 0) {
        avail = filter.in.is_valid &&
                (sys.synthetic[filter.segment] != 0 ||
                 sys.feeds[filter.segment]->available(filter.in.point()));
      } else {
        avail = sys.fifos[k - 1].count > 0;
      }
    }
    bool space = true;
    if (k + 1 < n && !sys.fifos[k].cut) {
      const FastFifo& fifo = sys.fifos[k];
      space = fifo.count < fifo.capacity || downstream_advances;
    }
    const bool advances = avail && space;
    fire = fire && advances && filter.in_pos == filter.next_match;
    downstream_advances = advances;
  }
  return fire;
}

/// Materializes per-filter avail/match flags -- only needed on stall
/// cycles (for the hold-vs-discard commit and the deadlock diagnostic) and
/// on traced cycles.
void FastSim::Impl::fill_scratch(FastSystem& sys) {
  const std::size_t n = sys.filters.size();
  for (std::size_t k = 0; k < n; ++k) {
    FastFilter& filter = sys.filters[k];
    bool avail = false;
    if (filter.out.is_valid) {
      if (filter.segment >= 0) {
        avail = filter.in.is_valid &&
                (sys.synthetic[filter.segment] != 0 ||
                 sys.feeds[filter.segment]->available(filter.in.point()));
      } else {
        avail = sys.fifos[k - 1].count > 0;
      }
    }
    sys.avail[k] = avail ? 1 : 0;
    sys.match[k] = (avail && filter.in_pos == filter.next_match) ? 1 : 0;
    sys.advance[k] = 0;
  }
}

/// On a firing cycle every filter consumes and forwards: pops first (so a
/// full FIFO drained this cycle can accept a push), then pushes, then the
/// output counters advance past the matched point.
void FastSim::Impl::commit_fire(FastSystem& sys) {
  const std::size_t n = sys.filters.size();
  for (std::size_t k = 0; k < n; ++k) {
    sys.advance[k] = 1;
    FastFilter& filter = sys.filters[k];
    if (filter.segment >= 0) {
      sys.moved[k] = read_source(sys, filter);
      filter.in.advance();
    } else {
      sys.moved[k] = sys.fifos[k - 1].pop();
    }
    ++filter.in_pos;
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (k + 1 < n && !sys.fifos[k].cut) {
      sys.fifos[k].push(sys.moved[k]);
    }
    FastFilter& filter = sys.filters[k];
    filter.out.advance();
    filter.reseek();
  }
}

/// On a non-firing cycle matching filters hold their token; the rest
/// discard and forward as space permits (reference commit_advances with
/// fire = false).
void FastSim::Impl::commit_stalled(FastSystem& sys) {
  const std::size_t n = sys.filters.size();
  bool downstream_advances = true;
  for (std::size_t k = n; k-- > 0;) {
    bool space = true;
    if (k + 1 < n && !sys.fifos[k].cut) {
      const FastFifo& fifo = sys.fifos[k];
      space = fifo.count < fifo.capacity || downstream_advances;
    }
    sys.advance[k] =
        (sys.avail[k] != 0 && space && sys.match[k] == 0) ? 1 : 0;
    downstream_advances = sys.advance[k] != 0;
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (!sys.advance[k]) continue;
    FastFilter& filter = sys.filters[k];
    if (filter.segment >= 0) {
      sys.moved[k] = read_source(sys, filter);
      filter.in.advance();
    } else {
      sys.moved[k] = sys.fifos[k - 1].pop();
    }
    ++filter.in_pos;
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (!sys.advance[k]) continue;
    if (k + 1 < n && !sys.fifos[k].cut) {
      sys.fifos[k].push(sys.moved[k]);
    }
  }
}

/// On a firing cycle every matching filter's candidate is its output
/// counter's point (that is what the integer match test established); the
/// counters themselves must agree with A[i + f_k] for the current
/// iteration, component-wise so no temporary point is built.
void FastSim::Impl::validate_ports() const {
  const poly::IntVec& i = kernel_cursor.point();
  for (const FastSystem& sys : systems) {
    for (std::size_t k = 0; k < sys.filters.size(); ++k) {
      const poly::IntVec& got = sys.filters[k].out.point();
      const poly::IntVec& offset = sys.design->ordered_offsets[k];
      for (std::size_t d = 0; d < i.size(); ++d) {
        if (got[d] != i[d] + offset[d]) {
          throw SimulationError(
              "kernel port mismatch at iteration " + poly::to_string(i) +
              ": filter " + std::to_string(k) + " of array " +
              sys.design->array + " delivered " + poly::to_string(got) +
              ", expected " + poly::to_string(poly::add(i, offset)));
        }
      }
    }
  }
}

void FastSim::Impl::commit_kernel() {
  const poly::IntVec& i = kernel_cursor.point();
  std::size_t base = 0;
  for (const FastSystem& sys : systems) {
    for (std::size_t k = 0; k < sys.filters.size(); ++k) {
      gathered[base + sys.design->ref_order[k]] = sys.moved[k];
    }
    base += sys.filters.size();
  }
  const double output = program->kernel()(gathered);
  if (options.record_outputs) result.outputs.push_back(output);
  if (sink_values) sink_values[sink_ranks[result.kernel_fires]] = output;
  if (output_callback) output_callback(i, output);
  kernel_cursor.advance();
  ++result.kernel_fires;
  if (result.kernel_fires == 1) result.fill_latency = cycle;
  last_fire_cycle = cycle;
}

void FastSim::Impl::record_trace(bool fire) {
  CycleTrace trace;
  trace.cycle = cycle;
  const FastSystem& sys = systems.front();
  trace.stream_point = stream_point_this_cycle;
  trace.filters.reserve(sys.filters.size());
  for (std::size_t k = 0; k < sys.filters.size(); ++k) {
    FilterStatus status = FilterStatus::kStalled;
    if (!sys.filters[k].out.valid()) {
      status = FilterStatus::kDone;
    } else if (sys.advance[k]) {
      status = (fire && sys.match[k]) ? FilterStatus::kForward
                                      : FilterStatus::kDiscard;
    }
    trace.filters.push_back(status);
  }
  for (const FastFifo& fifo : sys.fifos) {
    trace.fifo_fill.push_back(fifo.count);
  }
  result.trace.push_back(std::move(trace));
}

std::string FastSim::Impl::describe_stall() const {
  std::ostringstream out;
  out << "no progress at cycle " << cycle << ";";
  for (const FastSystem& sys : systems) {
    out << " array " << sys.design->array << ": filters[";
    for (std::size_t k = 0; k < sys.filters.size(); ++k) {
      if (!sys.filters[k].out.valid()) {
        out << '.';
      } else if (sys.match[k]) {
        out << 'F';  // wants to forward
      } else if (sys.avail[k]) {
        out << 'd';
      } else {
        out << 's';
      }
    }
    out << "] fifo_fill[";
    for (std::size_t k = 0; k < sys.fifos.size(); ++k) {
      if (k > 0) out << ',';
      out << sys.fifos[k].count << '/' << sys.fifos[k].capacity;
    }
    out << "]";
  }
  return out.str();
}

/// Length of the guaranteed-firing run that starts at the next cycle: the
/// number of consecutive micro-cycles on which every filter of every chain
/// provably fires. Each filter's match is established and runs on for
/// match_run stream ranks; every cursor bounds the run by what is left of
/// its row interval; a non-head's upstream FIFO is non-empty (occupancy is
/// invariant across firing cycles, so one element now means one element on
/// every cycle of the run); a head's feed is synthetic or time-invariant
/// (available for every point by contract). 0 when the next cycle must
/// take the per-cycle path. Side-effect free.
std::int64_t FastSim::Impl::burst_length() {
  if (!kernel_cursor.is_valid) return 0;
  if (options.trace_cycles > 0 && cycle < options.trace_cycles) return 0;
  if (options.validate && !ports_structurally_valid) return 0;
  std::int64_t run = std::min(kernel_cursor.remaining_in_interval(),
                              options.max_cycles - cycle);
  for (const FastSystem& sys : systems) {
    for (std::size_t k = 0; k < sys.filters.size(); ++k) {
      const FastFilter& filter = sys.filters[k];
      if (!filter.out.is_valid || filter.in_pos != filter.next_match) {
        return 0;
      }
      run = std::min({run, filter.match_run,
                      filter.out.remaining_in_interval()});
      if (filter.segment >= 0) {
        run = std::min(run, filter.in.remaining_in_interval());
      } else if (sys.fifos[k - 1].count <= 0) {
        return 0;
      }
    }
  }
  for (const FastSystem& sys : systems) {
    for (const FastFilter& filter : sys.filters) {
      if (filter.segment >= 0 && !sys.synthetic[filter.segment] &&
          !sys.feeds[filter.segment]->time_invariant()) {
        return 0;
      }
    }
  }
  return std::max<std::int64_t>(run, 0);
}

/// Retires `count` <= kBlock firing micro-cycles of a burst. Each uncut
/// FIFO between firing filters sees one pop + one push per cycle
/// (occupancy invariant), so the values a filter consumes are the FIFO's
/// take = min(count_in_fifo, count) oldest elements followed by the first
/// count - take values its upstream neighbour consumed in this same block
/// (pushed at cycle j, popped at cycle j + occupancy); the FIFO afterwards
/// holds the last `take` upstream values. Cursors advance but are not
/// re-seeked: retire_burst does that once at the end.
void FastSim::Impl::retire_block(std::int64_t count) {
  for (FastSystem& sys : systems) {
    for (std::size_t k = 0; k < sys.filters.size(); ++k) {
      FastFilter& filter = sys.filters[k];
      double* block = lane_vals.data() + sys.lane_slot[k] * kBlock;
      if (filter.segment >= 0) {
        const poly::IntVec& first = filter.in.point();
        if (sys.synthetic[filter.segment]) {
          // The outer coordinates are fixed across the block.
          std::uint64_t row =
              stencil::synthetic_state(options.seed, sys.design->array_index);
          for (std::size_t d = 0; d + 1 < first.size(); ++d) {
            row = stencil::synthetic_mix(row, first[d]);
          }
          for (std::int64_t l = 0; l < count; ++l) {
            block[l] = stencil::synthetic_unit(
                stencil::synthetic_mix(row, first.back() + l));
          }
        } else {
          sys.feeds[filter.segment]->read_run(first, count, block);
        }
        filter.in.advance_by(count);
      } else {
        FastFifo& fifo = sys.fifos[k - 1];
        const double* upstream =
            lane_vals.data() + sys.lane_slot[k - 1] * kBlock;
        const std::int64_t take = std::min(fifo.count, count);
        fifo.pop_block(take, block);
        std::memcpy(block + take, upstream,
                    static_cast<std::size_t>(count - take) * sizeof(double));
        fifo.push_block(upstream + (count - take), take);
      }
      filter.in_pos += count;
      filter.out.advance_by(count);
    }
  }

  // The block's kernel fires: the probed weighted sum when it is
  // bit-identical to the program's kernel, otherwise one call per lane.
  if (vec_mode != VecKernelMode::kPerLane) {
    const std::vector<double>& weights = program->weighted_sum_weights();
    run_vec_kernel(vec_mode, lane_vals.data(), kBlock, weights.data(),
                   weights.size(), count, lane_out.data());
  } else {
    for (std::int64_t l = 0; l < count; ++l) {
      for (std::size_t r = 0; r < gathered.size(); ++r) {
        gathered[r] = lane_vals[r * kBlock + l];
      }
      lane_out[l] = program->kernel()(gathered);
    }
  }
  const double* const values = lane_out.data();
  if (options.record_outputs) {
    result.outputs.insert(result.outputs.end(), values, values + count);
  }
  if (sink_values) {
    const std::int64_t* const ranks = sink_ranks + result.kernel_fires;
    for (std::int64_t l = 0; l < count; ++l) sink_values[ranks[l]] = values[l];
  }
  if (output_callback) {
    lane_point = kernel_cursor.point();
    for (std::int64_t l = 0; l < count; ++l) {
      output_callback(lane_point, values[l]);
      ++lane_point.back();
    }
  }
  result.kernel_fires += count;
  kernel_cursor.advance_by(count);
}

/// Retires a guaranteed-firing run of `run` micro-cycles in one step: the
/// state transition is exactly `run` scalar commit_fire/commit_kernel
/// rounds. The datapath accounting is that of W-wide steps followed by a
/// scalar remainder.
void FastSim::Impl::retire_burst(std::int64_t run) {
  if (result.kernel_fires == 0) result.fill_latency = cycle + 1;
  for (std::int64_t done = 0; done < run; done += kBlock) {
    retire_block(std::min(kBlock, run - done));
  }
  for (FastSystem& sys : systems) {
    for (FastFilter& filter : sys.filters) filter.reseek();
  }
  cycle += run;
  datapath_cycles += run / width + run % width;
  last_fire_cycle = cycle;
  result.drain_start = cycle;  // every micro-cycle streamed off-chip data
  stall_cycles = 0;
  last_retired = run;
}

bool FastSim::Impl::step() {
  if (options.vectorize) {
    if (const std::int64_t run = burst_length(); run > 0) {
      retire_burst(run);
      return true;
    }
  }
  ++datapath_cycles;
  last_retired = 1;
  ++cycle;
  const bool tracing =
      options.trace_cycles > 0 && cycle <= options.trace_cycles;
  tick_feeds();

  bool fire = kernel_cursor.valid();
  for (const FastSystem& sys : systems) fire = fire && hypothesize(sys);

  if (tracing) {
    stream_point_this_cycle.clear();
    if (!systems.empty() && !systems.front().filters.empty()) {
      const RowCursor& in = systems.front().filters.front().in;
      if (in.valid()) stream_point_this_cycle = poly::to_string(in.point());
    }
    for (FastSystem& sys : systems) fill_scratch(sys);
  }

  bool progress = fire;
  // Filter 0 is always a segment head, so a firing cycle (every filter
  // consumes) always streams off-chip data; the drain boundary matches the
  // reference backend cycle for cycle.
  bool consumed_off_chip = fire;
  if (fire) {
    // Every filter advances on a firing cycle: no stalls to account.
    if (options.validate && !ports_structurally_valid) validate_ports();
    for (FastSystem& sys : systems) commit_fire(sys);
    commit_kernel();
  } else {
    for (std::size_t s = 0; s < systems.size(); ++s) {
      FastSystem& sys = systems[s];
      if (!tracing) fill_scratch(sys);
      commit_stalled(sys);
      for (std::size_t k = 0; k < sys.filters.size(); ++k) {
        if (sys.advance[k]) {
          progress = true;
          consumed_off_chip =
              consumed_off_chip || sys.filters[k].segment >= 0;
        } else if (sys.filters[k].out.is_valid) {
          ++result.filter_stall_cycles[s][k];
        }
      }
    }
  }
  if (consumed_off_chip) result.drain_start = cycle;

  if (tracing) record_trace(fire);
  if (progress) {
    stall_cycles = 0;
  } else {
    ++stall_cycles;
  }
  return progress;
}

bool FastSim::step() { return impl_->step(); }

SimResult FastSim::run() {
  Impl& im = *impl_;
  while (!im.done() && im.cycle < im.options.max_cycles) {
    im.step();
    if (im.stall_cycles >= im.options.stall_limit) {
      im.result.deadlocked = true;
      im.result.deadlock_detail = im.describe_stall();
      break;
    }
  }
  im.result.cycles = im.cycle;
  im.result.datapath_cycles = im.datapath_cycles;
  if (im.result.kernel_fires >= 2) {
    im.result.steady_ii =
        static_cast<double>(im.last_fire_cycle - im.result.fill_latency) /
        static_cast<double>(im.result.kernel_fires - 1);
  }
  for (std::size_t s = 0; s < im.systems.size(); ++s) {
    for (std::size_t k = 0; k < im.systems[s].fifos.size(); ++k) {
      im.result.fifo_max_fill[s][k] = im.systems[s].fifos[k].max_fill;
    }
  }
  return im.result;
}

namespace {

std::string fills_to_string(const std::vector<std::vector<std::int64_t>>& f) {
  std::ostringstream out;
  for (std::size_t s = 0; s < f.size(); ++s) {
    out << (s > 0 ? " | " : "");
    for (std::size_t k = 0; k < f[s].size(); ++k) {
      out << (k > 0 ? "," : "") << f[s][k];
    }
  }
  return out.str();
}

}  // namespace

DifferentialReport run_differential(const stencil::StencilProgram& program,
                                    const arch::AcceleratorDesign& design,
                                    SimOptions options) {
  DifferentialReport report;
  report.width = std::max<std::int64_t>(1, design.datapath_width);
  AcceleratorSim ref(program, design, options);
  FastSim fast(program, design, options);

  const auto diverge = [&](const std::string& what) {
    report.agreed = false;
    std::ostringstream out;
    out << "cycle " << report.cycles << ": " << what;
    report.divergence = out.str();
  };

  // Lockstep comparison, replicating run()'s stall accounting. One fast
  // step may retire a burst of R scalar micro-cycles; the reference is
  // stepped that many times and the states compared at the burst boundary
  // (the burst preconditions guarantee every micro-cycle fired, so the
  // boundary is the only place the flags can be observed anyway).
  std::int64_t stall_cycles = 0;
  std::string ref_error;
  std::string fast_error;
  while (report.agreed && !ref.done() &&
         report.cycles < options.max_cycles) {
    bool ref_progress = false;
    bool fast_progress = false;
    std::int64_t w = 1;
    try {
      fast_progress = fast.step();
      w = fast.last_step_width();
    } catch (const SimulationError& e) {
      fast_error = e.what();
    }
    try {
      for (std::int64_t i = 0; i < w; ++i) ref_progress = ref.step();
    } catch (const SimulationError& e) {
      ref_error = e.what();
    }
    report.cycles += w;
    if (!ref_error.empty() || !fast_error.empty()) {
      if (ref_error.empty() != fast_error.empty()) {
        diverge("one backend raised a validation error: reference='" +
                ref_error + "' fast='" + fast_error + "'");
      }
      break;  // both threw: agreed, both detect the design as broken
    }
    if (ref.cycle() != fast.cycle()) {
      diverge("cycle counters differ: reference=" +
              std::to_string(ref.cycle()) +
              " fast=" + std::to_string(fast.cycle()));
      break;
    }
    if (ref_progress != fast_progress) {
      diverge(std::string("progress flags differ: reference=") +
              (ref_progress ? "true" : "false") + " fast=" +
              (fast_progress ? "true" : "false"));
      break;
    }
    if (ref.kernel_fires() != fast.kernel_fires()) {
      diverge("kernel fires differ: reference=" +
              std::to_string(ref.kernel_fires()) +
              " fast=" + std::to_string(fast.kernel_fires()));
      break;
    }
    bool fills_equal = true;
    for (std::size_t s = 0; fills_equal && s < design.systems.size(); ++s) {
      for (std::size_t k = 0; k < design.systems[s].fifos.size(); ++k) {
        if (ref.fifo_fill(s, k) != fast.fifo_fill(s, k)) {
          diverge("occupancy of fifo (" + std::to_string(s) + "," +
                  std::to_string(k) + ") differs: reference=" +
                  std::to_string(ref.fifo_fill(s, k)) +
                  " fast=" + std::to_string(fast.fifo_fill(s, k)));
          fills_equal = false;
          break;
        }
      }
    }
    if (!fills_equal) break;
    if (ref_progress) {
      stall_cycles = 0;
    } else if (++stall_cycles >= options.stall_limit) {
      break;  // both deadlocked identically; run() below finalizes
    }
  }
  if (!report.agreed || !ref_error.empty()) return report;

  // Finalize both results. run() continues from the current state: a no-op
  // loop when done, exactly one more (identical) stall step when
  // deadlocked.
  report.reference = ref.run();
  report.fast = fast.run();

  const SimResult& a = report.reference;
  const SimResult& b = report.fast;
  if (a.cycles != b.cycles) {
    diverge("total cycles differ: " + std::to_string(a.cycles) + " vs " +
            std::to_string(b.cycles));
  } else if (a.kernel_fires != b.kernel_fires) {
    diverge("kernel fires differ: " + std::to_string(a.kernel_fires) +
            " vs " + std::to_string(b.kernel_fires));
  } else if (a.fill_latency != b.fill_latency) {
    diverge("fill latency differs: " + std::to_string(a.fill_latency) +
            " vs " + std::to_string(b.fill_latency));
  } else if (a.steady_ii != b.steady_ii) {
    diverge("steady II differs");
  } else if (a.deadlocked != b.deadlocked) {
    diverge(std::string("deadlock verdicts differ: reference=") +
            (a.deadlocked ? "yes" : "no") + " fast=" +
            (b.deadlocked ? "yes" : "no"));
  } else if (a.deadlock_detail != b.deadlock_detail) {
    diverge("deadlock diagnostics differ: '" + a.deadlock_detail +
            "' vs '" + b.deadlock_detail + "'");
  } else if (a.fifo_max_fill != b.fifo_max_fill) {
    diverge("max FIFO fills differ: " + fills_to_string(a.fifo_max_fill) +
            " vs " + fills_to_string(b.fifo_max_fill));
  } else if (a.filter_stall_cycles != b.filter_stall_cycles) {
    diverge("filter stall cycles differ: " +
            fills_to_string(a.filter_stall_cycles) + " vs " +
            fills_to_string(b.filter_stall_cycles));
  } else if (a.drain_start != b.drain_start) {
    diverge("drain boundaries differ: " + std::to_string(a.drain_start) +
            " vs " + std::to_string(b.drain_start));
  } else if (a.outputs != b.outputs) {
    diverge("outputs differ (" + std::to_string(a.outputs.size()) + " vs " +
            std::to_string(b.outputs.size()) + " values)");
  }
  return report;
}

}  // namespace nup::sim
