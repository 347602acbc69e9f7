#include "temporal/runner.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <utility>

#include "obs/trace.hpp"
#include "pipeline/stage_buffer.hpp"
#include "temporal/golden.hpp"

namespace nup::temporal {

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

std::int64_t residual_micro(double residual) {
  const double scaled = residual * 1e6;
  if (scaled >= static_cast<double>(
                    std::numeric_limits<std::int64_t>::max())) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return std::llround(std::max(scaled, 0.0));
}

}  // namespace

struct TemporalRunner::InFlight {
  std::size_t idx = 0;   ///< index into the seeds/outcomes vectors
  std::size_t pass = 0;
  std::uint64_t trace_id = 0;  ///< one causal id across all passes
  pipeline::PipelineHandle handle;
  /// Previous pass output restricted to the target domain, kept only
  /// while the convergence monitor is on.
  std::shared_ptr<const std::vector<double>> prev_target;
  double last_residual = -1.0;
};

TemporalRunner::TemporalRunner(const stencil::StencilProgram& program,
                               const TemporalConfig& config,
                               RunnerOptions options)
    : schedule_(plan_temporal(program, config)),
      options_(std::move(options)) {
  const std::string effective = options_.pipeline.name.empty()
                                    ? program.name()
                                    : options_.pipeline.name;
  metric_prefix_ = "temporal." + effective + ".";
  obs::Registry& reg = options_.pipeline.metrics
                           ? *options_.pipeline.metrics
                           : obs::Registry::global();
  c_passes_ = &reg.counter(metric_prefix_ + "passes_completed");
  c_generations_ = &reg.counter(metric_prefix_ + "generations_completed");
  c_frames_ = &reg.counter(metric_prefix_ + "frames_completed");
  c_converged_ = &reg.counter(metric_prefix_ + "converged_frames");
  c_saved_ = &reg.counter(metric_prefix_ + "generations_saved");
  h_residual_ = &reg.histogram(metric_prefix_ + "pass_residual");
  journal_ = options_.pipeline.journal ? options_.pipeline.journal
                                       : &obs::Journal::global();
  jname_ = journal_->intern("temporal." + effective);
  t_frame_ = obs::Tracer::global().intern("temporal.frame", "temporal");
  t_flow_ = obs::Tracer::global().intern("frame", "temporal");

  for (std::size_t k = 0; k < schedule_.shapes.size(); ++k) {
    pipeline::PipelineOptions po = options_.pipeline;
    po.name = effective;
    if (schedule_.shapes.size() > 1) po.name += ".sh" + std::to_string(k);
    if (config.boundary == stencil::BoundaryPolicy::kWrap) {
      // A wrapped halo read reaches the opposite edge of the grid, so a
      // consumer tile may need any producer row: force whole-frame tiles
      // (<= 0 extents select the full dimension).
      po.tile_shape.assign(program.dim(), 0);
    }
    executors_.push_back(std::make_unique<pipeline::PipelineExecutor>(
        schedule_.shapes[k].graph, std::move(po)));
  }
}

TemporalRunner::~TemporalRunner() { shutdown(); }

void TemporalRunner::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  for (auto& executor : executors_) {
    executor->shutdown(pipeline::PipelineExecutor::Drain::kDrainAll);
  }
}

pipeline::PipelineHandle TemporalRunner::submit_pass(
    std::uint64_t seed, std::size_t pass, std::uint64_t trace_id,
    const std::shared_ptr<const std::vector<double>>& prev,
    const poly::IntVec& prev_lo, const poly::IntVec& prev_hi) {
  pipeline::PipelineExecutor& executor =
      *executors_[schedule_.pass_shape[pass]];
  const PassShape& shape = schedule_.shapes[schedule_.pass_shape[pass]];
  journal_->record(obs::JournalKind::kPassStarted, trace_id, -1, -1,
                   static_cast<std::int64_t>(pass),
                   static_cast<std::int64_t>(shape.replicas), jname_);
  pipeline::FrameOptions frame;
  // One causal identity across all passes of the frame: the runner owns
  // the trace lane (async begin/end, flow start/end); each pass's stage
  // tiles bind to it through flow steps.
  frame.frame_id = trace_id;
  frame.own_frame_events = false;
  if (pass == 0) return executor.submit(seed, std::move(frame));

  // Chain: the pass's first replica streams the previous pass's sink
  // output instead of synthetic DRAM. A value policy wraps the slice so
  // halo reads past the previous generation's box are defined; kShrink
  // needs no wrapper (the replica's grown domain is contained by
  // construction).
  pipeline::Slice slice;
  slice.data = prev;
  slice.lo = prev_lo;
  slice.hi = prev_hi;
  const stencil::BoundaryPolicy boundary = schedule_.config.boundary;
  const double constant = schedule_.config.constant_value;
  frame.external_feed = [slice, boundary, constant](
                            std::size_t stage, std::size_t input,
                            const runtime::Tile&)
      -> std::shared_ptr<sim::ExternalFeed> {
    if (stage != 0 || input != 0) return nullptr;
    auto feed = std::make_shared<pipeline::SliceFeed>(slice);
    if (stencil::is_containment_policy(boundary)) return feed;
    return std::make_shared<pipeline::BoundaryFeed>(
        std::move(feed), slice.lo, slice.hi, boundary, constant);
  };
  return executor.submit(seed, std::move(frame));
}

std::vector<double> TemporalRunner::restrict_to_target(
    const std::vector<double>& data, const poly::IntVec& lo,
    const poly::IntVec& hi) const {
  if (lo == schedule_.domain_lo && hi == schedule_.domain_hi) return data;
  const std::vector<std::int64_t> strides = row_major_strides(lo, hi);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(
      poly::Domain::box(schedule_.domain_lo, schedule_.domain_hi).count()));
  poly::Domain::box(schedule_.domain_lo, schedule_.domain_hi)
      .for_each([&](const poly::IntVec& h) {
        out.push_back(
            data[static_cast<std::size_t>(box_index(h, lo, strides))]);
      });
  return out;
}

FrameOutcome TemporalRunner::run(std::uint64_t seed) {
  return run_frames({seed})[0];
}

std::vector<FrameOutcome> TemporalRunner::run_frames(
    const std::vector<std::uint64_t>& seeds) {
  if (shut_down_) {
    throw TemporalError("TemporalRunner::run_frames: runner is shut down");
  }
  std::vector<FrameOutcome> outcomes(seeds.size());
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    outcomes[k].seed = seeds[k];
  }
  const std::size_t window = std::max<std::size_t>(
      options_.max_passes_in_flight, 1);
  const bool monitor = options_.tolerance > 0.0;
  const std::size_t num_passes =
      static_cast<std::size_t>(schedule_.num_passes);

  std::deque<InFlight> in_flight;
  std::size_t next_frame = 0;
  obs::Tracer& tracer = obs::Tracer::global();
  const auto admit = [&] {
    if (next_frame >= seeds.size()) return;
    InFlight f;
    f.idx = next_frame;
    f.pass = 0;
    f.trace_id = obs::next_frame_id();
    journal_->record(obs::JournalKind::kFrameAdmitted, f.trace_id, -1, -1,
                     0, static_cast<std::int64_t>(num_passes), jname_);
    tracer.async_begin(t_frame_, f.trace_id, seeds[next_frame]);
    tracer.flow_start(t_flow_, f.trace_id);
    f.handle = submit_pass(seeds[next_frame], 0, f.trace_id, nullptr, {}, {});
    in_flight.push_back(std::move(f));
    ++next_frame;
  };
  // Closes the frame's trace lane and journals its terminal event.
  const auto finish_frame = [&](const InFlight& f, bool failed,
                                std::int64_t generations) {
    journal_->record(failed ? obs::JournalKind::kFrameFailed
                            : obs::JournalKind::kFrameCompleted,
                     f.trace_id, -1, -1, generations,
                     static_cast<std::int64_t>(f.pass), jname_);
    tracer.flow_end(t_flow_, f.trace_id);
    tracer.async_end(t_frame_, f.trace_id);
  };
  while (in_flight.size() < window && next_frame < seeds.size()) admit();

  while (!in_flight.empty()) {
    InFlight f = std::move(in_flight.front());
    in_flight.pop_front();
    FrameOutcome& outcome = outcomes[f.idx];
    const pipeline::PipelineResult& result = f.handle.wait();
    if (!result.ok()) {
      outcome.error = "pass " + std::to_string(f.pass) + ": " +
                      (result.cancelled ? "cancelled" : result.error);
      outcome.passes_completed = static_cast<std::int64_t>(f.pass);
      finish_frame(f, /*failed=*/true, outcome.generations_completed);
      admit();
      continue;
    }

    const PassShape& shape = schedule_.shapes[schedule_.pass_shape[f.pass]];
    const std::size_t sink = shape.graph.stage_count() - 1;
    const std::vector<double>& out = result.stages[sink].outputs;
    poly::IntVec out_lo, out_hi;
    schedule_.pass_output_box(f.pass, &out_lo, &out_hi);

    c_passes_->inc();
    c_generations_->add(static_cast<std::int64_t>(shape.replicas));
    outcome.passes_completed = static_cast<std::int64_t>(f.pass) + 1;
    outcome.generations_completed =
        schedule_.first_generation[f.pass] +
        static_cast<std::int64_t>(shape.replicas) - 1;

    bool converged = false;
    std::vector<double> restricted;
    if (monitor || f.pass + 1 == num_passes) {
      restricted = restrict_to_target(out, out_lo, out_hi);
    }
    if (monitor && f.pass > 0) {
      const double residual = max_abs_delta(restricted, *f.prev_target);
      h_residual_->observe(residual_micro(residual));
      outcome.last_residual = residual;
      f.last_residual = residual;
      converged = residual <= options_.tolerance;
    }

    if (converged || f.pass + 1 == num_passes) {
      outcome.outputs = std::move(restricted);
      outcome.converged_early = converged && f.pass + 1 < num_passes;
      c_frames_->inc();
      if (outcome.converged_early) {
        c_converged_->inc();
        c_saved_->add(schedule_.config.timesteps -
                      outcome.generations_completed);
      }
      finish_frame(f, /*failed=*/false, outcome.generations_completed);
      admit();
      continue;
    }

    InFlight next;
    next.idx = f.idx;
    next.pass = f.pass + 1;
    next.trace_id = f.trace_id;
    next.last_residual = f.last_residual;
    if (monitor) {
      next.prev_target =
          std::make_shared<const std::vector<double>>(std::move(restricted));
    }
    next.handle =
        submit_pass(outcome.seed, next.pass, next.trace_id,
                    std::make_shared<const std::vector<double>>(out),
                    out_lo, out_hi);
    in_flight.push_back(std::move(next));
  }
  return outcomes;
}

std::size_t TemporalRunner::pinned_designs() const {
  std::size_t pinned = 0;
  for (const auto& executor : executors_) {
    pinned += executor->engine().stats().cache.pinned;
  }
  return pinned;
}

}  // namespace nup::temporal
