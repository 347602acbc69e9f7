// Stage-pipelined execution: a three-pass smoothing chain runs with
// tile-granular producer-consumer overlap -- stage k+1 starts a tile the
// moment the stage-k tiles covering its halo have resolved, instead of
// waiting for the whole upstream frame.
//
// The same chain runs twice: once pipelined and once with the
// frame-barrier baseline (identical engine, buffers and stitching; only
// the dependency structure differs). Outputs are bit-identical; the
// timing lines show the sink stage starting long before the first stage
// finishes.
//
//   $ ./pipelined_stages

#include <cstdio>

#include "pipeline/executor.hpp"
#include "pipeline/stage_graph.hpp"
#include "stencil/fuse.hpp"
#include "stencil/gallery.hpp"

namespace {

using namespace nup;

stencil::StencilProgram smoother(const std::string& name, std::int64_t lo,
                                 std::int64_t rows, std::int64_t cols) {
  stencil::StencilProgram p(
      name, poly::Domain::box({lo, lo}, {rows - 1 - lo, cols - 1 - lo}));
  p.add_input("A", {{-1, 0}, {0, -1}, {0, 0}, {0, 1}, {1, 0}});
  p.set_kernel(stencil::make_weighted_sum({0.1, 0.2, 0.4, 0.2, 0.1}));
  return p;
}

pipeline::PipelineResult run_chain(const pipeline::StageGraph& graph,
                                   bool barrier) {
  pipeline::PipelineOptions options;
  options.name = barrier ? "barrier" : "pipelined";
  options.tile_shape = {16, 0};
  options.barrier = barrier;
  pipeline::PipelineExecutor executor(graph, options);
  return executor.submit(/*seed=*/42).wait();
}

}  // namespace

int main() {
  using namespace nup;
  const std::int64_t rows = 192;
  const std::int64_t cols = 256;

  // Successive halos shrink each stage's domain: the window algebra of
  // every edge is validated at graph construction (a reference escaping
  // the producer's domain is a typed FuseDomainError).
  const std::vector<stencil::StencilProgram> stages = {
      smoother("PASS1", 1, rows, cols), smoother("PASS2", 2, rows, cols),
      smoother("PASS3", 3, rows, cols)};
  const pipeline::StageGraph graph = pipeline::StageGraph::chain(stages);
  std::printf("chain: %zu stages, %zu edges on %lldx%lld\n\n",
              graph.stage_count(), graph.edges().size(),
              static_cast<long long>(rows), static_cast<long long>(cols));

  const pipeline::PipelineResult piped = run_chain(graph, false);
  const pipeline::PipelineResult barrier = run_chain(graph, true);
  if (!piped.ok() || !barrier.ok()) {
    std::fprintf(stderr, "frame failed: %s%s\n", piped.error.c_str(),
                 barrier.error.c_str());
    return 1;
  }

  std::printf("%-8s %22s %22s\n", "stage", "pipelined first/last",
              "barrier first/last");
  for (std::size_t s = 0; s < graph.stage_count(); ++s) {
    std::printf("%-8s %10lld/%-11lld %10lld/%-11lld\n",
                graph.stages()[s].program.name().c_str(),
                static_cast<long long>(piped.timing[s].first_tile_us),
                static_cast<long long>(piped.timing[s].last_tile_us),
                static_cast<long long>(barrier.timing[s].first_tile_us),
                static_cast<long long>(barrier.timing[s].last_tile_us));
  }
  std::printf("\nsink first output: %lld us pipelined vs %lld us with "
              "frame barriers (frame totals %lld vs %lld us)\n",
              static_cast<long long>(piped.timing.back().first_tile_us),
              static_cast<long long>(barrier.timing.back().first_tile_us),
              static_cast<long long>(piped.total_us),
              static_cast<long long>(barrier.total_us));

  // Bounded inter-stage memory: each edge buffer holds a moving band of
  // producer tiles, retired as their last consumer is served.
  for (std::size_t e = 0; e < graph.edges().size(); ++e) {
    std::printf("edge %s: peak %zu tiles buffered, %lld retired\n",
                graph.edges()[e].label.c_str(), piped.edges[e].max_tiles,
                static_cast<long long>(piped.edges[e].retired));
  }

  // Both schedules produce bit-identical sink outputs.
  const std::vector<double>& a = piped.stages.back().outputs;
  const std::vector<double>& b = barrier.stages.back().outputs;
  std::printf("\nsink outputs bit-identical across schedules: %s\n",
              a == b ? "yes" : "NO");
  return a == b ? 0 : 1;
}
