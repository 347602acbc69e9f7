#include "stencil/golden.hpp"

#include "poly/domain.hpp"

namespace nup::stencil {

GoldenRun run_golden(const StencilProgram& program, std::uint64_t seed) {
  GoldenRun run;
  run.outputs.reserve(
      static_cast<std::size_t>(program.iteration().count()));
  std::vector<double> gathered;
  gathered.reserve(program.total_references());
  const KernelFn& kernel = program.kernel();

  for (poly::Domain::LexCursor cursor(program.iteration()); cursor.valid();
       cursor.advance()) {
    const poly::IntVec& i = cursor.point();
    gathered.clear();
    for (std::size_t a = 0; a < program.inputs().size(); ++a) {
      for (const ArrayReference& ref : program.inputs()[a].refs) {
        gathered.push_back(
            synthetic_value(seed, a, poly::add(i, ref.offset)));
      }
    }
    run.outputs.push_back(kernel(gathered));
  }
  return run;
}

}  // namespace nup::stencil
