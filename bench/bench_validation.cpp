// Validation of the machine-simulator substitution (DESIGN.md): the
// simulator's 1-worker makespan for a task program with known task costs
// must match the *measured* wall-clock time of really executing the same
// program on this single-core host (the only configuration the host can
// validate directly). Agreement here is what licenses the simulated
// multi-worker speedups of bench_fig10 / bench_fig11.

#include "bench_common.hpp"

#include "codegen/task_program.hpp"
#include "kernels/compute.hpp"
#include "kernels/suite.hpp"
#include "kernels/suite_runner.hpp"
#include "tasking/executor.hpp"

#include <cstdio>

int main() {
  using namespace pipoly;
  std::printf("== Validation: measured execution vs simulated 1-worker "
              "makespan ==\n\n");

  bench::Table table({"prog", "measured_ms", "simulated_ms", "ratio",
                      "tasks"});

  for (const char* name : {"P1", "P3", "P5"}) {
    const kernels::ProgramSpec& spec = kernels::programByName(name);
    scop::Scop scop = kernels::buildProgram(spec, 10);
    codegen::TaskProgram prog = codegen::compilePipeline(scop);

    const int size = 2;
    // Real execution on one worker, timed end to end.
    kernels::SuiteRunner runner(spec, scop, size);
    auto layer = tasking::makeThreadPoolBackend(1);
    Stopwatch sw;
    tasking::executeTaskProgram(prog, *layer, runner.executor());
    const double measured = sw.seconds();

    // Simulation with measured per-iteration costs.
    sim::CostModel model;
    for (int num : spec.nums)
      model.iterationCost.push_back(kernels::measureComputeCost(num, size));
    model.taskOverhead = bench::measureTaskOverhead();
    sim::SimResult r = sim::simulate(prog, model, sim::SimConfig{1});

    table.addRow({name, bench::fmt(measured * 1e3, 2),
                  bench::fmt(r.makespan * 1e3, 2),
                  bench::fmt(measured / r.makespan, 3),
                  std::to_string(prog.tasks.size())});
  }
  table.print();
  std::printf("\nExpectation: ratio ~ 1.0 (the simulator's cost model is "
              "calibrated from the same measured kernels).\n");
  return 0;
}
