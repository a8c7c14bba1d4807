#include "sim/simulator.hpp"

#include "codegen/task_program.hpp"
#include "pipeline/comm.hpp"
#include "pipeline/detect.hpp"
#include "kernels/suite.hpp"
#include "support/assert.hpp"
#include "testing/fixtures.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace pipoly::sim {
namespace {

CostModel uniformModel(std::size_t numStatements, double cost) {
  CostModel m;
  m.iterationCost.assign(numStatements, cost);
  return m;
}

TEST(SimulatorTest, SequentialTimeIsSumOfWork) {
  scop::Scop scop = testing::chain(3, 9); // 3 nests, 9x9 iterations each
  CostModel m = uniformModel(3, 1.0);
  EXPECT_DOUBLE_EQ(sequentialTime(scop, m), 243.0);
  EXPECT_DOUBLE_EQ(maxNestTime(scop, m), 81.0);
}

TEST(SimulatorTest, OneWorkerEqualsTotalWork) {
  scop::Scop scop = testing::chain(3, 9);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  CostModel m = uniformModel(3, 1.0);
  SimResult r = simulate(prog, m, SimConfig{1});
  EXPECT_DOUBLE_EQ(r.makespan, r.totalWork);
  EXPECT_DOUBLE_EQ(r.totalWork, sequentialTime(scop, m));
}

TEST(SimulatorTest, PaperEquation5Bounds) {
  // time(L_max) <= time(pipeline) <= time(sequential) for several kernels
  // and worker counts.
  for (auto scop : {testing::chain(4, 9), testing::listing3(16)}) {
    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    CostModel m = uniformModel(scop.numStatements(), 1.0);
    for (unsigned workers : {2u, 4u, 8u}) {
      SimResult r = simulate(prog, m, SimConfig{workers});
      EXPECT_GE(r.makespan, maxNestTime(scop, m) - 1e-9);
      EXPECT_LE(r.makespan, sequentialTime(scop, m) + 1e-9);
    }
  }
}

TEST(SimulatorTest, PipeliningBeatsSequentialOnChains) {
  // A chain of equal nests with element-wise coupling overlaps almost
  // completely: the makespan with enough workers approaches
  // time(L_max) plus the pipeline fill.
  scop::Scop scop = testing::chain(4, 15);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  CostModel m = uniformModel(4, 1.0);
  SimResult r = simulate(prog, m, SimConfig{8});
  const double seq = sequentialTime(scop, m);
  EXPECT_LT(r.makespan, 0.55 * seq) << "expected >1.8x speedup on a 4-chain";
}

TEST(SimulatorTest, MoreWorkersNeverSlower) {
  scop::Scop scop = testing::listing3(16);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  CostModel m = uniformModel(3, 1.0);
  double prev = simulate(prog, m, SimConfig{1}).makespan;
  for (unsigned workers : {2u, 3u, 4u, 8u}) {
    double cur = simulate(prog, m, SimConfig{workers}).makespan;
    EXPECT_LE(cur, prev + 1e-9) << workers << " workers";
    prev = cur;
  }
}

TEST(SimulatorTest, MakespanAtLeastCriticalPath) {
  scop::Scop scop = testing::listing3(16);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  CostModel m = uniformModel(3, 1.0);
  for (unsigned workers : {1u, 2u, 8u}) {
    SimResult r = simulate(prog, m, SimConfig{workers});
    EXPECT_GE(r.makespan, r.criticalPath - 1e-9);
  }
}

TEST(SimulatorTest, InDependencyOnALaterTaskIsRejected) {
  // A hand-assembled program whose first task waits for the second one's
  // out tag: no creation-order schedule exists. The tag-path simulate()
  // resolves through opt::buildSlotTable and fails with its error.
  codegen::TaskProgram prog;
  prog.numStatements = 1;
  for (std::size_t i = 0; i < 2; ++i) {
    codegen::Task task;
    task.id = i;
    task.blockRep = pb::Tuple{static_cast<pb::Value>(i)};
    task.iterations = {task.blockRep};
    task.out = {0, static_cast<std::int64_t>(i)};
    prog.tasks.push_back(std::move(task));
  }
  prog.tasks[0].in = {{0, 1, false}};

  std::string expected;
  try {
    (void)opt::buildSlotTable(prog);
  } catch (const Error& e) {
    expected = e.what();
  }
  ASSERT_NE(expected.find("later task"), std::string::npos) << expected;
  try {
    (void)simulate(prog, uniformModel(1, 1.0), SimConfig{2});
    ADD_FAILURE() << "simulate accepted a dependency on a later task";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

TEST(SimulatorTest, TaskOverheadIncreasesMakespan) {
  scop::Scop scop = testing::chain(3, 9);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  CostModel cheap = uniformModel(3, 1.0);
  CostModel costly = cheap;
  costly.taskOverhead = 0.5;
  EXPECT_GT(simulate(prog, costly, SimConfig{4}).makespan,
            simulate(prog, cheap, SimConfig{4}).makespan);
}

TEST(SimulatorTest, UtilizationBounded) {
  scop::Scop scop = testing::chain(4, 9);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  CostModel m = uniformModel(4, 1.0);
  SimResult r = simulate(prog, m, SimConfig{4});
  EXPECT_GT(r.utilization(), 0.0);
  EXPECT_LE(r.utilization(), 1.0 + 1e-9);
}

TEST(SimulatorTest, HeterogeneousCostsShiftTheBottleneck) {
  // Make the last nest dominant; the makespan must be at least its time
  // (eq. 5's L_max bound) even with many workers.
  scop::Scop scop = testing::chain(3, 9);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  CostModel m;
  m.iterationCost = {1.0, 1.0, 10.0};
  SimResult r = simulate(prog, m, SimConfig{8});
  EXPECT_GE(r.makespan, maxNestTime(scop, m) - 1e-9);
}

// The placement-free channel model on Table-9 programs: every stage has
// its own worker, so no schedule can finish before the busiest stage has
// run all its iterations, and a dearer link can only delay tokens.

struct ChannelCase {
  scop::Scop scop;
  pipeline::CommInfo comm;
  codegen::TaskProgram prog;
};

ChannelCase channelCase(scop::Scop scop) {
  const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  return {std::move(scop), std::move(comm), std::move(prog)};
}

/// Distinct per-statement costs, so the busiest stage is not simply the
/// one with the most tasks.
CostModel skewedModel(std::size_t numStatements) {
  CostModel m;
  for (std::size_t s = 0; s < numStatements; ++s)
    m.iterationCost.push_back(1e-6 * static_cast<double>(1 + (s * 7) % 5));
  m.channelTokenOverhead = 2e-7;
  return m;
}

TEST(ChannelSimTest, MakespanIsAtLeastTheBusiestStagesWork) {
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const ChannelCase c = channelCase(kernels::buildProgram(spec, 12));
    CostModel m = skewedModel(c.scop.numStatements());
    m.commCostPerByte = 1e-8;
    std::vector<double> stageWork(c.prog.numStatements, 0.0);
    for (const codegen::Task& t : c.prog.tasks)
      stageWork[t.stmtIdx] += static_cast<double>(t.iterations.size()) *
                              m.iterationCost[t.stmtIdx];
    const double busiest =
        *std::max_element(stageWork.begin(), stageWork.end());
    const ChannelSimResult r = simulateChannels(c.prog, c.comm, m);
    EXPECT_GE(r.makespan, busiest * (1.0 - 1e-12)) << spec.name;
  }
}

TEST(ChannelSimTest, MakespanAndCommTimeNeverDropAsBytesGetDearer) {
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const ChannelCase c = channelCase(kernels::buildProgram(spec, 12));
    CostModel m = skewedModel(c.scop.numStatements());
    double lastMakespan = 0.0, lastComm = 0.0;
    for (double perByte : {0.0, 1e-9, 1e-7, 1e-5}) {
      m.commCostPerByte = perByte;
      const ChannelSimResult r = simulateChannels(c.prog, c.comm, m);
      EXPECT_GE(r.makespan, lastMakespan) << spec.name << " @ " << perByte;
      EXPECT_GE(r.commTime, lastComm) << spec.name << " @ " << perByte;
      lastMakespan = r.makespan;
      lastComm = r.commTime;
    }
  }
}

TEST(ChannelSimTest, OneStatementWithFreeChannelsTakesItsTotalWork) {
  const ChannelCase c = channelCase(testing::chain(1, 12));
  ASSERT_EQ(c.scop.numStatements(), 1u);
  CostModel m = uniformModel(1, 3e-6);
  m.commCostPerByte = 0.0;
  m.channelTokenOverhead = 0.0;
  double total = 0.0;
  for (const codegen::Task& t : c.prog.tasks)
    total += static_cast<double>(t.iterations.size()) * 3e-6;
  const ChannelSimResult r = simulateChannels(c.prog, c.comm, m);
  EXPECT_EQ(r.numStages, 1u);
  EXPECT_NEAR(r.makespan, total, 1e-12);
  EXPECT_DOUBLE_EQ(r.commTime, 0.0);
}

} // namespace
} // namespace pipoly::sim
