#include "codegen/task_program.hpp"

#include "kernels/matmul.hpp"
#include "kernels/reduction_kernels.hpp"
#include "kernels/suite.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/detect.hpp"
#include "schedule/build.hpp"
#include "scop/dependences.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "testing/fixtures.hpp"
#include "testing/random_scop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace pipoly::codegen {
namespace {

using pb::Tuple;

TEST(LinearizeTest, Scheme) {
  EXPECT_EQ(linearizeBlockVector(Tuple{}), 0);
  EXPECT_EQ(linearizeBlockVector(Tuple{7}), 7);
  EXPECT_EQ(linearizeBlockVector(Tuple{1, 2}), kLinearStride + 2);
  EXPECT_EQ(linearizeBlockVector(Tuple{3, 0, 5}),
            3 * kLinearStride * kLinearStride + 5);
}

TEST(LinearizeTest, InjectiveOnDistinctVectors) {
  std::set<std::int64_t> tags;
  for (pb::Value a = 0; a < 7; ++a)
    for (pb::Value b = 0; b < 7; ++b)
      EXPECT_TRUE(tags.insert(linearizeBlockVector(Tuple{a, b})).second);
}

TEST(LinearizeTest, RejectsOutOfRange) {
  EXPECT_THROW((void)linearizeBlockVector(Tuple{-1}), Error);
  EXPECT_THROW((void)linearizeBlockVector(Tuple{kLinearStride}), Error);
}

TEST(TaskProgramTest, Listing1Lowering) {
  scop::Scop scop = testing::listing1(12);
  TaskProgram prog = compilePipeline(scop);
  EXPECT_EQ(prog.numStatements, 2u);
  EXPECT_EQ(prog.writeNum, 1u); // only S is a source
  EXPECT_NO_THROW(prog.validate(scop));

  // Every task of R (stmt 1) except possibly the remainder must have a
  // cross-statement in-dep on S (stmt 0).
  std::size_t crossDeps = 0;
  for (const Task& t : prog.tasks) {
    if (t.stmtIdx != 1)
      continue;
    for (const TaskDep& d : t.in)
      if (!d.selfOrdering && d.idx == 0)
        ++crossDeps;
  }
  EXPECT_GT(crossDeps, 0u);
}

TEST(TaskProgramTest, CreationOrderResolvesDependencies) {
  // validate() checks that every in-dep names an *earlier* task, which is
  // exactly what OpenMP's depend clause needs with sequential creation.
  for (pb::Value n : {8, 12, 20})
    EXPECT_NO_THROW(compilePipeline(testing::listing1(n)));
  EXPECT_NO_THROW(compilePipeline(testing::listing3(16)));
  EXPECT_NO_THROW(compilePipeline(testing::chain(4, 9)));
}

TEST(TaskProgramTest, TaskCountMatchesBlockCount) {
  scop::Scop scop = testing::listing3(16);
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
  TaskProgram prog = compilePipeline(scop);
  EXPECT_EQ(prog.tasks.size(), info.totalBlocks());
}

TEST(TaskProgramTest, TaskWithOutLookup) {
  scop::Scop scop = testing::listing1(12);
  TaskProgram prog = compilePipeline(scop);
  const Task& t = prog.tasks.at(3);
  EXPECT_EQ(prog.taskWithOut(t.out), t.id);
  EXPECT_EQ(prog.taskWithOut(TaskDep{99, 0}), std::nullopt);
}

TEST(TaskProgramTest, SelfOrderingChainIsComplete) {
  scop::Scop scop = testing::listing3(20);
  TaskProgram prog = compilePipeline(scop);
  // Per statement, every task but the first must carry a self dep on the
  // previous block; validate() enforces this, re-check one chain directly.
  std::vector<const Task*> rTasks;
  for (const Task& t : prog.tasks)
    if (t.stmtIdx == 1)
      rTasks.push_back(&t);
  ASSERT_GT(rTasks.size(), 1u);
  for (std::size_t k = 1; k < rTasks.size(); ++k) {
    bool found = false;
    for (const TaskDep& d : rTasks[k]->in)
      if (d.selfOrdering && d.tag == rTasks[k - 1]->out.tag)
        found = true;
    EXPECT_TRUE(found);
  }
}

TEST(TaskProgramTest, WriteNumCountsSources) {
  // chain(4): S0, S1, S2 are sources (S3 is a sink).
  TaskProgram prog = compilePipeline(testing::chain(4, 9));
  EXPECT_EQ(prog.writeNum, 3u);
}

/// Semantic ground truth: executing tasks in any topological order of the
/// declared dependency edges must respect every flow dependence of the
/// original SCoP. We check the strongest form: for each flow dep
/// (i of src) -> (j of tgt), the task owning j must transitively depend on
/// the task owning i.
void checkTransitiveCoverage(const scop::Scop& scop) {
  TaskProgram prog = compilePipeline(scop);

  // Map (stmt, iteration) -> task id.
  std::map<std::pair<std::size_t, Tuple>, std::size_t> owner;
  for (const Task& t : prog.tasks)
    for (const Tuple& it : t.iterations)
      owner[{t.stmtIdx, it}] = t.id;

  // Transitive reachability over dependency edges (dep -> dependent).
  const std::size_t n = prog.tasks.size();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (const Task& t : prog.tasks) {
    for (const TaskDep& d : t.in) {
      std::optional<std::size_t> from = prog.taskWithOut(d);
      ASSERT_TRUE(from.has_value());
      reach[*from][t.id] = true;
    }
    reach[t.id][t.id] = true;
  }
  // Tasks are creation-ordered and edges only go forward: one forward pass
  // of transitive closure suffices.
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = 0; i < n; ++i)
      if (reach[i][k])
        for (std::size_t j = k; j < n; ++j)
          if (reach[k][j])
            reach[i][j] = true;

  for (std::size_t t = 0; t < scop.numStatements(); ++t) {
    for (std::size_t s = 0; s < t; ++s) {
      pb::IntMap flow = scop::flowDependences(scop, s, t);
      for (const auto& [i, j] : flow.pairs()) {
        std::size_t srcTask = owner.at({s, i});
        std::size_t tgtTask = owner.at({t, j});
        EXPECT_TRUE(reach[srcTask][tgtTask])
            << "flow dep " << i << " -> " << j << " (stmts " << s << " -> "
            << t << ") not enforced by the task graph";
      }
    }
  }
}

TEST(TaskProgramSemanticsTest, Listing1FlowCoverage) {
  checkTransitiveCoverage(testing::listing1(12));
}

TEST(TaskProgramSemanticsTest, Listing3FlowCoverage) {
  checkTransitiveCoverage(testing::listing3(12));
}

TEST(TaskProgramSemanticsTest, Chain3FlowCoverage) {
  checkTransitiveCoverage(testing::chain(3, 7));
}

// --- The lowering's producer table ---------------------------------------

/// The producer table a program carries must be exactly the by-tag
/// resolution: opt::buildSlotTable on a copy without a table takes the
/// hashed owner-index path.
void expectProducersResolved(const TaskProgram& prog) {
  ASSERT_TRUE(prog.producersMatch());
  TaskProgram bare = prog;
  bare.producers = {};
  ASSERT_FALSE(bare.producersMatch());
  const opt::SlotTable hashed = opt::buildSlotTable(bare);
  EXPECT_EQ(prog.producers.ids, hashed.inSlots);
  EXPECT_EQ(prog.producers.offsets, hashed.inOffsets);
}

/// Both ordering modes; the optimizer's compacted, renamed table too.
void expectLoweringResolves(const scop::Scop& scop) {
  for (const bool relax : {false, true}) {
    SCOPED_TRACE(relax ? "relaxed" : "chain-ordered");
    pipeline::DetectOptions options;
    options.relaxSameNestOrdering = relax;
    TaskProgram prog = compilePipeline(scop, options);
    expectProducersResolved(prog);
    opt::optimize(prog);
    expectProducersResolved(prog);
    EXPECT_NO_THROW(prog.validate(scop));
  }
}

TEST(TaskProgramProducerTest, Table9MatchesHashedResolution) {
  for (const kernels::ProgramSpec& spec : kernels::table9Programs())
    for (const pb::Value n : {3, 16, 64}) {
      SCOPED_TRACE(spec.name + " N=" + std::to_string(n));
      expectLoweringResolves(testing::buildAtLeast(spec, n));
    }
}

TEST(TaskProgramProducerTest, MatmulChainsMatchHashedResolution) {
  for (const kernels::MatmulVariant variant :
       {kernels::MatmulVariant::NMM, kernels::MatmulVariant::GNMMT}) {
    SCOPED_TRACE(static_cast<int>(variant));
    expectLoweringResolves(
        kernels::matmulChain(variant, /*chainLength=*/3, /*n=*/8));
  }
}

TEST(TaskProgramProducerTest, ReductionKernelsMatchHashedResolution) {
  for (const kernels::ReductionKernelSpec& spec : kernels::reductionKernels()) {
    SCOPED_TRACE(spec.name);
    const scop::Scop scop = spec.build(16);
    const TaskProgram prog = compilePipeline(scop);
    EXPECT_TRUE(std::any_of(prog.tasks.begin(), prog.tasks.end(),
                            [](const Task& t) {
                              return t.kind == TaskKind::ReductionCombine;
                            }));
    expectLoweringResolves(scop);
  }
}

TEST(TaskProgramProducerTest, RandomScopsMatchHashedResolution) {
  SplitMix64 rng(29);
  for (std::uint64_t iter = 0; iter < 40; ++iter) {
    SCOPED_TRACE("program " + std::to_string(iter));
    expectLoweringResolves(testing::randomScop(rng, iter));
  }
}

TEST(TaskProgramProducerTest, EditedProgramFallsBackToTags) {
  // An edit after lowering leaves the table behind; every consumer then
  // resolves by tag, so the edit is honoured rather than the stale table.
  TaskProgram prog = compilePipeline(testing::listing3(12));
  Task& last = prog.tasks.back();
  last.in.push_back(prog.tasks.front().out);
  EXPECT_FALSE(prog.producersMatch());
  const ProducerTable resolved = resolveProducers(prog);
  EXPECT_EQ(resolved.offsets.back(), resolved.ids.size());
  EXPECT_EQ(resolved.ids.back(), 0u);
  EXPECT_EQ(opt::buildSlotTable(prog).inSlots, resolved.ids);
}

// --- validate(): one sweep, the same verdicts -----------------------------

void expectRejectedWith(const TaskProgram& prog, const scop::Scop& scop,
                        const std::string& message) {
  try {
    prog.validate(scop);
    ADD_FAILURE() << "accepted; expected: " << message;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
}

TEST(TaskProgramValidateTest, ReductionProgramsPass) {
  for (const kernels::ReductionKernelSpec& spec : kernels::reductionKernels())
    for (const pb::Value n : {8, 16}) {
      const scop::Scop scop = spec.build(n);
      EXPECT_NO_THROW(compilePipeline(scop).validate(scop)) << spec.name;
    }
}

TEST(TaskProgramValidateTest, PartitionChecksBlocksBesideCombine) {
  const scop::Scop scop = kernels::dotProductChain(16);
  const TaskProgram pristine = compilePipeline(scop);
  // A partial block that executes an iteration of its neighbour as well:
  // the union still covers the domain, but not as a partition.
  TaskProgram doubled = pristine;
  for (std::size_t k = 1; k < doubled.tasks.size(); ++k) {
    Task& t = doubled.tasks[k];
    const Task& before = doubled.tasks[k - 1];
    if (t.kind == TaskKind::Block && before.kind == TaskKind::Block &&
        before.stmtIdx == t.stmtIdx) {
      t.iterations.insert(t.iterations.begin(), before.iterations.back());
      break;
    }
  }
  expectRejectedWith(doubled, scop,
                     "task iterations must partition the statement domain");
  // The neighbour's last iteration in place of a block's own first one
  // (coarser blocks, so a block has several): the iteration count still
  // matches the domain, with one point twice and one never.
  pipeline::DetectOptions coarse;
  coarse.coarsening = 2;
  TaskProgram swapped = compilePipeline(scop, coarse);
  bool edited = false;
  for (std::size_t k = 1; k < swapped.tasks.size() && !edited; ++k) {
    Task& t = swapped.tasks[k];
    const Task& before = swapped.tasks[k - 1];
    if (t.kind == TaskKind::Block && before.kind == TaskKind::Block &&
        before.stmtIdx == t.stmtIdx && t.iterations.size() > 1) {
      t.iterations.front() = before.iterations.back();
      edited = true;
    }
  }
  ASSERT_TRUE(edited);
  expectRejectedWith(swapped, scop,
                     "task iterations must partition the statement domain");
  // An iteration outside the domain.
  TaskProgram outside = pristine;
  Task& first = outside.tasks.front();
  pb::Tuple stray = first.iterations.front();
  stray[0] = -1;
  first.iterations.insert(first.iterations.begin(), stray);
  expectRejectedWith(outside, scop,
                     "task iterations must partition the statement domain");
}

TEST(TaskProgramValidateTest, StaleTableKeepsTheTagVerdicts) {
  // Edits leave the lowering's table behind; validate names the same
  // violation the by-tag resolution finds.
  const scop::Scop scop = kernels::dotProductChain(16);
  const TaskProgram pristine = compilePipeline(scop);
  TaskProgram dangling = pristine;
  dangling.tasks.back().in.push_back(TaskDep{0, 999999});
  expectRejectedWith(dangling, scop, "in-dependency with no producing task");
  TaskProgram forward = pristine;
  forward.tasks.front().in.push_back(forward.tasks.back().out);
  expectRejectedWith(forward, scop, "in-dependency on a later task");
}

TEST(TaskProgramValidateTest, InterleavedOutTagsAreUniqueOrNot) {
  // Hand-assembled out tags that interleave across runs: unique ones pass
  // the out-tag check, a repeated one does not.
  const scop::Scop scop = testing::listing1(12);
  TaskProgram prog;
  prog.numStatements = scop.numStatements();
  for (const std::int64_t tag : {0, 2, 1, 3}) {
    Task t;
    t.id = prog.tasks.size();
    t.stmtIdx = 0;
    t.out = TaskDep{0, tag};
    prog.tasks.push_back(std::move(t));
  }
  // The tags are fine; validation then stops at the empty iteration list.
  try {
    prog.validate(scop);
    ADD_FAILURE() << "a task without iterations was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("duplicate out-dependency tag"),
              std::string::npos)
        << e.what();
  }
  prog.tasks[3].out.tag = 2;
  expectRejectedWith(prog, scop, "duplicate out-dependency tag");
}

} // namespace
} // namespace pipoly::codegen
