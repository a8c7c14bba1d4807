// Failure-injection tests: corrupted task programs must be rejected by
// TaskProgram::validate. The validator is the last line of defence
// between the polyhedral analysis and the runtime, so it has to catch
// every class of structural damage.

#include "codegen/task_program.hpp"

#include "kernels/reduction_kernels.hpp"
#include "support/assert.hpp"
#include "testing/fixtures.hpp"

#include <gtest/gtest.h>

#include <string>

namespace pipoly::codegen {
namespace {

TaskProgram freshProgram() {
  return compilePipeline(testing::listing1(12));
}

scop::Scop fixtureScop() { return testing::listing1(12); }

/// validate() must throw, and its message must name the violation.
void expectRejected(const TaskProgram& prog, const scop::Scop& scop,
                    const std::string& message) {
  try {
    prog.validate(scop);
    ADD_FAILURE() << "accepted; expected: " << message;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
}

TEST(ValidateTest, PristineProgramPasses) {
  EXPECT_NO_THROW(freshProgram().validate(fixtureScop()));
}

TEST(ValidateTest, RejectsDroppedSelfOrderingDependency) {
  TaskProgram prog = freshProgram();
  // Find a task with a self-ordering dep and drop it.
  for (Task& t : prog.tasks) {
    auto it = std::find_if(t.in.begin(), t.in.end(),
                           [](const TaskDep& d) { return d.selfOrdering; });
    if (it != t.in.end()) {
      t.in.erase(it);
      break;
    }
  }
  expectRejected(prog, fixtureScop(),
                 "missing same-statement ordering dependency");
}

TEST(ValidateTest, RejectsDanglingInDependency) {
  TaskProgram prog = freshProgram();
  prog.tasks.back().in.push_back(TaskDep{0, 999999});
  expectRejected(prog, fixtureScop(), "in-dependency with no producing task");
}

TEST(ValidateTest, RejectsForwardDependency) {
  TaskProgram prog = freshProgram();
  // Make an early task depend on the last task's out slot.
  const Task& last = prog.tasks.back();
  prog.tasks.front().in.push_back(TaskDep{last.out.idx, last.out.tag});
  expectRejected(prog, fixtureScop(),
                 "in-dependency on a later task (creation order)");
}

TEST(ValidateTest, RejectsDuplicateOutTags) {
  TaskProgram prog = freshProgram();
  prog.tasks[1].out = prog.tasks[0].out;
  expectRejected(prog, fixtureScop(), "duplicate out-dependency tag");
}

TEST(ValidateTest, RejectsLostIterations) {
  TaskProgram prog = freshProgram();
  for (Task& t : prog.tasks) {
    if (t.iterations.size() > 1) {
      t.iterations.erase(t.iterations.begin());
      break;
    }
  }
  expectRejected(prog, fixtureScop(),
                 "task iterations must partition the statement domain");
}

TEST(ValidateTest, RejectsDuplicatedIterations) {
  TaskProgram prog = freshProgram();
  // Move an iteration from one task into another (double execution).
  Task* donor = nullptr;
  for (Task& t : prog.tasks)
    if (t.stmtIdx == 0 && t.iterations.size() > 1)
      donor = &t;
  ASSERT_NE(donor, nullptr);
  for (Task& t : prog.tasks) {
    if (&t != donor && t.stmtIdx == 0) {
      t.iterations.push_back(donor->iterations.front());
      std::sort(t.iterations.begin(), t.iterations.end());
      break;
    }
  }
  expectRejected(prog, fixtureScop(),
                 "block representative must be the last iteration");
}

TEST(ValidateTest, RejectsMisorderedIterationsWithinTask) {
  TaskProgram prog = freshProgram();
  for (Task& t : prog.tasks) {
    if (t.iterations.size() > 1) {
      std::swap(t.iterations.front(), t.iterations.back());
      break;
    }
  }
  expectRejected(prog, fixtureScop(),
                 "task iterations must be in lexicographic order");
}

TEST(ValidateTest, RejectsWrongBlockRepresentative) {
  TaskProgram prog = freshProgram();
  for (Task& t : prog.tasks) {
    if (t.iterations.size() > 1) {
      t.blockRep = t.iterations.front(); // must be the *last* iteration
      break;
    }
  }
  expectRejected(prog, fixtureScop(),
                 "block representative must be the last iteration");
}

TEST(ValidateTest, RejectsWrongScop) {
  TaskProgram prog = freshProgram();
  expectRejected(prog, testing::listing1(16),
                 "task iterations must partition the statement domain");
  expectRejected(prog, testing::listing3(12),
                 "numStatements == scop.numStatements()");
}

TEST(ValidateTest, RejectsRenumberedIds) {
  TaskProgram prog = freshProgram();
  prog.tasks[2].id = 99;
  expectRejected(prog, fixtureScop(), "tasks[i].id == i");
}

// --- Reduction combine invariants ----------------------------------------

scop::Scop reductionScop() { return kernels::dotProductChain(16); }

/// The index of the (single) combine task of a compiled reduction program.
std::size_t combineIndex(const TaskProgram& prog) {
  for (const Task& t : prog.tasks)
    if (t.kind == TaskKind::ReductionCombine)
      return t.id;
  ADD_FAILURE() << "no combine task";
  return 0;
}

/// Appends a copy of task `idx` with a fresh out tag (so the duplicate
/// passes the unique-out and creation-order checks).
void appendCopy(TaskProgram& prog, std::size_t idx) {
  Task copy = prog.tasks[idx];
  copy.id = prog.tasks.size();
  copy.out.tag = 1'000'000 + static_cast<std::int64_t>(copy.id);
  prog.tasks.push_back(std::move(copy));
}

TEST(ValidateCombineTest, PristineReductionProgramPasses) {
  const scop::Scop scop = reductionScop();
  const TaskProgram prog = compilePipeline(scop);
  EXPECT_GT(prog.tasks[combineIndex(prog)].iterations.size(), 1u);
  EXPECT_NO_THROW(prog.validate(scop));
}

TEST(ValidateCombineTest, RejectsMissingPartialDependency) {
  const scop::Scop scop = reductionScop();
  TaskProgram prog = compilePipeline(scop);
  Task& combine = prog.tasks[combineIndex(prog)];
  const auto partial =
      std::find_if(combine.in.begin(), combine.in.end(), [&](const TaskDep& d) {
        return d.idx == static_cast<int>(combine.stmtIdx);
      });
  ASSERT_NE(partial, combine.in.end());
  combine.in.erase(partial);
  expectRejected(prog, scop, "combine task must depend on every partial block");
}

TEST(ValidateCombineTest, RejectsFoldCountMismatch) {
  const scop::Scop scop = reductionScop();
  TaskProgram prog = compilePipeline(scop);
  Task& combine = prog.tasks[combineIndex(prog)];
  combine.iterations.pop_back();
  combine.blockRep = combine.iterations.back();
  expectRejected(prog, scop, "combine must fold exactly one partial per block");
}

TEST(ValidateCombineTest, RejectsPartialBlockAfterCombine) {
  const scop::Scop scop = reductionScop();
  TaskProgram prog = compilePipeline(scop);
  const std::size_t combine = combineIndex(prog);
  ASSERT_GT(combine, 0u);
  ASSERT_EQ(prog.tasks[combine - 1].stmtIdx, prog.tasks[combine].stmtIdx);
  appendCopy(prog, combine - 1);
  expectRejected(prog, scop, "partial blocks must precede their combine task");
}

TEST(ValidateCombineTest, RejectsSecondCombineTask) {
  const scop::Scop scop = reductionScop();
  TaskProgram prog = compilePipeline(scop);
  appendCopy(prog, combineIndex(prog));
  expectRejected(prog, scop, "at most one combine task per statement");
}

} // namespace
} // namespace pipoly::codegen
