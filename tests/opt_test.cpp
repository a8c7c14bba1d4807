// Property tests for the task-graph optimizer (src/opt): the optimized
// program must have exactly the same happens-before closure at block
// granularity as the raw lowering, preserve per-statement block order,
// still validate, execute to bit-identical results on every backend
// (including the interned-slot fast path), and be bit-identical to the
// input when the optimizer is disabled. Transitive reduction must keep
// exactly the edges a brute-force closure rule keeps.

#include "codegen/task_program.hpp"
#include "kernels/matmul.hpp"
#include "kernels/reduction_kernels.hpp"
#include "kernels/suite.hpp"
#include "opt/optimizer.hpp"
#include "scop/builder.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "tasking/executor.hpp"
#include "tasking/replay_executor.hpp"
#include "tasking/tasking.hpp"
#include "testing/fixtures.hpp"
#include "testing/interpreted_kernel.hpp"
#include "testing/random_scop.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pipoly {
namespace {

/// Hashed (idx, tag) -> producing task id: the tests' own resolution,
/// independent of the producer table the library carries.
using OutOwnerIndex =
    std::unordered_map<std::pair<int, std::int64_t>, std::size_t, PairHash>;

OutOwnerIndex buildOutOwnerIndex(const codegen::TaskProgram& program) {
  OutOwnerIndex owner;
  for (const codegen::Task& t : program.tasks)
    owner.emplace(std::make_pair(t.out.idx, t.out.tag), t.id);
  return owner;
}

/// A happens-before oracle at *block* granularity: original blocks are
/// identified by their position in the raw lowering; a block maps into
/// the optimized program as (owning task, position inside that task).
class BlockClosure {
public:
  explicit BlockClosure(const codegen::TaskProgram& program) {
    const std::size_t n = program.tasks.size();
    words_ = (n + 63) / 64;
    reach_.assign(n * words_, 0);
    const OutOwnerIndex owner = buildOutOwnerIndex(program);
    for (const codegen::Task& t : program.tasks) {
      std::uint64_t* row = &reach_[t.id * words_];
      for (const codegen::TaskDep& d : t.in) {
        const std::size_t p = owner.at({d.idx, d.tag});
        const std::uint64_t* prow = &reach_[p * words_];
        for (std::size_t w = 0; w < words_; ++w)
          row[w] |= prow[w];
        row[p / 64] |= std::uint64_t{1} << (p % 64);
      }
    }
  }

  bool reaches(std::size_t from, std::size_t to) const {
    return (reach_[to * words_ + from / 64] >>
            (from % 64)) & 1;
  }

private:
  std::size_t words_;
  std::vector<std::uint64_t> reach_;
};

/// Maps every original block to (optimized task id, position) by looking
/// up the original blockRep among the optimized task's iterations.
std::vector<std::pair<std::size_t, std::size_t>>
mapBlocks(const codegen::TaskProgram& original,
          const codegen::TaskProgram& optimized) {
  std::map<std::pair<std::size_t, std::string>,
           std::pair<std::size_t, std::size_t>>
      where;
  for (const codegen::Task& t : optimized.tasks)
    for (std::size_t k = 0; k < t.iterations.size(); ++k)
      where[{t.stmtIdx, t.iterations[k].toString()}] = {t.id, k};
  std::vector<std::pair<std::size_t, std::size_t>> blockOf;
  blockOf.reserve(original.tasks.size());
  for (const codegen::Task& t : original.tasks) {
    auto it = where.find({t.stmtIdx, t.blockRep.toString()});
    EXPECT_NE(it, where.end()) << "original block lost by the optimizer";
    blockOf.push_back(it == where.end() ? std::make_pair(std::size_t{0},
                                                         std::size_t{0})
                                        : it->second);
  }
  return blockOf;
}

/// The core property: identical happens-before closure at block
/// granularity, identical per-statement iteration order, still valid.
void expectClosurePreserved(const scop::Scop& scop,
                            const codegen::TaskProgram& original,
                            const codegen::TaskProgram& optimized) {
  ASSERT_NO_THROW(optimized.validate(scop));

  // Per-statement iteration sequences are untouched (the C emitter and
  // the funcCount chain both rely on this).
  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    std::vector<std::string> before, after;
    for (const codegen::Task& t : original.tasks)
      if (t.stmtIdx == s)
        for (const pb::Tuple& it : t.iterations)
          before.push_back(it.toString());
    for (const codegen::Task& t : optimized.tasks)
      if (t.stmtIdx == s)
        for (const pb::Tuple& it : t.iterations)
          after.push_back(it.toString());
    ASSERT_EQ(before, after) << "statement " << s;
  }

  const BlockClosure origClosure(original);
  const BlockClosure optClosure(optimized);
  const auto blockOf = mapBlocks(original, optimized);

  const std::size_t n = original.tasks.size();
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b)
        continue;
      const auto [taskA, posA] = blockOf[a];
      const auto [taskB, posB] = blockOf[b];
      const bool hbOpt = taskA == taskB ? posA < posB
                                        : optClosure.reaches(taskA, taskB);
      ASSERT_EQ(origClosure.reaches(a, b), hbOpt)
          << "blocks " << a << " -> " << b;
    }
  }
}

void expectExecutionMatches(const scop::Scop& scop,
                            const codegen::TaskProgram& optimized) {
  const std::uint64_t expected = testing::sequentialFingerprint(scop);
  const opt::SlotTable slots = opt::buildSlotTable(optimized);

  std::vector<std::unique_ptr<tasking::TaskingLayer>> layers;
  layers.push_back(tasking::makeSerialBackend());
  layers.push_back(tasking::makeThreadPoolBackend(3));
  if (auto omp = tasking::makeOpenMPBackend())
    layers.push_back(std::move(omp));
  for (auto& layer : layers) {
    {
      testing::InterpretedKernel kernel(scop);
      tasking::executeTaskProgram(optimized, *layer, kernel.executor());
      ASSERT_EQ(kernel.fingerprint(), expected)
          << layer->name() << " (tag executor)";
    }
    {
      testing::InterpretedKernel kernel(scop);
      tasking::executeTaskProgram(optimized, slots, *layer,
                                  kernel.executor());
      ASSERT_EQ(kernel.fingerprint(), expected)
          << layer->name() << " (slot executor)";
    }
  }
}

void checkProgram(const scop::Scop& scop, const pipeline::DetectOptions& dopt,
                  const opt::OptimizeOptions& oopt) {
  codegen::TaskProgram original = codegen::compilePipeline(scop, dopt);
  codegen::TaskProgram optimized = original;
  opt::optimize(optimized, oopt);
  expectClosurePreserved(scop, original, optimized);
  expectExecutionMatches(scop, optimized);
}

scop::Scop randomScop(std::uint64_t seed) {
  SplitMix64 rng(seed);
  const pb::Value n = 4 + static_cast<pb::Value>(rng.nextBelow(4));
  const std::size_t nests = 2 + rng.nextBelow(3);
  scop::ScopBuilder b("opt_stress");
  std::vector<std::size_t> arrays;
  for (std::size_t k = 0; k < nests; ++k)
    arrays.push_back(b.array("A" + std::to_string(k), {3 * n, 3 * n}));
  for (std::size_t k = 0; k < nests; ++k) {
    auto S = b.statement("S" + std::to_string(k), 2);
    S.bound(0, 0, n).bound(1, 0, n);
    S.write(arrays[k], {S.dim(0), S.dim(1)});
    if (rng.nextBelow(2))
      S.read(arrays[k], {S.dim(0), S.dim(1) + 1});
    if (rng.nextBelow(2))
      S.read(arrays[k], {S.dim(0) + 1, S.dim(1)});
    const std::size_t numReads = k == 0 ? 0 : 1 + rng.nextBelow(2);
    for (std::size_t r = 0; r < numReads; ++r) {
      std::size_t src = arrays[rng.nextBelow(k)];
      pb::Value ci = 1 + static_cast<pb::Value>(rng.nextBelow(2));
      pb::Value cj = 1 + static_cast<pb::Value>(rng.nextBelow(2));
      S.read(src, {ci * S.dim(0) + static_cast<pb::Value>(rng.nextBelow(2)),
                   cj * S.dim(1) + static_cast<pb::Value>(rng.nextBelow(2))});
    }
  }
  return b.build();
}

// --- Table-9 suite, both ordering modes -------------------------------

class OptSuiteTest : public ::testing::TestWithParam<std::tuple<int, bool>> {
};

TEST_P(OptSuiteTest, ClosureAndExecutionPreserved) {
  const auto [progIdx, relax] = GetParam();
  const kernels::ProgramSpec& spec =
      kernels::table9Programs()[static_cast<std::size_t>(progIdx)];
  scop::Scop scop = kernels::buildProgram(spec, 8);
  pipeline::DetectOptions dopt;
  dopt.relaxSameNestOrdering = relax;
  checkProgram(scop, dopt, opt::OptimizeOptions{});
}

INSTANTIATE_TEST_SUITE_P(Table9, OptSuiteTest,
                         ::testing::Combine(::testing::Range(0, 10),
                                            ::testing::Bool()));

// --- Matmul chains ----------------------------------------------------

class OptMatmulTest
    : public ::testing::TestWithParam<kernels::MatmulVariant> {};

TEST_P(OptMatmulTest, ClosureAndExecutionPreserved) {
  scop::Scop scop = kernels::matmulChain(GetParam(), /*chainLength=*/3,
                                         /*n=*/6);
  checkProgram(scop, pipeline::DetectOptions{}, opt::OptimizeOptions{});
}

INSTANTIATE_TEST_SUITE_P(Chains, OptMatmulTest,
                         ::testing::Values(kernels::MatmulVariant::NMM,
                                           kernels::MatmulVariant::NMMT,
                                           kernels::MatmulVariant::GNMM,
                                           kernels::MatmulVariant::GNMMT));

// --- Random SCoPs, several widths and modes ---------------------------

class OptRandomTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool, int>> {
};

TEST_P(OptRandomTest, ClosureAndExecutionPreserved) {
  const auto [seed, relax, width] = GetParam();
  scop::Scop scop = randomScop(seed);
  pipeline::DetectOptions dopt;
  dopt.relaxSameNestOrdering = relax;
  opt::OptimizeOptions oopt;
  oopt.fusionWidth = static_cast<std::size_t>(width);
  checkProgram(scop, dopt, oopt);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OptRandomTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(7, 19, 42, 101),
                       ::testing::Bool(), ::testing::Values(1, 2, 8)));

// --- Exactness of the transitive reduction ---------------------------

/// The brute-force reduction rule over the original program's closure: an
/// edge is kept iff its producer is not an ancestor of another direct
/// predecessor, or it is the funcCount (selfOrdering) edge of a
/// chain-ordered program. fusionWidth = 1 keeps task ids aligned, so every
/// task's kept in-list can be compared directly.
void expectExactReduction(const codegen::TaskProgram& original) {
  codegen::TaskProgram reduced = original;
  opt::OptimizeOptions oopt;
  oopt.fusionWidth = 1;
  opt::optimize(reduced, oopt);
  ASSERT_EQ(reduced.tasks.size(), original.tasks.size());

  const BlockClosure closure(original);
  const OutOwnerIndex owner = buildOutOwnerIndex(original);
  for (const codegen::Task& t : original.tasks) {
    std::vector<std::size_t> preds;
    for (const codegen::TaskDep& d : t.in)
      preds.push_back(owner.at({d.idx, d.tag}));
    std::vector<codegen::TaskDep> expected;
    for (std::size_t k = 0; k < preds.size(); ++k) {
      bool implied = false;
      for (std::size_t j = 0; j < preds.size(); ++j)
        implied |= j != k && closure.reaches(preds[k], preds[j]);
      if (!implied || (original.chainOrdering && t.in[k].selfOrdering))
        expected.push_back(t.in[k]);
    }
    ASSERT_EQ(reduced.tasks[t.id].in, expected) << "task " << t.id;
  }
}

class OptExactTable9Test
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(OptExactTable9Test, ReductionMatchesBruteForce) {
  const auto [progIdx, relax] = GetParam();
  const kernels::ProgramSpec& spec =
      kernels::table9Programs()[static_cast<std::size_t>(progIdx)];
  for (const pb::Value n : {3, 5, 16}) {
    const scop::Scop scop = testing::buildAtLeast(spec, n);
    for (std::size_t coarsening = 1; coarsening <= 3; ++coarsening) {
      SCOPED_TRACE("N=" + std::to_string(n) +
                   " coarsening=" + std::to_string(coarsening));
      pipeline::DetectOptions dopt;
      dopt.relaxSameNestOrdering = relax;
      dopt.coarsening = coarsening;
      expectExactReduction(codegen::compilePipeline(scop, dopt));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Table9, OptExactTable9Test,
                         ::testing::Combine(::testing::Range(0, 10),
                                            ::testing::Bool()));

TEST(OptExactTest, MatmulChains) {
  for (const kernels::MatmulVariant variant :
       {kernels::MatmulVariant::NMM, kernels::MatmulVariant::GNMMT}) {
    const scop::Scop scop =
        kernels::matmulChain(variant, /*chainLength=*/3, /*n=*/8);
    expectExactReduction(codegen::compilePipeline(scop));
  }
}

TEST(OptExactTest, ReductionKernels) {
  // Relaxed reductions: partial blocks with one dependent (the combine).
  for (const kernels::ReductionKernelSpec& spec : kernels::reductionKernels()) {
    SCOPED_TRACE(spec.name);
    expectExactReduction(codegen::compilePipeline(spec.build(16)));
  }
}

TEST(OptExactTest, RandomScops) {
  SplitMix64 rng(13);
  for (std::uint64_t iter = 0; iter < 40; ++iter) {
    const scop::Scop scop = testing::randomScop(rng, iter);
    for (const bool relax : {false, true}) {
      SCOPED_TRACE("program " + std::to_string(iter) +
                   (relax ? " relaxed" : " chain-ordered"));
      pipeline::DetectOptions dopt;
      dopt.relaxSameNestOrdering = relax;
      expectExactReduction(codegen::compilePipeline(scop, dopt));
    }
  }
}

/// Appends a task to a hand-assembled one-statement program: its out tag
/// is its id, and it depends on `preds` (the edge from `selfPred`, if
/// any, flagged selfOrdering).
std::size_t addTask(codegen::TaskProgram& prog,
                    const std::vector<std::size_t>& preds,
                    std::size_t selfPred = SIZE_MAX) {
  codegen::Task t;
  t.id = prog.tasks.size();
  t.stmtIdx = 0;
  t.blockRep = pb::Tuple{static_cast<pb::Value>(t.id)};
  t.iterations = {t.blockRep};
  t.out = codegen::TaskDep{0, static_cast<std::int64_t>(t.id)};
  for (std::size_t p : preds)
    t.in.push_back(codegen::TaskDep{0, static_cast<std::int64_t>(p),
                                    /*selfOrdering=*/p == selfPred});
  prog.tasks.push_back(std::move(t));
  return prog.tasks.back().id;
}

std::size_t edgesRemovedWithoutFusion(codegen::TaskProgram prog) {
  opt::OptimizeOptions oopt;
  oopt.fusionWidth = 1;
  return opt::optimize(prog, oopt).edgesRemoved;
}

TEST(OptExactTest, WideAntichainThenJoinedChain) {
  // A root, a wide antichain A of tasks with >= 2 dependents each, a join
  // J over A, then a chain C in which every task has several
  // predecessors: its chain predecessor (kept), an A task (implied via
  // J), and a B task from a second antichain that does not feed J (kept
  // the first time, implied the second). Every chain of A is tracked, so
  // the labels along C carry `width` entries.
  constexpr std::size_t width = 48;
  constexpr std::size_t chainLength = 2 * width;
  codegen::TaskProgram prog;
  prog.numStatements = 1;
  prog.chainOrdering = false;
  const std::size_t root = addTask(prog, {});
  std::vector<std::size_t> a, b;
  for (std::size_t i = 0; i < width; ++i)
    a.push_back(addTask(prog, {root}));
  for (std::size_t i = 0; i < chainLength; ++i)
    b.push_back(addTask(prog, {root}));
  std::size_t prev = addTask(prog, a); // the join
  for (std::size_t k = 0; k < chainLength; ++k) {
    std::vector<std::size_t> preds = {prev, a[k % width], b[k]};
    if (k > 0)
      preds.push_back(b[k - 1]);
    prev = addTask(prog, preds);
  }
  expectExactReduction(prog);
  // Per chain task: the A edge, and from the second on the older B edge.
  EXPECT_EQ(edgesRemovedWithoutFusion(prog), 2 * chainLength - 1);
}

TEST(OptExactTest, ImpliedFuncCountEdgeIsKeptOnlyUnderChainOrdering) {
  for (const bool chainOrdering : {true, false}) {
    codegen::TaskProgram prog;
    prog.numStatements = 1;
    prog.chainOrdering = chainOrdering;
    const std::size_t first = addTask(prog, {});
    const std::size_t middle = addTask(prog, {first});
    addTask(prog, {first, middle}, /*selfPred=*/first);
    expectExactReduction(prog);
    EXPECT_EQ(edgesRemovedWithoutFusion(prog), chainOrdering ? 0u : 1u);
  }
}

// --- Direct unit properties -------------------------------------------

TEST(OptTest, DisabledIsBitIdentical) {
  scop::Scop scop = kernels::buildProgram(kernels::programByName("P5"), 8);
  codegen::TaskProgram original = codegen::compilePipeline(scop);
  codegen::TaskProgram copy = original;
  opt::OptimizeOptions oopt;
  oopt.enabled = false;
  const opt::OptimizeStats stats = opt::optimize(copy, oopt);
  EXPECT_EQ(copy.toString(), original.toString());
  EXPECT_EQ(stats.edgesRemoved, 0u);
  EXPECT_EQ(stats.tasksFused, 0u);
  EXPECT_EQ(stats.edgesBefore, stats.edgesAfter);
}

TEST(OptTest, FusionWidthOneOnlyReduces) {
  scop::Scop scop = kernels::buildProgram(kernels::programByName("P7"), 8);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  const std::size_t tasksBefore = prog.tasks.size();
  opt::OptimizeOptions oopt;
  oopt.fusionWidth = 1;
  const opt::OptimizeStats stats = opt::optimize(prog, oopt);
  EXPECT_EQ(prog.tasks.size(), tasksBefore);
  EXPECT_EQ(stats.tasksFused, 0u);
  EXPECT_GT(stats.edgesRemoved, 0u);
}

TEST(OptTest, ChainOrderedSuiteRemovesManyEdges) {
  // The acceptance anchor: substantial reduction on the densest
  // chain-ordered programs (see EXPERIMENTS.md E16 for the full suite).
  for (const char* name : {"P5", "P6", "P7"}) {
    scop::Scop scop =
        kernels::buildProgram(kernels::programByName(name), 16);
    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    ASSERT_TRUE(prog.chainOrdering);
    const opt::OptimizeStats stats = opt::optimize(prog);
    EXPECT_GE(stats.edgeReductionPercent(), 20.0) << name;
  }
}

TEST(OptTest, SlotTableMatchesProducers) {
  scop::Scop scop = kernels::buildProgram(kernels::programByName("P4"), 8);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  opt::optimize(prog);
  const opt::SlotTable slots = opt::buildSlotTable(prog);
  ASSERT_EQ(slots.numSlots, prog.tasks.size());
  const OutOwnerIndex owner = buildOutOwnerIndex(prog);
  for (const codegen::Task& t : prog.tasks) {
    ASSERT_EQ(slots.inCount(t.id), t.in.size());
    const std::uint32_t* s = slots.inBegin(t.id);
    for (const codegen::TaskDep& d : t.in)
      EXPECT_EQ(*s++, owner.at({d.idx, d.tag}));
  }
}

TEST(OptTest, SlotTableNamingWrongProducersIsRejected) {
  scop::Scop scop = kernels::buildProgram(kernels::programByName("P4"), 8);
  auto prog = std::make_shared<codegen::TaskProgram>(
      codegen::compilePipeline(scop));
  opt::optimize(*prog);
  opt::SlotTable slots = opt::buildSlotTable(*prog);
  ASSERT_TRUE(slots.compatibleWith(*prog));
  // Swap the two producers of a task: both stay earlier tasks and every
  // count still matches, so only the producers' out dependencies tell.
  bool swapped = false;
  for (std::size_t i = 0; i < prog->tasks.size() && !swapped; ++i) {
    std::uint32_t* in = slots.inSlots.data() + slots.inOffsets[i];
    if (slots.inCount(i) >= 2 && in[0] != in[1]) {
      std::swap(in[0], in[1]);
      swapped = true;
    }
  }
  ASSERT_TRUE(swapped);
  EXPECT_FALSE(slots.compatibleWith(*prog));
  EXPECT_THROW(tasking::CompiledPipeline(
                   std::shared_ptr<const codegen::TaskProgram>(prog), slots),
               Error);

  // An older block of the same statement in place of the named one: the
  // slot index still matches, only the tag tells.
  opt::SlotTable older = opt::buildSlotTable(*prog);
  bool replaced = false;
  for (std::uint32_t& slot : older.inSlots)
    if (slot > 0 && prog->tasks[slot - 1].out.idx == prog->tasks[slot].out.idx) {
      --slot;
      replaced = true;
      break;
    }
  ASSERT_TRUE(replaced);
  EXPECT_FALSE(older.compatibleWith(*prog));
}

TEST(OptTest, SelfOrderingChainSurvives) {
  scop::Scop scop = kernels::buildProgram(kernels::programByName("P6"), 8);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  ASSERT_TRUE(prog.chainOrdering);
  opt::optimize(prog);
  // Every non-first block of a statement still names its predecessor
  // with a selfOrdering dependency (validate checks this too, but keep
  // the intent explicit).
  std::vector<const codegen::Task*> prev(scop.numStatements(), nullptr);
  for (const codegen::Task& t : prog.tasks) {
    if (prev[t.stmtIdx] != nullptr) {
      bool found = false;
      for (const codegen::TaskDep& d : t.in)
        found |= d.selfOrdering && d.idx == prev[t.stmtIdx]->out.idx &&
                 d.tag == prev[t.stmtIdx]->out.tag;
      EXPECT_TRUE(found) << "task " << t.id;
    }
    prev[t.stmtIdx] = &t;
  }
}

} // namespace
} // namespace pipoly
