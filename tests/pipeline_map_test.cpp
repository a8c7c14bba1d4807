#include "pipeline/pipeline_map.hpp"

#include "kernels/reduction_kernels.hpp"
#include "presburger/parser.hpp"
#include "scop/dependences.hpp"
#include "support/assert.hpp"
#include "testing/fixtures.hpp"

#include <gtest/gtest.h>

namespace pipoly::pipeline {
namespace {

using pb::Tuple;

TEST(ProducerRelationTest, Listing1) {
  scop::Scop scop = testing::listing1(8);
  pb::IntMap p = producerRelation(scop, 0, 1);
  // R[i,j] reads A[i][2j] written by S[i][2j].
  pb::IntMap expected = pb::parseMap(
      "{ R[i, j] -> S[a, b] : 0 <= i < 3 and 0 <= j < 3 and a = i and "
      "b = 2 j }");
  EXPECT_EQ(p, expected);
}

TEST(ProducerRelationTest, NonInjectiveWriteThrows) {
  scop::ScopBuilder b("overwrite");
  std::size_t A = b.array("A", {8});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 8);
  S.write(A, {S.constant(0)}); // every iteration writes A[0]
  auto T = b.statement("T", 1);
  T.bound(0, 0, 8);
  T.write(A, {T.dim(0)});
  T.read(A, {T.constant(0)});
  scop::Scop scop = b.build();
  EXPECT_THROW((void)producerRelation(scop, 0, 1), Error);
}

TEST(PipelineMapTest, PaperExampleListing1N20) {
  // §4.1 gives the pipeline map for Listing 1 with N = 20:
  //   { S[i0,i1] -> R[o0,o1] : o0 = i0, i1 = 2*o1,
  //     0 <= i0 <= 8, 0 <= i1 <= 16 }.
  scop::Scop scop = testing::listing1(20);
  pb::IntMap t = pipelineMap(scop, 0, 1);
  pb::IntMap expected = pb::parseMap(
      "{ S[i0, i1] -> R[o0, o1] : 0 <= i0 <= 8 and 0 <= i1 <= 16 and "
      "i1 = 2 o1 and o0 = i0 }");
  EXPECT_EQ(t, expected);
}

TEST(PipelineMapTest, MatchesNaiveComposition) {
  for (pb::Value n : {8, 12, 20}) {
    scop::Scop scop = testing::listing1(n);
    EXPECT_EQ(pipelineMap(scop, 0, 1), pipelineMapNaive(scop, 0, 1))
        << "mismatch for N=" << n;
  }
  scop::Scop scop3 = testing::listing3(16);
  for (auto [s, t] : {std::pair<std::size_t, std::size_t>{0, 1},
                      {0, 2},
                      {1, 2}})
    EXPECT_EQ(pipelineMap(scop3, s, t), pipelineMapNaive(scop3, s, t))
        << "mismatch for pair (" << s << ", " << t << ")";
}

TEST(PipelineMapTest, NonInjectiveMatchesNaive) {
  // The last-writer construction against the literal composition over P
  // on the reduction kernels, whose accumulation writes are non-injective.
  for (pb::Value n : {8, 16, 32})
    for (const kernels::ReductionKernelSpec& k : kernels::reductionKernels()) {
      const scop::Scop scop = k.build(n);
      for (std::size_t t = 0; t < scop.numStatements(); ++t)
        for (std::size_t s = 0; s < t; ++s)
          if (scop::dependsOn(scop, t, s)) {
            EXPECT_EQ(pipelineMap(scop, s, t, true),
                      pipelineMapNaive(scop, s, t, true))
                << k.name << " N=" << n << " pair (" << s << ", " << t << ")";
          }
    }

  // One source writing two arrays, A non-injectively: T's requirement is
  // the later of its two cells' last writers, and the unwritten odd cells
  // of A are lookup misses.
  scop::ScopBuilder b("two_arrays");
  std::size_t A = b.array("A", {16});
  std::size_t B = b.array("B", {16});
  std::size_t C = b.array("C", {8});
  auto S = b.statement("S", 2);
  S.bound(0, 0, 4).bound(1, 0, 4);
  S.write(A, {2 * S.dim(0) + 2 * S.dim(1)});
  S.write(B, {4 * S.dim(0) + S.dim(1)});
  auto T = b.statement("T", 1);
  T.bound(0, 0, 8).write(C, {T.dim(0)});
  T.read(A, {T.dim(0)}).read(B, {2 * T.dim(0)});
  scop::Scop scop = b.build();
  EXPECT_THROW((void)pipelineMap(scop, 0, 1), Error);
  pb::IntMap t = pipelineMap(scop, 0, 1, true);
  EXPECT_EQ(t, pipelineMapNaive(scop, 0, 1, true));
  EXPECT_FALSE(t.empty());
}

TEST(PipelineMapTest, EmptyWhenNoSharedArray) {
  scop::ScopBuilder b("nodep");
  std::size_t A = b.array("A", {4});
  std::size_t B = b.array("B", {4});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 4).write(A, {S.dim(0)});
  auto T = b.statement("T", 1);
  T.bound(0, 0, 4).write(B, {T.dim(0)}).read(B, {T.dim(0)});
  scop::Scop scop = b.build();
  EXPECT_TRUE(pipelineMap(scop, 0, 1).empty());
}

TEST(PipelineMapTest, IsInjectiveAndSingleValued) {
  scop::Scop scop = testing::listing3(16);
  for (auto [s, t] : {std::pair<std::size_t, std::size_t>{0, 1},
                      {0, 2},
                      {1, 2}}) {
    pb::IntMap m = pipelineMap(scop, s, t);
    EXPECT_TRUE(m.isSingleValued());
    EXPECT_TRUE(m.isInjective());
  }
}

TEST(PipelineMapTest, SafetyOfEveryPair) {
  // For every (i, j) in the pipeline map: every read of every iteration
  // j' lexle j that touches something written by the source must be
  // produced by a source iteration lexle i.
  scop::Scop scop = testing::listing1(12);
  pb::IntMap t = pipelineMap(scop, 0, 1);
  pb::IntMap p = producerRelation(scop, 0, 1);
  for (const auto& [i, j] : t.pairs()) {
    for (const auto& [jr, iw] : p.pairs()) {
      if (jr <= j) {
        EXPECT_LE(iw, i) << "pipeline pair (" << i << ", " << j
                         << ") does not cover read at " << jr;
      }
    }
  }
}

TEST(PipelineMapTest, MaximalityOfTargets) {
  // For every (i, j) in the pipeline map, iteration j+1 (the next target
  // iteration in lex order, if any) must require a source iteration
  // beyond i — otherwise j would not be maximal.
  scop::Scop scop = testing::listing1(12);
  pb::IntMap t = pipelineMap(scop, 0, 1);
  pb::IntMap p = producerRelation(scop, 0, 1);
  pb::IntMap h = lastRequirementMap(p);
  const pb::IntTupleSet hDomain = h.domain();
  const auto& targets = hDomain.points();
  for (const auto& [i, j] : t.pairs()) {
    auto it = std::upper_bound(targets.begin(), targets.end(), j);
    if (it == targets.end())
      continue;
    std::optional<Tuple> next = h.singleImageOf(*it);
    ASSERT_TRUE(next.has_value());
    EXPECT_GT(*next, i) << "target " << j << " is not maximal for source "
                        << i;
  }
}

TEST(LastRequirementTest, MonotoneOverTargetOrder) {
  scop::Scop scop = testing::listing3(16);
  for (auto [s, t] : {std::pair<std::size_t, std::size_t>{0, 1},
                      {0, 2},
                      {1, 2}}) {
    pb::IntMap h = lastRequirementMap(producerRelation(scop, s, t));
    Tuple prev;
    bool first = true;
    for (const auto& [j, i] : h.pairs()) {
      if (!first) {
        EXPECT_GE(i, prev);
      }
      prev = i;
      first = false;
    }
  }
}

TEST(LastRequirementTest, CoversDomainOfProducer) {
  scop::Scop scop = testing::listing1(10);
  pb::IntMap p = producerRelation(scop, 0, 1);
  pb::IntMap h = lastRequirementMap(p);
  EXPECT_EQ(h.domain(), p.domain());
  EXPECT_TRUE(h.isSingleValued());
}

} // namespace
} // namespace pipoly::pipeline
