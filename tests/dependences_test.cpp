// Differential suite for the dependence existence test: scop::dependsOn
// walks the accesses and never builds a relation, so it is checked against
// its oracle `!flowDependences(s, t).empty()` on every s < t pair of the
// paper programs, the matmul chains, the reduction grid, seeded random
// SCoPs and hand-built corner cases (empty domains, depth-0 statements).
// The walk is also the bounds check of every access the relation would
// have enumerated; the out-of-bounds cases prove it still fires.

#include "kernels/matmul.hpp"
#include "kernels/reduction_kernels.hpp"
#include "kernels/suite.hpp"
#include "pipeline/detect.hpp"
#include "scop/builder.hpp"
#include "scop/dependences.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "testing/random_scop.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>

namespace {

using namespace pipoly;

/// Compares dependsOn with the oracle on every textually ordered pair;
/// returns the number of dependent pairs found.
std::size_t expectMatchesOracle(const scop::Scop& scop,
                                const std::string& what) {
  std::size_t dependent = 0;
  for (std::size_t t = 0; t < scop.numStatements(); ++t)
    for (std::size_t s = 0; s < t; ++s) {
      const bool oracle = !scop::flowDependences(scop, s, t).empty();
      EXPECT_EQ(scop::dependsOn(scop, t, s), oracle)
          << what << " S" << s << " -> S" << t;
      dependent += oracle ? 1 : 0;
    }
  return dependent;
}

void expectOutOfBounds(const std::function<void()>& f,
                       const std::string& what) {
  try {
    f();
    ADD_FAILURE() << what << ": no exception";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("access out of bounds"),
              std::string::npos)
        << what << ": " << e.what();
  }
}

TEST(DependsOnDiff, Table9AllSizes) {
  // buildProgram rejects an N below a program's minimum (every program at
  // N = 2, some at small N): those sizes have no SCoP to test.
  for (pb::Value n : {2, 3, 5, 16, 64}) {
    std::size_t built = 0, dependent = 0;
    for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
      std::optional<scop::Scop> scop;
      try {
        scop = kernels::buildProgram(spec, n);
      } catch (const Error&) {
        EXPECT_LT(n, 16) << spec.name;
        continue;
      }
      ++built;
      dependent += expectMatchesOracle(*scop, spec.name + " N=" +
                                                  std::to_string(n));
    }
    if (n >= 16) {
      EXPECT_EQ(built, kernels::table9Programs().size()) << "N=" << n;
      EXPECT_GT(dependent, 0u) << "N=" << n;
    }
  }
}

TEST(DependsOnDiff, RandomScops) {
  SplitMix64 rng(0x9d1f2c3b5a7e4680ULL);
  std::size_t dependent = 0, independent = 0;
  for (std::uint64_t iter = 0; iter < 220; ++iter) {
    const scop::Scop scop = pipoly::testing::randomScop(rng, iter);
    const std::size_t n = scop.numStatements();
    const std::size_t d =
        expectMatchesOracle(scop, "iter " + std::to_string(iter));
    dependent += d;
    independent += n * (n - 1) / 2 - d;
  }
  // The generator produces both verdicts in bulk.
  EXPECT_GT(dependent, 100u);
  EXPECT_GT(independent, 100u);
}

TEST(DependsOnDiff, MatmulChains) {
  using kernels::MatmulVariant;
  for (MatmulVariant v : {MatmulVariant::NMM, MatmulVariant::NMMT,
                          MatmulVariant::GNMM, MatmulVariant::GNMMT})
    for (pb::Value n : {1, 2, 7, 48}) {
      const scop::Scop scop = kernels::matmulChain(v, 3, n);
      const std::size_t dependent = expectMatchesOracle(
          scop, kernels::variantName(v) + "3 N=" + std::to_string(n));
      if (n >= 2) {
        EXPECT_EQ(dependent, 2u) << kernels::variantName(v) << " N=" << n;
      }
    }
}

TEST(DependsOnDiff, ReductionGrid) {
  for (const kernels::ReductionKernelSpec& spec : kernels::reductionKernels())
    for (pb::Value n : {8, 16, 64})
      EXPECT_GT(expectMatchesOracle(spec.build(n),
                                    spec.name + " N=" + std::to_string(n)),
                0u)
          << spec.name;
}

TEST(DependsOnDiff, EmptyDomains) {
  // An empty writer, then an empty reader; a non-empty reader still sees
  // its writer.
  scop::ScopBuilder b("empty");
  std::size_t A = b.array("A", {4});
  std::size_t B = b.array("B", {4});
  std::size_t C = b.array("C", {4});
  std::size_t D = b.array("D", {4});
  auto S = b.statement("S", 1);
  S.bound(0, 2, 2).write(A, {S.dim(0)});
  auto T = b.statement("T", 1);
  T.bound(0, 0, 4).write(B, {T.dim(0)}).read(A, {T.dim(0)});
  auto U = b.statement("U", 1);
  U.bound(0, 3, 1).write(C, {U.dim(0)}).read(B, {U.dim(0)});
  auto V = b.statement("V", 1);
  V.bound(0, 0, 4).write(D, {V.dim(0)}).read(B, {V.dim(0)});
  const scop::Scop scop = b.build();
  ASSERT_TRUE(scop.statement(0).domain().empty());
  ASSERT_TRUE(scop.statement(2).domain().empty());
  EXPECT_FALSE(scop::dependsOn(scop, 1, 0));
  EXPECT_FALSE(scop::dependsOn(scop, 2, 1));
  EXPECT_TRUE(scop::dependsOn(scop, 3, 1));
  expectMatchesOracle(scop, "empty");
}

TEST(DependsOnDiff, EmptyAuxRectangle) {
  scop::ScopBuilder b("emptyaux");
  std::size_t A = b.array("A", {3, 3});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 3).write(A, {S.dim(0), S.constant(0)});
  auto T = b.statement("T", 1);
  T.bound(0, 0, 3).readRange(A, {T.rangeDim(0, 1), T.rangeAux(0, 1)}, {0});
  const scop::Scop scop = b.build();
  EXPECT_FALSE(scop::dependsOn(scop, 1, 0));
  expectMatchesOracle(scop, "emptyaux");
}

TEST(DependsOnDiff, DepthZeroStatements) {
  // x = ...; for i: A[i] = f(x); y = g(A[2]); z = h(B[0]).
  scop::ScopBuilder b("depth0");
  std::size_t X = b.array("x", {1});
  std::size_t A = b.array("A", {4});
  std::size_t Y = b.array("y", {1});
  std::size_t B = b.array("B", {1});
  auto S = b.statement("S", 0);
  S.write(X, {S.constant(0)});
  auto T = b.statement("T", 1);
  T.bound(0, 0, 4).write(A, {T.dim(0)}).read(X, {T.constant(0)});
  auto U = b.statement("U", 0);
  U.write(Y, {U.constant(0)}).read(A, {U.constant(2)});
  auto V = b.statement("V", 0);
  V.write(B, {V.constant(0)}).read(Y, {V.constant(0)});
  // A depth-0 reader of a whole slab through an aux dim.
  auto W = b.statement("W", 0);
  W.readRange(A, {W.rangeAux(0, 1)}, {4});
  const scop::Scop scop = b.build();
  ASSERT_EQ(scop.statement(0).domain().size(), 1u);
  EXPECT_TRUE(scop::dependsOn(scop, 1, 0));
  EXPECT_TRUE(scop::dependsOn(scop, 2, 1));
  EXPECT_FALSE(scop::dependsOn(scop, 2, 0));
  EXPECT_TRUE(scop::dependsOn(scop, 3, 2));
  EXPECT_TRUE(scop::dependsOn(scop, 4, 1));
  EXPECT_FALSE(scop::dependsOn(scop, 4, 3));
  expectMatchesOracle(scop, "depth0");
}

TEST(DependsOnDiff, RequiresSourceBeforeTarget) {
  const scop::Scop scop = kernels::matmulChain(kernels::MatmulVariant::NMM,
                                               2, 4);
  EXPECT_THROW((void)scop::dependsOn(scop, 1, 1), Error);
  EXPECT_THROW((void)scop::dependsOn(scop, 0, 1), Error);
}

/// S writes M[i][j] (optionally one row too far); T reads row i of M
/// through an aux dim with extent `auxExtent` — the matmul pair shape.
scop::Scop matmulShapedPair(bool writePastEnd, pb::Value auxExtent) {
  constexpr pb::Value n = 6;
  scop::ScopBuilder b("mm_pair");
  std::size_t M = b.array("M", {n, n});
  std::size_t C = b.array("C", {n, n});
  auto S = b.statement("S", 2);
  S.bound(0, 0, n).bound(1, 0, n);
  S.write(M, {S.dim(0) + (writePastEnd ? 1 : 0), S.dim(1)});
  auto T = b.statement("T", 2);
  T.bound(0, 0, n).bound(1, 0, n);
  T.write(C, {T.dim(0), T.dim(1)});
  T.readRange(M, {T.rangeDim(0, 1), T.rangeAux(0, 1)}, {auxExtent});
  return b.build();
}

TEST(DependsOnDiff, InBoundsMatmulPairDepends) {
  const scop::Scop scop = matmulShapedPair(false, 6);
  EXPECT_TRUE(scop::dependsOn(scop, 1, 0));
  expectMatchesOracle(scop, "mm_pair");
}

TEST(DependsOnDiff, OutOfBoundsWriteThrows) {
  const scop::Scop scop = matmulShapedPair(true, 6);
  expectOutOfBounds([&] { (void)scop::dependsOn(scop, 1, 0); },
                    "dependsOn");
  expectOutOfBounds([&] { (void)scop::flowDependences(scop, 0, 1); },
                    "flowDependences");
  expectOutOfBounds([&] { (void)pipeline::detectPipeline(scop); },
                    "detectPipeline");
}

TEST(DependsOnDiff, OutOfBoundsAuxReadThrows) {
  // Row i of M is read one column too far: only the aux walk reaches it.
  const scop::Scop scop = matmulShapedPair(false, 7);
  expectOutOfBounds([&] { (void)scop::dependsOn(scop, 1, 0); },
                    "dependsOn");
  expectOutOfBounds([&] { (void)scop::flowDependences(scop, 0, 1); },
                    "flowDependences");
  expectOutOfBounds([&] { (void)pipeline::detectPipeline(scop); },
                    "detectPipeline");
}

TEST(DependsOnDiff, OutOfBoundsReadAfterHitThrows) {
  // The first read already proves the dependence; the second, out of
  // bounds, must still be walked and rejected.
  scop::ScopBuilder b("late_oob");
  std::size_t A = b.array("A", {4});
  std::size_t B = b.array("B", {4});
  auto S = b.statement("S", 1);
  S.bound(0, 0, 4).write(A, {S.dim(0)});
  auto T = b.statement("T", 1);
  T.bound(0, 0, 4).write(B, {T.dim(0)});
  T.read(A, {T.dim(0)}).read(A, {T.dim(0) + 1});
  const scop::Scop scop = b.build();
  expectOutOfBounds([&] { (void)scop::dependsOn(scop, 1, 0); },
                    "dependsOn");
}

} // namespace
