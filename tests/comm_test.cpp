// Tests for pipeline::analyzeCommunication: per-edge volumes validated
// against the brute-force counting oracle on every Table-9 program, the
// parametric (separable closed-form) fast path against the explicit
// intersection, capacity/peak invariants, and the CommInfo lookup API
// the channel backend builds its ring sizes from.

#include "pipeline/comm.hpp"

#include "kernels/suite.hpp"
#include "pipeline/detect.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

namespace pipoly::pipeline {
namespace {

TEST(CommVolumeTest, EdgeVolumesMatchTheBruteForceOracleOnTable9) {
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const scop::Scop scop = kernels::buildProgram(spec, 8);
    const PipelineInfo info = detectPipeline(scop);
    const CommInfo comm = analyzeCommunication(scop, info);
    ASSERT_EQ(comm.edges.size(), info.maps.size()) << spec.name;

    for (const EdgeComm& e : comm.edges) {
      ASSERT_LT(e.mapIdx, info.maps.size()) << spec.name;
      EXPECT_EQ(e.srcIdx, info.maps[e.mapIdx].srcIdx) << spec.name;
      EXPECT_EQ(e.tgtIdx, info.maps[e.mapIdx].tgtIdx) << spec.name;
      EXPECT_EQ(e.elements, commVolumeNaive(scop, e.srcIdx, e.tgtIdx))
          << spec.name << " edge " << e.srcIdx << "->" << e.tgtIdx;
      EXPECT_EQ(e.totalBytes, e.elements * 8) << spec.name;
      EXPECT_LE(e.maxBlockBytes, e.totalBytes) << spec.name;
      EXPECT_GT(e.elements, 0u)
          << spec.name << ": a pipeline edge moves at least one element";
    }
  }
}

TEST(CommVolumeTest, ParametricFastPathEqualsTheExplicitIntersection) {
  CommOptions off;
  off.parametricMode = CommOptions::ParametricMode::Off;
  bool anyParametric = false;
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const scop::Scop scop = kernels::buildProgram(spec, 8);
    const PipelineInfo info = detectPipeline(scop);
    const CommInfo viaAuto = analyzeCommunication(scop, info);
    const CommInfo viaExplicit = analyzeCommunication(scop, info, off);
    ASSERT_EQ(viaAuto.edges.size(), viaExplicit.edges.size()) << spec.name;
    for (std::size_t i = 0; i < viaAuto.edges.size(); ++i) {
      const EdgeComm& a = viaAuto.edges[i];
      const EdgeComm& x = viaExplicit.edges[i];
      EXPECT_EQ(a.elements, x.elements) << spec.name << " edge " << i;
      EXPECT_EQ(a.totalBytes, x.totalBytes) << spec.name << " edge " << i;
      EXPECT_EQ(a.maxBlockBytes, x.maxBlockBytes) << spec.name;
      EXPECT_EQ(a.peakInFlightTokens, x.peakInFlightTokens) << spec.name;
      EXPECT_EQ(a.capacitySlots, x.capacitySlots) << spec.name;
      EXPECT_FALSE(x.parametric) << spec.name << ": Off must not take it";
      anyParametric = anyParametric || a.parametric;
    }
  }
  // The suite's affine accesses are separable, so Auto must actually
  // exercise the closed form somewhere — otherwise this test proves
  // nothing about the fast path.
  EXPECT_TRUE(anyParametric);
}

TEST(CommCapacityTest, CapacityCoversThePeakAndRespectsTheFloor) {
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const scop::Scop scop = kernels::buildProgram(spec, 8);
    const PipelineInfo info = detectPipeline(scop);
    const CommInfo comm = analyzeCommunication(scop, info);
    for (const EdgeComm& e : comm.edges) {
      EXPECT_GE(e.capacitySlots, kMinCapacitySlots) << spec.name;
      EXPECT_GE(e.capacitySlots, e.peakInFlightTokens) << spec.name;
      EXPECT_EQ(e.capacitySlots,
                std::max(kMinCapacitySlots, e.peakInFlightTokens))
          << spec.name;
    }
  }
}

TEST(CommCapacityTest, BytesAreElementsTimesElementSize) {
  const kernels::ProgramSpec& spec = kernels::programByName("P5");
  const scop::Scop scop = kernels::buildProgram(spec, 8);
  const PipelineInfo info = detectPipeline(scop);
  const CommInfo comm = analyzeCommunication(scop, info);
  ASSERT_FALSE(comm.edges.empty());
  std::uint64_t total = 0;
  for (const EdgeComm& e : comm.edges) {
    EXPECT_EQ(e.totalBytes, e.elements * kElementSize);
    EXPECT_EQ(e.maxBlockBytes % kElementSize, 0u);
    EXPECT_EQ(e.peakInFlightBytes % kElementSize, 0u);
    total += e.totalBytes;
  }
  EXPECT_EQ(comm.totalBytes(), total);
}

TEST(CommLookupTest, EdgeAndCapacityForResolveStatementPairs) {
  const kernels::ProgramSpec& spec = kernels::programByName("P1");
  const scop::Scop scop = kernels::buildProgram(spec, 8);
  const PipelineInfo info = detectPipeline(scop);
  const CommInfo comm = analyzeCommunication(scop, info);
  ASSERT_FALSE(comm.edges.empty());

  const EdgeComm& first = comm.edges.front();
  const EdgeComm* found = comm.edge(first.srcIdx, first.tgtIdx);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->elements, first.elements);
  EXPECT_EQ(comm.capacityFor(first.srcIdx, first.tgtIdx, 99),
            first.capacitySlots);

  // A pair with no pipeline edge falls back to the caller's default.
  EXPECT_EQ(comm.edge(97, 98), nullptr);
  EXPECT_EQ(comm.capacityFor(97, 98, 99u), 99u);
}

} // namespace
} // namespace pipoly::pipeline
