// The differential harness for the parametric-first detection route:
// proves that DetectOptions::ParametricMode::Auto (the closed-form route
// with per-pair fallback) produces a PipelineInfo bit-identical to Off
// (the legacy route) — over all of Table 9 and hundreds of randomized
// rectangular/affine-offset SCoPs, cached and
// uncached — and that the route counters and trace instants faithfully
// record which route fired. The ParamScop side then checks that the
// N-independent summaries (param_detect.hpp) agree with the explicit
// results wherever both exist.

#include "kernels/suite.hpp"
#include "pipeline/detect.hpp"
#include "pipeline/detect_cache.hpp"
#include "pipeline/param_detect.hpp"
#include "scop/builder.hpp"
#include "scop/param_scop.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "testing/random_scop.hpp"
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

namespace {

using namespace pipoly;
using pipeline::DetectOptions;
using Mode = DetectOptions::ParametricMode;
using pipeline::ParametricFallback;

DetectOptions optionsFor(Mode mode) {
  DetectOptions opt;
  opt.parametricMode = mode;
  return opt;
}

/// Full bit-identity over the semantic fields of PipelineInfo. The stats
/// are deliberately excluded: they record the route, not the result.
void expectInfoEqual(const pipeline::PipelineInfo& a,
                     const pipeline::PipelineInfo& b, const std::string& what) {
  ASSERT_EQ(a.maps.size(), b.maps.size()) << what;
  for (std::size_t i = 0; i < a.maps.size(); ++i) {
    EXPECT_EQ(a.maps[i].srcIdx, b.maps[i].srcIdx) << what << " map " << i;
    EXPECT_EQ(a.maps[i].tgtIdx, b.maps[i].tgtIdx) << what << " map " << i;
    EXPECT_TRUE(a.maps[i].map == b.maps[i].map) << what << " map " << i;
  }
  ASSERT_EQ(a.statements.size(), b.statements.size()) << what;
  for (std::size_t s = 0; s < a.statements.size(); ++s) {
    const pipeline::StatementPipelineInfo& x = a.statements[s];
    const pipeline::StatementPipelineInfo& y = b.statements[s];
    EXPECT_TRUE(x.blocking == y.blocking) << what << " S" << s;
    EXPECT_TRUE(x.expansion == y.expansion) << what << " S" << s;
    EXPECT_TRUE(x.blockReps == y.blockReps) << what << " S" << s;
    EXPECT_TRUE(x.outDependency == y.outDependency) << what << " S" << s;
    EXPECT_EQ(x.chainOrdering, y.chainOrdering) << what << " S" << s;
    EXPECT_TRUE(x.selfEdges == y.selfEdges) << what << " S" << s;
    ASSERT_EQ(x.inRequirements.size(), y.inRequirements.size())
        << what << " S" << s;
    for (std::size_t r = 0; r < x.inRequirements.size(); ++r) {
      EXPECT_EQ(x.inRequirements[r].srcStmtIdx, y.inRequirements[r].srcStmtIdx)
          << what << " S" << s << " req " << r;
      EXPECT_TRUE(x.inRequirements[r].map == y.inRequirements[r].map)
          << what << " S" << s << " req " << r;
    }
  }
}

/// The routes must partition the candidates.
void expectStatsConsistent(const pipeline::DetectStats& st,
                           const std::string& what) {
  EXPECT_EQ(st.parametricPairs + st.symbolicPairs + st.explicitPairs +
                st.independentPairs,
            st.candidatePairs)
      << what;
}

const std::vector<std::string>& regularPrograms() {
  // The Table-9 programs whose cross reads are all separable; P4, P6 and
  // P10 carry coupled A[i+j][j]-style reads.
  static const std::vector<std::string> names = {"P1", "P2", "P3", "P5",
                                                 "P7", "P8", "P9"};
  return names;
}

// --- Table 9 ---------------------------------------------------------

TEST(ParametricDetect, Table9BitIdenticalAcrossModesAndN) {
  std::size_t built = 0;
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    for (pb::Value n : {2, 3, 4, 5, 8, 13, 16, 21, 27, 32}) {
      // Programs with strided reads reject N below their patterns (the
      // clipped nest bound drops under 2); when they build, every mode
      // must agree bit for bit.
      std::optional<scop::Scop> scop;
      try {
        scop.emplace(kernels::buildProgram(spec, n));
      } catch (const pipoly::Error&) {
        continue; // N too small for this program's patterns
      }
      ++built;
      const std::string what = spec.name + " N=" + std::to_string(n);
      const pipeline::PipelineInfo ref =
          pipeline::detectPipeline(*scop, optionsFor(Mode::Off));
      expectInfoEqual(ref,
                      pipeline::detectPipeline(*scop, optionsFor(Mode::Auto)),
                      what + " auto");
    }
  }
  EXPECT_GE(built, 70u); // the skip path must stay the exception
}

TEST(ParametricDetect, Table9RouteCensus) {
  // The suite-wide route split is part of the contract: a regression that
  // silently sends parametric pairs down the legacy routes must fail here.
  pipeline::DetectStats total;
  std::size_t nonSeparable = 0, noShared = 0;
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const scop::Scop scop = kernels::buildProgram(spec, 16);
    const pipeline::PipelineInfo info =
        pipeline::detectPipeline(scop, optionsFor(Mode::Auto));
    expectStatsConsistent(info.stats, spec.name);
    total.candidatePairs += info.stats.candidatePairs;
    total.parametricPairs += info.stats.parametricPairs;
    total.symbolicPairs += info.stats.symbolicPairs;
    total.explicitPairs += info.stats.explicitPairs;
    total.independentPairs += info.stats.independentPairs;
    nonSeparable += info.stats.fallbacks(ParametricFallback::NonSeparableRead);
    noShared += info.stats.fallbacks(ParametricFallback::NoSharedArray);

    // The coupled-read programs are the only ones that fall back.
    const std::size_t expectedFallbacks =
        spec.name == "P4" ? 2 : spec.name == "P6" ? 3
                            : spec.name == "P10" ? 1 : 0;
    EXPECT_EQ(info.stats.fallbackPairs(), expectedFallbacks) << spec.name;
  }
  EXPECT_EQ(total.candidatePairs, 44u);  // sum of C(nests, 2) over P1-P10
  EXPECT_EQ(total.parametricPairs, 31u); // every separable dependent pair
  EXPECT_EQ(total.symbolicPairs, 6u);    // the coupled reads of P4/P6/P10
  EXPECT_EQ(total.explicitPairs, 0u);
  EXPECT_EQ(total.independentPairs, 7u); // array-disjoint pairs
  EXPECT_EQ(nonSeparable, 6u);
  EXPECT_EQ(noShared, 7u);
}

TEST(ParametricDetect, OffModeRunsNoParametricPairs) {
  const scop::Scop scop = kernels::buildProgram(kernels::programByName("P3"), 16);
  const pipeline::PipelineInfo info =
      pipeline::detectPipeline(scop, optionsFor(Mode::Off));
  EXPECT_EQ(info.stats.parametricPairs, 0u);
  EXPECT_EQ(info.stats.fallbackPairs(), 0u);
  EXPECT_EQ(info.stats.candidatePairs, 3u);
  expectStatsConsistent(info.stats, "P3 off");
}

TEST(ParametricDetect, ForceAcceptsRegularProgramsAndRejectsCoupledReads) {
  for (const std::string& name : regularPrograms()) {
    const scop::Scop scop =
        kernels::buildProgram(kernels::programByName(name), 16);
    pipeline::PipelineInfo info;
    ASSERT_NO_THROW(info = pipeline::detectPipeline(scop, optionsFor(Mode::Force)))
        << name;
    EXPECT_EQ(info.stats.fallbackPairs(), 0u) << name;
    EXPECT_EQ(info.stats.symbolicPairs, 0u) << name;
    EXPECT_EQ(info.stats.explicitPairs, 0u) << name;
    expectInfoEqual(pipeline::detectPipeline(scop, optionsFor(Mode::Off)), info,
                    name + " force");
  }
  for (const char* name : {"P4", "P6", "P10"}) {
    const scop::Scop scop =
        kernels::buildProgram(kernels::programByName(name), 16);
    EXPECT_THROW(pipeline::detectPipeline(scop, optionsFor(Mode::Force)),
                 pipoly::Error)
        << name;
  }
}

// --- Randomized differential harness ---------------------------------

TEST(ParametricDetect, RandomizedDifferentialHarness) {
  SplitMix64 rng(0x9d1f2c3b5a7e4680ULL);
  std::size_t totalParametric = 0, totalFallbacks = 0;
  for (std::uint64_t iter = 0; iter < 220; ++iter) {
    const scop::Scop scop = pipoly::testing::randomScop(rng, iter);
    const std::string what = "iter " + std::to_string(iter);

    const pipeline::PipelineInfo ref =
        pipeline::detectPipeline(scop, optionsFor(Mode::Off));
    const pipeline::PipelineInfo autoInfo =
        pipeline::detectPipeline(scop, optionsFor(Mode::Auto));
    expectInfoEqual(ref, autoInfo, what + " auto");

    expectStatsConsistent(autoInfo.stats, what);
    const std::size_t n = scop.numStatements();
    EXPECT_EQ(autoInfo.stats.candidatePairs, n * (n - 1) / 2) << what;
    totalParametric += autoInfo.stats.parametricPairs;
    totalFallbacks += autoInfo.stats.fallbackPairs();

    // Force either agrees bit for bit or rejects an irregular pair the
    // Auto stats already know about.
    try {
      expectInfoEqual(ref,
                      pipeline::detectPipeline(scop, optionsFor(Mode::Force)),
                      what + " force");
    } catch (const pipoly::Error&) {
      EXPECT_GT(autoInfo.stats.fallbackPairs(), 0u) << what;
    }

    // Cached results replay the same bits (and the same stats).
    if (iter % 8 == 0) {
      pipeline::DetectCache cache;
      const pipeline::PipelineInfo cold =
          cache.getOrCompute(scop, optionsFor(Mode::Auto));
      const pipeline::PipelineInfo warm =
          cache.getOrCompute(scop, optionsFor(Mode::Auto));
      expectInfoEqual(ref, cold, what + " cache/cold");
      expectInfoEqual(ref, warm, what + " cache/warm");
      EXPECT_EQ(warm.stats.parametricPairs, autoInfo.stats.parametricPairs)
          << what;
      EXPECT_EQ(cache.stats().hits, 1u) << what;
      EXPECT_EQ(cache.stats().misses, 1u) << what;
    }
  }
  // The harness must actually exercise both the closed form and the
  // fallback ladder; a generator regression that stops producing either
  // would hollow the suite out silently.
  EXPECT_GT(totalParametric, 100u);
  EXPECT_GT(totalFallbacks, 20u);
}

// --- Fallback coverage (pairs that *almost* match) --------------------

struct FallbackCase {
  const char* name;
  ParametricFallback reason;
  const char* traceName;
  scop::Scop scop;
};

std::vector<FallbackCase> fallbackCases() {
  std::vector<FallbackCase> cases;
  // Non-monotone stride: the first subscript is the constant 3.
  {
    scop::ScopBuilder b("nonmonotone");
    const std::size_t a1 = b.array("A1", {12, 12});
    b.array("A2", {12, 12});
    auto s1 = b.statement("S1", 2);
    s1.bound(0, 0, 12).bound(1, 0, 12);
    s1.write(a1, {s1.dim(0), s1.dim(1)});
    auto s2 = b.statement("S2", 2);
    s2.bound(0, 0, 10).bound(1, 0, 10);
    s2.write(1, {s2.dim(0), s2.dim(1)});
    s2.read(a1, {pb::AffineExpr(2, 3), s2.dim(1)});
    cases.push_back({"nonmonotone", ParametricFallback::NonMonotoneRead,
                     "detect.fallback.non_monotone_read", b.build()});
  }
  // Coupled subscripts: A1[i+j][j].
  {
    scop::ScopBuilder b("coupled");
    const std::size_t a1 = b.array("A1", {24, 12});
    b.array("A2", {12, 12});
    auto s1 = b.statement("S1", 2);
    s1.bound(0, 0, 24).bound(1, 0, 12);
    s1.write(a1, {s1.dim(0), s1.dim(1)});
    auto s2 = b.statement("S2", 2);
    s2.bound(0, 0, 10).bound(1, 0, 10);
    s2.write(1, {s2.dim(0), s2.dim(1)});
    s2.read(a1, {s2.dim(0) + s2.dim(1), s2.dim(1)});
    cases.push_back({"coupled", ParametricFallback::NonSeparableRead,
                     "detect.fallback.non_separable_read", b.build()});
  }
  // Non-rectangular (triangular) domains: j <= i.
  {
    scop::ScopBuilder b("triangular");
    const std::size_t a1 = b.array("A1", {12, 12});
    b.array("A2", {12, 12});
    auto s1 = b.statement("S1", 2);
    s1.bound(0, 0, 12).bound(1, s1.constant(0), s1.dim(0) + 1);
    s1.write(a1, {s1.dim(0), s1.dim(1)});
    auto s2 = b.statement("S2", 2);
    s2.bound(0, 0, 12).bound(1, s2.constant(0), s2.dim(0) + 1);
    s2.write(1, {s2.dim(0), s2.dim(1)});
    s2.read(a1, {s2.dim(0), s2.dim(1)});
    cases.push_back({"triangular", ParametricFallback::NonRectangularDomain,
                     "detect.fallback.non_rectangular_domain", b.build()});
  }
  // Two reads of the shared array.
  {
    scop::ScopBuilder b("tworeads");
    const std::size_t a1 = b.array("A1", {12, 13});
    b.array("A2", {12, 12});
    auto s1 = b.statement("S1", 2);
    s1.bound(0, 0, 12).bound(1, 0, 13);
    s1.write(a1, {s1.dim(0), s1.dim(1)});
    auto s2 = b.statement("S2", 2);
    s2.bound(0, 0, 10).bound(1, 0, 10);
    s2.write(1, {s2.dim(0), s2.dim(1)});
    s2.read(a1, {s2.dim(0), s2.dim(1)});
    s2.read(a1, {s2.dim(0), s2.dim(1) + 1});
    cases.push_back({"tworeads", ParametricFallback::MultipleReads,
                     "detect.fallback.multiple_reads", b.build()});
  }
  // Non-identity (strided) write.
  {
    scop::ScopBuilder b("stridedwrite");
    const std::size_t a1 = b.array("A1", {12, 24});
    b.array("A2", {12, 12});
    auto s1 = b.statement("S1", 2);
    s1.bound(0, 0, 12).bound(1, 0, 12);
    s1.write(a1, {s1.dim(0), 2 * s1.dim(1)});
    auto s2 = b.statement("S2", 2);
    s2.bound(0, 0, 10).bound(1, 0, 10);
    s2.write(1, {s2.dim(0), s2.dim(1)});
    s2.read(a1, {s2.dim(0), 2 * s2.dim(1)});
    cases.push_back({"stridedwrite", ParametricFallback::NonIdentityWrite,
                     "detect.fallback.non_identity_write", b.build()});
  }
  return cases;
}

TEST(ParametricDetect, FallbackPairsMatchLegacyAndRecordTheirReason) {
  for (const FallbackCase& c : fallbackCases()) {
    const pipeline::PipelineInfo ref =
        pipeline::detectPipeline(c.scop, optionsFor(Mode::Off));
    ASSERT_FALSE(ref.maps.empty()) << c.name << ": case must be dependent";

    trace::Session session;
    session.start();
    const pipeline::PipelineInfo info =
        pipeline::detectPipeline(c.scop, optionsFor(Mode::Auto));
    session.stop();

    expectInfoEqual(ref, info, c.name);
    EXPECT_EQ(info.stats.parametricPairs, 0u) << c.name;
    EXPECT_EQ(info.stats.fallbackPairs(), 1u) << c.name;
    EXPECT_EQ(info.stats.fallbacks(c.reason), 1u) << c.name;
    expectStatsConsistent(info.stats, c.name);

    // The trace names the fallback reason and the legacy route that
    // handled the pair.
    bool sawReason = false, sawLegacyRoute = false;
    for (const trace::TraceEvent& e : session.trace().events) {
      if (e.kind != trace::EventKind::Instant)
        continue;
      sawReason = sawReason || e.name == c.traceName;
      sawLegacyRoute = sawLegacyRoute || e.name == "detect.route.symbolic" ||
                       e.name == "detect.route.explicit";
    }
    EXPECT_TRUE(sawReason) << c.name << ": missing " << c.traceName;
    EXPECT_TRUE(sawLegacyRoute) << c.name;

    // Force refuses exactly these pairs.
    EXPECT_THROW(pipeline::detectPipeline(c.scop, optionsFor(Mode::Force)),
                 pipoly::Error)
        << c.name;
  }
}

TEST(ParametricDetect, ParametricRouteTracesItsPairs) {
  const scop::Scop scop = kernels::buildProgram(kernels::programByName("P1"), 16);
  trace::Session session;
  session.start();
  (void)pipeline::detectPipeline(scop, optionsFor(Mode::Auto));
  session.stop();
  std::size_t parametricInstants = 0;
  for (const trace::TraceEvent& e : session.trace().events)
    if (e.kind == trace::EventKind::Instant &&
        e.name == std::string("detect.route.parametric"))
      ++parametricInstants;
  EXPECT_EQ(parametricInstants, 1u);
}

// --- DetectCache interaction ------------------------------------------

TEST(ParametricDetect, CacheKeySeparatesParametricModes) {
  const scop::Scop scop = kernels::buildProgram(kernels::programByName("P3"), 16);
  EXPECT_NE(pipeline::detectFingerprint(scop, optionsFor(Mode::Off)),
            pipeline::detectFingerprint(scop, optionsFor(Mode::Auto)));

  pipeline::DetectCache cache;
  const pipeline::PipelineInfo off = cache.getOrCompute(scop, optionsFor(Mode::Off));
  const pipeline::PipelineInfo aut = cache.getOrCompute(scop, optionsFor(Mode::Auto));
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);
  expectInfoEqual(off, aut, "P3 off-vs-auto cached");
  EXPECT_EQ(off.stats.parametricPairs, 0u);
  EXPECT_EQ(aut.stats.parametricPairs, 3u);

  // Warm hits replay the stats of the run that computed the entry.
  const pipeline::PipelineInfo warmOff =
      cache.getOrCompute(scop, optionsFor(Mode::Off));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(warmOff.stats.parametricPairs, 0u);
}

// --- The N-independent route (ParamScop / detectParametric) -----------

TEST(ParamDetect, InstantiateReproducesBuildProgramExactly) {
  // Equal fingerprints mean equal scops: names, arrays, domains, every
  // access — the strongest interchangeability statement available.
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const kernels::ParamProgram param = kernels::buildParamProgram(spec);
    for (pb::Value n : {8, 16, 32}) {
      const scop::Scop inst = param.scop.instantiate(param.bindingsFor(n));
      const scop::Scop direct = kernels::buildProgram(spec, n);
      EXPECT_EQ(pipeline::detectFingerprint(inst, optionsFor(Mode::Auto)),
                pipeline::detectFingerprint(direct, optionsFor(Mode::Auto)))
          << spec.name << " N=" << n;
    }
  }
}

TEST(ParamDetect, RegularProgramsClassifyFullyRegular) {
  for (const std::string& name : regularPrograms()) {
    const kernels::ParamProgram param =
        kernels::buildParamProgram(kernels::programByName(name));
    const pipeline::ParamDetection det =
        pipeline::detectParametric(param.scop);
    EXPECT_TRUE(det.fullyRegular()) << name;
    EXPECT_EQ(det.irregularPlans(), 0u) << name;
  }
  for (const char* name : {"P4", "P6", "P10"}) {
    const kernels::ParamProgram param =
        kernels::buildParamProgram(kernels::programByName(name));
    const pipeline::ParamDetection det =
        pipeline::detectParametric(param.scop);
    EXPECT_FALSE(det.fullyRegular()) << name;
    EXPECT_THROW(det.summarize(param.bindingsFor(16)), pipoly::Error) << name;
  }
}

TEST(ParamDetect, SymbolicPlanMapsInstantiateToExplicitPipelineMaps) {
  for (const std::string& name : regularPrograms()) {
    const kernels::ParamProgram param =
        kernels::buildParamProgram(kernels::programByName(name));
    const pipeline::ParamDetection det =
        pipeline::detectParametric(param.scop);
    for (pb::Value n : {8, 16}) {
      const pb::ParamBindings bindings = param.bindingsFor(n);
      const scop::Scop scop = kernels::buildProgram(param.spec, n);
      const pipeline::PipelineInfo info =
          pipeline::detectPipeline(scop, optionsFor(Mode::Off));
      // Every explicit pipeline map has a regular plan whose symbolic map
      // instantiates to exactly the same relation.
      for (const pipeline::PipelineMapEntry& entry : info.maps) {
        const auto it = std::find_if(
            det.plans().begin(), det.plans().end(),
            [&](const pipeline::ParamPairPlan& p) {
              return p.srcIdx == entry.srcIdx && p.tgtIdx == entry.tgtIdx;
            });
        ASSERT_NE(it, det.plans().end()) << name << " N=" << n;
        ASSERT_TRUE(it->regular()) << name << " N=" << n;
        ASSERT_TRUE(it->map.has_value()) << name << " N=" << n;
        EXPECT_TRUE(it->map->instantiate(bindings) == entry.map)
            << name << " N=" << n << " pair S" << entry.srcIdx << "->S"
            << entry.tgtIdx;
      }
    }
  }
}

TEST(ParamDetect, SummariesAndBlockRepsMatchExplicitAtSmallN) {
  for (const std::string& name : regularPrograms()) {
    const kernels::ParamProgram param =
        kernels::buildParamProgram(kernels::programByName(name));
    const pipeline::ParamDetection det =
        pipeline::detectParametric(param.scop);
    for (pb::Value n : {8, 13, 16, 32}) {
      const pb::ParamBindings bindings = param.bindingsFor(n);
      const scop::Scop scop = kernels::buildProgram(param.spec, n);
      const pipeline::PipelineInfo info =
          pipeline::detectPipeline(scop, optionsFor(Mode::Auto));
      const pipeline::ParamSummary summary = det.summarize(bindings);
      const std::string what = name + " N=" + std::to_string(n);

      EXPECT_EQ(summary.totalBlocks,
                static_cast<pb::Value>(info.totalBlocks()))
          << what;
      EXPECT_EQ(summary.pipelineMaps, info.maps.size()) << what;
      ASSERT_EQ(summary.statements.size(), info.statements.size()) << what;
      for (std::size_t s = 0; s < summary.statements.size(); ++s) {
        EXPECT_EQ(summary.statements[s].name, scop.statement(s).name())
            << what;
        EXPECT_EQ(summary.statements[s].domainSize,
                  static_cast<pb::Value>(scop.statement(s).domain().size()))
            << what << " S" << s;
        EXPECT_EQ(summary.statements[s].blockCount,
                  static_cast<pb::Value>(info.statements[s].blockReps.size()))
            << what << " S" << s;
        // Bit-identical block representatives, not just equal counts.
        EXPECT_TRUE(det.blockReps(s, bindings) == info.statements[s].blockReps)
            << what << " S" << s;
      }
    }
  }
}

TEST(ParamDetect, RequiredSourceRepsMatchExplicitInRequirements) {
  for (const std::string& name : regularPrograms()) {
    const kernels::ParamProgram param =
        kernels::buildParamProgram(kernels::programByName(name));
    const pipeline::ParamDetection det =
        pipeline::detectParametric(param.scop);
    const pb::Value n = 16;
    const pb::ParamBindings bindings = param.bindingsFor(n);
    const scop::Scop scop = kernels::buildProgram(param.spec, n);
    const pipeline::PipelineInfo info =
        pipeline::detectPipeline(scop, optionsFor(Mode::Off));
    for (const pipeline::PipelineMapEntry& entry : info.maps) {
      const auto planIt = std::find_if(
          det.plans().begin(), det.plans().end(),
          [&](const pipeline::ParamPairPlan& p) {
            return p.srcIdx == entry.srcIdx && p.tgtIdx == entry.tgtIdx;
          });
      ASSERT_NE(planIt, det.plans().end()) << name;
      const std::size_t planIdx =
          static_cast<std::size_t>(planIt - det.plans().begin());
      const pipeline::StatementPipelineInfo& tgtInfo =
          info.statements[entry.tgtIdx];
      const auto reqIt = std::find_if(
          tgtInfo.inRequirements.begin(), tgtInfo.inRequirements.end(),
          [&](const pipeline::InRequirement& r) {
            return r.srcStmtIdx == entry.srcIdx;
          });
      ASSERT_NE(reqIt, tgtInfo.inRequirements.end()) << name;
      for (const pb::Tuple& rep : tgtInfo.blockReps.points()) {
        const auto expected = reqIt->map.singleImageOf(rep);
        ASSERT_TRUE(expected.has_value()) << name;
        EXPECT_EQ(det.requiredSourceRep(planIdx, rep, bindings), *expected)
            << name << " pair S" << entry.srcIdx << "->S" << entry.tgtIdx
            << " rep " << rep.toString();
      }
    }
  }
}

TEST(ParamDetect, SummariesStayClosedFormAtMillionScaleN) {
  // The reason the route exists: a binding with N = 10^6 (domains of
  // 10^12 points, far past anything the explicit core could hold) is
  // summarised through the same closed forms that were just proven
  // bit-identical at small N.
  for (const std::string& name : regularPrograms()) {
    const kernels::ParamProgram param =
        kernels::buildParamProgram(kernels::programByName(name));
    const pipeline::ParamDetection det =
        pipeline::detectParametric(param.scop);
    const pb::Value n = 1000000;
    const pipeline::ParamSummary summary = det.summarize(param.bindingsFor(n));
    ASSERT_EQ(summary.statements.size(), param.spec.nums.size()) << name;
    const std::vector<pb::Value> bounds = kernels::nestBounds(param.spec, n);
    pb::Value total = 0;
    for (std::size_t s = 0; s < summary.statements.size(); ++s) {
      EXPECT_EQ(summary.statements[s].domainSize, bounds[s] * bounds[s])
          << name << " S" << s;
      EXPECT_GT(summary.statements[s].blockCount, 0) << name << " S" << s;
      EXPECT_LE(summary.statements[s].blockCount,
                summary.statements[s].domainSize)
          << name << " S" << s;
      total += summary.statements[s].blockCount;
    }
    EXPECT_EQ(summary.totalBlocks, total) << name;
    EXPECT_GT(summary.pipelineMaps, 0u) << name;
  }
}

} // namespace
