// Tests of the benchmark's own helpers: order statistics, failure
// counting, seeded input generation and span self-time arithmetic.

#include "programs.hpp"
#include "reference.hpp"
#include "stats.hpp"
#include "tracer.hpp"

#include "frontend/frontend.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace perfbench {
namespace {

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, QuartilesMatchPythonStatisticsQuantiles) {
  // Reference values from Python's statistics.quantiles(data, n=4).
  std::vector<double> oneToTen;
  for (int i = 1; i <= 10; ++i)
    oneToTen.push_back(i);
  EXPECT_EQ(quantiles(oneToTen, 4), (std::vector<double>{2.75, 5.5, 8.25}));
  EXPECT_EQ(quantiles({3, 1, 2}, 4), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(quantiles({5, 7}, 4), (std::vector<double>{4.5, 6.0, 7.5}));
  EXPECT_THROW(quantiles({1}, 4), std::invalid_argument);
}

TEST(Stats, HarrellDavisMatchesNumericIntegration) {
  // Reference values: the Beta-weighted sum with the weights integrated
  // numerically (Simpson's rule, 200000 steps) in Python.
  const std::vector<double> v = {16, 1, 8, 2, 4};
  EXPECT_NEAR(harrellDavis(v, 0.5), 5.04032, 1e-9);
  EXPECT_NEAR(harrellDavis(v, 0.75), 10.796802130679806, 1e-9);
  EXPECT_NEAR(harrellDavis({3, 1, 2}, 0.5), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(harrellDavis({7}, 0.9), 7.0);
  EXPECT_THROW(harrellDavis(v, 1.0), std::invalid_argument);
  // Two equal clusters: the median lies between them, not on an extreme.
  std::vector<double> twoClusters;
  for (int i = 0; i < 50; ++i) {
    twoClusters.push_back(10.0 + 0.01 * i);
    twoClusters.push_back(20.0 + 0.01 * i);
  }
  const double mid = harrellDavis(twoClusters, 0.5);
  EXPECT_GT(mid, 12.0);
  EXPECT_LT(mid, 18.0);
  // Large samples stay cheap and exact on constant data.
  EXPECT_NEAR(harrellDavis(std::vector<double>(20000, 3.0), 0.9), 3.0, 1e-9);
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({2, 8}), 4.0);
  EXPECT_THROW(geomean({}), std::invalid_argument);
}

TEST(Tally, CountsMismatchesAndExceptionsAsFailures) {
  Tally t;
  EXPECT_TRUE(t.run("ok", [] { return true; }));
  EXPECT_FALSE(t.run("mismatch", [] { return false; }));
  EXPECT_FALSE(t.run("throws", []() -> bool {
    throw std::runtime_error("boom");
  }));
  EXPECT_EQ(t.attempted(), 3u);
  EXPECT_EQ(t.failed(), 2u);
  ASSERT_EQ(t.errors().size(), 2u);
  EXPECT_EQ(t.errors()[1], "throws: boom");
}

TEST(Programs, RandomSpecsAreIdenticalForOneSeed) {
  const auto a = randomTable9Specs(42, 4);
  const auto b = randomTable9Specs(42, 4);
  ASSERT_EQ(a.size(), 4u);
  bool differsFromOtherSeed = false;
  const auto c = randomTable9Specs(43, 4);
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].name, std::string("R").append(std::to_string(p + 1)));
    EXPECT_EQ(a[p].nums, b[p].nums);
    EXPECT_EQ(pipoly::kernels::describeProgram(a[p]),
              pipoly::kernels::describeProgram(b[p]));
    differsFromOtherSeed = differsFromOtherSeed ||
                           pipoly::kernels::describeProgram(a[p]) !=
                               pipoly::kernels::describeProgram(c[p]);
  }
  EXPECT_TRUE(differsFromOtherSeed);
}

TEST(Programs, SetIsIdenticalForOneSeedAndParses) {
  const ProgramSet set{16, 3, 16, 8, 16};
  const auto a = makePrograms(set, 7);
  const auto b = makePrograms(set, 7);
  ASSERT_EQ(a.size(), 10u + 3u + 2u + 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].source, b[i].source);
    if (!a[i].source.empty())
      EXPECT_NO_THROW(pipoly::frontend::parseProgram(a[i].source)) << a[i].name;
    else
      EXPECT_NO_THROW(a[i].build()) << a[i].name;
  }
  bool reordered = false;
  for (std::uint64_t seed = 8; seed < 12 && !reordered; ++seed) {
    const auto c = makePrograms(set, seed);
    for (std::size_t i = 0; i < a.size(); ++i)
      reordered = reordered || a[i].name != c[i].name;
  }
  EXPECT_TRUE(reordered);
}

SpanRecord span(std::int32_t parent, std::int64_t start, std::int64_t end) {
  return {"s", 0, 0, parent, start, end};
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  const std::vector<SpanRecord> spans = {
      span(-1, 0, 100), // root
      span(0, 10, 30),  // child
      span(0, 20, 50),  // overlapping child: union with the first is 10..50
      span(1, 12, 18),  // grandchild: counts against its parent only
      span(0, 90, 120), // child running past the root: clipped at 100
  };
  const std::vector<std::int64_t> self = selfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 6);
  EXPECT_EQ(self[4], 30);
}

TEST(SelfTime, RejectsOpenSpans) {
  EXPECT_THROW(selfTimesNs({span(-1, 5, -1)}), std::invalid_argument);
}

TEST(Tracer, RecordsNestingPassesAndCounters) {
  Tracer t(true);
  t.beginPass("main");
  const std::uint32_t op = t.beginOp("P1");
  {
    ScopedSpan outer(t, "op", op);
    ScopedSpan inner(t, "pipeline.detect", op);
    t.count("codegen.tasks", op, 5);
  }
  t.beginPass("main");
  { ScopedSpan other(t, "pipeline.detect", t.beginOp("P2")); }
  t.beginPass("scaling");
  t.count("codegen.tasks", 0, 100);

  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, -1);
  EXPECT_EQ(t.spans()[2].pass, 1u);
  EXPECT_EQ(t.ops()[t.spans()[1].op], "P1");

  const auto self = selfTimesNs(t.spans());
  EXPECT_EQ(passTotalsMs(t, self, "main", "pipeline.detect").size(), 2u);
  EXPECT_EQ(passTotalsMs(t, self, "main", "pipeline.detect", "P2")[0], 0.0);
  EXPECT_EQ(passCounterSums(t, "main", "codegen.tasks"),
            (std::vector<double>{5, 0}));
  EXPECT_EQ(passCounterSums(t, "scaling", "codegen.tasks"),
            (std::vector<double>{100}));
}

TEST(Tracer, RecordsNothingWhenOff) {
  Tracer t(false);
  t.beginPass("main");
  { ScopedSpan s(t, "pass", t.beginOp("P1")); }
  t.count("x", 0, 1);
  EXPECT_TRUE(t.spans().empty());
  EXPECT_TRUE(t.counters().empty());
  EXPECT_TRUE(t.passes().empty());
}

TEST(Reference, WorkIsDeterministicAndProbesMeasure) {
  EXPECT_EQ(referenceWork(3, 1, 4), referenceWork(3, 1, 4));
  EXPECT_NE(referenceWork(3, 1, 4), referenceWork(3, 2, 4));
  ReferenceProbe probe(4);
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(probe.serialSeconds(), 0.0);
    EXPECT_GT(probe.parallelSeconds(), 0.0);
  }
}

} // namespace
} // namespace perfbench
