#include "sim/calibrate.hpp"

#include "support/stopwatch.hpp"

#include <algorithm>

namespace pipoly::sim {

namespace {

constexpr std::size_t kSamplesPerStatement = 64;
constexpr int kRepetitions = 3;

} // namespace

CostModel calibrate(const scop::Scop& scop,
                    const tasking::StatementExecutor& exec) {
  CostModel model;
  model.iterationCost.reserve(scop.numStatements());

  for (std::size_t s = 0; s < scop.numStatements(); ++s) {
    const auto& points = scop.statement(s).domain().points();
    // Evenly spread sample of the domain.
    std::vector<pb::Tuple> sample;
    const std::size_t count =
        std::min(kSamplesPerStatement, points.size());
    for (std::size_t k = 0; k < count; ++k)
      sample.push_back(points[k * points.size() / count]);

    // Warm-up pass, then timed repetitions. The fastest repetition is
    // the cost: a preemption during one repetition inflates only that
    // repetition, where a mean over all of them would carry it.
    for (const pb::Tuple& it : sample)
      exec(s, it);
    double fastest = 0.0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      Stopwatch sw;
      for (const pb::Tuple& it : sample)
        exec(s, it);
      const double seconds = sw.seconds();
      fastest = rep == 0 ? seconds : std::min(fastest, seconds);
    }
    model.iterationCost.push_back(fastest /
                                  static_cast<double>(sample.size()));
  }
  return model;
}

} // namespace pipoly::sim
