#include "runtime/placement.hpp"

#include <algorithm>
#include <cstdint>
#include <tuple>

namespace pipoly::rt {

namespace {

/// Partitions stages [0, S) into `workers` contiguous non-empty ranges,
/// lexicographic (maxLoad, severed cut weight). `load` is the task-count
/// prefix sum and `cutWeight[p]` the traffic severed by a cut between
/// stages p-1 and p. Returns the `workers - 1` interior cut positions
/// (ascending); empty when workers == 1.
std::vector<std::size_t>
balancedCuts(const std::vector<std::uint64_t>& load,
             const std::vector<std::uint64_t>& cutWeight, unsigned workers) {
  const std::size_t numStages = load.size() - 1;
  struct Cell {
    std::uint64_t maxLoad = UINT64_MAX;
    std::uint64_t cross = UINT64_MAX;
    std::size_t prev = 0;
  };
  // dp[w][i]: stages [0, i) over w workers.
  std::vector<std::vector<Cell>> dp(workers + 1,
                                    std::vector<Cell>(numStages + 1));
  dp[0][0] = {0, 0, 0};
  for (unsigned w = 1; w <= workers; ++w)
    for (std::size_t i = w; i + (workers - w) <= numStages; ++i)
      for (std::size_t j = w - 1; j < i; ++j) {
        const Cell& base = dp[w - 1][j];
        if (base.maxLoad == UINT64_MAX)
          continue;
        Cell cand{std::max(base.maxLoad, load[i] - load[j]),
                  base.cross + (j != 0 ? cutWeight[j] : 0), j};
        Cell& best = dp[w][i];
        if (std::tie(cand.maxLoad, cand.cross) <
            std::tie(best.maxLoad, best.cross))
          best = cand;
      }

  std::vector<std::size_t> cuts(workers - 1, 0);
  std::size_t end = numStages;
  for (unsigned w = workers; w >= 2; --w) {
    end = dp[w][end].prev;
    cuts[w - 2] = end;
  }
  return cuts;
}

/// Fills workerOfStage and the diagnostics from ownedStages.
void finalize(Placement& p, const std::vector<std::size_t>& stageTasks,
              const std::vector<StageEdge>& edges) {
  p.workerOfStage.assign(stageTasks.size(), 0);
  p.maxLoad = 0;
  for (std::size_t w = 0; w < p.ownedStages.size(); ++w) {
    std::uint64_t load = 0;
    for (const std::size_t s : p.ownedStages[w]) {
      p.workerOfStage[s] = w;
      load += stageTasks[s];
    }
    p.maxLoad = std::max(p.maxLoad, load);
  }
  p.crossWorkerBytes = 0;
  for (const StageEdge& e : edges)
    if (p.workerOfStage[e.src] != p.workerOfStage[e.tgt])
      p.crossWorkerBytes += e.bytes;
}

} // namespace

Placement placeStagesBalanced(const std::vector<std::size_t>& stageTasks,
                              unsigned workers,
                              const std::vector<StageEdge>& edges) {
  Placement p;
  workers = std::max(workers, 1u);
  p.ownedStages.assign(workers, {});
  const std::size_t numStages = stageTasks.size();
  if (numStages == 0) {
    finalize(p, stageTasks, edges);
    return p;
  }
  const unsigned eff = static_cast<unsigned>(
      std::min<std::size_t>(workers, numStages));
  std::vector<std::uint64_t> load(numStages + 1, 0);
  for (std::size_t s = 0; s < numStages; ++s)
    load[s + 1] = load[s] + stageTasks[s];
  std::vector<std::uint64_t> cutWeight(numStages + 1, 0);
  for (const StageEdge& e : edges) {
    const auto [lo, hi] = std::minmax(e.src, e.tgt);
    for (std::size_t c = lo + 1; c <= hi; ++c)
      cutWeight[c] += e.bytes;
  }
  const std::vector<std::size_t> cuts = balancedCuts(load, cutWeight, eff);
  std::size_t begin = 0;
  for (unsigned w = 0; w < eff; ++w) {
    const std::size_t end = w + 1 < eff ? cuts[w] : numStages;
    for (std::size_t s = begin; s < end; ++s)
      p.ownedStages[w].push_back(s);
    begin = end;
  }
  finalize(p, stageTasks, edges);
  return p;
}

} // namespace pipoly::rt
