// Tests for the stage partitioner (rt/placement.hpp): the placement edge
// cases the channel engine depends on — one stage, more workers than
// stages, and zero stages.

#include "runtime/placement.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pipoly::rt {
namespace {

std::vector<StageEdge> chainEdges(std::size_t stages, std::uint64_t bytes) {
  std::vector<StageEdge> edges;
  for (std::size_t s = 0; s + 1 < stages; ++s)
    edges.push_back({s, s + 1, bytes});
  return edges;
}

TEST(PlacementTest, SingleStageLandsOnOneWorkerEverywhereElseEmpty) {
  const std::vector<std::size_t> tasks = {10};
  for (unsigned workers : {1u, 4u}) {
    const Placement p =
        placeStagesBalanced(tasks, workers, chainEdges(1, 8));
    ASSERT_EQ(p.ownedStages.size(), workers);
    EXPECT_EQ(p.ownedStages[0], (std::vector<std::size_t>{0}));
    for (unsigned w = 1; w < workers; ++w)
      EXPECT_TRUE(p.ownedStages[w].empty()) << "worker " << w;
    EXPECT_EQ(p.maxLoad, 10u);
    EXPECT_EQ(p.crossWorkerBytes, 0u);
  }
}

TEST(PlacementTest, MoreWorkersThanStagesLeavesTrailingWorkersIdle) {
  const std::vector<std::size_t> tasks = {4, 4, 4};
  const Placement p = placeStagesBalanced(tasks, 8, chainEdges(3, 16));
  ASSERT_EQ(p.ownedStages.size(), 8u);
  std::size_t owned = 0, nonEmpty = 0;
  for (const std::vector<std::size_t>& ws : p.ownedStages) {
    owned += ws.size();
    nonEmpty += ws.empty() ? 0 : 1;
  }
  EXPECT_EQ(owned, 3u);    // every stage owned exactly once
  EXPECT_EQ(nonEmpty, 3u); // one stage per busy worker
  EXPECT_EQ(p.maxLoad, 4u);
}

TEST(PlacementTest, ZeroStagesYieldsAnEmptyPlacement) {
  const Placement b = placeStagesBalanced({}, 4, {});
  EXPECT_EQ(b.maxLoad, 0u);
  EXPECT_TRUE(b.workerOfStage.empty());
}

} // namespace
} // namespace pipoly::rt
