// Property tests for the adaptive grid layer:
//
//   * hysteresis + cooldown: against randomized density traces, no base
//     cell ever changes resolution in two consecutive ticks (so it can
//     never oscillate split->merge->split tick by tick);
//   * refinement-tree invariants: after every tick — hence after every
//     split/merge transition — GridIndex::CheckRefinement holds (children
//     exactly tile the parent, no orphaned refined slots, exact entry
//     bookkeeping), alongside the full InvariantAuditor pass.

#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "stq/common/random.h"
#include "stq/core/grid_engine.h"
#include "stq/core/query_processor.h"

namespace stq {
namespace {

QueryProcessorOptions AdaptiveOptions() {
  QueryProcessorOptions options;
  options.grid_cells_per_side = 8;
  options.adaptive.enabled = true;
  options.adaptive.split_threshold = 6;
  options.adaptive.merge_threshold = 2;
  options.adaptive.max_level = 3;
  options.adaptive.cooldown_ticks = 2;
  return options;
}

std::vector<int> CellLevels(const GridIndex& grid) {
  std::vector<int> levels;
  levels.reserve(static_cast<size_t>(grid.cells_x()) * grid.cells_y());
  for (int cy = 0; cy < grid.cells_y(); ++cy) {
    for (int cx = 0; cx < grid.cells_x(); ++cx) {
      levels.push_back(grid.CellLevel(CellCoord{cx, cy}));
    }
  }
  return levels;
}

// One randomized density trace: a population of sampled and predictive
// objects lurching between pulsing hotspots — cells fill past the split
// threshold and drain below the merge threshold over and over.
void DriveRandomTrace(uint64_t seed, size_t num_ticks) {
  QueryProcessor qp(AdaptiveOptions());
  Xorshift128Plus rng(seed);
  constexpr ObjectId kObjects = 120;
  double now = 0.0;

  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.2, 0.2, 0.8, 0.8}).ok());
  ASSERT_TRUE(qp.RegisterRangeQuery(2, Rect{0.0, 0.0, 0.4, 0.4}).ok());

  std::vector<int> prev_levels = CellLevels(qp.grid_engine()->grid());
  std::vector<char> changed_prev(prev_levels.size(), 0);
  size_t total_changes = 0;

  for (size_t tick = 0; tick < num_ticks; ++tick) {
    // Every few ticks the hotspot jumps; between jumps objects pile onto
    // it with Gaussian spread, so the same cells cross the split
    // threshold upward and later drain empty.
    const Point hotspot{rng.NextDouble(0.1, 0.9), rng.NextDouble(0.1, 0.9)};
    const bool scatter = rng.NextBool(0.3);  // relax phase: uniform spray
    for (ObjectId id = 1; id <= kObjects; ++id) {
      if (!rng.NextBool(0.7)) continue;
      Point p;
      if (scatter) {
        p = Point{rng.NextDouble(), rng.NextDouble()};
      } else {
        p = Point{hotspot.x + 0.03 * rng.NextGaussian(),
                  hotspot.y + 0.03 * rng.NextGaussian()};
      }
      if (rng.NextBool(0.2)) {
        ASSERT_TRUE(qp.UpsertPredictiveObject(
                          id, p,
                          Velocity{rng.NextDouble(-0.05, 0.05),
                                   rng.NextDouble(-0.05, 0.05)},
                          now + 0.5)
                        .ok());
      } else {
        ASSERT_TRUE(qp.UpsertObject(id, p, now + 0.5).ok());
      }
    }
    now += 1.0;
    (void)qp.EvaluateTick(now);

    // Refinement-tree invariants after every (possible) transition.
    const Status refinement = qp.grid_engine()->grid().CheckRefinement();
    ASSERT_TRUE(refinement.ok())
        << "seed " << seed << " tick " << tick << ": "
        << refinement.ToString();
    const Status invariants = qp.CheckInvariants();
    ASSERT_TRUE(invariants.ok())
        << "seed " << seed << " tick " << tick << ": "
        << invariants.ToString();

    // No cell changes resolution in consecutive ticks.
    const std::vector<int> levels = CellLevels(qp.grid_engine()->grid());
    ASSERT_EQ(levels.size(), prev_levels.size());
    for (size_t i = 0; i < levels.size(); ++i) {
      const bool changed_now = levels[i] != prev_levels[i];
      if (changed_now) {
        ++total_changes;
        EXPECT_FALSE(changed_prev[i])
            << "seed " << seed << " tick " << tick << ": cell " << i
            << " changed resolution in consecutive ticks ("
            << prev_levels[i] << " -> " << levels[i] << ")";
      }
      changed_prev[i] = changed_now ? 1 : 0;
    }
    prev_levels = levels;
  }

  // The trace must actually exercise transitions, or the property above
  // is vacuous.
  EXPECT_GE(total_changes, 4u) << "seed " << seed;
}

TEST(AdaptivePropertyTest, NoConsecutiveTickResolutionOscillation) {
  int seeds = 6;
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once, single-threaded
  if (const char* from_env = std::getenv("STQ_SKEW_SEEDS")) {
    seeds = std::max(1, std::atoi(from_env));
  }
  for (int i = 0; i < seeds; ++i) {
    DriveRandomTrace(/*seed=*/0xADA0 + 131 * static_cast<uint64_t>(i),
                     /*num_ticks=*/30);
    if (testing::Test::HasFatalFailure()) return;
  }
}

// A split cell's level steps by exactly one per tick: the refiner never
// jumps a cell several levels at once, and max_level bounds the depth.
TEST(AdaptivePropertyTest, LevelStepsAreUnitAndBounded) {
  QueryProcessor qp(AdaptiveOptions());
  const int max_level = qp.options().adaptive.max_level;
  double now = 0.0;
  std::vector<int> prev_levels = CellLevels(qp.grid_engine()->grid());
  for (size_t tick = 0; tick < 20; ++tick) {
    // A permanent pile-up in one corner: the hot cell should descend one
    // level per cooldown window until max_level.
    for (ObjectId id = 1; id <= 40; ++id) {
      ASSERT_TRUE(
          qp.UpsertObject(id, Point{0.01 + 0.001 * static_cast<double>(id),
                                    0.01},
                          now + 0.5)
              .ok());
    }
    now += 1.0;
    (void)qp.EvaluateTick(now);
    const std::vector<int> levels = CellLevels(qp.grid_engine()->grid());
    for (size_t i = 0; i < levels.size(); ++i) {
      EXPECT_LE(std::abs(levels[i] - prev_levels[i]), 1) << "cell " << i;
      EXPECT_GE(levels[i], 0);
      EXPECT_LE(levels[i], max_level);
    }
    prev_levels = levels;
  }
  // The pile-up drove the corner cell to the maximum level.
  EXPECT_EQ(qp.grid_engine()->grid().CellLevel(CellCoord{0, 0}), max_level);
  ASSERT_TRUE(qp.grid_engine()->grid().CheckRefinement().ok());
}

// Draining a refined region merges it back to level 0 (and the grid
// reports no refined cells once everything is coarse again).
TEST(AdaptivePropertyTest, DrainedCellsMergeBackToUniform) {
  QueryProcessor qp(AdaptiveOptions());
  double now = 0.0;
  for (size_t tick = 0; tick < 8; ++tick) {
    for (ObjectId id = 1; id <= 30; ++id) {
      ASSERT_TRUE(qp.UpsertObject(id, Point{0.05, 0.05}, now + 0.5).ok());
    }
    now += 1.0;
    (void)qp.EvaluateTick(now);
  }
  EXPECT_GT(qp.grid_engine()->grid().num_refined_cells(), 0u);

  // Spread everything far away and let the refiner drain the corner.
  for (size_t tick = 0; tick < 12; ++tick) {
    for (ObjectId id = 1; id <= 30; ++id) {
      ASSERT_TRUE(qp.UpsertObject(
                        id,
                        Point{0.3 + 0.02 * static_cast<double>(id), 0.9},
                        now + 0.5)
                      .ok());
    }
    now += 1.0;
    (void)qp.EvaluateTick(now);
    ASSERT_TRUE(qp.grid_engine()->grid().CheckRefinement().ok());
  }
  EXPECT_EQ(qp.grid_engine()->grid().CellLevel(CellCoord{0, 0}), 0);
  ASSERT_TRUE(qp.CheckInvariants().ok());
}

}  // namespace
}  // namespace stq
