// Tests for the shared grid index: cell geometry, object/query placement,
// footprint clipping, ring iteration, and candidate enumeration.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "stq/common/random.h"
#include "stq/grid/grid_index.h"

namespace stq {
namespace {

const Rect kUnit{0.0, 0.0, 1.0, 1.0};

TEST(GridIndexTest, CellGeometry) {
  GridIndex grid(kUnit, 4);
  EXPECT_EQ(grid.cells_x(), 4);
  EXPECT_EQ(grid.cells_y(), 4);
  EXPECT_DOUBLE_EQ(grid.cell_width(), 0.25);
  EXPECT_DOUBLE_EQ(grid.cell_height(), 0.25);
  EXPECT_EQ(grid.CellOf(Point{0.1, 0.1}), (CellCoord{0, 0}));
  EXPECT_EQ(grid.CellOf(Point{0.9, 0.3}), (CellCoord{3, 1}));
  // The far boundary belongs to the last cell.
  EXPECT_EQ(grid.CellOf(Point{1.0, 1.0}), (CellCoord{3, 3}));
  // Out-of-bounds points clamp to border cells.
  EXPECT_EQ(grid.CellOf(Point{-5.0, 2.0}), (CellCoord{0, 3}));
  EXPECT_EQ(grid.CellBounds(CellCoord{1, 2}),
            (Rect{0.25, 0.5, 0.5, 0.75}));
}

TEST(GridIndexTest, InsertFindRemoveObject) {
  GridIndex grid(kUnit, 8);
  grid.InsertObject(7, Point{0.3, 0.3});
  std::vector<ObjectId> found;
  grid.CollectObjectsInRect(Rect{0.25, 0.25, 0.375, 0.375}, &found);
  EXPECT_EQ(found, std::vector<ObjectId>{7});
  grid.RemoveObject(7, Point{0.3, 0.3});
  grid.CollectObjectsInRect(kUnit, &found);
  EXPECT_TRUE(found.empty());
}

TEST(GridIndexTest, MoveObjectAcrossCells) {
  GridIndex grid(kUnit, 8);
  grid.InsertObject(1, Point{0.1, 0.1});
  grid.MoveObject(1, Point{0.1, 0.1}, Point{0.9, 0.9});
  std::vector<ObjectId> found;
  grid.CollectObjectsInRect(Rect{0.0, 0.0, 0.2, 0.2}, &found);
  EXPECT_TRUE(found.empty());
  grid.CollectObjectsInRect(Rect{0.85, 0.85, 0.95, 0.95}, &found);
  EXPECT_EQ(found, std::vector<ObjectId>{1});
}

TEST(GridIndexTest, MoveWithinSameCellIsNoOp) {
  GridIndex grid(kUnit, 2);
  grid.InsertObject(1, Point{0.1, 0.1});
  grid.MoveObject(1, Point{0.1, 0.1}, Point{0.2, 0.2});
  std::vector<ObjectId> found;
  grid.CollectObjectsInRect(kUnit, &found);
  EXPECT_EQ(found.size(), 1u);
}

TEST(GridIndexTest, QueryClippedToAllOverlappingCells) {
  GridIndex grid(kUnit, 4);
  // Region spanning a 2x2 block of cells.
  grid.InsertQuery(5, Rect{0.2, 0.2, 0.3, 0.3});
  int stubs = 0;
  grid.ForEachQueryCandidate(kUnit, [&](QueryId id) {
    EXPECT_EQ(id, 5u);
    ++stubs;
  });
  EXPECT_EQ(stubs, 4);  // cells (0,0),(1,0),(0,1),(1,1)

  std::vector<QueryId> dedup;
  grid.CollectQueriesInRect(kUnit, &dedup);
  EXPECT_EQ(dedup, std::vector<QueryId>{5});

  grid.RemoveQuery(5, Rect{0.2, 0.2, 0.3, 0.3});
  grid.CollectQueriesInRect(kUnit, &dedup);
  EXPECT_TRUE(dedup.empty());
}

TEST(GridIndexTest, QueryOutsideBoundsIgnored) {
  GridIndex grid(kUnit, 4);
  grid.InsertQuery(1, Rect{2.0, 2.0, 3.0, 3.0});
  std::vector<QueryId> found;
  grid.CollectQueriesInRect(kUnit, &found);
  EXPECT_TRUE(found.empty());
  grid.RemoveQuery(1, Rect{2.0, 2.0, 3.0, 3.0});  // symmetric no-op
}

TEST(GridIndexTest, ForEachQueryAtUsesPointCell) {
  GridIndex grid(kUnit, 4);
  grid.InsertQuery(1, Rect{0.0, 0.0, 0.1, 0.1});
  grid.InsertQuery(2, Rect{0.9, 0.9, 1.0, 1.0});
  std::vector<QueryId> at_origin;
  grid.ForEachQueryAt(Point{0.05, 0.05},
                      [&](QueryId id) { at_origin.push_back(id); });
  EXPECT_EQ(at_origin, std::vector<QueryId>{1});
}

TEST(GridIndexTest, FootprintClipsAlongSegment) {
  GridIndex grid(kUnit, 4);
  // Diagonal footprint crossing several cells.
  const Segment diag{Point{0.05, 0.05}, Point{0.95, 0.95}};
  grid.InsertObjectFootprint(9, diag);
  // The object must be discoverable from a window around the middle of
  // its path even though its endpoints are elsewhere.
  std::vector<ObjectId> found;
  grid.CollectObjectsInRect(Rect{0.45, 0.45, 0.55, 0.55}, &found);
  EXPECT_EQ(found, std::vector<ObjectId>{9});
  grid.RemoveObjectFootprint(9, diag);
  grid.CollectObjectsInRect(kUnit, &found);
  EXPECT_TRUE(found.empty());
}

TEST(GridIndexTest, FootprintDoesNotTouchOffPathCells) {
  GridIndex grid(kUnit, 4);
  // Horizontal footprint along the bottom row.
  grid.InsertObjectFootprint(3, Segment{Point{0.05, 0.1}, Point{0.95, 0.1}});
  std::vector<ObjectId> found;
  grid.CollectObjectsInRect(Rect{0.05, 0.8, 0.95, 0.95}, &found);
  EXPECT_TRUE(found.empty());
  grid.CollectObjectsInRect(Rect{0.4, 0.05, 0.6, 0.15}, &found);
  EXPECT_EQ(found, std::vector<ObjectId>{3});
}

TEST(GridIndexTest, ZeroLengthFootprintBehavesLikePoint) {
  GridIndex grid(kUnit, 4);
  const Segment still{Point{0.6, 0.6}, Point{0.6, 0.6}};
  grid.InsertObjectFootprint(4, still);
  std::vector<ObjectId> found;
  grid.CollectObjectsInRect(Rect{0.55, 0.55, 0.65, 0.65}, &found);
  EXPECT_EQ(found, std::vector<ObjectId>{4});
  grid.RemoveObjectFootprint(4, still);
}

TEST(GridIndexTest, FootprintOutsideBoundsClamped) {
  GridIndex grid(kUnit, 4);
  const Segment outside{Point{1.5, 1.5}, Point{2.0, 2.0}};
  grid.InsertObjectFootprint(8, outside);
  std::vector<ObjectId> found;
  grid.CollectObjectsInRect(Rect{0.9, 0.9, 1.0, 1.0}, &found);
  EXPECT_EQ(found, std::vector<ObjectId>{8});  // clamped to border cell
  grid.RemoveObjectFootprint(8, outside);
}

// The cells of one ring over the whole grid.
std::vector<CellCoord> Ring(const GridIndex& grid, const CellCoord& center,
                            int ring) {
  std::vector<CellCoord> cells;
  grid.ForEachCellInRing(
      center, ring, CellCoord{0, 0},
      CellCoord{grid.cells_x() - 1, grid.cells_y() - 1},
      [&](const CellCoord& c) { cells.push_back(c); });
  return cells;
}

TEST(GridIndexTest, RingIteration) {
  GridIndex grid(kUnit, 5);
  const CellCoord center{2, 2};
  std::vector<CellCoord> cells = Ring(grid, center, 0);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], center);

  cells = Ring(grid, center, 1);
  EXPECT_EQ(cells.size(), 8u);
  for (const CellCoord& c : cells) {
    EXPECT_EQ(std::max(std::abs(c.x - 2), std::abs(c.y - 2)), 1);
  }

  EXPECT_EQ(Ring(grid, center, 2).size(), 16u);
  // Ring 3 around the center of a 5x5 grid is entirely out of bounds.
  EXPECT_TRUE(Ring(grid, center, 3).empty());
}

TEST(GridIndexTest, RingIterationAtCorner) {
  GridIndex grid(kUnit, 5);
  // Only the in-bounds quarter of the ring.
  EXPECT_EQ(Ring(grid, CellCoord{0, 0}, 1).size(), 3u);
}

TEST(GridIndexTest, RingsPartitionTheGrid) {
  GridIndex grid(kUnit, 7);
  std::set<std::pair<int, int>> seen;
  for (int ring = 0; ring < 7; ++ring) {
    for (const CellCoord& c : Ring(grid, CellCoord{1, 5}, ring)) {
      EXPECT_TRUE(seen.emplace(c.x, c.y).second) << "cell visited twice";
    }
  }
  EXPECT_EQ(seen.size(), 49u);
}

// A clipped ring visits exactly the ring cells inside the range, also
// from a center outside it; rings that miss the range visit nothing.
TEST(GridIndexTest, RingIterationClippedToRange) {
  GridIndex grid(kUnit, 8);
  const CellCoord lo{4, 0};
  const CellCoord hi{7, 7};
  std::set<std::pair<int, int>> seen;
  for (int ring = 0; ring < 9; ++ring) {
    std::vector<CellCoord> cells;
    grid.ForEachCellInRing(CellCoord{1, 3}, ring, lo, hi,
                           [&](const CellCoord& c) { cells.push_back(c); });
    EXPECT_EQ(!cells.empty(), ring >= 3 && ring <= 6) << "ring " << ring;
    for (const CellCoord& c : cells) {
      EXPECT_EQ(std::max(std::abs(c.x - 1), std::abs(c.y - 3)), ring);
      EXPECT_TRUE(c.x >= lo.x && c.x <= hi.x && c.y >= lo.y && c.y <= hi.y);
      EXPECT_TRUE(seen.emplace(c.x, c.y).second) << "cell visited twice";
    }
  }
  EXPECT_EQ(seen.size(), 32u);
}

TEST(GridIndexTest, StatsCountEntries) {
  GridIndex grid(kUnit, 4);
  grid.InsertObject(1, Point{0.1, 0.1});
  grid.InsertObject(2, Point{0.12, 0.12});
  grid.InsertQuery(1, Rect{0.0, 0.0, 0.6, 0.1});  // spans 3 cells
  const GridStats stats = grid.ComputeStats();
  EXPECT_EQ(stats.num_object_entries, 2u);
  EXPECT_EQ(stats.num_query_entries, 3u);
  EXPECT_EQ(stats.max_objects_in_cell, 2u);
  EXPECT_EQ(stats.max_queries_in_cell, 1u);
}

TEST(GridIndexTest, SingleCellGrid) {
  GridIndex grid(kUnit, 1);
  grid.InsertObject(1, Point{0.2, 0.2});
  grid.InsertQuery(2, Rect{0.7, 0.7, 0.9, 0.9});
  std::vector<ObjectId> objects;
  grid.CollectObjectsInRect(Rect{0.8, 0.8, 0.9, 0.9}, &objects);
  // Cell granularity: everything in the single cell is a candidate.
  EXPECT_EQ(objects, std::vector<ObjectId>{1});
}

// Property: candidate enumeration over a window never misses an object
// whose location lies inside the window.
TEST(GridIndexTest, RandomizedCandidateCompleteness) {
  Xorshift128Plus rng(99);
  GridIndex grid(kUnit, 13);
  std::vector<Point> locs(300);
  for (size_t i = 0; i < locs.size(); ++i) {
    locs[i] = Point{rng.NextDouble(), rng.NextDouble()};
    grid.InsertObject(i + 1, locs[i]);
  }
  for (int iter = 0; iter < 100; ++iter) {
    const Rect window = Rect::FromCorners(
        Point{rng.NextDouble(), rng.NextDouble()},
        Point{rng.NextDouble(), rng.NextDouble()});
    std::vector<ObjectId> candidates;
    grid.CollectObjectsInRect(window, &candidates);
    for (size_t i = 0; i < locs.size(); ++i) {
      if (window.Contains(locs[i])) {
        EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                       i + 1))
            << "object inside the window missing from candidates";
      }
    }
  }
}

}  // namespace
}  // namespace stq
