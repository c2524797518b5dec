// Tests for the DensityMonitor: incremental dense-cell discovery over the
// shared grid.

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "stq/core/density_monitor.h"
#include "stq/core/grid_engine.h"
#include "stq/core/query_processor.h"

namespace stq {
namespace {

const Rect kUnit{0.0, 0.0, 1.0, 1.0};

TEST(DensityMonitorTest, EmptyGridHasNoDenseCells) {
  GridIndex grid(kUnit, 4);
  DensityMonitor monitor(&grid, 2);
  EXPECT_TRUE(monitor.Tick().empty());
  EXPECT_EQ(monitor.num_dense_cells(), 0u);
}

TEST(DensityMonitorTest, CellCrossesThreshold) {
  GridIndex grid(kUnit, 4);
  DensityMonitor monitor(&grid, 3);
  grid.InsertObject(1, Point{0.1, 0.1});
  grid.InsertObject(2, Point{0.12, 0.1});
  EXPECT_TRUE(monitor.Tick().empty());  // 2 < 3

  grid.InsertObject(3, Point{0.14, 0.1});
  std::vector<DenseCellUpdate> updates = monitor.Tick();
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].cell, (CellCoord{0, 0}));
  EXPECT_EQ(updates[0].sign, UpdateSign::kPositive);
  EXPECT_EQ(updates[0].count, 3u);
  EXPECT_EQ(monitor.num_dense_cells(), 1u);

  // No change -> no updates (the incremental paradigm).
  EXPECT_TRUE(monitor.Tick().empty());

  // Dropping below the threshold emits the negative.
  grid.RemoveObject(3, Point{0.14, 0.1});
  updates = monitor.Tick();
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].sign, UpdateSign::kNegative);
  EXPECT_EQ(monitor.num_dense_cells(), 0u);
}

TEST(DensityMonitorTest, TracksMovingCluster) {
  GridIndex grid(kUnit, 4);
  DensityMonitor monitor(&grid, 3);
  for (ObjectId id = 1; id <= 3; ++id) {
    grid.InsertObject(id, Point{0.1, 0.1});
  }
  monitor.Tick();

  // The cluster moves two cells to the right.
  for (ObjectId id = 1; id <= 3; ++id) {
    grid.MoveObject(id, Point{0.1, 0.1}, Point{0.6, 0.1});
  }
  const std::vector<DenseCellUpdate> updates = monitor.Tick();
  ASSERT_EQ(updates.size(), 2u);
  EXPECT_EQ(updates[0].cell, (CellCoord{2, 0}));
  EXPECT_EQ(updates[0].sign, UpdateSign::kPositive);
  EXPECT_EQ(updates[1].cell, (CellCoord{0, 0}));
  EXPECT_EQ(updates[1].sign, UpdateSign::kNegative);

  const std::vector<CellCoord> dense = monitor.DenseCells();
  ASSERT_EQ(dense.size(), 1u);
  EXPECT_EQ(dense[0], (CellCoord{2, 0}));
}

TEST(DensityMonitorTest, WorksOnTopOfQueryProcessorGrid) {
  QueryProcessorOptions options;
  options.grid_cells_per_side = 8;
  QueryProcessor qp(options);
  DensityMonitor monitor(&qp.grid_engine()->grid(), 5);

  // A hotspot forms at the city center.
  for (ObjectId id = 1; id <= 6; ++id) {
    ASSERT_TRUE(qp.UpsertObject(id, Point{0.51, 0.51}, 0.0).ok());
  }
  qp.EvaluateTick(0.0);
  std::vector<DenseCellUpdate> updates = monitor.Tick();
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].count, 6u);

  // The hotspot disperses.
  for (ObjectId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(qp.UpsertObject(
                      id, Point{0.1 * static_cast<double>(id), 0.9}, 1.0)
                    .ok());
  }
  qp.EvaluateTick(1.0);
  updates = monitor.Tick();
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].sign, UpdateSign::kNegative);
}

TEST(DensityMonitorTest, MultipleDenseCellsOrdered) {
  GridIndex grid(kUnit, 4);
  DensityMonitor monitor(&grid, 2);
  // Three dense cells appearing at once.
  grid.InsertObject(1, Point{0.1, 0.1});
  grid.InsertObject(2, Point{0.1, 0.1});
  grid.InsertObject(3, Point{0.6, 0.1});
  grid.InsertObject(4, Point{0.6, 0.1});
  grid.InsertObject(5, Point{0.1, 0.6});
  grid.InsertObject(6, Point{0.1, 0.6});
  const std::vector<DenseCellUpdate> updates = monitor.Tick();
  ASSERT_EQ(updates.size(), 3u);
  // Positives in (y, x) scan order.
  EXPECT_EQ(updates[0].cell, (CellCoord{0, 0}));
  EXPECT_EQ(updates[1].cell, (CellCoord{2, 0}));
  EXPECT_EQ(updates[2].cell, (CellCoord{0, 2}));
}

// --- Predictive footprints across split cells ------------------------------
//
// Count-attribution semantics under adaptive refinement: a predictive
// object whose trajectory footprint is clipped into several *leaves* of
// one split base cell still counts as ONE object in that cell, so
// splitting a cell never changes what the DensityMonitor sees. Across
// distinct *base* cells the footprint keeps contributing one entry per
// cell (expected presence), split or not.

// A geometry oracle for SetCellLevel: the test's own record of every
// object's placement, the same role ObjectStore plays for the refiner.
struct PlacementBook {
  std::vector<std::pair<ObjectId, GridIndex::ObjectPlacement>> entries;

  GridIndex::ObjectPlacement Of(ObjectId id) const {
    for (const auto& [oid, placement] : entries) {
      if (oid == id) return placement;
    }
    ADD_FAILURE() << "no placement recorded for object " << id;
    return GridIndex::ObjectPlacement{};
  }
  void AddPredictive(GridIndex* grid, ObjectId id, const Segment& s) {
    GridIndex::ObjectPlacement p;
    p.predictive = true;
    p.footprint = s;
    entries.emplace_back(id, p);
    grid->InsertObjectFootprint(id, s);
  }
};

void SplitCell(GridIndex* grid, const PlacementBook& book, const CellCoord& c,
               int level) {
  grid->SetCellLevel(
      c, level, [&](ObjectId id) { return book.Of(id); },
      [](QueryId) { return Rect{}; });
  ASSERT_TRUE(grid->CheckRefinement().ok());
}

TEST(DensityMonitorTest, PredictiveFootprintAcrossSplitCellCountsOnce) {
  GridIndex grid(kUnit, 4);
  DensityMonitor monitor(&grid, 3);
  PlacementBook book;

  // Three predictive objects whose footprints cross cell (0,0)
  // diagonally: at level 2 each is clipped into several of the 16
  // leaves, so slot entries outnumber objects.
  book.AddPredictive(&grid, 1, Segment{Point{0.01, 0.01}, Point{0.24, 0.24}});
  book.AddPredictive(&grid, 2, Segment{Point{0.01, 0.24}, Point{0.24, 0.01}});
  book.AddPredictive(&grid, 3, Segment{Point{0.01, 0.12}, Point{0.24, 0.12}});

  std::vector<DenseCellUpdate> updates = monitor.Tick();
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].cell, (CellCoord{0, 0}));
  EXPECT_EQ(updates[0].count, 3u);

  SplitCell(&grid, book, CellCoord{0, 0}, 2);
  // The clipped slot entries multiplied, the distinct count did not.
  EXPECT_GT(grid.MaxLeafObjectEntries(CellCoord{0, 0}), 0u);
  EXPECT_EQ(grid.ObjectCountInCell(CellCoord{0, 0}), 3u);

  // The monitor is oblivious to the split: no delta, same dense set.
  updates = monitor.Tick();
  EXPECT_TRUE(updates.empty());
  EXPECT_TRUE(monitor.IsDense(CellCoord{0, 0}));

  // Merging back is equally invisible.
  SplitCell(&grid, book, CellCoord{0, 0}, 0);
  updates = monitor.Tick();
  EXPECT_TRUE(updates.empty());
  EXPECT_EQ(grid.ObjectCountInCell(CellCoord{0, 0}), 3u);
}

TEST(DensityMonitorTest, FootprintSpanningBaseCellsCountsPerCellUnderSplit) {
  GridIndex grid(kUnit, 4);
  DensityMonitor monitor(&grid, 2);
  PlacementBook book;

  // Two footprints running horizontally through base cells (0,0) and
  // (1,0): one entry in each base cell per object.
  book.AddPredictive(&grid, 7, Segment{Point{0.05, 0.1}, Point{0.45, 0.1}});
  book.AddPredictive(&grid, 8, Segment{Point{0.05, 0.15}, Point{0.45, 0.15}});
  EXPECT_EQ(grid.ObjectCountInCell(CellCoord{0, 0}), 2u);
  EXPECT_EQ(grid.ObjectCountInCell(CellCoord{1, 0}), 2u);

  std::vector<DenseCellUpdate> updates = monitor.Tick();
  ASSERT_EQ(updates.size(), 2u);  // both cells dense

  // Splitting ONE of the two spanned cells affects neither cell's count:
  // redistribution is local to the split cell by construction.
  SplitCell(&grid, book, CellCoord{0, 0}, 1);
  EXPECT_EQ(grid.ObjectCountInCell(CellCoord{0, 0}), 2u);
  EXPECT_EQ(grid.ObjectCountInCell(CellCoord{1, 0}), 2u);
  EXPECT_TRUE(monitor.Tick().empty());

  // Removal while split leaves no stale entries behind in either cell.
  grid.RemoveObjectFootprint(7, book.Of(7).footprint);
  EXPECT_EQ(grid.ObjectCountInCell(CellCoord{0, 0}), 1u);
  EXPECT_EQ(grid.ObjectCountInCell(CellCoord{1, 0}), 1u);
  ASSERT_TRUE(grid.CheckRefinement().ok());

  updates = monitor.Tick();
  ASSERT_EQ(updates.size(), 2u);  // both cells drop below the threshold
  EXPECT_EQ(updates[0].sign, UpdateSign::kNegative);
  EXPECT_EQ(updates[1].sign, UpdateSign::kNegative);
  EXPECT_EQ(monitor.num_dense_cells(), 0u);
}

}  // namespace
}  // namespace stq
