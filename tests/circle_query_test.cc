// Tests for circular range queries — the fourth continuous query class —
// across the engine, the snapshot baseline, and persistence.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stq/baseline/snapshot_processor.h"
#include "stq/common/random.h"
#include "stq/core/client.h"
#include "stq/core/grid_engine.h"
#include "stq/core/query_processor.h"
#include "stq/storage/persistent_server.h"

namespace stq {
namespace {

QueryProcessorOptions TestOptions(int grid = 16) {
  QueryProcessorOptions options;
  options.grid_cells_per_side = grid;
  return options;
}

TEST(CircleQueryTest, RegistrationValidation) {
  QueryProcessor qp(TestOptions());
  EXPECT_TRUE(qp.RegisterCircleQuery(1, Point{0.5, 0.5}, 0.0)
                  .IsInvalidArgument());
  EXPECT_TRUE(qp.RegisterCircleQuery(1, Point{0.5, 0.5}, -0.1)
                  .IsInvalidArgument());
  EXPECT_TRUE(qp.RegisterCircleQuery(1, Point{5.0, 5.0}, 0.1)
                  .IsInvalidArgument());  // disk misses the space
  ASSERT_TRUE(qp.RegisterCircleQuery(1, Point{0.5, 0.5}, 0.1).ok());
  EXPECT_TRUE(
      qp.RegisterCircleQuery(1, Point{0.1, 0.1}, 0.1).IsAlreadyExists());
}

TEST(CircleQueryTest, MembershipIsTheClosedDisk) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.5, 0.6}, 0.0).ok());   // d = 0.1
  ASSERT_TRUE(qp.UpsertObject(2, Point{0.5, 0.61}, 0.0).ok());  // d = 0.11
  // Inside the disk's bounding box but outside the disk (corner).
  ASSERT_TRUE(qp.UpsertObject(3, Point{0.59, 0.59}, 0.0).ok());
  ASSERT_TRUE(qp.RegisterCircleQuery(1, Point{0.5, 0.5}, 0.1).ok());
  const TickResult r = qp.EvaluateTick(0.0);
  EXPECT_EQ(r.updates, std::vector<Update>{Update::Positive(1, 1)});
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

TEST(CircleQueryTest, ObjectMovesAcrossTheRim) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterCircleQuery(1, Point{0.5, 0.5}, 0.15).ok());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.9, 0.9}, 0.0).ok());
  qp.EvaluateTick(0.0);

  ASSERT_TRUE(qp.UpsertObject(1, Point{0.55, 0.55}, 1.0).ok());
  TickResult r = qp.EvaluateTick(1.0);
  EXPECT_EQ(r.updates, std::vector<Update>{Update::Positive(1, 1)});

  ASSERT_TRUE(qp.UpsertObject(1, Point{0.7, 0.5}, 2.0).ok());
  r = qp.EvaluateTick(2.0);
  EXPECT_EQ(r.updates, std::vector<Update>{Update::Negative(1, 1)});
}

TEST(CircleQueryTest, MoveEmitsOnlyDeltas) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.30, 0.5}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(2, Point{0.45, 0.5}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(3, Point{0.60, 0.5}, 0.0).ok());
  ASSERT_TRUE(qp.RegisterCircleQuery(1, Point{0.35, 0.5}, 0.12).ok());
  qp.EvaluateTick(0.0);
  EXPECT_EQ(*qp.CurrentAnswer(1), (std::vector<ObjectId>{1, 2}));

  // Slide east: object 2 stays inside and is not re-reported.
  ASSERT_TRUE(qp.MoveCircleQuery(1, Point{0.53, 0.5}).ok());
  const TickResult r = qp.EvaluateTick(1.0);
  const std::vector<Update> expected = {Update::Negative(1, 1),
                                        Update::Positive(1, 3)};
  EXPECT_EQ(r.updates, expected);
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

TEST(CircleQueryTest, MoveValidationAndWrongKind) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterCircleQuery(1, Point{0.5, 0.5}, 0.1).ok());
  ASSERT_TRUE(qp.RegisterRangeQuery(2, Rect{0, 0, 0.1, 0.1}).ok());
  qp.EvaluateTick(0.0);
  EXPECT_TRUE(qp.MoveCircleQuery(9, Point{0.5, 0.5}).IsNotFound());
  EXPECT_TRUE(qp.MoveCircleQuery(2, Point{0.5, 0.5}).IsInvalidArgument());
  EXPECT_TRUE(qp.MoveRangeQuery(1, Rect{0, 0, 0.1, 0.1}).IsInvalidArgument());
  // A move that takes the disk completely out of the space is rejected.
  EXPECT_TRUE(qp.MoveCircleQuery(1, Point{9.0, 9.0}).IsInvalidArgument());
}

TEST(CircleQueryTest, MoveFoldsIntoPendingRegistration) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.8, 0.8}, 0.0).ok());
  ASSERT_TRUE(qp.RegisterCircleQuery(1, Point{0.1, 0.1}, 0.05).ok());
  ASSERT_TRUE(qp.MoveCircleQuery(1, Point{0.8, 0.8}).ok());
  const TickResult r = qp.EvaluateTick(0.0);
  EXPECT_EQ(r.updates, std::vector<Update>{Update::Positive(1, 1)});
}

// Property: circle answers maintained incrementally equal from-scratch
// evaluation under random churn of objects and centers.
TEST(CircleQueryTest, RandomizedConsistency) {
  QueryProcessorOptions options = TestOptions(12);
  QueryProcessor qp(options);
  Client client(1);
  Xorshift128Plus rng(606);

  for (ObjectId id = 1; id <= 120; ++id) {
    ASSERT_TRUE(
        qp.UpsertObject(id, Point{rng.NextDouble(), rng.NextDouble()}, 0.0)
            .ok());
  }
  for (QueryId qid = 1; qid <= 25; ++qid) {
    ASSERT_TRUE(qp.RegisterCircleQuery(
                      qid, Point{rng.NextDouble(), rng.NextDouble()},
                      rng.NextDouble(0.03, 0.25))
                    .ok());
  }
  client.ApplyUpdates(qp.EvaluateTick(0.0).updates);

  for (int tick = 1; tick <= 10; ++tick) {
    const double now = static_cast<double>(tick);
    for (ObjectId id = 1; id <= 120; ++id) {
      if (rng.NextBool(0.5)) {
        ASSERT_TRUE(qp.UpsertObject(
                          id, Point{rng.NextDouble(), rng.NextDouble()}, now)
                        .ok());
      }
    }
    for (QueryId qid = 1; qid <= 25; ++qid) {
      if (rng.NextBool(0.4)) {
        ASSERT_TRUE(
            qp.MoveCircleQuery(qid, Point{rng.NextDouble(), rng.NextDouble()})
                .ok());
      }
    }
    client.ApplyUpdates(qp.EvaluateTick(now).updates);
    for (QueryId qid = 1; qid <= 25; ++qid) {
      Result<std::vector<ObjectId>> truth = qp.EvaluateFromScratch(qid);
      ASSERT_TRUE(truth.ok());
      EXPECT_EQ(*qp.CurrentAnswer(qid), *truth) << "tick " << tick;
      EXPECT_EQ(client.SortedAnswerOf(qid), *truth) << "tick " << tick;
    }
  }
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

TEST(CircleQueryTest, SnapshotBaselineParity) {
  QueryProcessorOptions options = TestOptions();
  QueryProcessor incremental(options);
  SnapshotProcessor snapshot(options);
  Xorshift128Plus rng(707);

  for (ObjectId id = 1; id <= 80; ++id) {
    const Point loc{rng.NextDouble(), rng.NextDouble()};
    ASSERT_TRUE(incremental.UpsertObject(id, loc, 0.0).ok());
    ASSERT_TRUE(snapshot.UpsertObject(id, loc, 0.0).ok());
  }
  for (QueryId qid = 1; qid <= 15; ++qid) {
    const Point center{rng.NextDouble(), rng.NextDouble()};
    const double radius = rng.NextDouble(0.05, 0.3);
    ASSERT_TRUE(incremental.RegisterCircleQuery(qid, center, radius).ok());
    ASSERT_TRUE(snapshot.RegisterCircleQuery(qid, center, radius).ok());
  }
  incremental.EvaluateTick(0.0);
  const SnapshotResult full = snapshot.EvaluateTick(0.0);
  for (const auto& [qid, answer] : full.answers) {
    EXPECT_EQ(answer, *incremental.CurrentAnswer(qid)) << "query " << qid;
  }
}

TEST(CircleQueryTest, SurvivesCrashRecovery) {
  const std::string dir = ::testing::TempDir() + "stq_circle_recovery";
  ASSERT_EQ(
      std::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'").c_str()),
      0);
  PersistentServer::Options options;
  options.server.processor.grid_cells_per_side = 8;
  options.dir = dir;
  {
    PersistentServer server(options);
    ASSERT_TRUE(server.Open().ok());
    ASSERT_TRUE(server.AttachClient(1).ok());
    ASSERT_TRUE(
        server.RegisterCircleQuery(1, 1, Point{0.5, 0.5}, 0.2).ok());
    ASSERT_TRUE(server.ReportObject(1, Point{0.45, 0.5}, 0.0).ok());
    server.Tick(1.0);
    // Hearing from the moving circle commits durably.
    ASSERT_TRUE(server.MoveCircleQuery(1, Point{0.52, 0.5}).ok());
    server.Tick(2.0);
  }
  PersistentServer recovered(options);
  ASSERT_TRUE(recovered.Open().ok());
  const QueryRecord* q =
      recovered.processor().grid_engine()->query_store().Find(1);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->kind, QueryKind::kCircleRange);
  EXPECT_DOUBLE_EQ(q->circle.radius, 0.2);
  EXPECT_EQ(q->circle.center, (Point{0.52, 0.5}));
  EXPECT_EQ(*recovered.processor().CurrentAnswer(1),
            std::vector<ObjectId>{1});
  EXPECT_TRUE(recovered.server().committed().HasCommit(1));
  ASSERT_TRUE(recovered.Close().ok());
}

}  // namespace
}  // namespace stq
