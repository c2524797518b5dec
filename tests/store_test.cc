// Tests for ObjectStore, QueryStore, UpdateBuffer, and CommittedStore.

#include <vector>

#include <gtest/gtest.h>

#include "stq/core/committed_store.h"
#include "stq/core/object_store.h"
#include "stq/core/query_store.h"
#include "stq/core/update_buffer.h"

namespace stq {
namespace {

// --- ObjectStore --------------------------------------------------------------

TEST(ObjectStoreTest, InsertFindErase) {
  ObjectStore store;
  EXPECT_TRUE(store.empty());
  ObjectRecord rec;
  rec.id = 5;
  rec.loc = Point{0.1, 0.2};
  store.Insert(rec);
  EXPECT_EQ(store.size(), 1u);
  ASSERT_NE(store.Find(5), nullptr);
  EXPECT_EQ(store.Find(5)->loc, (Point{0.1, 0.2}));
  EXPECT_EQ(store.Find(6), nullptr);
  store.Erase(5);
  EXPECT_TRUE(store.empty());
}

TEST(ObjectStoreTest, QListStaysSortedAndUnique) {
  ObjectRecord rec;
  EXPECT_TRUE(ObjectStore::AddQuery(&rec, 5));
  EXPECT_TRUE(ObjectStore::AddQuery(&rec, 2));
  EXPECT_TRUE(ObjectStore::AddQuery(&rec, 9));
  EXPECT_FALSE(ObjectStore::AddQuery(&rec, 5));  // duplicate
  EXPECT_EQ(std::vector<QueryId>(rec.queries.begin(), rec.queries.end()),
            (std::vector<QueryId>{2, 5, 9}));
  EXPECT_TRUE(ObjectStore::HasQuery(rec, 5));
  EXPECT_FALSE(ObjectStore::HasQuery(rec, 3));
  EXPECT_TRUE(ObjectStore::RemoveQuery(&rec, 5));
  EXPECT_FALSE(ObjectStore::RemoveQuery(&rec, 5));
  EXPECT_EQ(std::vector<QueryId>(rec.queries.begin(), rec.queries.end()),
            (std::vector<QueryId>{2, 9}));
}

TEST(ObjectStoreTest, ForEachVisitsAll) {
  ObjectStore store;
  for (ObjectId id = 1; id <= 10; ++id) {
    ObjectRecord rec;
    rec.id = id;
    store.Insert(rec);
  }
  size_t count = 0;
  store.ForEach([&](const ObjectRecord&) { ++count; });
  EXPECT_EQ(count, 10u);
}

// --- QueryStore -----------------------------------------------------------------

TEST(QueryStoreTest, InsertFindErase) {
  QueryStore store;
  QueryRecord rec;
  rec.id = 3;
  rec.kind = QueryKind::kKnn;
  rec.k = 4;
  store.Insert(rec);
  ASSERT_NE(store.Find(3), nullptr);
  EXPECT_EQ(store.Find(3)->k, 4);
  EXPECT_EQ(store.FindMutable(3)->kind, QueryKind::kKnn);
  store.Erase(3);
  EXPECT_FALSE(store.Contains(3));
}

TEST(QueryStoreTest, SortedAnswer) {
  QueryRecord rec;
  rec.answer = {9, 1, 5};
  EXPECT_EQ(rec.SortedAnswer(), (std::vector<ObjectId>{1, 5, 9}));
}

// --- UpdateBuffer ----------------------------------------------------------------

TEST(UpdateBufferTest, ObjectUpsertsCoalesceLastWins) {
  UpdateBuffer buffer;
  buffer.AddObjectUpsert(PendingObjectUpsert{1, Point{0.1, 0.1}, {}, 0.0, false});
  buffer.AddObjectUpsert(PendingObjectUpsert{1, Point{0.9, 0.9}, {}, 1.0, false});
  EXPECT_EQ(buffer.pending_object_ops(), 1u);
  UpdateBatch batch;
  buffer.Drain(&batch);
  ASSERT_EQ(batch.upserts.size(), 1u);
  EXPECT_EQ(batch.upserts[0].loc, (Point{0.9, 0.9}));
  EXPECT_TRUE(buffer.empty());
}

TEST(UpdateBufferTest, RemoveCancelsPendingUpsertOfNewObject) {
  UpdateBuffer buffer;
  buffer.AddObjectUpsert(PendingObjectUpsert{1, Point{0.1, 0.1}, {}, 0.0, false});
  buffer.AddObjectRemove(1, /*existed_before=*/false);
  EXPECT_TRUE(buffer.empty());
}

TEST(UpdateBufferTest, RemoveOfStoredObjectSurvivesCoalescing) {
  UpdateBuffer buffer;
  buffer.AddObjectUpsert(PendingObjectUpsert{1, Point{0.1, 0.1}, {}, 0.0, false});
  buffer.AddObjectRemove(1, /*existed_before=*/true);
  EXPECT_TRUE(buffer.HasPendingRemove(1));
  EXPECT_FALSE(buffer.HasPendingUpsert(1));
}

TEST(UpdateBufferTest, UpsertAfterRemoveReinstates) {
  UpdateBuffer buffer;
  buffer.AddObjectRemove(1, true);
  buffer.AddObjectUpsert(PendingObjectUpsert{1, Point{0.5, 0.5}, {}, 2.0, false});
  EXPECT_FALSE(buffer.HasPendingRemove(1));
  EXPECT_TRUE(buffer.HasPendingUpsert(1));
}

TEST(UpdateBufferTest, MoveFoldsIntoPendingRegister) {
  UpdateBuffer buffer;
  PendingQueryChange reg;
  reg.kind = QueryChangeKind::kRegisterRange;
  reg.id = 1;
  reg.region = Rect{0, 0, 0.1, 0.1};
  buffer.AddQueryChange(reg, false);

  PendingQueryChange move;
  move.kind = QueryChangeKind::kMove;
  move.id = 1;
  move.region = Rect{0.5, 0.5, 0.6, 0.6};
  buffer.AddQueryChange(move, false);

  const PendingQueryChange* pending = buffer.FindPendingQueryChange(1);
  ASSERT_NE(pending, nullptr);
  EXPECT_EQ(pending->kind, QueryChangeKind::kRegisterRange);
  EXPECT_EQ(pending->region, (Rect{0.5, 0.5, 0.6, 0.6}));
}

TEST(UpdateBufferTest, MoveDoesNotResurrectPendingUnregister) {
  // Regression: a Move arriving after an Unregister of a stored query
  // must not replace the pending unregister — the query would otherwise
  // come back from the dead at the next tick.
  UpdateBuffer buffer;
  PendingQueryChange unreg;
  unreg.kind = QueryChangeKind::kUnregister;
  unreg.id = 1;
  buffer.AddQueryChange(unreg, /*exists_in_store=*/true);

  PendingQueryChange move;
  move.kind = QueryChangeKind::kMove;
  move.id = 1;
  move.region = Rect{0.5, 0.5, 0.6, 0.6};
  buffer.AddQueryChange(move, /*exists_in_store=*/true);

  EXPECT_TRUE(buffer.HasPendingQueryUnregister(1));
  const PendingQueryChange* pending = buffer.FindPendingQueryChange(1);
  ASSERT_NE(pending, nullptr);
  EXPECT_EQ(pending->kind, QueryChangeKind::kUnregister);
}

TEST(UpdateBufferTest, FindPendingUpsertSeesLatestCoalescedReport) {
  UpdateBuffer buffer;
  EXPECT_EQ(buffer.FindPendingUpsert(1), nullptr);
  buffer.AddObjectUpsert(
      PendingObjectUpsert{1, Point{0.1, 0.1}, {}, 4.0, false});
  buffer.AddObjectUpsert(
      PendingObjectUpsert{1, Point{0.2, 0.2}, {}, 5.0, false});
  const PendingObjectUpsert* pending = buffer.FindPendingUpsert(1);
  ASSERT_NE(pending, nullptr);
  EXPECT_EQ(pending->t, 5.0);
  buffer.AddObjectRemove(1, /*existed_before=*/true);
  EXPECT_EQ(buffer.FindPendingUpsert(1), nullptr);
}

TEST(UpdateBufferTest, UnregisterCancelsNeverStoredRegister) {
  UpdateBuffer buffer;
  PendingQueryChange reg;
  reg.kind = QueryChangeKind::kRegisterKnn;
  reg.id = 1;
  buffer.AddQueryChange(reg, false);
  PendingQueryChange unreg;
  unreg.kind = QueryChangeKind::kUnregister;
  unreg.id = 1;
  buffer.AddQueryChange(unreg, /*existed_before=*/false);
  EXPECT_FALSE(buffer.HasAnyPendingQueryChange(1));
}

TEST(UpdateBufferTest, UnregisterOfStoredQuerySticks) {
  UpdateBuffer buffer;
  PendingQueryChange move;
  move.kind = QueryChangeKind::kMove;
  move.id = 1;
  buffer.AddQueryChange(move, true);
  PendingQueryChange unreg;
  unreg.kind = QueryChangeKind::kUnregister;
  unreg.id = 1;
  buffer.AddQueryChange(unreg, /*existed_before=*/true);
  EXPECT_TRUE(buffer.HasPendingQueryUnregister(1));
}

TEST(UpdateBufferTest, MovesCoalesceLastWins) {
  UpdateBuffer buffer;
  PendingQueryChange m1;
  m1.kind = QueryChangeKind::kMove;
  m1.id = 1;
  m1.region = Rect{0, 0, 0.1, 0.1};
  buffer.AddQueryChange(m1, true);
  PendingQueryChange m2 = m1;
  m2.region = Rect{0.2, 0.2, 0.3, 0.3};
  buffer.AddQueryChange(m2, true);
  EXPECT_EQ(buffer.pending_query_ops(), 1u);
  EXPECT_EQ(buffer.FindPendingQueryChange(1)->region, m2.region);
}

TEST(UpdateBufferTest, ClearEmpties) {
  UpdateBuffer buffer;
  buffer.AddObjectUpsert(PendingObjectUpsert{1, {}, {}, 0.0, false});
  PendingQueryChange reg;
  reg.kind = QueryChangeKind::kRegisterRange;
  reg.id = 1;
  buffer.AddQueryChange(reg, false);
  buffer.Clear();
  EXPECT_TRUE(buffer.empty());
}

// --- CommittedStore -----------------------------------------------------------------

TEST(CommittedStoreTest, CommitAndDiff) {
  CommittedStore store;
  store.Commit(1, {1, 2, 3});
  EXPECT_TRUE(store.HasCommit(1));
  const std::vector<Update> diff = store.DiffAgainstCommitted(1, {2, 3, 4});
  const std::vector<Update> expected = {Update::Negative(1, 1),
                                        Update::Positive(1, 4)};
  EXPECT_EQ(diff, expected);
}

TEST(CommittedStoreTest, NoCommitMeansEmptyBaseline) {
  CommittedStore store;
  EXPECT_FALSE(store.HasCommit(7));
  const std::vector<Update> diff = store.DiffAgainstCommitted(7, {5});
  EXPECT_EQ(diff, std::vector<Update>{Update::Positive(7, 5)});
}

TEST(CommittedStoreTest, RecommitReplaces) {
  CommittedStore store;
  store.Commit(1, {1});
  store.Commit(1, {2});
  EXPECT_TRUE(store.DiffAgainstCommitted(1, {2}).empty());
}

TEST(CommittedStoreTest, EraseForgets) {
  CommittedStore store;
  store.Commit(1, {1});
  store.Erase(1);
  EXPECT_FALSE(store.HasCommit(1));
  EXPECT_TRUE(store.Committed(1).empty());
}

TEST(CommittedStoreTest, IdenticalSetsDiffToNothing) {
  CommittedStore store;
  store.Commit(1, {10, 20, 30});
  EXPECT_TRUE(store.DiffAgainstCommitted(1, {30, 10, 20}).empty());
}

}  // namespace
}  // namespace stq
