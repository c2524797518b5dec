// Tests for PersistentServer: durable operation logging, crash recovery
// of objects/queries/bindings/committed answers, checkpointing, and the
// recovery protocol working across a server restart.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stq/core/client.h"
#include "stq/storage/fault_env.h"
#include "stq/storage/persistent_server.h"

namespace stq {
namespace {

class PersistentServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "stq_pserver_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    const std::string cmd = "rm -rf '" + dir_ + "' && mkdir -p '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  PersistentServer::Options MakeOptions() const {
    PersistentServer::Options options;
    options.server.processor.grid_cells_per_side = 8;
    options.dir = dir_;
    return options;
  }

  std::string dir_;
};

TEST_F(PersistentServerTest, FreshStartWorksLikePlainServer) {
  PersistentServer server(MakeOptions());
  ASSERT_TRUE(server.Open().ok());
  ASSERT_TRUE(server.AttachClient(1).ok());
  ASSERT_TRUE(server.RegisterRangeQuery(1, 1, Rect{0.4, 0.4, 0.6, 0.6}).ok());
  ASSERT_TRUE(server.ReportObject(1, Point{0.5, 0.5}, 0.0).ok());
  const std::vector<Server::Delivery> deliveries = server.Tick(1.0);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].updates,
            std::vector<Update>{Update::Positive(1, 1)});
  ASSERT_TRUE(server.Close().ok());
}

TEST_F(PersistentServerTest, RecoversFullStateAfterCrash) {
  {
    PersistentServer server(MakeOptions());
    ASSERT_TRUE(server.Open().ok());
    ASSERT_TRUE(server.AttachClient(7).ok());
    ASSERT_TRUE(
        server.RegisterRangeQuery(1, 7, Rect{0.4, 0.4, 0.6, 0.6}).ok());
    ASSERT_TRUE(server.RegisterKnnQuery(2, 7, Point{0.2, 0.2}, 2).ok());
    ASSERT_TRUE(server.ReportObject(1, Point{0.5, 0.5}, 0.0).ok());
    ASSERT_TRUE(server.ReportObject(2, Point{0.21, 0.2}, 0.0).ok());
    ASSERT_TRUE(server.ReportObject(3, Point{0.9, 0.9}, 0.0).ok());
    ASSERT_TRUE(server.ReportPredictiveObject(4, Point{0.1, 0.8},
                                              Velocity{0.01, 0.0}, 0.0)
                    .ok());
    server.Tick(1.0);
    ASSERT_TRUE(server.CommitQuery(1).ok());
    // Crash: destructor without Close/Checkpoint (Tick already synced).
  }

  PersistentServer recovered(MakeOptions());
  ASSERT_TRUE(recovered.Open().ok());
  const QueryProcessor& qp = recovered.processor();
  EXPECT_EQ(qp.num_objects(), 4u);
  EXPECT_EQ(qp.num_queries(), 2u);
  EXPECT_EQ(*qp.CurrentAnswer(1), std::vector<ObjectId>{1});
  EXPECT_TRUE(qp.CheckInvariants().ok());

  // Bindings survive; channels come back disconnected.
  EXPECT_EQ(recovered.server().OwnerOf(1), std::optional<ClientId>(7));
  EXPECT_EQ(recovered.server().OwnerOf(2), std::optional<ClientId>(7));
  EXPECT_FALSE(recovered.server().IsConnected(7));

  // The committed answer survives too.
  EXPECT_TRUE(recovered.server().committed().HasCommit(1));
  ASSERT_TRUE(recovered.Close().ok());
}

TEST_F(PersistentServerTest, RecoveryProtocolWorksAcrossRestart) {
  Client client(7);
  {
    PersistentServer server(MakeOptions());
    ASSERT_TRUE(server.Open().ok());
    ASSERT_TRUE(server.AttachClient(7).ok());
    ASSERT_TRUE(
        server.RegisterRangeQuery(1, 7, Rect{0.4, 0.4, 0.6, 0.6}).ok());
    ASSERT_TRUE(server.ReportObject(1, Point{0.5, 0.5}, 0.0).ok());
    ASSERT_TRUE(server.ReportObject(2, Point{0.55, 0.5}, 0.0).ok());
    for (const auto& d : server.Tick(1.0)) client.ApplyUpdates(d.updates);
    ASSERT_TRUE(server.CommitQuery(1).ok());
    client.Commit(1);
    // The world keeps changing; the updates reach the client.
    ASSERT_TRUE(server.ReportObject(2, Point{0.9, 0.9}, 2.0).ok());
    for (const auto& d : server.Tick(2.0)) client.ApplyUpdates(d.updates);
    EXPECT_EQ(client.SortedAnswerOf(1), std::vector<ObjectId>{1});
    // Crash before any further commit.
  }

  PersistentServer recovered(MakeOptions());
  ASSERT_TRUE(recovered.Open().ok());
  // More changes while the client is still away.
  ASSERT_TRUE(recovered.ReportObject(3, Point{0.45, 0.45}, 3.0).ok());
  recovered.Tick(3.0);

  // The client reconnects to the restarted server and runs the standard
  // out-of-sync protocol: rollback to its committed snapshot, apply the
  // committed-diff.
  Result<Server::Delivery> recovery = recovered.ReconnectClient(7);
  ASSERT_TRUE(recovery.ok());
  client.RollbackToCommitted();
  client.ApplyUpdates(recovery->updates);
  client.CommitAll();
  EXPECT_EQ(client.SortedAnswerOf(1),
            *recovered.processor().CurrentAnswer(1));
  ASSERT_TRUE(recovered.Close().ok());
}

// After a *server* crash and recovery, ReconnectClient must deliver
// exactly diff(committed, current): the rolled-back client that applies
// the diff ends up with the same answers a kFullAnswer-policy server
// (recovered from an identical copy of the crashed directory) ships as
// complete answer sets, and the diff carries no redundant updates.
TEST_F(PersistentServerTest, ReconnectAfterServerCrashMatchesFullAnswerOracle) {
  Client client(7);
  {
    PersistentServer server(MakeOptions());
    ASSERT_TRUE(server.Open().ok());
    ASSERT_TRUE(server.AttachClient(7).ok());
    ASSERT_TRUE(
        server.RegisterRangeQuery(1, 7, Rect{0.4, 0.4, 0.6, 0.6}).ok());
    ASSERT_TRUE(server.RegisterKnnQuery(2, 7, Point{0.2, 0.2}, 2).ok());
    ASSERT_TRUE(server.ReportObject(1, Point{0.5, 0.5}, 0.0).ok());
    ASSERT_TRUE(server.ReportObject(2, Point{0.55, 0.5}, 0.0).ok());
    ASSERT_TRUE(server.ReportObject(3, Point{0.21, 0.2}, 0.0).ok());
    ASSERT_TRUE(server.ReportObject(4, Point{0.25, 0.2}, 0.0).ok());
    for (const auto& d : server.Tick(1.0)) client.ApplyUpdates(d.updates);
    ASSERT_TRUE(server.CommitQuery(1).ok());
    ASSERT_TRUE(server.CommitQuery(2).ok());
    client.Commit(1);
    client.Commit(2);
    // Changes after the commit point reach the client but are never
    // committed; they are what the diff must re-deliver after the crash.
    ASSERT_TRUE(server.ReportObject(2, Point{0.9, 0.9}, 2.0).ok());
    ASSERT_TRUE(server.ReportObject(5, Point{0.45, 0.45}, 2.0).ok());
    for (const auto& d : server.Tick(2.0)) client.ApplyUpdates(d.updates);
    // Crash: destructor without Close (Tick already synced the WAL).
  }

  // The oracle recovers from a byte-identical copy of the crashed
  // directory, but ships complete answers instead of diffs.
  const std::string oracle_dir = dir_ + "_oracle";
  const std::string cp = "rm -rf '" + oracle_dir + "' && cp -r '" + dir_ +
                         "' '" + oracle_dir + "'";
  ASSERT_EQ(std::system(cp.c_str()), 0);

  PersistentServer recovered(MakeOptions());
  PersistentServer::Options oracle_options = MakeOptions();
  oracle_options.dir = oracle_dir;
  oracle_options.server.recovery = RecoveryPolicy::kFullAnswer;
  PersistentServer oracle(oracle_options);
  ASSERT_TRUE(recovered.Open().ok());
  ASSERT_TRUE(oracle.Open().ok());

  // The world keeps changing, identically on both, while the client is
  // still away.
  for (PersistentServer* s : {&recovered, &oracle}) {
    ASSERT_TRUE(s->ReportObject(6, Point{0.41, 0.41}, 3.0).ok());
    ASSERT_TRUE(s->RemoveObject(1).ok());
    s->Tick(3.0);
  }

  // Expected diff size: the symmetric difference between the recovered
  // committed snapshots and the current answers of the client's queries.
  size_t expect_updates = 0;
  for (QueryId qid : {QueryId{1}, QueryId{2}}) {
    const auto& committed = recovered.server().committed().Committed(qid);
    std::vector<ObjectId> current = *recovered.processor().CurrentAnswer(qid);
    for (ObjectId id : current) expect_updates += committed.contains(id) ? 0 : 1;
    for (ObjectId id : committed) {
      if (std::find(current.begin(), current.end(), id) == current.end()) {
        ++expect_updates;
      }
    }
  }

  Result<Server::Delivery> diff = recovered.ReconnectClient(7);
  Result<Server::Delivery> full = oracle.ReconnectClient(7);
  ASSERT_TRUE(diff.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(diff->full_answers.empty());
  EXPECT_EQ(diff->updates.size(), expect_updates);

  client.RollbackToCommitted();
  client.ApplyUpdates(diff->updates);
  client.CommitAll();

  ASSERT_EQ(full->full_answers.size(), 2u);
  for (const auto& [qid, answer] : full->full_answers) {
    std::vector<ObjectId> sorted = answer;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(client.SortedAnswerOf(qid), sorted) << "query " << qid;
  }
  ASSERT_TRUE(recovered.Close().ok());
  ASSERT_TRUE(oracle.Close().ok());
}

TEST_F(PersistentServerTest, CheckpointCompactsAndRecovers) {
  {
    PersistentServer server(MakeOptions());
    ASSERT_TRUE(server.Open().ok());
    ASSERT_TRUE(server.AttachClient(1).ok());
    ASSERT_TRUE(
        server.RegisterRangeQuery(1, 1, Rect{0.0, 0.0, 1.0, 1.0}).ok());
    for (ObjectId id = 1; id <= 20; ++id) {
      ASSERT_TRUE(server.ReportObject(
                        id, Point{static_cast<double>(id) / 21.0, 0.5}, 0.0)
                      .ok());
    }
    server.Tick(1.0);
    ASSERT_TRUE(server.Checkpoint().ok());
    // Post-checkpoint deltas land in the fresh WAL.
    ASSERT_TRUE(server.RemoveObject(20).ok());
    server.Tick(2.0);
    ASSERT_TRUE(server.Close().ok());
  }

  PersistentServer recovered(MakeOptions());
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.processor().num_objects(), 19u);
  EXPECT_EQ(recovered.processor().CurrentAnswer(1)->size(), 19u);
  ASSERT_TRUE(recovered.Close().ok());
}

TEST_F(PersistentServerTest, UnregisteredQueryStaysGoneAfterRestart) {
  {
    PersistentServer server(MakeOptions());
    ASSERT_TRUE(server.Open().ok());
    ASSERT_TRUE(server.AttachClient(1).ok());
    ASSERT_TRUE(
        server.RegisterRangeQuery(1, 1, Rect{0.0, 0.0, 1.0, 1.0}).ok());
    server.Tick(1.0);
    ASSERT_TRUE(server.UnregisterQuery(1).ok());
    server.Tick(2.0);
    ASSERT_TRUE(server.Close().ok());
  }
  PersistentServer recovered(MakeOptions());
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.processor().num_queries(), 0u);
  ASSERT_TRUE(recovered.Close().ok());
}

TEST_F(PersistentServerTest, MovingQueryAutoCommitIsDurable) {
  {
    PersistentServer server(MakeOptions());
    ASSERT_TRUE(server.Open().ok());
    ASSERT_TRUE(server.AttachClient(1).ok());
    ASSERT_TRUE(
        server.RegisterRangeQuery(1, 1, Rect{0.4, 0.4, 0.6, 0.6}).ok());
    ASSERT_TRUE(server.ReportObject(1, Point{0.5, 0.5}, 0.0).ok());
    server.Tick(1.0);
    // Hearing from the moving query commits {p1} — durably.
    ASSERT_TRUE(server.MoveRangeQuery(1, Rect{0.42, 0.42, 0.62, 0.62}).ok());
    server.Tick(2.0);
    ASSERT_TRUE(server.Close().ok());
  }
  PersistentServer recovered(MakeOptions());
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_TRUE(recovered.server().committed().HasCommit(1));
  EXPECT_TRUE(recovered.server().committed().Committed(1).contains(1));
  ASSERT_TRUE(recovered.Close().ok());
}

// Mutations acknowledged after the last tick are still buffered in the
// processor; a checkpoint must persist them, since it discards the WAL
// that held them.
TEST_F(PersistentServerTest, CheckpointKeepsReportsNotYetTicked) {
  {
    PersistentServer server(MakeOptions());
    ASSERT_TRUE(server.Open().ok());
    ASSERT_TRUE(server.AttachClient(1).ok());
    ASSERT_TRUE(server.ReportObject(1, Point{0.1, 0.1}, 0.0).ok());
    ASSERT_TRUE(server.RegisterRangeQuery(1, 1, Rect{0.0, 0.0, 0.5, 0.5}).ok());
    ASSERT_TRUE(server.RegisterKnnQuery(2, 1, Point{0.5, 0.5}, 1).ok());
    server.Tick(1.0);
    ASSERT_TRUE(server.ReportObject(2, Point{0.2, 0.2}, 1.5).ok());
    ASSERT_TRUE(server.ReportObject(1, Point{0.3, 0.3}, 1.5).ok());
    ASSERT_TRUE(server.MoveRangeQuery(1, Rect{0.1, 0.1, 0.6, 0.6}).ok());
    ASSERT_TRUE(server.UnregisterQuery(2).ok());
    ASSERT_TRUE(server.RegisterCircleQuery(3, 1, Point{0.2, 0.2}, 0.1).ok());
    ASSERT_TRUE(server.Checkpoint().ok());
    ASSERT_TRUE(server.Close().ok());
  }
  PersistentServer recovered(MakeOptions());
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.processor().num_objects(), 2u);
  EXPECT_EQ(recovered.processor().num_queries(), 2u);
  EXPECT_FALSE(recovered.processor().HasQuery(2));
  const PersistedState state = recovered.CaptureState();
  ASSERT_EQ(state.objects.size(), 2u);
  EXPECT_EQ(state.objects[0].loc, (Point{0.3, 0.3}));
  EXPECT_EQ(state.objects[0].t, 1.5);
  ASSERT_EQ(state.queries.size(), 2u);
  EXPECT_EQ(state.queries[0].region, (Rect{0.1, 0.1, 0.6, 0.6}));
  EXPECT_EQ(state.queries[1].kind, QueryKind::kCircleRange);
  EXPECT_EQ(state.queries[1].owner, 1u);
  ASSERT_TRUE(recovered.Close().ok());
}

// A clean Close is a shutdown checkpoint: the reopened server reads the
// snapshot and a WAL that holds only its epoch header.
TEST_F(PersistentServerTest, CloseWritesAShutdownCheckpoint) {
  PersistedState before;
  {
    PersistentServer server(MakeOptions());
    ASSERT_TRUE(server.Open().ok());
    ASSERT_TRUE(server.AttachClient(1).ok());
    ASSERT_TRUE(server.RegisterRangeQuery(1, 1, Rect{0.0, 0.0, 1.0, 1.0}).ok());
    for (int tick = 1; tick <= 5; ++tick) {
      for (ObjectId id = 1; id <= 20; ++id) {
        ASSERT_TRUE(server.ReportObject(id, Point{id / 21.0, tick / 6.0},
                                        static_cast<double>(tick))
                        .ok());
      }
      server.Tick(static_cast<double>(tick));
      ASSERT_TRUE(server.CommitQuery(1).ok());
    }
    ASSERT_TRUE(server.ReportObject(21, Point{0.5, 0.5}, 5.5).ok());
    before = server.CaptureState();
    ASSERT_TRUE(server.Close().ok());
    EXPECT_TRUE(server.Close().ok());  // idempotent
  }
  const std::string wal = dir_ + "/WAL";
  FILE* f = std::fopen(wal.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(std::ftell(f), 8 + 1 + 8);  // one frame: the epoch header
  ASSERT_EQ(std::fclose(f), 0);

  PersistentServer recovered(MakeOptions());
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_TRUE(recovered.CaptureState() == before);
  EXPECT_EQ(recovered.processor().num_objects(), 21u);
  ASSERT_TRUE(recovered.Close().ok());
}

// A degraded server must not checkpoint at Close: its memory may hold a
// mutation the log refused.
TEST_F(PersistentServerTest, DegradedCloseWritesNoCheckpoint) {
  FaultInjectionEnv env;
  PersistentServer::Options options = MakeOptions();
  options.dir = "/db";
  options.env = &env;
  {
    PersistentServer server(options);
    ASSERT_TRUE(server.Open().ok());
    ASSERT_TRUE(server.ReportObject(1, Point{0.1, 0.1}, 0.0).ok());
    server.Tick(1.0);
    FaultInjectionEnv::Failpoint fail;
    fail.fail_count = -1;
    env.SetFailpoint("append", fail);
    EXPECT_FALSE(server.ReportObject(2, Point{0.2, 0.2}, 1.5).ok());
    ASSERT_TRUE(server.degraded());
    EXPECT_FALSE(server.Close().ok());
    env.ClearFailpoint("append");
  }
  EXPECT_FALSE(env.FileExists("/db/SNAPSHOT"));
  PersistentServer recovered(options);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.processor().num_objects(), 1u);
  ASSERT_TRUE(recovered.Close().ok());
}

TEST_F(PersistentServerTest, OpenTwiceRejected) {
  PersistentServer server(MakeOptions());
  ASSERT_TRUE(server.Open().ok());
  EXPECT_EQ(server.Open().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(server.Close().ok());
}

}  // namespace
}  // namespace stq
