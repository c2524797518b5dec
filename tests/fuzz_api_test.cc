// API robustness fuzzing: long random sequences of valid AND invalid
// calls against the query processor and the server, on the single grid,
// on 4 shards and on 2 adaptive shards that rebalance often. Nothing
// here asserts specific answers — the properties are (a) no crash, (b)
// every call returns a Status rather than corrupting state, (c) every
// call carrying a NaN or infinite value is rejected with
// InvalidArgument, (d) the engine's invariants hold after every
// evaluation, and (e) no accepted input is silently dropped: after a
// tick the engine holds exactly the objects and queries the accepted
// calls leave behind.

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "stq/common/random.h"
#include "stq/core/query_processor.h"
#include "stq/core/server.h"
#include "stq/core/sharded_server.h"

namespace stq {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// A uniform draw from [lo, hi), replaced now and then by NaN or +-inf.
double Draw(Xorshift128Plus* rng, double lo, double hi) {
  switch (rng->NextUint64(60)) {
    case 0:
      return kNaN;
    case 1:
      return kInf;
    case 2:
      return -kInf;
    default:
      return rng->NextDouble(lo, hi);
  }
}

// Every call that carried a non-finite value must be rejected as an
// invalid argument, whatever else is wrong with it.
void ExpectVerdict(bool finite, const Status& status, int step) {
  if (!finite) {
    EXPECT_TRUE(status.IsInvalidArgument())
        << "step " << step << ": non-finite input got " << status.ToString();
  }
}

// The engine configurations under fuzz.
enum class Engine {
  kSingleGrid,
  kFourShards,
  // Two adaptive shards that rebalance whenever they can, so many ticks
  // hand entities off between shards while the random calls land.
  kTwoShardsRebalancing,
};

void ConfigureEngine(Engine engine, QueryProcessorOptions* options) {
  switch (engine) {
    case Engine::kSingleGrid:
      break;
    case Engine::kFourShards:
      options->num_shards = 4;
      options->worker_threads = 2;
      break;
    case Engine::kTwoShardsRebalancing:
      options->num_shards = 2;
      options->worker_threads = 2;
      options->adaptive.enabled = true;
      options->adaptive.split_threshold = 4;
      options->adaptive.merge_threshold = 1;
      options->adaptive.max_level = 2;
      options->adaptive.rebalance = true;
      options->adaptive.rebalance_min_objects = 4;
      options->adaptive.rebalance_imbalance = 1.2;
      options->adaptive.rebalance_cooldown_ticks = 1;
      break;
  }
}

// A shadow model of the accepted calls: the last accepted report of each
// object (its location clamped into the space) minus accepted removals,
// and the accepted registrations minus unregistrations.
struct AcceptedModel {
  std::map<ObjectId, Point> objects;
  std::set<QueryId> queries;
};

// After a tick the engine must hold exactly what the model holds: an
// accepted call is either represented or was rejected, never dropped.
void ExpectRepresented(const QueryProcessor& qp, const AcceptedModel& model,
                       int step) {
  std::map<ObjectId, Point> objects;
  qp.ForEachObjectInfo([&](const QueryProcessor::ObjectInfo& o) {
    objects.emplace(o.id, o.loc);
  });
  std::set<QueryId> queries;
  qp.ForEachQueryInfo(
      [&](const QueryProcessor::QueryInfo& q) { queries.insert(q.id); });
  EXPECT_EQ(objects, model.objects) << "step " << step;
  EXPECT_EQ(queries, model.queries) << "step " << step;
}

// (seed, engine)
class ApiFuzz
    : public ::testing::TestWithParam<std::tuple<uint64_t, Engine>> {};

TEST_P(ApiFuzz, ProcessorSurvivesRandomCallSequences) {
  Xorshift128Plus rng(std::get<0>(GetParam()));
  QueryProcessorOptions options;
  options.grid_cells_per_side = rng.NextInt(1, 24);
  options.prediction_horizon = rng.NextDouble(1.0, 50.0);
  options.record_history = rng.NextBool(0.5);
  ConfigureEngine(std::get<1>(GetParam()), &options);
  QueryProcessor qp(options);

  // Small id spaces so that valid and invalid ids collide often.
  const ObjectId max_object = 30;
  const QueryId max_query = 15;
  double now = 0.0;
  AcceptedModel model;
  auto clamped = [&](const Point& p) {
    const Rect& b = options.bounds;
    return Point{std::clamp(p.x, b.min_x, b.max_x),
                 std::clamp(p.y, b.min_y, b.max_y)};
  };

  for (int step = 0; step < 3000; ++step) {
    const ObjectId oid = 1 + rng.NextUint64(max_object);
    const QueryId qid = 1 + rng.NextUint64(max_query);
    // Points sometimes outside the space; timestamps sometimes stale.
    const Point p{Draw(&rng, -0.5, 1.5), Draw(&rng, -0.5, 1.5)};
    const double t = rng.NextBool(0.1) ? now - Draw(&rng, 0.0, 5.0)
                                       : now + Draw(&rng, 0.0, 1.0);
    Status st;
    switch (rng.NextUint64(12)) {
      case 0:
        st = qp.UpsertObject(oid, p, t);
        ExpectVerdict(IsFinite(p) && std::isfinite(t), st, step);
        if (st.ok()) model.objects[oid] = clamped(p);
        break;
      case 1: {
        const Velocity v{Draw(&rng, -0.1, 0.1), Draw(&rng, -0.1, 0.1)};
        st = qp.UpsertPredictiveObject(oid, p, v, t);
        ExpectVerdict(IsFinite(p) && IsFinite(v) && std::isfinite(t), st,
                      step);
        if (st.ok()) model.objects[oid] = clamped(p);
        break;
      }
      case 2:
        if (qp.RemoveObject(oid).ok()) model.objects.erase(oid);
        break;
      case 3: {
        const Rect region = Rect::CenteredSquare(p, Draw(&rng, -0.1, 0.4));
        st = qp.RegisterRangeQuery(qid, region);
        ExpectVerdict(IsFinite(region), st, step);
        if (st.ok()) model.queries.insert(qid);
        break;
      }
      case 4: {
        const Rect region = Rect::CenteredSquare(p, Draw(&rng, 0.01, 0.4));
        st = qp.MoveRangeQuery(qid, region);
        ExpectVerdict(IsFinite(region), st, step);
        break;
      }
      case 5:
        st = qp.RegisterKnnQuery(qid, p, rng.NextInt(-2, 8));
        ExpectVerdict(IsFinite(p), st, step);
        if (st.ok()) model.queries.insert(qid);
        break;
      case 6:
        st = qp.MoveKnnQuery(qid, p);
        ExpectVerdict(IsFinite(p), st, step);
        break;
      case 7: {
        const Rect region = Rect::CenteredSquare(p, Draw(&rng, 0.01, 0.4));
        const double t_from = Draw(&rng, 0.0, 30.0);
        const double t_to = Draw(&rng, -5.0, 40.0);
        st = qp.RegisterPredictiveQuery(qid, region, t_from, t_to);
        ExpectVerdict(IsFinite(region) && std::isfinite(t_from) &&
                          std::isfinite(t_to),
                      st, step);
        if (st.ok()) model.queries.insert(qid);
        break;
      }
      case 8: {
        const double radius = Draw(&rng, -0.05, 0.3);
        st = qp.RegisterCircleQuery(qid, p, radius);
        ExpectVerdict(IsFinite(p) && std::isfinite(radius), st, step);
        if (st.ok()) model.queries.insert(qid);
        break;
      }
      case 9:
        st = qp.MoveCircleQuery(qid, p);
        ExpectVerdict(IsFinite(p), st, step);
        break;
      case 10:
        if (qp.UnregisterQuery(qid).ok()) model.queries.erase(qid);
        break;
      case 11: {
        now += rng.NextDouble(0.0, 2.0);
        qp.EvaluateTick(now);
        break;
      }
    }
    if (step % 500 == 499) {
      now += 1.0;
      qp.EvaluateTick(now);
      ASSERT_TRUE(qp.CheckInvariants().ok()) << "step " << step;
      ExpectRepresented(qp, model, step);
    }
  }
  now += 1.0;
  qp.EvaluateTick(now);
  EXPECT_TRUE(qp.CheckInvariants().ok());
  ExpectRepresented(qp, model, 3000);
  // The rebalancing engine must actually have handed entities off (a
  // one-cell grid cannot place a cut).
  if (std::get<1>(GetParam()) == Engine::kTwoShardsRebalancing &&
      options.grid_cells_per_side >= 2) {
    EXPECT_FALSE(qp.sharded_engine()->rebalance_history().empty());
  }
}

TEST_P(ApiFuzz, ServerSurvivesRandomCallSequences) {
  Xorshift128Plus rng(std::get<0>(GetParam()) * 31 + 7);
  Server::Options options;
  options.processor.grid_cells_per_side = 8;
  ConfigureEngine(std::get<1>(GetParam()), &options.processor);
  Server server(options);
  double now = 0.0;

  for (int step = 0; step < 1500; ++step) {
    const ClientId cid = 1 + rng.NextUint64(4);
    const QueryId qid = 1 + rng.NextUint64(10);
    const ObjectId oid = 1 + rng.NextUint64(20);
    const Point p{Draw(&rng, 0.0, 1.0), Draw(&rng, 0.0, 1.0)};
    const bool finite = IsFinite(p);
    switch (rng.NextUint64(10)) {
      case 0:
        (void)server.AttachClient(cid);
        break;
      case 1:
        (void)server.DisconnectClient(cid);
        break;
      case 2:
        (void)server.ReconnectClient(cid);
        break;
      case 3:
        ExpectVerdict(finite,
                      server.ReportObject(oid, p,
                                          now + rng.NextDouble(0.0, 1.0)),
                      step);
        break;
      case 4: {
        const Status st =
            server.RegisterRangeQuery(qid, cid, Rect::CenteredSquare(p, 0.2));
        // An unattached client fails first, with FailedPrecondition.
        if (st.code() != StatusCode::kFailedPrecondition) {
          ExpectVerdict(finite, st, step);
        }
        break;
      }
      case 5:
        ExpectVerdict(finite,
                      server.MoveRangeQuery(qid, Rect::CenteredSquare(p, 0.2)),
                      step);
        break;
      case 6:
        (void)server.CommitQuery(qid);
        break;
      case 7:
        (void)server.UnregisterQuery(qid);
        break;
      case 8: {
        const Status st = server.RegisterCircleQuery(qid, cid, p, 0.1);
        if (st.code() != StatusCode::kFailedPrecondition) {
          ExpectVerdict(finite, st, step);
        }
        break;
      }
      case 9: {
        now += rng.NextDouble(0.1, 2.0);
        server.Tick(now);
        break;
      }
    }
  }
  now += 1.0;
  server.Tick(now);
  EXPECT_TRUE(server.processor().CheckInvariants().ok());
  if (std::get<1>(GetParam()) == Engine::kTwoShardsRebalancing) {
    EXPECT_FALSE(
        server.processor().sharded_engine()->rebalance_history().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShards, ApiFuzz,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                       ::testing::Values(Engine::kSingleGrid,
                                         Engine::kFourShards,
                                         Engine::kTwoShardsRebalancing)));

// Regression: a NaN report timestamp used to be accepted, and since every
// comparison with NaN is false it then turned off the stale-report check
// for that object. A NaN location reached the shard router's cell
// arithmetic. Both engines now reject every non-finite input up front.
TEST(ApiBoundary, NonFiniteInputIsRejectedAndLeavesNoTrace) {
  for (int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    QueryProcessorOptions options;
    options.num_shards = shards;
    QueryProcessor qp(options);
    ASSERT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, 1.0).ok());
    EXPECT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, kNaN).IsInvalidArgument());
    EXPECT_TRUE(
        qp.UpsertObject(1, Point{0.5, 0.5}, -100.0).IsInvalidArgument());
    qp.EvaluateTick(2.0);
    EXPECT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, kNaN).IsInvalidArgument());
    EXPECT_TRUE(
        qp.UpsertObject(1, Point{0.5, 0.5}, -100.0).IsInvalidArgument());
    EXPECT_TRUE(qp.UpsertObject(2, Point{kNaN, 0.5}, 2.0).IsInvalidArgument());
    EXPECT_TRUE(qp.UpsertObject(2, Point{0.5, kInf}, 2.0).IsInvalidArgument());
    EXPECT_TRUE(qp.UpsertPredictiveObject(2, Point{0.5, 0.5},
                                          Velocity{-kInf, 0.0}, 2.0)
                    .IsInvalidArgument());
    EXPECT_TRUE(qp.RegisterRangeQuery(10, Rect{0.0, 0.0, kNaN, 1.0})
                    .IsInvalidArgument());
    EXPECT_TRUE(qp.RegisterRangeQuery(10, Rect{-kInf, -kInf, kInf, kInf})
                    .IsInvalidArgument());
    EXPECT_TRUE(
        qp.RegisterCircleQuery(11, Point{0.5, 0.5}, kNaN).IsInvalidArgument());
    EXPECT_TRUE(
        qp.RegisterKnnQuery(12, Point{kNaN, 0.5}, 3).IsInvalidArgument());
    EXPECT_TRUE(qp.RegisterPredictiveQuery(13, Rect{0.0, 0.0, 1.0, 1.0}, 0.0,
                                           kInf)
                    .IsInvalidArgument());
    ASSERT_TRUE(qp.RegisterRangeQuery(10, Rect{0.0, 0.0, 1.0, 1.0}).ok());
    qp.EvaluateTick(3.0);
    EXPECT_TRUE(qp.MoveRangeQuery(10, Rect{kNaN, 0.0, 1.0, 1.0})
                    .IsInvalidArgument());
    // Only the one valid report was taken: object 1 at its first place.
    const Result<std::vector<ObjectId>> answer = qp.CurrentAnswer(10);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(*answer, std::vector<ObjectId>{1});
    EXPECT_EQ(qp.num_objects(), 1u);
    EXPECT_TRUE(qp.CheckInvariants().ok());
  }
}

}  // namespace
}  // namespace stq
