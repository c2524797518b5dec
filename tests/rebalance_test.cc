// Deterministic-handoff tests for adaptive shard rebalancing:
//
//   * seeded skewed workloads produce the exact same rebalance schedule
//     (tick indices, boundary edges, moved-object counts) and the exact
//     same final shard assignments at every worker count — and the
//     update streams stay byte-identical to the uniform single-grid
//     engine throughout;
//   * a rebalance tick that also carries reports, removals and query
//     changes for entities crossing the moved cut stays byte-identical,
//     and a refined cell whose owner does not change keeps its level;
//   * crashing mid-run around a rebalancing tick (the PR's torture-
//     harness mold: FaultInjectionEnv + PersistentServer + oracle) still
//     recovers exactly to the last sync boundary, passes the full
//     invariant audit — including the partition-map checks — and leaves
//     a consistent, operational engine.

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stq/common/check.h"
#include "stq/core/invariant_auditor.h"
#include "stq/core/query_processor.h"
#include "stq/core/sharded_server.h"
#include "stq/gen/skewed_generator.h"
#include "stq/gen/workload.h"
#include "stq/grid/grid_index.h"
#include "stq/storage/fault_env.h"
#include "stq/storage/persistent_server.h"

namespace stq {
namespace {

QueryProcessorOptions RebalanceOptions(int shards, int workers) {
  QueryProcessorOptions options;
  options.grid_cells_per_side = 8;
  options.worker_threads = workers;
  options.num_shards = shards;
  options.adaptive.enabled = true;
  options.adaptive.split_threshold = 10;
  options.adaptive.merge_threshold = 3;
  options.adaptive.max_level = 2;
  options.adaptive.cooldown_ticks = 2;
  options.adaptive.rebalance = true;
  options.adaptive.rebalance_cooldown_ticks = 3;
  options.adaptive.rebalance_min_objects = 64;
  options.adaptive.rebalance_imbalance = 1.2;
  return options;
}

std::string StreamBytes(const TickResult& r) {
  std::ostringstream os;
  for (const Update& u : r.updates) os << u.DebugString() << '\n';
  return os.str();
}

Workload SkewedWorkload(uint64_t seed) {
  SkewedWorkloadOptions options;
  options.gen.scenario = SkewedGenerator::Scenario::kZipfHotspot;
  options.gen.num_objects = 250;
  options.gen.seed = seed;
  options.gen.num_hotspots = 5;
  options.gen.zipf_s = 1.4;
  options.gen.hotspot_sigma = 0.04;
  options.gen.hotspot_drift = 0.005;
  options.num_queries = 30;
  options.query_side_length = 0.12;
  options.tick_seconds = 5.0;
  options.num_ticks = 12;
  return MakeSkewedWorkload(options);
}

struct RunRecord {
  std::vector<std::string> tick_streams;
  // Flattened rebalance schedule: one line per event.
  std::vector<std::string> schedule;
  // Final shard assignment of every object, ascending id.
  std::vector<std::string> assignments;
};

RunRecord DriveRun(const Workload& workload, int shards, int workers) {
  QueryProcessor qp(RebalanceOptions(shards, workers));
  RunRecord record;
  workload.ApplyInitial(&qp);
  record.tick_streams.push_back(StreamBytes(qp.EvaluateTick(0.0)));
  for (size_t i = 0; i < workload.ticks().size(); ++i) {
    workload.ApplyTick(&qp, i);
    record.tick_streams.push_back(
        StreamBytes(qp.EvaluateTick(workload.ticks()[i].time)));
    const Status invariants = qp.CheckInvariants();
    EXPECT_TRUE(invariants.ok())
        << shards << " shards, " << workers << " workers, tick " << i << ": "
        << invariants.ToString();
  }
  const ShardedEngine* engine = qp.sharded_engine();
  if (engine != nullptr) {
    for (const ShardedEngine::ShardRebalanceEvent& e :
         engine->rebalance_history()) {
      std::ostringstream os;
      os << "tick=" << e.tick_index << " t=" << e.time
         << " moved=" << e.moved_objects << " x=[";
      for (double x : e.x_edges) os << x << ',';
      os << "] y=[";
      for (double y : e.y_edges) os << y << ',';
      os << ']';
      record.schedule.push_back(os.str());
    }
    for (const ObjectReport& r : workload.initial_objects()) {
      std::ostringstream os;
      os << r.id << ':';
      for (int s : engine->ObjectShards(r.id)) os << s << ',';
      record.assignments.push_back(os.str());
    }
  }
  return record;
}

// Worker count never changes the rebalance schedule, the shard
// assignment history, or the bytes on the wire.
TEST(RebalanceTest, HandoffIsDeterministicAcrossWorkerCounts) {
  for (const uint64_t seed : {11u, 12u, 13u}) {
    const Workload workload = SkewedWorkload(seed);
    for (int shards : {2, 4}) {
      const RunRecord serial = DriveRun(workload, shards, /*workers=*/1);
      const RunRecord parallel = DriveRun(workload, shards, /*workers=*/4);
      ASSERT_EQ(serial.tick_streams.size(), parallel.tick_streams.size());
      for (size_t i = 0; i < serial.tick_streams.size(); ++i) {
        ASSERT_EQ(serial.tick_streams[i], parallel.tick_streams[i])
            << "seed " << seed << ", " << shards
            << " shards: stream diverged at tick " << i;
      }
      EXPECT_EQ(serial.schedule, parallel.schedule)
          << "seed " << seed << ", " << shards
          << " shards: rebalance schedules diverged";
      EXPECT_EQ(serial.assignments, parallel.assignments)
          << "seed " << seed << ", " << shards
          << " shards: final shard assignments diverged";
    }
  }
}

// The rebalanced engine's streams match the uniform single-grid engine
// byte for byte, and rebalances actually happen on this workload.
TEST(RebalanceTest, RebalancedStreamsMatchSingleGrid) {
  const Workload workload = SkewedWorkload(11);
  QueryProcessorOptions baseline_options;
  baseline_options.grid_cells_per_side = 8;
  QueryProcessor baseline(baseline_options);
  workload.ApplyInitial(&baseline);
  std::vector<std::string> expected;
  expected.push_back(StreamBytes(baseline.EvaluateTick(0.0)));
  for (size_t i = 0; i < workload.ticks().size(); ++i) {
    workload.ApplyTick(&baseline, i);
    expected.push_back(
        StreamBytes(baseline.EvaluateTick(workload.ticks()[i].time)));
  }

  size_t total_rebalances = 0;
  for (int shards : {2, 4}) {
    const RunRecord actual = DriveRun(workload, shards, /*workers=*/4);
    ASSERT_EQ(expected.size(), actual.tick_streams.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(expected[i], actual.tick_streams[i])
          << shards << " shards: diverged from single grid at tick " << i;
    }
    total_rebalances += actual.schedule.size();
  }
  EXPECT_GE(total_rebalances, 1u) << "the skewed workload never rebalanced";
}

// --- Scripted handoff ticks -------------------------------------------------

// One tick of a scripted run: the API calls made before EvaluateTick(t).
// Every call must succeed on both engines.
struct ScriptedTick {
  double t = 0.0;
  std::function<void(QueryProcessor*)> calls;
};

// Drives `script` through the uniform single grid and through `options`
// in lockstep, requiring byte-identical streams and clean invariants
// after every tick; `after_tick(i, qp)` inspects the sharded engine.
void DriveInLockstep(
    const QueryProcessorOptions& options,
    const std::vector<ScriptedTick>& script,
    const std::function<void(size_t, const QueryProcessor&)>& after_tick) {
  QueryProcessorOptions single_options;
  single_options.grid_cells_per_side = options.grid_cells_per_side;
  QueryProcessor single(single_options);
  QueryProcessor sharded(options);
  for (size_t i = 0; i < script.size(); ++i) {
    script[i].calls(&single);
    script[i].calls(&sharded);
    ASSERT_EQ(StreamBytes(single.EvaluateTick(script[i].t)),
              StreamBytes(sharded.EvaluateTick(script[i].t)))
        << options.worker_threads << " workers: diverged at tick " << i;
    const Status invariants = sharded.CheckInvariants();
    ASSERT_TRUE(invariants.ok()) << options.worker_threads << " workers, tick "
                                 << i << ": " << invariants.ToString();
    after_tick(i, sharded);
  }
}

void Ok(const Status& st) { ASSERT_TRUE(st.ok()) << st.ToString(); }

// A spread-out point of a rect, the i-th of a 5-column lattice.
Point Spot(const Rect& r, int i) {
  return Point{r.min_x + r.Width() * (0.1 + 0.2 * (i % 5)),
               r.min_y + r.Height() * (0.05 + 0.1 * ((i / 5) % 10))};
}

// The cut starts at x = 0.5. Sixty objects in column 1 and twenty in the
// band [0.25, 0.5) load shard 0 with 84 of 104 objects, so the second
// tick moves the cut to x = 0.25 and the band changes owner. That same
// tick carries, for entities crossing the moved cut, a report, a
// removal, a removal followed by an older re-report, a query move, a
// query unregister and a query re-register; the rest of the band hands
// off without a pending op of its own.
TEST(RebalanceTest, HandoffTickCarriesCrossingOps) {
  const Rect column1{0.13, 0.0, 0.24, 1.0};
  const Rect band{0.26, 0.0, 0.49, 1.0};
  const Rect right{0.6, 0.0, 0.9, 1.0};
  std::vector<ScriptedTick> script;
  script.push_back({1.0, [&](QueryProcessor* qp) {
    for (int i = 0; i < 60; ++i) {
      Ok(qp->UpsertObject(1 + i, Spot(column1, i), 1.0));
    }
    for (int i = 0; i < 20; ++i) {
      Ok(qp->UpsertObject(61 + i, Spot(band, i), 1.0));
      Ok(qp->UpsertObject(81 + i, Spot(right, i), 1.0));
    }
    // Predictive objects whose footprints cross the old or the new cut.
    Ok(qp->UpsertPredictiveObject(101, {0.3, 0.3}, {-0.002, 0.0}, 1.0));
    Ok(qp->UpsertPredictiveObject(102, {0.45, 0.6}, {0.002, 0.001}, 1.0));
    Ok(qp->UpsertPredictiveObject(103, {0.27, 0.8}, {-0.001, -0.002}, 1.0));
    Ok(qp->UpsertPredictiveObject(104, {0.4, 0.45}, {0.0, 0.0}, 1.0));
    Ok(qp->RegisterRangeQuery(1, {0.27, 0.1, 0.45, 0.5}));
    Ok(qp->RegisterRangeQuery(2, {0.3, 0.5, 0.48, 0.9}));
    Ok(qp->RegisterRangeQuery(3, {0.26, 0.3, 0.4, 0.7}));
    Ok(qp->RegisterRangeQuery(4, {0.2, 0.2, 0.3, 0.8}));  // gains shard 1
    Ok(qp->RegisterCircleQuery(5, {0.35, 0.5}, 0.08));
    Ok(qp->RegisterPredictiveQuery(6, {0.3, 0.2, 0.45, 0.5}, 0.0, 100.0));
    Ok(qp->RegisterKnnQuery(7, {0.3, 0.5}, 5));
    Ok(qp->RegisterRangeQuery(8, {0.6, 0.6, 0.9, 0.9}));
    Ok(qp->RegisterRangeQuery(9, {0.0, 0.0, 1.0, 1.0}));
  }});
  script.push_back({2.0, [](QueryProcessor* qp) {
    Ok(qp->UpsertObject(61, {0.33, 0.33}, 2.0));  // report
    Ok(qp->RemoveObject(62));                     // removal
    Ok(qp->RemoveObject(63));                     // removal, then an
    Ok(qp->UpsertObject(63, {0.35, 0.4}, 0.5));   // older re-report
    // A query move, after the band's lower-id handoff queries in id
    // order: shard 0 captures answers of both kinds, interleaved.
    Ok(qp->MovePredictiveQuery(6, {0.31, 0.15, 0.46, 0.55}));
    Ok(qp->UnregisterQuery(2));
    Ok(qp->UnregisterQuery(3));
    Ok(qp->RegisterRangeQuery(3, {0.27, 0.3, 0.41, 0.7}));
  }});
  script.push_back({3.0, [&](QueryProcessor* qp) {
    for (int i = 0; i < 10; ++i) {
      Ok(qp->UpsertObject(64 + i, Spot(right, i + 7), 3.0));
    }
    Ok(qp->MoveRangeQuery(4, {0.22, 0.2, 0.32, 0.8}));
  }});
  script.push_back({4.0, [&](QueryProcessor* qp) {
    for (int i = 0; i < 30; ++i) {
      Ok(qp->UpsertObject(1 + i, Spot(band, i + 3), 4.0));
    }
  }});

  for (int workers : {1, 2, 4}) {
    QueryProcessorOptions options = RebalanceOptions(2, workers);
    options.adaptive.rebalance_min_objects = 16;
    options.adaptive.rebalance_cooldown_ticks = 1;
    DriveInLockstep(options, script, [&](size_t i, const QueryProcessor& qp) {
      const ShardedEngine& engine = *qp.sharded_engine();
      if (i == 0) {
        EXPECT_TRUE(engine.rebalance_history().empty());
        return;
      }
      if (i != 1) return;
      ASSERT_EQ(engine.rebalance_history().size(), 1u);
      const ShardedEngine::ShardRebalanceEvent& e =
          engine.rebalance_history()[0];
      EXPECT_EQ(e.tick_index, 2);
      EXPECT_EQ(e.x_edges, (std::vector<double>{0.0, 0.25, 1.0}));
      // The band and its queries now live in shard 1.
      for (ObjectId id : {61, 63, 64, 80}) {
        EXPECT_EQ(engine.ObjectShards(id), std::vector<int>{1}) << id;
      }
      EXPECT_TRUE(engine.ObjectShards(62).empty());
      for (QueryId id : {1, 3, 5, 6}) {
        EXPECT_EQ(engine.QueryShards(id), std::vector<int>{1}) << id;
      }
      EXPECT_EQ(engine.QueryShards(4), (std::vector<int>{0, 1}));
      EXPECT_FALSE(qp.HasQuery(2));
    });
    if (HasFatalFailure()) return;
  }
}

// The stable shard grids keep their adaptive refinement across a
// rebalance: a refined cell whose owner does not change keeps its level.
// A hot cell in column 1 refines to the deepest level while the world is
// too small to rebalance; twenty more objects then trip the rebalancer,
// whose new cut (x = 0.25) leaves column 1 with shard 0.
TEST(RebalanceTest, RefinedCellKeepsItsLevelAcrossRebalance) {
  const Rect hot{0.13, 0.26, 0.14, 0.27};  // inside one level-2 leaf
  const Rect band{0.26, 0.0, 0.49, 1.0};
  const Rect right{0.6, 0.0, 0.9, 1.0};
  const CellCoord hot_cell{1, 2};
  std::vector<ScriptedTick> script;
  for (int tick = 1; tick <= 6; ++tick) {
    const double t = tick;
    script.push_back({t, [=](QueryProcessor* qp) {
      for (int i = 0; i < 60; ++i) {
        Ok(qp->UpsertObject(1 + i, Spot(hot, i), t));
      }
      for (int i = 0; i < 30; ++i) {
        Ok(qp->UpsertObject(61 + i, Spot(right, i), t));
      }
      if (tick == 1) Ok(qp->RegisterRangeQuery(1, {0.1, 0.2, 0.3, 0.3}));
      if (tick == 4) {
        for (int i = 0; i < 20; ++i) {
          Ok(qp->UpsertObject(91 + i, Spot(band, i), t));
        }
      }
    }});
  }

  for (int workers : {1, 2, 4}) {
    QueryProcessorOptions options = RebalanceOptions(2, workers);
    options.adaptive.rebalance_min_objects = 100;
    options.adaptive.rebalance_cooldown_ticks = 1;
    int level_before = -1;
    DriveInLockstep(options, script, [&](size_t i, const QueryProcessor& qp) {
      const ShardedEngine& engine = *qp.sharded_engine();
      const int level = engine.shard(0).grid().CellLevel(hot_cell);
      if (i == 3) {
        EXPECT_TRUE(engine.rebalance_history().empty());
        EXPECT_EQ(level, options.adaptive.max_level);
        level_before = level;
      } else if (i == 4) {
        ASSERT_EQ(engine.rebalance_history().size(), 1u);
        EXPECT_EQ(engine.rebalance_history()[0].tick_index, 5);
        EXPECT_EQ(engine.rebalance_history()[0].x_edges,
                  (std::vector<double>{0.0, 0.25, 1.0}));
        EXPECT_EQ(level, level_before);
        EXPECT_EQ(engine.ObjectShards(1), std::vector<int>{0});
        EXPECT_EQ(engine.ObjectShards(91), std::vector<int>{1});
      }
    });
    if (HasFatalFailure()) return;
  }
}

// --- Mid-handoff crash leg (torture-harness mold) --------------------------

constexpr char kDir[] = "/db";

PersistentServer::Options CrashOptions(FaultInjectionEnv* env) {
  PersistentServer::Options options;
  options.server.processor = RebalanceOptions(/*shards=*/2, /*workers=*/1);
  // Small enough that the corner pile-up below clears it.
  options.server.processor.adaptive.rebalance_min_objects = 32;
  options.dir = kDir;
  options.env = env;
  return options;
}

// A short skew-heavy script: most objects pile into one corner so the
// home-shard imbalance trips the rebalancer within a few ticks.
struct ScriptOp {
  bool is_tick = false;
  ObjectId oid = 0;
  Point p;
  double t = 0.0;
};

std::vector<ScriptOp> CrashScript() {
  std::vector<ScriptOp> script;
  for (int tick = 1; tick <= 6; ++tick) {
    for (ObjectId id = 1; id <= 48; ++id) {
      ScriptOp op;
      op.oid = id;
      // Four fifths of the population crowds the lower-left corner; the
      // rest spreads out so every shard stays non-empty.
      op.p = id % 5 == 0
                 ? Point{0.1 + 0.8 * ((id % 7) / 7.0), 0.85}
                 : Point{0.05 + 0.002 * static_cast<double>(id),
                         0.05 + 0.01 * (tick % 3)};
      op.t = tick - 0.5;
      script.push_back(op);
    }
    ScriptOp tick_op;
    tick_op.is_tick = true;
    tick_op.t = tick;
    script.push_back(tick_op);
  }
  return script;
}

// Crash at a stride of I/O points across the whole script (the sweep
// necessarily crosses the rebalancing ticks), drop all unsynced data,
// and require exact recovery plus a clean audit — the partition map that
// recovery rebuilds is consistent by construction, and the audit's
// cross-shard checks (routing, bounds, map validity) prove it.
TEST(RebalanceTest, MidHandoffCrashRecoversConsistently) {
  const std::vector<ScriptOp> script = CrashScript();

  // Clean run: count I/O ops, capture per-tick oracle states, and prove
  // the script actually rebalances.
  uint64_t total_ops = 0;
  std::vector<PersistedState> boundaries;  // state at each sync boundary
  {
    FaultInjectionEnv env;
    PersistentServer ps(CrashOptions(&env));
    Server oracle(CrashOptions(&env).server);
    ASSERT_TRUE(ps.Open().ok());
    ASSERT_TRUE(ps.AttachClient(1).ok());
    ASSERT_TRUE(oracle.AttachClient(1).ok());
    ASSERT_TRUE(ps.RegisterRangeQuery(1, 1, Rect{0.0, 0.0, 0.3, 0.3}).ok());
    ASSERT_TRUE(
        oracle.RegisterRangeQuery(1, 1, Rect{0.0, 0.0, 0.3, 0.3}).ok());
    for (const ScriptOp& op : script) {
      if (op.is_tick) {
        ps.Tick(op.t);
        oracle.Tick(op.t);
        boundaries.push_back(CapturePersistedState(oracle));
      } else {
        ASSERT_TRUE(ps.ReportObject(op.oid, op.p, op.t).ok());
        ASSERT_TRUE(oracle.ReportObject(op.oid, op.p, op.t).ok());
      }
    }
    const ShardedEngine* engine = oracle.processor().sharded_engine();
    ASSERT_NE(engine, nullptr);
    ASSERT_GE(engine->rebalance_history().size(), 1u)
        << "crash script never rebalanced; the sweep would prove nothing";
    total_ops = env.op_count();
    ASSERT_TRUE(ps.Close().ok());
  }

  // The sweep. Replays stop at the eventual injected failure; recovery
  // must land exactly on the last completed tick's state.
  for (uint64_t k = 1; k < total_ops; k += 7) {
    FaultInjectionEnv env;
    env.CrashAfterOps(k);
    size_t last_synced_tick = 0;  // 0 = nothing synced yet
    {
      PersistentServer ps(CrashOptions(&env));
      if (!ps.Open().ok()) continue;
      if (!ps.AttachClient(1).ok() ||
          !ps.RegisterRangeQuery(1, 1, Rect{0.0, 0.0, 0.3, 0.3}).ok()) {
        // The crash hit setup; nothing synced beyond the empty state.
      } else {
        size_t ticks_done = 0;
        for (const ScriptOp& op : script) {
          if (ps.degraded()) break;
          if (op.is_tick) {
            ps.Tick(op.t);
            if (!ps.degraded()) last_synced_tick = ++ticks_done;
          } else {
            (void)ps.ReportObject(op.oid, op.p, op.t);
          }
        }
      }
      // Destruction without Close() models the process dying.
    }
    env.SimulateCrash(FaultInjectionEnv::UnsyncedLoss::kDropAll);

    PersistentServer recovered(CrashOptions(&env));
    const std::string what = "crash at I/O op " + std::to_string(k);
    ASSERT_TRUE(recovered.Open().ok()) << what;
    if (last_synced_tick > 0) {
      const PersistedState got = CapturePersistedState(recovered.server());
      EXPECT_TRUE(got == boundaries[last_synced_tick - 1])
          << what << ": recovery missed the sync boundary (tick "
          << last_synced_tick << ")";
    }
    const AuditReport report =
        InvariantAuditor().AuditServer(recovered.server());
    EXPECT_TRUE(report.ok()) << what << ": " << report.ToString();
    // The recovered engine is operational and still partition-
    // consistent after another tick.
    recovered.Tick(100.0);
    const Status invariants = recovered.server().processor().CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << what << ": " << invariants.ToString();
    ASSERT_TRUE(recovered.Close().ok()) << what;
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace stq
