// Ablation A5 — out-of-sync recovery cost: committed-diff vs. full resend.
//
// A client disconnects for D evaluation periods and then wakes up. The
// paper's recovery ships diff(committed answer, current answer); the
// naive baseline empties the client and resends the complete answers.
// Sweep: disconnect duration. Expected shape: the diff starts near zero
// and grows with the disconnect duration (more missed churn), while the
// full resend is flat at the total answer size — so the diff wins for
// short outages, which is the common case the mechanism targets.
//
// Section 2 — durable recovery cost: WAL replay vs. checkpoint interval.
// The same workload is driven through the PersistentServer on an
// in-memory FaultInjectionEnv, crashed (all unsynced state dropped), and
// reopened. Sweep: how often Checkpoint() runs. Expected shape: without
// checkpoints the WAL and the reopen replay grow with history; tighter
// checkpoint intervals bound both at the cost of rewriting the snapshot.
// replay_MB_s is the bytes recovery reads (WAL + snapshot) per second of
// Open(), the restore tick included: the speed of the crash-replay path.

#include <chrono>
#include <cstdint>
#include <cstdio>

#include "bench_common.h"
#include "stq/core/server.h"
#include "stq/gen/network_generator.h"
#include "stq/gen/query_generator.h"
#include "stq/gen/road_network.h"
#include "stq/storage/fault_env.h"
#include "stq/storage/persistent_server.h"

namespace {

uint64_t SizeOrZero(stq::Env* env, const std::string& path) {
  uint64_t size = 0;
  return env->GetFileSize(path, &size).ok() ? size : 0;
}

// Drives `ticks` evaluation periods of the grid-city workload through a
// persistent server, checkpointing every `checkpoint_every` ticks (0 =
// never), then crashes it and times the recovery Open().
void RunDurableRecovery(const stq::RoadNetwork& city,
                        const stq::NetworkGenerator::Options& object_options,
                        const stq::QueryGenerator::Options& query_options,
                        size_t num_queries, int ticks, int checkpoint_every,
                        stq_bench::BenchReport* report) {
  stq::FaultInjectionEnv env;
  {
    stq::PersistentServer::Options options;
    options.dir = "/db";
    options.env = &env;
    options.server.processor.grid_cells_per_side = 64;
    stq::PersistentServer server(options);
    if (!server.Open().ok()) return;
    server.AttachClient(1);
    stq::NetworkGenerator objs(&city, object_options);
    stq::QueryGenerator qrys(&city, query_options);
    for (const stq::ObjectReport& r : objs.InitialReports(0.0)) {
      server.ReportObject(r.id, r.loc, r.t);
    }
    for (const stq::QueryRegionReport& q : qrys.InitialRegions(0.0)) {
      server.RegisterRangeQuery(q.id, 1, q.region);
    }
    server.Tick(0.0);
    for (stq::QueryId qid = 1; qid <= num_queries; ++qid) {
      server.CommitQuery(qid);
    }
    for (int tick = 1; tick <= ticks; ++tick) {
      const double now = tick * 5.0;
      for (const stq::ObjectReport& r : objs.Step(now, 5.0, 0.5)) {
        server.ReportObject(r.id, r.loc, r.t);
      }
      for (const stq::QueryRegionReport& q : qrys.Step(now, 5.0, 0.5)) {
        server.MoveRangeQuery(q.id, q.region);
      }
      server.Tick(now);
      if (checkpoint_every > 0 && tick % checkpoint_every == 0) {
        server.Checkpoint();
      }
    }
    // Crash: the server is destroyed without Close().
  }
  env.SimulateCrash(stq::FaultInjectionEnv::UnsyncedLoss::kDropAll);

  const uint64_t wal_bytes = SizeOrZero(&env, "/db/WAL");
  const uint64_t snapshot_bytes = SizeOrZero(&env, "/db/SNAPSHOT");
  stq::PersistentServer::Options options;
  options.dir = "/db";
  options.env = &env;
  options.server.processor.grid_cells_per_side = 64;
  stq::PersistentServer recovered(options);
  const auto start = std::chrono::steady_clock::now();
  const stq::Status open = recovered.Open();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double open_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  if (!open.ok()) {
    std::printf("%-16d %14s %14s %10s %12s  (%s)\n", checkpoint_every, "-",
                "-", "-", "-", open.ToString().c_str());
    return;
  }
  const double replay_mb_s =
      static_cast<double>(wal_bytes + snapshot_bytes) / (1 << 20) /
      (open_ms / 1000.0);
  std::printf("%-16d %14.1f %14.1f %10.1f %12.1f\n", checkpoint_every,
              stq_bench::ToKb(wal_bytes), stq_bench::ToKb(snapshot_bytes),
              open_ms, replay_mb_s);
  report->BeginRow();
  stq_bench::ReportResilienceCounters(report);
  report->Value("section", "durable_recovery");
  report->Value("checkpoint_every", checkpoint_every);
  report->Value("wal_kb", stq_bench::ToKb(wal_bytes));
  report->Value("snapshot_kb", stq_bench::ToKb(snapshot_bytes));
  report->Value("open_ms", open_ms);
  report->Value("replay_mb_s", replay_mb_s);
  recovered.Close();
}

}  // namespace

int main(int argc, char** argv) {
  const size_t num_objects = stq_bench::EnvSize("STQ_BENCH_OBJECTS", 20000);
  const size_t num_queries = stq_bench::EnvSize("STQ_BENCH_QUERIES", 500);

  stq_bench::BenchReport report("ablation_recovery", argc, argv);
  report.Param("num_objects", num_objects);
  report.Param("num_queries", num_queries);
  report.Param("query_side_length", 0.03);

  std::printf("Ablation A5: recovery bytes vs. disconnect duration\n");
  std::printf("objects=%zu queries=%zu side=0.03, one client owns all "
              "queries\n\n",
              num_objects, num_queries);
  std::printf("%-16s %14s %14s %10s\n", "outage_periods", "diff_KB",
              "full_KB", "saving");

  for (int outage = 1; outage <= 10; ++outage) {
    stq::RoadNetwork::GridCityOptions city_options;
    city_options.rows = 30;
    city_options.cols = 30;
    const stq::RoadNetwork city =
        stq::RoadNetwork::MakeGridCity(city_options);
    stq::NetworkGenerator::Options object_options;
    object_options.num_objects = num_objects;
    object_options.seed = 31;
    object_options.route = stq::NetworkGenerator::RouteStrategy::kRandomWalk;
    stq::NetworkGenerator objects(&city, object_options);
    stq::QueryGenerator::Options query_options;
    query_options.num_queries = num_queries;
    query_options.side_length = 0.03;
    query_options.seed = 32;
    query_options.route = stq::NetworkGenerator::RouteStrategy::kRandomWalk;
    stq::QueryGenerator queries(&city, query_options);

    auto run = [&](stq::RecoveryPolicy policy) -> size_t {
      stq::Server::Options server_options;
      server_options.processor.grid_cells_per_side = 64;
      server_options.recovery = policy;
      stq::Server server(server_options);
      server.AttachClient(1);
      // Fresh copies of the deterministic generators per run.
      stq::NetworkGenerator objs(&city, object_options);
      stq::QueryGenerator qrys(&city, query_options);
      for (const stq::ObjectReport& r : objs.InitialReports(0.0)) {
        server.ReportObject(r.id, r.loc, r.t);
      }
      for (const stq::QueryRegionReport& q : qrys.InitialRegions(0.0)) {
        server.RegisterRangeQuery(q.id, 1, q.region);
      }
      server.Tick(0.0);
      for (stq::QueryId qid = 1; qid <= num_queries; ++qid) {
        server.CommitQuery(qid);
      }
      server.DisconnectClient(1);
      for (int tick = 1; tick <= outage; ++tick) {
        const double now = tick * 5.0;
        for (const stq::ObjectReport& r : objs.Step(now, 5.0, 0.5)) {
          server.ReportObject(r.id, r.loc, r.t);
        }
        for (const stq::QueryRegionReport& q : qrys.Step(now, 5.0, 0.5)) {
          server.MoveRangeQuery(q.id, q.region);
        }
        server.Tick(now);
      }
      stq::Result<stq::Server::Delivery> recovery = server.ReconnectClient(1);
      return recovery.ok() ? recovery->bytes : 0;
    };

    const size_t diff_bytes = run(stq::RecoveryPolicy::kCommittedDiff);
    const size_t full_bytes = run(stq::RecoveryPolicy::kFullAnswer);
    std::printf("%-16d %14.1f %14.1f %9.1fx\n", outage,
                stq_bench::ToKb(diff_bytes), stq_bench::ToKb(full_bytes),
                diff_bytes > 0 ? static_cast<double>(full_bytes) /
                                     static_cast<double>(diff_bytes)
                               : 0.0);
    report.BeginRow();
    stq_bench::ReportResilienceCounters(&report);
    report.Value("section", "out_of_sync");
    report.Value("outage_periods", outage);
    report.Value("diff_kb", stq_bench::ToKb(diff_bytes));
    report.Value("full_kb", stq_bench::ToKb(full_bytes));
  }

  // --- Section 2: durable recovery (crash + WAL replay) --------------------
  const size_t durable_objects =
      stq_bench::EnvSize("STQ_BENCH_DURABLE_OBJECTS", 5000);
  const size_t durable_queries =
      stq_bench::EnvSize("STQ_BENCH_DURABLE_QUERIES", 200);
  const int durable_ticks = static_cast<int>(
      stq_bench::EnvSize("STQ_BENCH_DURABLE_TICKS", 12));

  std::printf("\nDurable recovery: WAL replay cost vs. checkpoint interval\n");
  std::printf("objects=%zu queries=%zu ticks=%d, crash drops unsynced "
              "state, then reopen\n\n",
              durable_objects, durable_queries, durable_ticks);
  std::printf("%-16s %14s %14s %10s %12s\n", "ckpt_every", "wal_KB",
              "snapshot_KB", "open_ms", "replay_MB_s");

  stq::RoadNetwork::GridCityOptions city_options;
  city_options.rows = 30;
  city_options.cols = 30;
  const stq::RoadNetwork city = stq::RoadNetwork::MakeGridCity(city_options);
  stq::NetworkGenerator::Options object_options;
  object_options.num_objects = durable_objects;
  object_options.seed = 41;
  object_options.route = stq::NetworkGenerator::RouteStrategy::kRandomWalk;
  stq::QueryGenerator::Options query_options;
  query_options.num_queries = durable_queries;
  query_options.side_length = 0.03;
  query_options.seed = 42;
  query_options.route = stq::NetworkGenerator::RouteStrategy::kRandomWalk;

  for (int checkpoint_every : {0, 8, 4, 2, 1}) {
    RunDurableRecovery(city, object_options, query_options, durable_queries,
                       durable_ticks, checkpoint_every, &report);
  }
  return report.Write() ? 0 : 1;
}
