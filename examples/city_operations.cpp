// City operations center: the persistent server, the repository of past
// locations, and dense-area monitoring working together.
//
// Runs a small city simulation on a durable PersistentServer, crashes it
// mid-run, recovers from the WAL, and keeps going; along the way it asks
// historical questions ("who was downtown at t=30?") and watches dense
// grid cells form as vehicles converge.
//
// Build & run:  ./build/examples/city_operations
// (Writes its repository under /tmp.)

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "stq/core/density_monitor.h"
#include "stq/core/grid_engine.h"
#include "stq/gen/network_generator.h"
#include "stq/gen/road_network.h"
#include "stq/storage/persistent_server.h"

namespace {
constexpr size_t kNumVehicles = 1500;
constexpr double kTickSeconds = 5.0;
const stq::Rect kDowntown{0.40, 0.40, 0.60, 0.60};
}  // namespace

int main() {
  const std::string dir = "/tmp/stq_city_operations";
  std::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'").c_str());

  stq::RoadNetwork::GridCityOptions city_options;
  city_options.rows = 16;
  city_options.cols = 16;
  const stq::RoadNetwork city = stq::RoadNetwork::MakeGridCity(city_options);

  stq::NetworkGenerator::Options vehicle_options;
  vehicle_options.num_objects = kNumVehicles;
  vehicle_options.seed = 5;
  vehicle_options.speed_factor = 6.0;  // rush-hour fast-forward
  stq::NetworkGenerator vehicles(&city, vehicle_options);

  stq::PersistentServer::Options options;
  options.server.processor.grid_cells_per_side = 16;
  options.server.processor.record_history = true;
  options.dir = dir;

  // --- Phase 1: run, then "crash" -------------------------------------------
  {
    stq::PersistentServer ops(options);
    if (!ops.Open().ok()) return 1;
    ops.AttachClient(1);
    ops.RegisterRangeQuery(1, 1, kDowntown);
    for (const stq::ObjectReport& r : vehicles.InitialReports(0.0)) {
      ops.ReportObject(r.id, r.loc, r.t);
    }
    ops.Tick(0.0);

    stq::DensityMonitor density(&ops.processor().grid_engine()->grid(),
                                /*threshold=*/2 * kNumVehicles / 256);
    for (int tick = 1; tick <= 8; ++tick) {
      const double now = tick * kTickSeconds;
      for (const stq::ObjectReport& r :
           vehicles.Step(now, kTickSeconds, 0.8)) {
        ops.ReportObject(r.id, r.loc, r.t);
      }
      ops.Tick(now);
      for (const stq::DenseCellUpdate& u : density.Tick()) {
        std::printf("t=%3.0f  dense cell (%d,%d) %s (%zu vehicles)\n", now,
                    u.cell.x, u.cell.y,
                    u.sign == stq::UpdateSign::kPositive ? "formed  "
                                                         : "dispersed",
                    u.count);
      }
    }
    std::printf("downtown watch after 8 ticks: %zu vehicles\n",
                ops.processor().CurrentAnswer(1)->size());
    std::printf("-- power failure, server lost without a clean shutdown --\n");
    // No Close(): the destructor drops everything; only the WAL survives.
  }

  // --- Phase 2: recover and continue ------------------------------------------
  stq::PersistentServer ops(options);
  if (!ops.Open().ok()) {
    std::printf("recovery failed\n");
    return 1;
  }
  std::printf("recovered: %zu vehicles, %zu queries, downtown watch has "
              "%zu vehicles again\n",
              ops.processor().num_objects(), ops.processor().num_queries(),
              ops.processor().CurrentAnswer(1)->size());

  for (int tick = 9; tick <= 12; ++tick) {
    const double now = tick * kTickSeconds;
    for (const stq::ObjectReport& r : vehicles.Step(now, kTickSeconds, 0.8)) {
      ops.ReportObject(r.id, r.loc, r.t);
    }
    ops.Tick(now);
  }

  // Historical question against the recorded report stream. Note the
  // recovered server re-learned history only from recovery onward; the
  // question targets the post-recovery window.
  const double asked_at = 10 * kTickSeconds;
  stq::Result<std::vector<stq::ObjectId>> past =
      ops.processor().EvaluatePastRangeQuery(kDowntown, asked_at);
  if (past.ok()) {
    std::printf("historical query: %zu vehicles were downtown at t=%.0f\n",
                past->size(), asked_at);
  }

  // Final checkpoint compacts the log for the next start.
  if (ops.Checkpoint().ok()) {
    std::printf("checkpoint written; WAL truncated\n");
  }
  ops.Close();
  return 0;
}
