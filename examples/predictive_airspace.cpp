// Predictive range monitoring: "which aircraft will enter this airspace
// sector in the next few minutes?"
//
// Aircraft report (position, velocity) at irregular intervals; linear
// trajectories predict their future locations. Each sector runs a
// continuous predictive range query over a future time window. The key
// property demonstrated: tuples are produced only when *information*
// changes (a new report, a sector move), never by the mere passage of
// time — the paper's Example III at scale.
//
// Build & run:  ./build/examples/predictive_airspace

#include <cstdio>
#include <vector>

#include "stq/common/random.h"
#include "stq/core/grid_engine.h"
#include "stq/core/query_processor.h"

namespace {
constexpr size_t kNumAircraft = 800;
constexpr size_t kNumSectors = 24;
constexpr double kTickSeconds = 10.0;
constexpr int kNumTicks = 18;
constexpr double kLookaheadFrom = 60.0;   // sector watches [now+60, now+180]
constexpr double kLookaheadTo = 180.0;
}  // namespace

int main() {
  stq::QueryProcessorOptions options;
  options.grid_cells_per_side = 32;
  options.prediction_horizon = 300.0;  // trust reports for five minutes
  stq::QueryProcessor qp(options);
  stq::Xorshift128Plus rng(99);

  // Aircraft: random positions, mostly-straight courses.
  std::vector<stq::Velocity> courses(kNumAircraft);
  for (size_t i = 0; i < kNumAircraft; ++i) {
    courses[i] = stq::Velocity{rng.NextDouble(-0.002, 0.002),
                               rng.NextDouble(-0.002, 0.002)};
    qp.UpsertPredictiveObject(i + 1,
                              {rng.NextDouble(), rng.NextDouble()},
                              courses[i], 0.0);
  }

  // Sectors: fixed rectangles, each watching a sliding future window.
  // (Window endpoints are fixed per registration; sectors re-register
  // their window every few ticks, like a rolling watch.)
  std::vector<stq::Rect> sectors(kNumSectors);
  for (size_t s = 0; s < kNumSectors; ++s) {
    sectors[s] = stq::Rect::CenteredSquare(
        {rng.NextDouble(0.15, 0.85), rng.NextDouble(0.15, 0.85)}, 0.12);
    qp.RegisterPredictiveQuery(s + 1, sectors[s], kLookaheadFrom,
                               kLookaheadTo);
  }
  stq::TickResult tick_result = qp.EvaluateTick(0.0);
  std::printf("t=0: %zu aircraft predicted to enter a sector\n",
              tick_result.updates.size());

  std::printf("%-8s %10s %10s %12s\n", "time", "reports", "updates",
              "window");
  for (int tick = 1; tick <= kNumTicks; ++tick) {
    const double now = tick * kTickSeconds;

    // Only a fraction of aircraft report each period; a few change
    // course.
    size_t reports = 0;
    for (size_t i = 0; i < kNumAircraft; ++i) {
      if (!rng.NextBool(0.25)) continue;
      ++reports;
      if (rng.NextBool(0.2)) {  // course change
        courses[i] = stq::Velocity{rng.NextDouble(-0.002, 0.002),
                                   rng.NextDouble(-0.002, 0.002)};
      }
      // Dead-reckon the "true" position from the last course; report it
      // with the (possibly new) velocity.
      const stq::ObjectRecord* rec =
          qp.grid_engine()->object_store().Find(i + 1);
      const stq::Point pos = rec->trajectory().PositionAt(now);
      qp.UpsertPredictiveObject(i + 1, pos, courses[i], now);
    }

    // Every 6 ticks the sectors roll their watch window forward by
    // re-registering.
    if (tick % 6 == 0) {
      for (size_t s = 0; s < kNumSectors; ++s) {
        qp.UnregisterQuery(s + 1);
        qp.RegisterPredictiveQuery(s + 1, sectors[s], now + kLookaheadFrom,
                                   now + kLookaheadTo);
      }
    }

    tick_result = qp.EvaluateTick(now);
    std::printf("%-8.0f %10zu %10zu [%5.0f,%5.0f]\n", now, reports,
                tick_result.updates.size(),
                tick % 6 == 0 ? now + kLookaheadFrom : -1.0,
                tick % 6 == 0 ? now + kLookaheadTo : -1.0);
  }

  // Verify the final state against from-scratch evaluation.
  size_t correct = 0;
  for (size_t s = 0; s < kNumSectors; ++s) {
    stq::Result<std::vector<stq::ObjectId>> incremental =
        qp.CurrentAnswer(s + 1);
    stq::Result<std::vector<stq::ObjectId>> truth =
        qp.EvaluateFromScratch(s + 1);
    if (incremental.ok() && truth.ok() && *incremental == *truth) ++correct;
  }
  std::printf("%zu/%zu sector watchlists verified\n", correct,
              static_cast<size_t>(kNumSectors));
  return correct == kNumSectors ? 0 : 1;
}
