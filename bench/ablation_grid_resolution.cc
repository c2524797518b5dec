// Ablation A2 — grid resolution.
//
// The uniform N x N grid trades cell-list lengths (coarse grids scan more
// objects/stubs per candidate lookup) against clipping overhead and empty
// cells (fine grids touch more cells per query footprint). This benchmark
// measures one full evaluation period at several resolutions, plus the
// grid's memory-shaped statistics.
//
// google-benchmark: each iteration advances the live workload by one
// period and evaluates it.

#include <benchmark/benchmark.h>

#include "bench_gbench_main.h"

#include <memory>

#include "bench_common.h"
#include "stq/core/grid_engine.h"
#include "stq/gen/network_generator.h"
#include "stq/gen/query_generator.h"
#include "stq/gen/road_network.h"

namespace {

struct LiveWorkload {
  std::unique_ptr<stq::RoadNetwork> city;
  std::unique_ptr<stq::NetworkGenerator> objects;
  std::unique_ptr<stq::QueryGenerator> queries;
  std::unique_ptr<stq::QueryProcessor> processor;
  double now = 0.0;
};

LiveWorkload MakeLiveWorkload(int grid_cells, size_t num_objects,
                              size_t num_queries) {
  LiveWorkload live;
  stq::RoadNetwork::GridCityOptions city_options;
  city_options.rows = 30;
  city_options.cols = 30;
  live.city = std::make_unique<stq::RoadNetwork>(
      stq::RoadNetwork::MakeGridCity(city_options));

  stq::NetworkGenerator::Options object_options;
  object_options.num_objects = num_objects;
  object_options.seed = 3;
  object_options.route = stq::NetworkGenerator::RouteStrategy::kRandomWalk;
  live.objects =
      std::make_unique<stq::NetworkGenerator>(live.city.get(), object_options);

  stq::QueryGenerator::Options query_options;
  query_options.num_queries = num_queries;
  query_options.side_length = 0.02;
  query_options.seed = 4;
  query_options.route = stq::NetworkGenerator::RouteStrategy::kRandomWalk;
  live.queries =
      std::make_unique<stq::QueryGenerator>(live.city.get(), query_options);

  stq::QueryProcessorOptions options;
  options.grid_cells_per_side = grid_cells;
  live.processor = std::make_unique<stq::QueryProcessor>(options);
  for (const stq::ObjectReport& r : live.objects->InitialReports(0.0)) {
    live.processor->UpsertObject(r.id, r.loc, r.t);
  }
  for (const stq::QueryRegionReport& q : live.queries->InitialRegions(0.0)) {
    live.processor->RegisterRangeQuery(q.id, q.region);
  }
  live.processor->EvaluateTick(0.0);
  return live;
}

void BM_TickByGridResolution(benchmark::State& state) {
  const int grid_cells = static_cast<int>(state.range(0));
  const size_t num_objects = stq_bench::EnvSize("STQ_BENCH_OBJECTS", 20000);
  const size_t num_queries = stq_bench::EnvSize("STQ_BENCH_QUERIES", 20000);
  LiveWorkload live = MakeLiveWorkload(grid_cells, num_objects, num_queries);

  size_t updates = 0;
  for (auto _ : state) {
    state.PauseTiming();
    live.now += 5.0;
    for (const stq::ObjectReport& r : live.objects->Step(live.now, 5.0, 0.3)) {
      live.processor->UpsertObject(r.id, r.loc, r.t);
    }
    for (const stq::QueryRegionReport& q :
         live.queries->Step(live.now, 5.0, 0.3)) {
      live.processor->MoveRangeQuery(q.id, q.region);
    }
    state.ResumeTiming();
    const stq::TickResult tick = live.processor->EvaluateTick(live.now);
    updates += tick.updates.size();
  }
  const stq::GridStats stats =
      live.processor->grid_engine()->grid().ComputeStats();
  state.counters["updates_per_tick"] = benchmark::Counter(
      static_cast<double>(updates), benchmark::Counter::kAvgIterations);
  state.counters["query_stubs"] =
      static_cast<double>(stats.num_query_entries);
  state.counters["max_cell_objects"] =
      static_cast<double>(stats.max_objects_in_cell);
}

}  // namespace

BENCHMARK(BM_TickByGridResolution)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

STQ_BENCHMARK_MAIN()
