#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "stq/common/random.h"
#include "stq/gen/network_generator.h"
#include "stq/gen/query_generator.h"
#include "stq/gen/road_network.h"

namespace perfbench {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;

    WorkloadSpec fig5a;
    fig5a.name = "fig5a-serial";
    fig5a.why =
        "paper Fig. 5a at 20K x 20K on one serial grid: evaluation is most "
        "of each period, so match, answer-set and apply changes show while "
        "shard, storage and adaptive layers idle";
    fig5a.objects = 20000;
    fig5a.queries = 20000;
    fig5a.clients = 2000;
    fig5a.periods_per_second = 15.0;
    w.push_back(fig5a);

    WorkloadSpec paper;
    paper.name = "paper-sharded";
    paper.why =
        "the paper's 100K x 100K scale on 4 shards x 4 workers: route, merge "
        "and the critical-path shard set the period, and session flush and "
        "client apply are a visible serial share";
    paper.objects = 100000;
    paper.queries = 100000;
    paper.clients = 5000;
    paper.shards = 4;
    paper.workers = 4;
    // At least 21 periods, so the tail percentile is above the median.
    paper.periods_per_second = 3.2;
    w.push_back(paper);

    WorkloadSpec durable;
    durable.name = "durable-lossy";
    durable.why =
        "PersistentServer with a synced WAL under 2% drop and 1% delay: WAL "
        "writes beside reads, committed-diff resyncs and heartbeats, while "
        "evaluation stays light";
    durable.objects = 50000;
    durable.queries = 10000;
    durable.clients = 10000;
    durable.query_side = 0.01;
    durable.object_fraction = 1.0;
    durable.query_fraction = 1.0;
    durable.durable = true;
    durable.drop = 0.02;
    durable.delay = 0.01;
    durable.periods_per_second = 4.0;
    w.push_back(durable);

    WorkloadSpec hotspot;
    hotspot.name = "hotspot-adaptive";
    hotspot.why =
        "one drifting Zipf hotspot on an 8x8 adaptive grid, 2 shards with "
        "online rebalancing: the only workload where grid refinement, cell "
        "resolution and shard rebalancing run";
    hotspot.hotspot = true;
    hotspot.objects = 20000;
    hotspot.queries = 2025;  // a 45 x 45 lattice
    hotspot.clients = 1000;
    hotspot.query_fraction = 0.0;  // stationary watchers
    hotspot.grid_cells = 8;
    hotspot.shards = 2;
    hotspot.workers = 2;
    hotspot.adaptive = true;
    hotspot.periods_per_second = 20.0;
    w.push_back(hotspot);
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

namespace {

void Append(const std::vector<stq::ObjectReport>& in,
            std::vector<ObjectMove>* out) {
  for (const stq::ObjectReport& r : in) out->push_back({r.id, r.loc});
}

void Append(const std::vector<stq::QueryRegionReport>& in,
            std::vector<QueryMove>* out) {
  for (const stq::QueryRegionReport& q : in) out->push_back({q.id, q.region});
}

// The paper's setup: network-bound movers on a dense synthetic city
// (road spacing ~0.02) and square queries riding the same network. The
// city is one fixed map, as the paper's is; the seed drives who starts
// where and how they move.
class RoadSource : public Source {
 public:
  RoadSource(const WorkloadSpec& spec, uint64_t seed)
      : spec_(spec),
        city_(stq::RoadNetwork::MakeGridCity(CityOptions())),
        objects_gen_(&city_, ObjectOptions(spec, seed)),
        queries_gen_(&city_, QueryOptions(spec, seed)) {
    Append(objects_gen_.InitialReports(0.0), &objects_);
    Append(queries_gen_.InitialRegions(0.0), &queries_);
  }

 protected:
  void Fill(Period* p) override {
    Append(objects_gen_.Step(p->time, kPeriodSeconds, spec_.object_fraction),
           &p->reports);
    if (spec_.query_fraction > 0.0) {
      Append(queries_gen_.Step(p->time, kPeriodSeconds, spec_.query_fraction),
             &p->moves);
    }
  }

 private:
  static stq::RoadNetwork::GridCityOptions CityOptions() {
    stq::RoadNetwork::GridCityOptions options;
    options.rows = 50;
    options.cols = 50;
    options.seed = 42;
    return options;
  }
  static stq::NetworkGenerator::Options ObjectOptions(const WorkloadSpec& spec,
                                                      uint64_t seed) {
    stq::NetworkGenerator::Options options;
    options.num_objects = spec.objects;
    options.seed = seed;
    options.route = stq::NetworkGenerator::RouteStrategy::kRandomWalk;
    return options;
  }
  static stq::QueryGenerator::Options QueryOptions(const WorkloadSpec& spec,
                                                   uint64_t seed) {
    stq::QueryGenerator::Options options;
    options.num_queries = spec.queries;
    options.side_length = spec.query_side;
    options.moving_fraction = 1.0;
    options.seed = seed ^ 0xC0FFEEull;
    options.route = stq::NetworkGenerator::RouteStrategy::kRandomWalk;
    return options;
  }

  const WorkloadSpec& spec_;
  const stq::RoadNetwork city_;  // the generators point into it
  stq::NetworkGenerator objects_gen_;
  stq::QueryGenerator queries_gen_;
};

// The hot-cold world, SkewedGenerator's Zipf-hotspot scenario with one
// hotspot: the whole population piles onto one drifting hotspot, so
// whichever shard owns it carries nearly all the load and the rebalancer
// has to chase it. Watchers are stationary monitoring zones on a regular
// lattice, so the hotspot meets about as many of them wherever it
// drifts.
// The hotspot's path is fixed, as the road city's map is; the seed
// drives each object's place in the cluster, its jitter and when it
// reports. SkewedGenerator draws the path from the seed too, and the
// path shapes the work: how often the hotspot crosses the cut between
// the two shards sets how often the rebalancer runs (one seed in 20
// tripped about a quarter of the others' rebalances). The path drifts
// mostly along x, across the cut, bouncing off the walls.
class HotspotSource : public Source {
 public:
  HotspotSource(const WorkloadSpec& spec, uint64_t seed)
      : spec_(spec), rng_(seed) {
    anchors_.reserve(spec.objects);
    objects_.reserve(spec.objects);
    for (size_t i = 0; i < spec.objects; ++i) {
      anchors_.push_back(stq::Point{kSigma * rng_.NextGaussian(),
                                    kSigma * rng_.NextGaussian()});
      objects_.push_back({static_cast<stq::ObjectId>(i + 1),
                          Clamp(center_.x + anchors_[i].x,
                                center_.y + anchors_[i].y)});
    }
    const size_t side = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(spec.queries))));
    const double half = spec.query_side / 2.0;
    for (size_t i = 0; i < spec.queries; ++i) {
      const stq::Point c{(static_cast<double>(i % side) + 0.5) / side,
                         (static_cast<double>(i / side) + 0.5) / side};
      queries_.push_back(
          {static_cast<stq::QueryId>(i + 1),
           stq::Rect{c.x - half, c.y - half, c.x + half, c.y + half}});
    }
  }

 protected:
  void Fill(Period* p) override {
    Drift(&center_.x, &velocity_.x);
    Drift(&center_.y, &velocity_.y);
    for (size_t i = 0; i < anchors_.size(); ++i) {
      if (!rng_.NextBool(spec_.object_fraction)) continue;
      const double x =
          center_.x + anchors_[i].x + kJitter * rng_.NextGaussian();
      const double y =
          center_.y + anchors_[i].y + kJitter * rng_.NextGaussian();
      p->reports.push_back({static_cast<stq::ObjectId>(i + 1), Clamp(x, y)});
    }
  }

 private:
  // SkewedGenerator's hot-cold settings: sigma 0.02, drift 0.01 and
  // jitter speed 0.001 per second, at T = 5 s.
  static constexpr double kSigma = 0.02;
  static constexpr double kJitter = 0.001 * kPeriodSeconds;
  static constexpr double kDrift = 0.01 * kPeriodSeconds;  // per period

  static void Drift(double* x, double* v) {
    *x += *v;
    if (*x < 0.0 || *x > 1.0) {
      *v = -*v;
      *x = std::clamp(*x, 0.0, 1.0);
    }
  }
  static stq::Point Clamp(double x, double y) {
    return stq::Point{std::clamp(x, 0.0, 1.0), std::clamp(y, 0.0, 1.0)};
  }

  const WorkloadSpec& spec_;
  stq::Xorshift128Plus rng_;
  std::vector<stq::Point> anchors_;  // each object's offset from the center
  stq::Point center_{0.3, 0.35};
  // 15 degrees off the x axis.
  stq::Point velocity_{kDrift * 0.96592582628906831,
                       kDrift * 0.25881904510234220};
};

}  // namespace

std::unique_ptr<Source> Source::Make(const WorkloadSpec& spec,
                                     uint64_t seed) {
  if (spec.hotspot) return std::make_unique<HotspotSource>(spec, seed);
  return std::make_unique<RoadSource>(spec, seed);
}

}  // namespace perfbench
