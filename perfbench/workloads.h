// The benchmark's workloads and their seeded input generator.
//
// A workload is one configuration of the server stack plus the traffic
// that drives it. Inputs are generated from the seed (the "gen" layer,
// never counted as program time): the initial objects and queries up
// front, then each period's object reports and query moves just before
// that period, into one reused buffer, so the inputs held in memory do
// not grow with the run's length. The program only ever sees the
// generated reports.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stq/common/ids.h"
#include "stq/geo/point.h"
#include "stq/geo/rect.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  const char* why;
  // The one-drifting-hotspot world instead of the road network.
  bool hotspot = false;
  size_t objects = 0;
  size_t queries = 0;
  size_t clients = 0;  // queries are spread round-robin over the clients
  double query_side = 0.02;
  double object_fraction = 0.5;  // share of objects reporting per period
  double query_fraction = 0.1;   // share of queries moving per period
  int grid_cells = 64;
  int shards = 1;
  int workers = 1;  // capped at the host's hardware concurrency
  bool adaptive = false;  // grid refinement plus shard rebalancing
  // PersistentServer on the default (POSIX) Env, WAL synced every tick.
  bool durable = false;
  // Seeded FaultInjectionTransport chaos; both zero means
  // PerfectTransport.
  double drop = 0.0;
  double delay = 0.0;
  // Timed periods per second of --seconds. The period count is fixed by
  // (seconds, rate) rather than by a deadline, so one seed always runs
  // the same periods and its stream CRC and byte counts repeat exactly.
  // Calibrated so a run measures about --seconds on a 4-core x86-64 host.
  double periods_per_second = 1.0;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct ObjectMove {
  stq::ObjectId id = 0;
  stq::Point loc;
};

struct QueryMove {
  stq::QueryId id = 0;
  stq::Rect region;
};

struct Period {
  double time = 0.0;
  std::vector<ObjectMove> reports;
  std::vector<QueryMove> moves;
};

constexpr double kPeriodSeconds = 5.0;  // T, the paper's evaluation period

// The seeded input stream of one workload. The same seed gives the same
// initial world and the same sequence of periods.
class Source {
 public:
  static std::unique_ptr<Source> Make(const WorkloadSpec& spec, uint64_t seed);
  virtual ~Source() = default;

  const std::vector<ObjectMove>& objects() const { return objects_; }
  const std::vector<QueryMove>& queries() const { return queries_; }  // 1..n

  // Replaces *p with the next period, reusing its buffers.
  void Next(Period* p) {
    p->time = static_cast<double>(++periods_) * kPeriodSeconds;
    p->reports.clear();
    p->moves.clear();
    Fill(p);
  }

 protected:
  virtual void Fill(Period* p) = 0;

  std::vector<ObjectMove> objects_;  // initial placements, at time 0
  std::vector<QueryMove> queries_;   // initial regions

 private:
  size_t periods_ = 0;
};

// The client a query's results are bound to.
inline stq::ClientId OwnerOf(const WorkloadSpec& spec, stq::QueryId qid) {
  return static_cast<stq::ClientId>((qid - 1) % spec.clients + 1);
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
