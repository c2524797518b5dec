// QueryEngine: the evaluation side of the query processor, behind one
// small interface.
//
// QueryProcessor (core/query_processor.h) is the one front door: it
// checks every report and registration once, buffers it in its
// UpdateBuffer, and at each tick hands the drained batch to the engine it
// owns. Two engines implement this interface and produce the same
// byte-identical canonical update stream:
//
//   * GridEngine (core/grid_engine.h) — the paper's single shared grid;
//   * ShardedEngine (core/sharded_server.h) — a router over per-shard
//     GridEngines that tick in parallel.
//
// The interface is what the front door needs and nothing more: the
// committed-state lookups its checks consult, the tick, and the read
// side.

#ifndef STQ_CORE_QUERY_ENGINE_H_
#define STQ_CORE_QUERY_ENGINE_H_

#include <chrono>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "stq/common/result.h"
#include "stq/common/status.h"
#include "stq/core/answer_set.h"
#include "stq/core/query_store.h"
#include "stq/core/types.h"
#include "stq/core/update_buffer.h"
#include "stq/geo/circle.h"

namespace stq {

// Accumulates the enclosing scope's wall time into a TickStats field.
class PhaseTimer {
 public:
  explicit PhaseTimer(double* sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    *sink_ += std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* sink_;
  std::chrono::steady_clock::time_point start_;
};

class QueryEngine {
 public:
  // Engine-independent views over the stored objects and queries.
  // `answer_size` is the committed answer's cardinality.
  struct ObjectInfo {
    ObjectId id = 0;
    Point loc;
    Velocity vel;
    Timestamp t = 0.0;
    bool predictive = false;
  };
  struct QueryInfo {
    QueryId id = 0;
    QueryKind kind = QueryKind::kRange;
    Rect region;
    Circle circle;
    int k = 0;
    double t_from = 0.0;
    double t_to = 0.0;
    size_t answer_size = 0;
  };

  QueryEngine() = default;
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;
  virtual ~QueryEngine() = default;

  // NotFound for an id that names no query.
  static Status UnknownQuery(QueryId id) {
    return Status::NotFound("query " + std::to_string(id) + " unknown");
  }

  // --- Committed-state lookups (what is pending lives in the caller's
  // UpdateBuffer) ----------------------------------------------------------

  // Report time of stored object `id`; nullopt when none is stored.
  virtual std::optional<Timestamp> ObjectReportTime(ObjectId id) const = 0;
  // Kind of stored query `id`; nullopt when none is stored.
  virtual std::optional<QueryKind> StoredQueryKind(QueryId id) const = 0;
  // Radius of stored query `id`, which must be a circle query.
  virtual double CircleRadius(QueryId id) const = 0;

  // --- Tick ----------------------------------------------------------------

  // Applies one period's coalesced reports and appends the tick's
  // canonical update stream to result->updates, adding phase times and
  // counters to result->stats. The caller clears `result` first and fills
  // in the fields that do not depend on the engine (time, update counts,
  // bytes_resident, heap_allocations).
  virtual void Tick(Timestamp now, const UpdateBatch& batch,
                    TickResult* result) = 0;

  // --- Read side -----------------------------------------------------------

  // Resolved worker count of the parallel tick phases (>= 1).
  virtual int worker_threads() const = 0;
  virtual size_t num_objects() const = 0;
  virtual size_t num_queries() const = 0;
  // The committed answer of `id`, sorted by object id.
  virtual Result<std::vector<ObjectId>> CurrentAnswer(QueryId id) const = 0;
  // The committed answer as a set; false when the query is unknown.
  virtual bool GetAnswerSet(QueryId id, AnswerSet* out) const = 0;
  // Summed bytes_resident of every live answer set.
  virtual size_t AnswerBytesResident() const = 0;
  // The answer of `id` recomputed from first principles, bypassing all
  // incremental state; sorted by object id.
  virtual Result<std::vector<ObjectId>> EvaluateFromScratch(
      QueryId id) const = 0;
  // Cold introspection walks (iteration order unspecified).
  virtual void ForEachObjectInfo(
      // stq-lint: allow(alloc-discipline/function): cold introspection walk
      const std::function<void(const ObjectInfo&)>& fn) const = 0;
  virtual void ForEachQueryInfo(
      // stq-lint: allow(alloc-discipline/function): cold introspection walk
      const std::function<void(const QueryInfo&)>& fn) const = 0;
};

}  // namespace stq

#endif  // STQ_CORE_QUERY_ENGINE_H_
