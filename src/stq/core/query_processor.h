// QueryProcessor: the public API of the scalable, incremental continuous
// spatio-temporal query processing framework (the paper's contribution).
//
// Usage:
//   stq::QueryProcessorOptions opts;             // grid size, bounds, ...
//   stq::QueryProcessor qp(opts);
//   qp.UpsertObject(7, {0.3, 0.4}, /*t=*/0.0);   // sampled moving object
//   qp.RegisterRangeQuery(1, stq::Rect{0.2, 0.2, 0.5, 0.5});
//   stq::TickResult r = qp.EvaluateTick(/*now=*/5.0);
//   // r.updates == {(Q1, +p7)}
//
// Reports from objects and queries are *buffered* (UpdateBuffer) and
// evaluated in bulk at each EvaluateTick, which returns only the positive
// and negative deltas against the previously reported answers. Between
// ticks, per-id reports coalesce (last-wins).
//
// Supported query classes (all continuous, stationary or moving):
//   - rectangular range queries over present positions,
//   - k-nearest-neighbor queries of a focal point,
//   - predictive range queries over a future time window, matched against
//     linear trajectories of velocity-reporting objects.
//
// One front door, two engines. Every call is checked here, once — finite
// inputs, the stale-report rule, clamping, registration and kind rules —
// and buffered in the one UpdateBuffer. At each tick the drained batch
// goes to the engine the options select, through the QueryEngine
// interface (core/query_engine.h): a GridEngine (core/grid_engine.h) when
// options.num_shards == 1, a ShardedEngine (core/sharded_server.h) over
// per-shard GridEngines otherwise. Both emit the same byte-identical
// update stream.
//
// Thread-compatible; callers serialize access. Internally, a tick fans
// its read-only matching and k-NN search work (or, sharded, the shard
// ticks) out across options.worker_threads workers and replays the
// results serially, so the update stream is byte-identical for every
// worker count (see DESIGN.md, "Threading model").

#ifndef STQ_CORE_QUERY_PROCESSOR_H_
#define STQ_CORE_QUERY_PROCESSOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "stq/common/result.h"
#include "stq/common/status.h"
#include "stq/core/history_store.h"
#include "stq/core/options.h"
#include "stq/core/query_engine.h"
#include "stq/core/update_buffer.h"

namespace stq {

class GridEngine;
class ShardedEngine;

class QueryProcessor {
 public:
  explicit QueryProcessor(const QueryProcessorOptions& options = {});
  ~QueryProcessor();

  QueryProcessor(const QueryProcessor&) = delete;
  QueryProcessor& operator=(const QueryProcessor&) = delete;

  // --- Object reports (buffered until the next EvaluateTick) --------------

  // Upserts a sampled (non-predictive) object at `loc`, reported at time
  // `t`. Rejects reports older than the object's latest known report.
  // The bounded space is the universe: locations outside options().bounds
  // are clamped onto its border (a device outside the service area is
  // snapped to the fence).
  Status UpsertObject(ObjectId id, const Point& loc, Timestamp t);

  // Upserts a predictive object: at time `t` it was at `loc` moving with
  // constant velocity `vel`.
  Status UpsertPredictiveObject(ObjectId id, const Point& loc,
                                const Velocity& vel, Timestamp t);

  // Removes an object; its memberships are shipped as negative updates at
  // the next tick.
  Status RemoveObject(ObjectId id);

  // --- Query registration and movement (buffered) -------------------------

  // A new query's initial answer arrives as positive updates in the next
  // TickResult (continuous-query semantics: the answer stream starts
  // empty). Regions are clamped to options().bounds — the bounded space
  // is the universe, so the part of a region hanging outside it can never
  // match; a region entirely outside is rejected.
  Status RegisterRangeQuery(QueryId id, const Rect& region);
  Status MoveRangeQuery(QueryId id, const Rect& region);

  Status RegisterKnnQuery(QueryId id, const Point& center, int k);
  Status MoveKnnQuery(QueryId id, const Point& center);

  // Circular range query: all objects within `radius` of `center` (a
  // closed disk). The radius is fixed at registration; moves change the
  // center. The disk's bounding box must overlap the space bounds.
  Status RegisterCircleQuery(QueryId id, const Point& center, double radius);
  Status MoveCircleQuery(QueryId id, const Point& center);

  // `t_from` <= `t_to` are absolute times. The engine matches trajectories
  // only up to options().prediction_horizon seconds past each object's
  // last report.
  Status RegisterPredictiveQuery(QueryId id, const Rect& region,
                                 double t_from, double t_to);
  Status MovePredictiveQuery(QueryId id, const Rect& region);

  // Drops the query silently (no negative updates; the client abandoned
  // the answer).
  Status UnregisterQuery(QueryId id);

  // --- Evaluation ----------------------------------------------------------

  // Applies all buffered reports and returns the incremental update
  // stream, canonically ordered. `now` should be non-decreasing across
  // calls.
  TickResult EvaluateTick(Timestamp now);

  // As EvaluateTick, but writes into `result`, whose buffers are cleared
  // (capacity kept) and refilled, so a caller ticking in a loop stops
  // allocating update vectors at steady state.
  void EvaluateTickInto(Timestamp now, TickResult* result);

  // --- Introspection --------------------------------------------------------

  const QueryProcessorOptions& options() const { return options_; }
  // True when the processor drives the sharded engine
  // (options().num_shards > 1).
  bool sharded() const { return sharded_engine_ != nullptr; }
  // The engine the processor drives: exactly one of the two is non-null.
  // Their structures (stores, grids, shards) are reached through them.
  const GridEngine* grid_engine() const { return grid_engine_.get(); }
  const ShardedEngine* sharded_engine() const {
    return sharded_engine_.get();
  }
  // Resolved worker count for the parallel tick phases (>= 1; equals
  // options().worker_threads unless that was 0 = auto).
  int worker_threads() const { return engine_->worker_threads(); }
  size_t num_objects() const { return engine_->num_objects(); }
  size_t num_queries() const { return engine_->num_queries(); }
  size_t pending_reports() const {
    return buffer_.pending_object_ops() + buffer_.pending_query_ops();
  }
  // The accepted reports the next tick will apply, coalesced per id. The
  // state the engine holds after that tick is its current state with
  // these laid over it (see CapturePersistedState).
  const UpdateBuffer& pending_updates() const { return buffer_; }
  bool HasQuery(QueryId id) const {
    return engine_->StoredQueryKind(id).has_value();
  }

  // Engine-independent views over the stored objects and queries
  // (iteration order is unspecified; sort by id for deterministic
  // output). `answer_size` is the committed answer's cardinality.
  using ObjectInfo = QueryEngine::ObjectInfo;
  using QueryInfo = QueryEngine::QueryInfo;
  // Cold introspection walks (persistence capture, invariant audits).
  // Type erasure keeps the engine internals out of callers' headers, and
  // the wrap cost is paid once per walk, never per element.
  void ForEachObjectInfo(
      // stq-lint: allow(alloc-discipline/function): cold introspection walk
      const std::function<void(const ObjectInfo&)>& fn) const {
    engine_->ForEachObjectInfo(fn);
  }
  void ForEachQueryInfo(
      // stq-lint: allow(alloc-discipline/function): cold introspection walk
      const std::function<void(const QueryInfo&)>& fn) const {
    engine_->ForEachQueryInfo(fn);
  }

  // The answer currently reported for `id` (sorted by object id).
  Result<std::vector<ObjectId>> CurrentAnswer(QueryId id) const {
    return engine_->CurrentAnswer(id);
  }

  // The committed answer as a set; false when the query is unknown.
  bool GetAnswerSet(QueryId id, AnswerSet* out) const {
    return engine_->GetAnswerSet(id, out);
  }

  // Summed bytes_resident of every live per-query answer set (see
  // core/answer_set.h); also published as TickStats::bytes_resident at
  // the end of every tick.
  size_t AnswerBytesResident() const {
    return engine_->AnswerBytesResident();
  }

  // Recomputes the answer of `id` from first principles, bypassing all
  // incremental state (linear scan / brute-force k-NN). Ground truth for
  // tests and baselines.
  Result<std::vector<ObjectId>> EvaluateFromScratch(QueryId id) const {
    return engine_->EvaluateFromScratch(id);
  }

  // Verifies every engine invariant by running a full InvariantAuditor
  // pass (answer/QList symmetry, grid/store agreement, every stored
  // answer equals its from-scratch recomputation). Intended for tests;
  // call only when no reports are pending. O(objects x queries).
  Status CheckInvariants() const;

  // --- Test support ---------------------------------------------------------
  // Mutable access to the engine, for corruption-injection tests that
  // verify the InvariantAuditor catches seeded divergences. Never used by
  // the processor itself.
  GridEngine* grid_engine_for_testing() { return grid_engine_.get(); }
  ShardedEngine* sharded_engine_for_testing() {
    return sharded_engine_.get();
  }

  // --- Querying the past (requires options().record_history) ---------------

  // The retained report history, or nullptr when history recording is
  // off.
  const HistoryStore* history() const { return history_.get(); }

  // Snapshot range query as of past instant `t` (sample-and-hold over the
  // recorded reports). Only reports already applied by a tick are
  // visible. FailedPrecondition when history recording is off.
  Result<std::vector<ObjectId>> EvaluatePastRangeQuery(const Rect& region,
                                                       Timestamp t) const;

 private:
  // Query regions are clamped to the space bounds (see RegisterRangeQuery).
  Rect ClampRegion(const Rect& region) const;
  // Object locations are clamped into the space (see UpsertObject).
  Point ClampLocation(const Point& loc) const;

  // Whether a report at `t` is older than the object's latest report,
  // pending or stored (the stale-report rule).
  bool IsStale(ObjectId id, Timestamp t) const;
  // Buffer `c` once the rules that need the engine's state pass: a
  // registration needs a free id, a move (c's default kind) a query of
  // `kind` that exists once the buffer drains — and a moved circle must
  // keep overlapping the space.
  Status AddRegistration(const PendingQueryChange& c);
  Status AddMove(const PendingQueryChange& c, QueryKind kind);

  QueryProcessorOptions options_;
  std::unique_ptr<HistoryStore> history_;  // null unless record_history
  UpdateBuffer buffer_;
  // The drained batch of the current tick; reused across ticks so its
  // capacity survives.
  UpdateBatch batch_;
  // Exactly one engine exists; engine_ points at it.
  std::unique_ptr<GridEngine> grid_engine_;
  std::unique_ptr<ShardedEngine> sharded_engine_;
  QueryEngine* engine_ = nullptr;
  Timestamp last_tick_time_ = 0.0;
};

}  // namespace stq

#endif  // STQ_CORE_QUERY_PROCESSOR_H_
