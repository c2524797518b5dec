// ShardedEngine: the sharded shared-execution engine.
//
// The universe is partitioned into S rectangular shards (ShardMap). Each
// shard owns a complete single-grid QueryProcessor — its own GridIndex,
// object/query/answer stores — and runs its incremental tick
// independently; shards with pending work tick in parallel on the
// engine's ThreadPool. A router in front of the shards:
//
//   * routes incoming object updates and query regions to the minimal
//     set of shards that can ever observe them (the paper's
//     cell-clipping rule at shard granularity, tightened to seam-band
//     replication): a sampled object lives in exactly its home shard; a
//     predictive object is replicated only into shards its exact
//     trajectory segment passes through (not the segment's bounding
//     box, which over-replicates diagonal movers into corner shards); a
//     range/predictive query registers in every shard its (clamped)
//     region overlaps, and a circle query only in shards its disk
//     actually reaches. Every shard engine's grid spans the whole
//     universe at the global cell count and holds only the shard's own
//     objects, so a shard answers exactly over what it holds, whatever
//     the cuts;
//   * deduplicates the per-shard positive/negative update streams with a
//     per-(query, object) reference count, held in each query's routing
//     record: a global update is emitted only when the count transitions
//     0 <-> positive, so an object handed from one shard to another (a
//     cancelling -/+ pair) or matched by several replicas yields no
//     spurious updates. Each shard's stream is already sorted by
//     (query, object), so the merge cuts the query-id space into chunks
//     at query boundaries and runs the chunks on the worker pool: each
//     chunk k-way merges its slice of every shard stream, applies the
//     refcount transitions of its own queries and writes its own output;
//   * concatenates the chunk outputs in query order, which is already the
//     canonical order of CanonicalizeUpdates — byte-identical to the
//     single-grid QueryProcessor's stream, the property the sharded
//     differential tests pin down.
//
// Answers are read straight from the shards: a query's committed answer
// is the union of its shards' answer sets.
//
// k-NN queries are evaluated at the router: the home shard (the one
// containing the focal point) answers first, and the answer circle's
// radius bounds an expanding-circle re-dispatch to every other shard
// whose rect intersects the circle (the paper's k-NN-as-circle-range
// trick, across shards); each shard's ring walk is clipped to its slab.
// Per-shard engines therefore hold no k-NN state.
//
// Adaptive rebalancing moves the cuts between shards at the top of a
// tick and hands off, inside that same tick, only the objects and
// queries whose shard set the move changes: a handoff is an ordinary
// seam crossing (removal or capture in the old shard, upsert or
// registration in the new one), run in the parallel shard phase.
//
// See DESIGN.md, "Sharded execution", for the determinism argument.
//
// Concurrency contract: shard state carries no locks by design. The
// tick's serial route phase only computes routing decisions and records
// per-shard operation batches; the expensive work — applying each
// shard's batch (ingestion), the shard tick itself, and building the
// shard's sorted merge-delta stream — runs inside the shard's pool
// task, claimed via ThreadPool::RunDynamic (work-stealing over the
// touched shards, largest batch first, so a straggler never serializes
// the tick behind a static partition). Whichever worker claims a shard
// owns that shard's QueryProcessor and output slots exclusively until
// the join; router maps and scratch are written only by the caller
// thread between forks, and the parallel tasks read them strictly
// read-only. The fork and join barriers inside ThreadPool::RunShards
// (which RunDynamic is built on) run under the pool's annotated
// stq::Mutex, so every per-shard write made by a worker happens-before
// the router's merge that follows the call. The chunked merge reuses the
// same contract: each chunk is merged by exactly one worker, which writes
// only its own queries' refcounts and its own output buffer; no thread
// inserts into or erases from the router maps while it runs. The
// capability annotations live where the sharing actually happens:
// common/thread_pool.h. See DESIGN.md, "Static analysis & concurrency
// contracts".

#ifndef STQ_CORE_SHARDED_SERVER_H_
#define STQ_CORE_SHARDED_SERVER_H_

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "stq/common/flat_hash.h"
#include "stq/common/result.h"
#include "stq/common/small_vector.h"
#include "stq/common/status.h"
#include "stq/common/thread_pool.h"
#include "stq/core/history_store.h"
#include "stq/core/knn_evaluator.h"
#include "stq/core/options.h"
#include "stq/core/query_processor.h"
#include "stq/core/types.h"
#include "stq/core/update_buffer.h"
#include "stq/grid/shard_map.h"

namespace stq {

class ShardedEngine {
 public:
  // `options.num_shards` must be >= 2 (QueryProcessor handles 1 itself).
  explicit ShardedEngine(const QueryProcessorOptions& options);
  ~ShardedEngine();  // out of line: TickScratch is incomplete here

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // --- Mirror of the QueryProcessor ingestion API ---------------------------
  // Same buffering, coalescing, clamping and validation semantics; both
  // engines accept/reject every call identically (the differential tests
  // rely on this to keep workloads in lockstep).

  Status UpsertObject(ObjectId id, const Point& loc, Timestamp t);
  Status UpsertPredictiveObject(ObjectId id, const Point& loc,
                                const Velocity& vel, Timestamp t);
  Status RemoveObject(ObjectId id);

  Status RegisterRangeQuery(QueryId id, const Rect& region);
  Status MoveRangeQuery(QueryId id, const Rect& region);
  Status RegisterKnnQuery(QueryId id, const Point& center, int k);
  Status MoveKnnQuery(QueryId id, const Point& center);
  Status RegisterCircleQuery(QueryId id, const Point& center, double radius);
  Status MoveCircleQuery(QueryId id, const Point& center);
  Status RegisterPredictiveQuery(QueryId id, const Rect& region, double t_from,
                                 double t_to);
  Status MovePredictiveQuery(QueryId id, const Rect& region);
  Status UnregisterQuery(QueryId id);

  TickResult EvaluateTick(Timestamp now);
  // As EvaluateTick, but reuses `result`'s buffers (cleared, capacity
  // kept) — the facade's steady-state entry point.
  void EvaluateTickInto(Timestamp now, TickResult* result);

  // --- Introspection --------------------------------------------------------

  const QueryProcessorOptions& options() const { return options_; }
  const ShardMap& shard_map() const { return map_; }
  int num_shards() const { return map_.num_shards(); }
  int worker_threads() const {
    return pool_ == nullptr ? 1 : pool_->num_workers();
  }
  size_t num_objects() const { return objects_.size(); }
  size_t num_queries() const { return queries_.size(); }
  size_t pending_reports() const {
    return buffer_.pending_object_ops() + buffer_.pending_query_ops();
  }
  bool HasQuery(QueryId id) const { return queries_.contains(id); }

  const QueryProcessor& shard(int s) const { return *shards_[s]; }
  QueryProcessor& shard_for_testing(int s) { return *shards_[s]; }

  // The shards an entity is currently routed to (ascending). Empty when
  // the id is unknown; a k-NN query routes to no shard (router-owned).
  std::vector<int> ObjectShards(ObjectId id) const;
  std::vector<int> QueryShards(QueryId id) const;

  Result<std::vector<ObjectId>> CurrentAnswer(QueryId id) const;
  bool GetAnswerSet(QueryId id, AnswerSet* out) const;
  // Summed bytes_resident over every shard's live answer sets — covers
  // all shards, ticked or not, so the metric never under-reports.
  size_t AnswerBytesResident() const;
  Result<std::vector<ObjectId>> EvaluateFromScratch(QueryId id) const;

  // Router-level views matching QueryProcessor::ForEach*Info (iteration
  // order unspecified; qlist_size is 0 — QLists live in the shards).
  void ForEachObjectInfo(
      // stq-lint: allow(alloc-discipline/function): cold introspection walk
      const std::function<void(const QueryProcessor::ObjectInfo&)>& fn) const;
  void ForEachQueryInfo(
      // stq-lint: allow(alloc-discipline/function): cold introspection walk
      const std::function<void(const QueryProcessor::QueryInfo&)>& fn) const;

  // Exact global k nearest neighbours of `center`: home-shard search,
  // then expanding-circle re-dispatch to every shard whose rect lies
  // within the current k-th distance. Sorted by (distance^2, id).
  std::vector<KnnEvaluator::Neighbor> SearchKnn(const Point& center,
                                                int k) const;

  const HistoryStore* history() const { return history_.get(); }
  Result<std::vector<ObjectId>> EvaluatePastRangeQuery(const Rect& region,
                                                       Timestamp t) const;

  // One committed shard-boundary move (adaptive rebalancing). Decisions
  // are a pure function of committed router state at a tick boundary, so
  // every worker count replays the same history — the rebalance
  // differential tests pin this down.
  struct ShardRebalanceEvent {
    int64_t tick_index = 0;  // EvaluateTick ordinal (1-based) it ran in
    Timestamp time = 0.0;    // the tick's `now`
    std::vector<double> x_edges;
    std::vector<double> y_edges;
    size_t moved_objects = 0;  // objects whose shard set changed
  };
  const std::vector<ShardRebalanceEvent>& rebalance_history() const {
    return rebalance_history_;
  }

  // Cross-shard invariants, appended to `violations` (up to
  // `max_violations` total). Used by InvariantAuditor on top of the
  // per-shard audits:
  //   * the shard map is valid and every shard grid covers the universe
  //     at the global cell count;
  //   * every non-k-NN query's answer (OList) union over its shards
  //     equals the router's committed answer, with per-shard multiplicity
  //     exactly matching the router's reference counts;
  //   * no object is double-counted: each object is present in exactly
  //     the shards the routing rule assigns it (one home shard for
  //     sampled objects), with matching stored state;
  //   * every shard-registered query is routed there and vice versa;
  //   * every k-NN answer equals its from-scratch cross-shard search.
  void AuditCrossShard(size_t max_violations,
                       std::vector<std::string>* violations) const;

 private:
  // The routing fan-out of one entity; a handful of shard indices at
  // most, so it lives inline in the record.
  using ShardList = SmallVector<int, 4>;

  struct RoutedObject {
    Point loc;
    Velocity vel;
    Timestamp t = 0.0;
    bool predictive = false;
    ShardList shards;  // ascending; a singleton unless predictive
  };

  struct RoutedQuery {
    QueryKind kind = QueryKind::kRange;
    Rect region;    // kRange / kPredictiveRange
    Circle circle;  // kKnn (center; radius unused) / kCircleRange
    int k = 0;
    double t_from = 0.0;
    double t_to = 0.0;
    ShardList shards;  // ascending; empty for kKnn
    // kKnn only: the committed answer and the exact squared distance to
    // the k-th neighbour (+inf while fewer than k objects exist).
    std::vector<ObjectId> knn_answer;
    double knn_dist2 = std::numeric_limits<double>::infinity();
    // Non-k-NN only: how many of the query's shards report each member.
    // The committed answer is exactly the keys (counts are positive).
    FlatMap<ObjectId, int> counts;
  };

  // Ingestion mirrors (same semantics as QueryProcessor's privates).
  double LatestKnownReportTime(ObjectId id) const;
  Point ClampLocation(const Point& loc) const;
  Rect ClampRegion(const Rect& region) const;
  Status ValidateQueryRegistration(QueryId id) const;
  Result<QueryKind> EffectiveQueryKind(QueryId id) const;

  // The shards `rq` should route to given its current geometry (cleared
  // and refilled; out-params so steady-state routing reuses capacity).
  void RouteShardsOf(const RoutedQuery& rq, ShardList* out) const;
  // The shards a (pending) object report routes to.
  void RouteShardsOfObject(const PendingObjectUpsert& u, ShardList* out) const;

  // Calls fn(id) for every member of non-k-NN query `id`'s committed
  // answer, ascending: the union of its shards' answer sets.
  template <typename Fn>
  void ForEachAnswerMember(QueryId id, const RoutedQuery& rq, Fn&& fn) const;

  struct TickScratch;

  // The committed state of a routed object, as a report.
  static PendingObjectUpsert CommittedReport(ObjectId id,
                                             const RoutedObject& ro);
  // Route-phase helpers. Each routes an entity to the shards its current
  // geometry reaches, against the shards that hold it now (ro->shards /
  // rq->shards, empty for a new entity), recording the shard ops in the
  // tick scratch and installing the new shard set. A shard the entity
  // arrives in gets an upsert or registration, a shard it departs a
  // removal or an answer capture plus unregistration; a kept shard gets
  // the upsert or move again only when `resend_kept` (a report or query
  // change), not for a handoff, whose kept copies are already current.
  void RouteObject(const PendingObjectUpsert& u, RoutedObject* ro,
                   bool resend_kept);
  void RouteQuery(QueryId id, RoutedQuery* rq, bool resend_kept);
  // Routes the entities MaybeRebalance listed for handoff this tick.
  void RouteHandoffs();
  // Adaptive shard rebalancing: when the committed home-shard load is
  // imbalanced past options_.adaptive.rebalance_imbalance, recompute
  // cell-aligned slab boundaries from the marginal load histograms,
  // install them, and list every object and non-k-NN query whose shard
  // set changes and that has no pending op this tick; RouteHandoffs
  // moves those in the same tick. Runs at the top of the tick, before
  // the pending report batch is drained.
  void MaybeRebalance(Timestamp now, TickStats* stats);

  QueryProcessorOptions options_;
  ShardMap map_;
  std::unique_ptr<HistoryStore> history_;  // null unless record_history
  std::unique_ptr<ThreadPool> pool_;       // null when worker count is 1
  std::vector<std::unique_ptr<QueryProcessor>> shards_;
  UpdateBuffer buffer_;
  FlatMap<ObjectId, RoutedObject> objects_;
  FlatMap<QueryId, RoutedQuery> queries_;
  // k-NN queries needing re-evaluation at the next tick (focal point
  // moved or freshly registered; object-driven dirtiness is derived from
  // the tick's report batch).
  FlatSet<QueryId> knn_dirty_;
  Timestamp last_tick_time_ = 0.0;

  // Adaptive rebalancing state. The cell-cut vectors mirror the
  // ShardMap's explicit boundaries in global-grid cell-edge indices
  // (size sx+1 / sy+1); empty while the map is uniform.
  std::vector<int> x_cell_cuts_;
  std::vector<int> y_cell_cuts_;
  std::vector<ShardRebalanceEvent> rebalance_history_;
  int64_t tick_index_ = 0;           // EvaluateTick calls so far
  int64_t last_rebalance_tick_ = 0;  // 0 = never; cooldown anchor

  // Tick-scoped scratch reused across EvaluateTick calls; every container
  // is cleared before use, so no state carries over — only capacity does
  // (see DESIGN.md, "Memory layout & allocation discipline"). The
  // MergeEntry/KnnEvent element types are private to the .cc, so the
  // buffers they need are declared there via this opaque holder.
  std::unique_ptr<TickScratch> scratch_;
};

}  // namespace stq

#endif  // STQ_CORE_SHARDED_SERVER_H_
