// ShardedEngine: the sharded shared-execution engine.
//
// The universe is partitioned into S rectangular shards (ShardMap). Each
// shard is a plain GridEngine — its own GridIndex, object/query/answer
// stores — and runs its incremental tick independently; shards with
// pending work tick in parallel on the engine's ThreadPool. The engine
// implements QueryEngine: QueryProcessor checks and buffers every call
// once and hands each tick's drained batch to the router, which
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
//     single GridEngine's stream, the property the sharded differential
//     tests pin down.
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
// shard's batch to the shard's own UpdateBuffer (the same Add* calls,
// so per-shard coalescing is the front door's), the shard tick itself,
// and building the shard's sorted merge-delta stream — runs inside the
// shard's pool task, claimed via ThreadPool::RunDynamic (work-stealing
// over the touched shards, largest batch first, so a straggler never
// serializes the tick behind a static partition). Whichever worker
// claims a shard owns that shard's GridEngine, buffer and output slots
// exclusively until the join; router maps and scratch are written only by the caller
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

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "stq/common/flat_hash.h"
#include "stq/common/small_vector.h"
#include "stq/common/thread_pool.h"
#include "stq/core/grid_engine.h"
#include "stq/core/knn_evaluator.h"
#include "stq/core/options.h"
#include "stq/core/query_engine.h"
#include "stq/grid/shard_map.h"

namespace stq {

class ShardedEngine final : public QueryEngine {
 public:
  // `options.num_shards` must be >= 2 (QueryProcessor drives a single
  // GridEngine itself).
  explicit ShardedEngine(const QueryProcessorOptions& options);
  ~ShardedEngine() override;  // out of line: TickScratch is incomplete here

  // --- QueryEngine -----------------------------------------------------------
  std::optional<Timestamp> ObjectReportTime(ObjectId id) const override;
  std::optional<QueryKind> StoredQueryKind(QueryId id) const override;
  double CircleRadius(QueryId id) const override;
  void Tick(Timestamp now, const UpdateBatch& batch,
            TickResult* result) override;
  int worker_threads() const override {
    return pool_ == nullptr ? 1 : pool_->num_workers();
  }
  size_t num_objects() const override { return objects_.size(); }
  size_t num_queries() const override { return queries_.size(); }
  Result<std::vector<ObjectId>> CurrentAnswer(QueryId id) const override;
  bool GetAnswerSet(QueryId id, AnswerSet* out) const override;
  // Summed bytes_resident over every shard's live answer sets — covers
  // all shards, ticked or not, so the metric never under-reports.
  size_t AnswerBytesResident() const override;
  Result<std::vector<ObjectId>> EvaluateFromScratch(
      QueryId id) const override;
  // Router-level views (the router's records, not the shards' copies).
  void ForEachObjectInfo(
      // stq-lint: allow(alloc-discipline/function): cold introspection walk
      const std::function<void(const ObjectInfo&)>& fn) const override;
  void ForEachQueryInfo(
      // stq-lint: allow(alloc-discipline/function): cold introspection walk
      const std::function<void(const QueryInfo&)>& fn) const override;

  // --- Sharding --------------------------------------------------------------

  const ShardMap& shard_map() const { return map_; }
  int num_shards() const { return map_.num_shards(); }

  const GridEngine& shard(int s) const { return *shards_[s]; }
  GridEngine& shard_for_testing(int s) { return *shards_[s]; }

  // The shards an entity is currently routed to (ascending). Empty when
  // the id is unknown; a k-NN query routes to no shard (router-owned).
  std::vector<int> ObjectShards(ObjectId id) const;
  std::vector<int> QueryShards(QueryId id) const;

  // Exact global k nearest neighbours of `center`: home-shard search,
  // then expanding-circle re-dispatch to every shard whose rect lies
  // within the current k-th distance. Sorted by (distance^2, id).
  std::vector<KnnEvaluator::Neighbor> SearchKnn(const Point& center,
                                                int k) const;

  // One committed shard-boundary move (adaptive rebalancing). Decisions
  // are a pure function of committed router state at a tick boundary, so
  // every worker count replays the same history — the rebalance
  // differential tests pin this down.
  struct ShardRebalanceEvent {
    int64_t tick_index = 0;  // Tick ordinal (1-based) it ran in
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
  // set changes; RouteHandoffs moves those in the same tick. Runs at the
  // top of the tick, before the batch is routed.
  void MaybeRebalance(Timestamp now, TickStats* stats);

  QueryProcessorOptions options_;
  ShardMap map_;
  std::unique_ptr<ThreadPool> pool_;  // null when worker count is 1
  std::vector<std::unique_ptr<GridEngine>> shards_;
  FlatMap<ObjectId, RoutedObject> objects_;
  FlatMap<QueryId, RoutedQuery> queries_;
  // k-NN queries needing re-evaluation at the next tick (focal point
  // moved or freshly registered; object-driven dirtiness is derived from
  // the tick's report batch).
  FlatSet<QueryId> knn_dirty_;

  // Adaptive rebalancing state. The cell-cut vectors mirror the
  // ShardMap's explicit boundaries in global-grid cell-edge indices
  // (size sx+1 / sy+1); empty while the map is uniform.
  std::vector<int> x_cell_cuts_;
  std::vector<int> y_cell_cuts_;
  std::vector<ShardRebalanceEvent> rebalance_history_;
  int64_t tick_index_ = 0;           // Tick calls so far
  int64_t last_rebalance_tick_ = 0;  // 0 = never; cooldown anchor

  // Tick-scoped scratch reused across ticks; every container
  // is cleared before use, so no state carries over — only capacity does
  // (see DESIGN.md, "Memory layout & allocation discipline"). The
  // MergeEntry/KnnEvent element types are private to the .cc, so the
  // buffers they need are declared there via this opaque holder.
  std::unique_ptr<TickScratch> scratch_;
};

}  // namespace stq

#endif  // STQ_CORE_SHARDED_SERVER_H_
