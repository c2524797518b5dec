// GridEngine: the paper's single shared grid — one GridIndex, the object
// and query stores, the incremental evaluators and the tick phases.
//
// QueryProcessor drives a GridEngine when options.num_shards == 1, and
// ShardedEngine runs one GridEngine per shard. Either way the engine sees
// only checked, coalesced batches (see core/query_engine.h): it validates
// nothing itself.
//
// Tick phases (see DESIGN.md, "Threading model"): removals, upserts and
// query changes bring the stores and the grid up to date; the query pass
// evaluates changed regions; the object pass matches movers in parallel
// (read-only, per-worker delta lists) and replays the deltas serially in
// worker order; dirty k-NN queries are searched in parallel and applied
// serially; the stream is canonicalized; an adaptive grid then refines
// on the committed state. The update stream is byte-identical for every
// worker count.

#ifndef STQ_CORE_GRID_ENGINE_H_
#define STQ_CORE_GRID_ENGINE_H_

#include <memory>
#include <utility>
#include <vector>

#include "stq/common/thread_pool.h"
#include "stq/core/circle_evaluator.h"
#include "stq/core/engine_state.h"
#include "stq/core/knn_evaluator.h"
#include "stq/core/options.h"
#include "stq/core/predictive_evaluator.h"
#include "stq/core/query_engine.h"
#include "stq/core/range_evaluator.h"

namespace stq {

class GridRefiner;

class GridEngine final : public QueryEngine {
 public:
  explicit GridEngine(const QueryProcessorOptions& options);
  ~GridEngine() override;

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
  size_t AnswerBytesResident() const override;
  Result<std::vector<ObjectId>> EvaluateFromScratch(
      QueryId id) const override;
  void ForEachObjectInfo(
      // stq-lint: allow(alloc-discipline/function): cold introspection walk
      const std::function<void(const ObjectInfo&)>& fn) const override;
  void ForEachQueryInfo(
      // stq-lint: allow(alloc-discipline/function): cold introspection walk
      const std::function<void(const QueryInfo&)>& fn) const override;

  // --- Grid-specific ---------------------------------------------------------

  const ObjectStore& object_store() const { return objects_; }
  const QueryStore& query_store() const { return queries_; }
  const GridIndex& grid() const { return *grid_; }

  // Exact k nearest neighbours of `center` over the stored objects,
  // sorted by (distance^2, id). Empty when k < 1. `within` restricts the
  // grid walk to the cells overlapping it (a shard passes its slab; see
  // KnnEvaluator::Search).
  std::vector<KnnEvaluator::Neighbor> SearchKnn(
      const Point& center, int k, const Rect* within = nullptr) const;

  // Mutable access to the internal structures, for corruption-injection
  // tests that verify the InvariantAuditor (and the sharded router's
  // consistency checks) catch seeded divergences. Never used by the
  // engine itself.
  ObjectStore& object_store_for_testing() { return objects_; }
  QueryStore& query_store_for_testing() { return queries_; }
  GridIndex& grid_for_testing() { return *grid_; }

 private:
  // Tick phases. Each appends to `out` and updates `stats`.
  void ApplyObjectRemovals(const std::vector<ObjectId>& removals,
                           std::vector<Update>* out, TickStats* stats);
  void ApplyObjectUpserts(const std::vector<PendingObjectUpsert>& upserts,
                          std::vector<ObjectId>* moved, TickStats* stats);
  // Fully removes a query record: scrubs member QLists, drops grid stubs,
  // erases the record.
  void DropQueryRecord(QueryId id, TickStats* stats);
  void ApplyQueryChanges(const std::vector<PendingQueryChange>& changes,
                         Timestamp now,
                         std::vector<std::pair<QueryId, Rect>>* changed_rects,
                         std::vector<QueryId>* moved_circles,
                         TickStats* stats);
  void RunQueryPass(const std::vector<std::pair<QueryId, Rect>>& changed,
                    const std::vector<QueryId>& moved_circles,
                    std::vector<Update>* out);
  void RunObjectPass(const std::vector<ObjectId>& moved,
                     std::vector<Update>* out, TickStats* stats);

  // The object pass, split for shared-nothing parallelism:
  //
  //   match  (parallel)  each shard scans its slice of `moved` against
  //                      the grid and the stores — strictly read-only —
  //                      and records membership deltas and k-NN dirty
  //                      marks in its own MatchOutput;
  //   apply  (serial)    the deltas replay through SetMembership in
  //                      shard order, which is exactly the order the
  //                      serial pass would have produced.
  //
  // A delta's sign is decided purely by geometry (Satisfies) against the
  // pre-pass state, so the replay is idempotent per (query, object) and
  // the resulting update stream is byte-identical for any worker count.
  struct MatchDelta {
    QueryId qid = 0;
    ObjectId oid = 0;
    bool add = false;
  };
  // One sampled mover's positive-side probe in the batch object pass:
  // its grid slot key plus the gathered state, so the slot-grouped kernel
  // loop never re-touches the object store.
  struct SlotProbe {
    uint64_t slot = 0;
    ObjectId oid = 0;
    double x = 0.0;
    double y = 0.0;
    double t = 0.0;
  };
  struct MatchOutput {
    std::vector<MatchDelta> deltas;
    std::vector<QueryId> knn_dirty;
    // Per-shard candidate scratch for CollectQueriesInRect; lives here so
    // its capacity survives across ticks with the rest of the output.
    std::vector<QueryId> candidates;
    // Batch-mode scratch: per-slot probe list and the SoA kernel batch.
    std::vector<SlotProbe> probes;
    CandidateBatch batch;

    void clear() {
      deltas.clear();
      knn_dirty.clear();
      candidates.clear();
      probes.clear();
      batch.clear();
    }
  };
  void MatchObjectShard(const std::vector<ObjectId>& moved, size_t begin,
                        size_t end, MatchOutput* out) const;
  // The batch positive side of MatchObjectShard: sorts the shard's probes
  // by (slot, id) and runs one predicate kernel per (slot, candidate
  // query) pair over the slot's SoA batch.
  void MatchProbeBatches(MatchOutput* out) const;
  void ApplyMatchDeltas(std::vector<MatchOutput>& outputs,
                        std::vector<Update>* out);

  // Tick-scoped scratch buffers, owned by the engine and reused across
  // ticks so a steady-state tick performs no per-element allocation
  // (capacities converge to the workload's high-water mark; see
  // DESIGN.md, "Memory layout & allocation discipline"). Cleared at the
  // start of each use — no state carries across ticks.
  struct TickScratch {
    std::vector<ObjectId> moved;
    std::vector<std::pair<QueryId, Rect>> changed_rects;
    std::vector<QueryId> moved_circles;
    // One MatchOutput per matching shard; each keeps its delta capacity.
    std::vector<MatchOutput> match_outputs;
  };

  QueryProcessorOptions options_;
  // Fork/join pool for the matching and k-NN search phases; null when
  // the resolved worker count is 1 (fully serial tick).
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<GridIndex> grid_;
  ObjectStore objects_;
  QueryStore queries_;
  RangeEvaluator range_;
  KnnEvaluator knn_;
  PredictiveEvaluator predictive_;
  CircleEvaluator circle_;
  TickScratch scratch_;
  // Non-null iff options.adaptive.enabled: splits hot cells / merges cold
  // ones on committed state at the end of each tick (stream-invisible;
  // see core/grid_refiner.h).
  std::unique_ptr<GridRefiner> refiner_;
};

}  // namespace stq

#endif  // STQ_CORE_GRID_ENGINE_H_
