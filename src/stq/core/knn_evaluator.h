// Incremental maintenance of continuous k-nearest-neighbor queries.
//
// "k-nearest-neighbor queries are stored in the grid structure by
// considering the query region as the smallest circular region that
// contains the k nearest objects." (paper, Section 3.1)
//
// A k-NN query becomes *dirty* when its focal point moves, when an answer
// member moves or disappears, or when some object moves inside the answer
// circle. Only dirty queries are re-evaluated; the re-evaluation performs
// an expanding-ring search over the grid and the answer delta is shipped
// as +/- updates (paper, Example II).

#ifndef STQ_CORE_KNN_EVALUATOR_H_
#define STQ_CORE_KNN_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "stq/common/flat_hash.h"
#include "stq/common/thread_pool.h"
#include "stq/core/engine_state.h"

namespace stq {

class KnnEvaluator {
 public:
  explicit KnnEvaluator(EngineState state) : state_(state) {}

  // Schedules `qid` for re-evaluation at the end of the current tick.
  void MarkDirty(QueryId qid) { dirty_.insert(qid); }
  void ClearDirty() { dirty_.clear(); }
  size_t num_dirty() const { return dirty_.size(); }

  // Exact k-NN search over the grid: the k objects nearest to `center`,
  // ties broken by object id, returned sorted by (distance^2, id).
  // Exposed for tests and for the processor's from-scratch evaluation.
  // With `within`, only the cells overlapping it are searched: a shard
  // engine's grid spans the whole universe, but its sampled objects all
  // sit in its own slab, so the ring walk is bounded by the slab.
  struct Neighbor {
    double dist2 = 0.0;
    ObjectId id = 0;

    friend bool operator<(const Neighbor& a, const Neighbor& b) {
      if (a.dist2 != b.dist2) return a.dist2 < b.dist2;
      return a.id < b.id;
    }
  };
  std::vector<Neighbor> Search(const Point& center, int k,
                               const Rect* within = nullptr) const;

  // Re-evaluates every dirty query that still exists: recomputes the k
  // nearest objects, emits the answer delta, updates the circle and
  // re-clips the query's grid footprint. Returns the number of queries
  // re-evaluated. Equivalent to ApplyDirty(SearchDirty(pool), out); the
  // update stream is byte-identical for every worker count.
  size_t ReevaluateDirty(std::vector<Update>* out,
                         ThreadPool* pool = nullptr);

  // The two halves of ReevaluateDirty, split so the processor can time
  // (and parallelize) them independently.
  //
  // SearchDirty consumes the dirty set and runs one grid search per
  // still-live k-NN query, in ascending query id. Searches only READ the
  // grid and the stores, so they run concurrently when `pool` has more
  // than one worker; the returned order is worker-count-invariant.
  struct DirtyAnswer {
    QueryId qid = 0;
    std::vector<Neighbor> neighbors;
  };
  std::vector<DirtyAnswer> SearchDirty(ThreadPool* pool = nullptr);

  // ApplyDirty replays the freshly computed answers serially, in the
  // order SearchDirty returned them: emits delta updates, refreshes each
  // answer circle, re-clips grid footprints. ApplyAnswer mutates nothing
  // a concurrent Search reads, which is what makes the split sound.
  size_t ApplyDirty(const std::vector<DirtyAnswer>& answers,
                    std::vector<Update>* out);

 private:
  // Applies a freshly computed answer to `q`: emits delta updates,
  // updates the circle radius, re-clips the grid footprint.
  void ApplyAnswer(QueryRecord* q, const std::vector<Neighbor>& neighbors,
                   std::vector<Update>* out);

  EngineState state_;
  FlatSet<QueryId> dirty_;

  // Tick-scoped scratch, reused across ReevaluateDirty calls so the
  // steady state stops allocating (see DESIGN.md, "Memory layout &
  // allocation discipline").
  std::vector<QueryId> dirty_ids_scratch_;
  FlatSet<ObjectId> fresh_scratch_;
  std::vector<ObjectId> leavers_scratch_;
};

}  // namespace stq

#endif  // STQ_CORE_KNN_EVALUATOR_H_
