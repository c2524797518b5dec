#include "stq/core/knn_evaluator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "stq/common/check.h"

namespace stq {

std::vector<KnnEvaluator::Neighbor> KnnEvaluator::Search(
    const Point& center, int k, const Rect* within) const {
  std::vector<Neighbor> result;
  if (k <= 0 || state_.objects->empty()) return result;

  const GridIndex& grid = *state_.grid;
  const size_t want = static_cast<size_t>(k);
  CellCoord lo{0, 0};
  CellCoord hi{grid.cells_x() - 1, grid.cells_y() - 1};
  if (within != nullptr && !grid.CellRangeOf(*within, &lo, &hi)) {
    return result;
  }

  // Max-heap of the k best candidates found so far (top = worst kept).
  std::priority_queue<Neighbor> best;
  // Predictive objects are clipped into several cells; visit each id once.
  // Local (not member scratch): Search runs concurrently across pool
  // workers, so per-call state is the thread-safe choice.
  FlatSet<ObjectId> seen;

  const CellCoord cc = grid.CellOf(center);
  const Rect& bounds = grid.bounds();
  // The ring reaching the farthest corner of the searched range.
  const int last_ring = std::max({cc.x - lo.x, hi.x - cc.x, cc.y - lo.y,
                                  hi.y - cc.y});

  auto worst_dist2 = [&]() {
    return best.size() == want ? best.top().dist2
                               : std::numeric_limits<double>::infinity();
  };

  for (int ring = 0; ring <= last_ring; ++ring) {
    // Lower bound on the distance to anything not yet scanned: the
    // distance from `center` to the boundary of the block of cells with
    // Chebyshev ring index <= ring-1 (i.e., everything fully scanned).
    if (ring > 0 && best.size() == want) {
      const double block_min_x =
          bounds.min_x + (cc.x - (ring - 1)) * grid.cell_width();
      const double block_max_x =
          bounds.min_x + (cc.x + ring) * grid.cell_width();
      const double block_min_y =
          bounds.min_y + (cc.y - (ring - 1)) * grid.cell_height();
      const double block_max_y =
          bounds.min_y + (cc.y + ring) * grid.cell_height();
      const double lb = std::min(
          std::min(center.x - block_min_x, block_max_x - center.x),
          std::min(center.y - block_min_y, block_max_y - center.y));
      if (lb >= 0.0 && lb * lb > worst_dist2()) break;
    }

    grid.ForEachCellInRing(
        cc, ring, lo, hi, [&](const CellCoord& c) {
          // Prune cells that cannot beat the current k-th distance.
          const double cell_dist = grid.CellBounds(c).DistanceTo(center);
          if (best.size() == want && cell_dist * cell_dist > worst_dist2()) {
            return;
          }
          grid.ForEachObjectInCell(c, [&](ObjectId oid) {
            if (!seen.insert(oid).second) return;
            const ObjectRecord* o = state_.objects->Find(oid);
            STQ_DCHECK(o != nullptr);
            const Neighbor cand{SquaredDistance(center, o->loc), oid};
            if (best.size() < want) {
              best.push(cand);
            } else if (cand < best.top()) {
              best.pop();
              best.push(cand);
            }
          });
        });
  }

  result.reserve(best.size());
  while (!best.empty()) {
    result.push_back(best.top());
    best.pop();
  }
  std::reverse(result.begin(), result.end());
  return result;
}

void KnnEvaluator::ApplyAnswer(QueryRecord* q,
                               const std::vector<Neighbor>& neighbors,
                               std::vector<Update>* out) {
  FlatSet<ObjectId>& fresh = fresh_scratch_;
  fresh.clear();
  fresh.reserve(neighbors.size());
  for (const Neighbor& n : neighbors) fresh.insert(n.id);

  // Negatives: previous members no longer among the k nearest.
  std::vector<ObjectId>& leavers = leavers_scratch_;
  leavers.clear();
  for (ObjectId oid : q->answer) {
    if (!fresh.contains(oid)) leavers.push_back(oid);
  }
  for (ObjectId oid : leavers) {
    SetMembership(state_.objects->FindMutable(oid), q, false, out);
  }
  // Positives: new members.
  for (const Neighbor& n : neighbors) {
    SetMembership(state_.objects->FindMutable(n.id), q, true, out);
  }

  // The answer circle: radius = distance to the k-th nearest neighbor.
  // While the database holds fewer than k objects, any future object
  // anywhere could enter the answer, so the circle covers the whole space.
  if (neighbors.size() < static_cast<size_t>(q->k)) {
    q->circle.radius = std::numeric_limits<double>::infinity();
    q->knn_dist2 = std::numeric_limits<double>::infinity();
  } else {
    q->knn_dist2 = neighbors.back().dist2;
    q->circle.radius = std::sqrt(neighbors.back().dist2);
  }

  // Re-clip the grid footprint to the new circle's bounding box
  // (intersected with the space bounds; an infinite radius covers all).
  // The tiny expansion absorbs the radius' square-root rounding so exact
  // tie-distance objects stay inside the footprint.
  const Rect& bounds = state_.grid->bounds();
  Rect footprint =
      std::isinf(q->circle.radius)
          ? bounds
          : q->circle.BoundingBox().Expanded(1e-12).Intersection(bounds);
  if (footprint.IsEmpty()) {
    // Circle of radius 0 (k-th neighbor exactly at the focal point) or a
    // focal point outside the space: keep at least the focal cell.
    const CellCoord c = state_.grid->CellOf(q->circle.center);
    footprint = state_.grid->CellBounds(c);
  }
  if (!(footprint == q->grid_footprint)) {
    if (!q->grid_footprint.IsEmpty()) {
      state_.grid->RemoveQuery(q->id, q->grid_footprint);
    }
    state_.grid->InsertQuery(q->id, footprint);
    q->grid_footprint = footprint;
  }
}

size_t KnnEvaluator::ReevaluateDirty(std::vector<Update>* out,
                                     ThreadPool* pool) {
  return ApplyDirty(SearchDirty(pool), out);
}

std::vector<KnnEvaluator::DirtyAnswer> KnnEvaluator::SearchDirty(
    ThreadPool* pool) {
  // Deterministic processing order regardless of hash iteration.
  std::vector<QueryId>& ids = dirty_ids_scratch_;
  ids.assign(dirty_.begin(), dirty_.end());
  std::sort(ids.begin(), ids.end());
  dirty_.clear();

  std::vector<DirtyAnswer> answers;
  answers.reserve(ids.size());
  for (QueryId qid : ids) {
    const QueryRecord* q = state_.queries->Find(qid);
    if (q == nullptr || q->kind != QueryKind::kKnn) continue;
    answers.push_back(DirtyAnswer{qid, {}});
  }

  // The searches touch only const state (grid cells, object locations),
  // never the answer sets or footprints ApplyDirty rewrites, so sharding
  // them is race-free and the per-slot results match a serial run.
  auto search_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const QueryRecord* q = state_.queries->Find(answers[i].qid);
      answers[i].neighbors = Search(q->circle.center, q->k);
    }
  };
  if (pool != nullptr && pool->num_workers() > 1 && answers.size() > 1) {
    pool->RunShards(answers.size(), [&](int /*shard*/, size_t begin,
                                        size_t end) {
      search_range(begin, end);
    });
  } else {
    search_range(0, answers.size());
  }
  return answers;
}

size_t KnnEvaluator::ApplyDirty(const std::vector<DirtyAnswer>& answers,
                                std::vector<Update>* out) {
  for (const DirtyAnswer& a : answers) {
    QueryRecord* q = state_.queries->FindMutable(a.qid);
    STQ_DCHECK(q != nullptr);
    ApplyAnswer(q, a.neighbors, out);
  }
  return answers.size();
}

}  // namespace stq
