#include "stq/core/circle_evaluator.h"

#include <vector>

#include "stq/common/check.h"

namespace stq {

Rect CircleEvaluator::FootprintOf(const QueryRecord& q, const Rect& bounds) {
  return q.circle.BoundingBox().Intersection(bounds);
}

void CircleEvaluator::OnCircleMoved(QueryRecord* q, std::vector<Update>* out) {
  // Negatives: members that fell outside the new disk.
  std::vector<ObjectId>& leavers = leavers_scratch_;
  leavers.clear();
  for (ObjectId oid : q->answer) {
    const ObjectRecord* o = state_.objects->Find(oid);
    STQ_DCHECK(o != nullptr);
    if (!Satisfies(*o, *q)) leavers.push_back(oid);
  }
  for (ObjectId oid : leavers) {
    SetMembership(state_.objects->FindMutable(oid), q, false, out);
  }

  // Positives: scan the new bounding box. SetMembership suppresses
  // re-reports of objects already in the answer.
  if (state_.options->batch_evaluation) {
    // Batch path: one gather, then the disk kernel — exactly Satisfies()
    // per lane.
    CandidateBatch& b = batch_scratch_;
    b.clear();
    state_.grid->ForEachObjectCandidate(
        q->circle.BoundingBox(), [&](ObjectId oid) {
          const ObjectRecord* o = state_.objects->Find(oid);
          STQ_DCHECK(o != nullptr);
          b.Gather(*o);
        });
    const size_t n = b.size();
    if (n == 0) return;
    b.bits.resize(MatchBitmapWords(n));
    MatchKernels::PointsInCircle(b.x.data(), b.y.data(), n, q->circle.center,
                                 q->circle.radius * q->circle.radius,
                                 b.bits.data());
    EmitBatchPositives(b, state_.objects, q, out);
    return;
  }
  state_.grid->ForEachObjectCandidate(
      q->circle.BoundingBox(), [&](ObjectId oid) {
        ObjectRecord* o = state_.objects->FindMutable(oid);
        STQ_DCHECK(o != nullptr);
        if (Satisfies(*o, *q)) {
          SetMembership(o, q, true, out);
        }
      });
}

}  // namespace stq
