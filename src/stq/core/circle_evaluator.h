// Incremental evaluation of circular (fixed-radius) range queries —
// "all objects within distance r of my (moving) position".
//
// A circular query lives in the grid as the stubs of its disk's bounding
// box. A center move re-scans the new bounding box (a disk move cannot
// use the rectangle-difference trick: a stationary object can enter the
// disk while staying inside the bbox overlap), but the *answer* is still
// maintained incrementally — only the +/- deltas ship.

#ifndef STQ_CORE_CIRCLE_EVALUATOR_H_
#define STQ_CORE_CIRCLE_EVALUATOR_H_

#include <vector>

#include "stq/core/engine_state.h"

namespace stq {

class CircleEvaluator {
 public:
  explicit CircleEvaluator(EngineState state) : state_(state) {}

  // Exact membership predicate (closed disk). Every stored location is
  // clamped into the space, so the disk needs no bounds clause.
  static bool Satisfies(const ObjectRecord& o, const QueryRecord& q) {
    return q.circle.Contains(o.loc);
  }

  // The disk's grid footprint: its bounding box clamped to the space.
  static Rect FootprintOf(const QueryRecord& q, const Rect& bounds);

  // Handles a center change; q->circle must already hold the new value
  // and the grid footprint must already be re-clipped. Emits +/- deltas.
  void OnCircleMoved(QueryRecord* q, std::vector<Update>* out);

 private:
  EngineState state_;
  // Tick-scoped scratch (the query pass is serial per engine).
  std::vector<ObjectId> leavers_scratch_;
  CandidateBatch batch_scratch_;
};

}  // namespace stq

#endif  // STQ_CORE_CIRCLE_EVALUATOR_H_
