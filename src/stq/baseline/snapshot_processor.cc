#include "stq/baseline/snapshot_processor.h"

#include <algorithm>
#include <sstream>

#include "stq/common/check.h"
#include "stq/core/circle_evaluator.h"
#include "stq/core/predictive_evaluator.h"
#include "stq/core/range_evaluator.h"

namespace stq {

size_t SnapshotResult::TotalAnswerEntries() const {
  size_t total = 0;
  for (const auto& [qid, answer] : answers) total += answer.size();
  return total;
}

size_t SnapshotResult::WireBytes(const WireCostModel& model) const {
  size_t total = 0;
  for (const auto& [qid, answer] : answers) {
    total += model.CompleteAnswerBytes(answer.size());
  }
  return total;
}

SnapshotProcessor::SnapshotProcessor(const QueryProcessorOptions& options)
    : options_(options),
      grid_(options.bounds, options.grid_cells_per_side),
      knn_(EngineState{&grid_, &objects_, &queries_, &options_}) {
  STQ_CHECK(options_.Validate()) << "invalid QueryProcessorOptions";
}

Status SnapshotProcessor::UpsertObject(ObjectId id, const Point& loc,
                                       Timestamp t) {
  return UpsertPredictiveObject(id, loc, Velocity{}, t);
}

Status SnapshotProcessor::UpsertPredictiveObject(ObjectId id,
                                                 const Point& raw_loc,
                                                 const Velocity& vel,
                                                 Timestamp t) {
  // Same universe rule as QueryProcessor: locations clamp into bounds.
  const Point loc{
      std::clamp(raw_loc.x, options_.bounds.min_x, options_.bounds.max_x),
      std::clamp(raw_loc.y, options_.bounds.min_y, options_.bounds.max_y)};
  ObjectRecord* o = objects_.FindMutable(id);
  const bool predictive = !vel.IsZero();
  if (o == nullptr) {
    ObjectRecord rec;
    rec.id = id;
    rec.loc = loc;
    rec.vel = vel;
    rec.t = t;
    rec.predictive = predictive;
    if (predictive) {
      rec.footprint =
          rec.trajectory().FootprintBetween(t, t + options_.prediction_horizon);
      grid_.InsertObjectFootprint(id, rec.footprint);
    } else {
      grid_.InsertObject(id, loc);
    }
    objects_.Insert(std::move(rec));
    return Status::OK();
  }
  if (t < o->t) return Status::InvalidArgument("stale object report");
  if (o->predictive) {
    grid_.RemoveObjectFootprint(id, o->footprint);
  } else {
    grid_.RemoveObject(id, o->loc);
  }
  o->loc = loc;
  o->vel = vel;
  o->t = t;
  o->predictive = predictive;
  if (predictive) {
    o->footprint =
        o->trajectory().FootprintBetween(t, t + options_.prediction_horizon);
    grid_.InsertObjectFootprint(id, o->footprint);
  } else {
    grid_.InsertObject(id, loc);
  }
  return Status::OK();
}

Status SnapshotProcessor::RemoveObject(ObjectId id) {
  ObjectRecord* o = objects_.FindMutable(id);
  if (o == nullptr) return Status::NotFound("object unknown");
  if (o->predictive) {
    grid_.RemoveObjectFootprint(id, o->footprint);
  } else {
    grid_.RemoveObject(id, o->loc);
  }
  objects_.Erase(id);
  return Status::OK();
}

Status SnapshotProcessor::RegisterRangeQuery(QueryId id, const Rect& region) {
  const Rect clamped = region.Intersection(options_.bounds);
  if (clamped.IsEmpty()) return Status::InvalidArgument("empty region");
  if (queries_.Contains(id)) return Status::AlreadyExists("query exists");
  QueryRecord rec;
  rec.id = id;
  rec.kind = QueryKind::kRange;
  rec.region = clamped;
  queries_.Insert(std::move(rec));
  return Status::OK();
}

Status SnapshotProcessor::MoveRangeQuery(QueryId id, const Rect& region) {
  QueryRecord* q = queries_.FindMutable(id);
  if (q == nullptr || q->kind != QueryKind::kRange) {
    return Status::NotFound("range query unknown");
  }
  const Rect clamped = region.Intersection(options_.bounds);
  if (clamped.IsEmpty()) return Status::InvalidArgument("empty region");
  q->region = clamped;
  return Status::OK();
}

Status SnapshotProcessor::RegisterKnnQuery(QueryId id, const Point& center,
                                           int k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (queries_.Contains(id)) return Status::AlreadyExists("query exists");
  QueryRecord rec;
  rec.id = id;
  rec.kind = QueryKind::kKnn;
  rec.circle = Circle{center, 0.0};
  rec.k = k;
  queries_.Insert(std::move(rec));
  return Status::OK();
}

Status SnapshotProcessor::MoveKnnQuery(QueryId id, const Point& center) {
  QueryRecord* q = queries_.FindMutable(id);
  if (q == nullptr || q->kind != QueryKind::kKnn) {
    return Status::NotFound("k-NN query unknown");
  }
  q->circle.center = center;
  return Status::OK();
}

Status SnapshotProcessor::RegisterCircleQuery(QueryId id, const Point& center,
                                              double radius) {
  if (radius <= 0.0) return Status::InvalidArgument("radius must be positive");
  if (queries_.Contains(id)) return Status::AlreadyExists("query exists");
  QueryRecord rec;
  rec.id = id;
  rec.kind = QueryKind::kCircleRange;
  rec.circle = Circle{center, radius};
  queries_.Insert(std::move(rec));
  return Status::OK();
}

Status SnapshotProcessor::MoveCircleQuery(QueryId id, const Point& center) {
  QueryRecord* q = queries_.FindMutable(id);
  if (q == nullptr || q->kind != QueryKind::kCircleRange) {
    return Status::NotFound("circle query unknown");
  }
  q->circle.center = center;
  return Status::OK();
}

Status SnapshotProcessor::RegisterPredictiveQuery(QueryId id,
                                                  const Rect& region,
                                                  double t_from, double t_to) {
  const Rect clamped = region.Intersection(options_.bounds);
  if (clamped.IsEmpty()) return Status::InvalidArgument("empty region");
  if (t_to < t_from) return Status::InvalidArgument("bad window");
  if (queries_.Contains(id)) return Status::AlreadyExists("query exists");
  QueryRecord rec;
  rec.id = id;
  rec.kind = QueryKind::kPredictiveRange;
  rec.region = clamped;
  rec.t_from = t_from;
  rec.t_to = t_to;
  queries_.Insert(std::move(rec));
  return Status::OK();
}

Status SnapshotProcessor::MovePredictiveQuery(QueryId id, const Rect& region) {
  QueryRecord* q = queries_.FindMutable(id);
  if (q == nullptr || q->kind != QueryKind::kPredictiveRange) {
    return Status::NotFound("predictive query unknown");
  }
  const Rect clamped = region.Intersection(options_.bounds);
  if (clamped.IsEmpty()) return Status::InvalidArgument("empty region");
  q->region = clamped;
  return Status::OK();
}

Status SnapshotProcessor::UnregisterQuery(QueryId id) {
  if (!queries_.Contains(id)) return Status::NotFound("query unknown");
  queries_.Erase(id);
  return Status::OK();
}

std::vector<ObjectId> SnapshotProcessor::EvaluateOne(
    const QueryRecord& q) const {
  std::vector<ObjectId> answer;
  switch (q.kind) {
    case QueryKind::kRange: {
      std::vector<ObjectId> candidates;
      grid_.CollectObjectsInRect(q.region, &candidates);
      for (ObjectId oid : candidates) {
        const ObjectRecord* o = objects_.Find(oid);
        STQ_DCHECK(o != nullptr);
        if (RangeEvaluator::Satisfies(*o, q)) answer.push_back(oid);
      }
      break;
    }
    case QueryKind::kPredictiveRange: {
      std::vector<ObjectId> candidates;
      grid_.CollectObjectsInRect(q.region, &candidates);
      for (ObjectId oid : candidates) {
        const ObjectRecord* o = objects_.Find(oid);
        STQ_DCHECK(o != nullptr);
        if (PredictiveEvaluator::Satisfies(*o, q, options_)) {
          answer.push_back(oid);
        }
      }
      break;
    }
    case QueryKind::kCircleRange: {
      std::vector<ObjectId> candidates;
      grid_.CollectObjectsInRect(q.circle.BoundingBox(), &candidates);
      for (ObjectId oid : candidates) {
        const ObjectRecord* o = objects_.Find(oid);
        STQ_DCHECK(o != nullptr);
        if (CircleEvaluator::Satisfies(*o, q)) {
          answer.push_back(oid);
        }
      }
      break;
    }
    case QueryKind::kKnn: {
      for (const KnnEvaluator::Neighbor& n : knn_.Search(q.circle.center, q.k)) {
        answer.push_back(n.id);
      }
      break;
    }
  }
  std::sort(answer.begin(), answer.end());
  return answer;
}

SnapshotResult SnapshotProcessor::EvaluateTick(Timestamp now) {
  SnapshotResult result;
  result.time = now;
  result.answers.reserve(queries_.size());
  queries_.ForEach([&](const QueryRecord& q) {
    result.answers.emplace_back(q.id, EvaluateOne(q));
  });
  std::sort(result.answers.begin(), result.answers.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return result;
}

}  // namespace stq
