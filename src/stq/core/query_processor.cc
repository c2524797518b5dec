#include "stq/core/query_processor.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "stq/common/alloc_stats.h"
#include "stq/common/check.h"
#include "stq/common/logging.h"
#include "stq/core/grid_engine.h"
#include "stq/core/invariant_auditor.h"
#include "stq/core/sharded_server.h"

namespace stq {

QueryProcessor::QueryProcessor(const QueryProcessorOptions& options)
    : options_(options),
      history_(options.record_history ? std::make_unique<HistoryStore>()
                                      : nullptr) {
  STQ_CHECK(options_.Validate()) << "invalid QueryProcessorOptions";
  if (options_.num_shards > 1) {
    sharded_engine_ = std::make_unique<ShardedEngine>(options_);
    engine_ = sharded_engine_.get();
  } else {
    grid_engine_ = std::make_unique<GridEngine>(options_);
    engine_ = grid_engine_.get();
  }
}

QueryProcessor::~QueryProcessor() = default;

// ---------------------------------------------------------------------------
// Report ingestion: every check runs here, once, for both engines
// ---------------------------------------------------------------------------

namespace {

// The rejections, each written once. They are built only on the failure
// path, so an accepted call constructs no Status but its OK.

Status NonFiniteReport() {
  return Status::InvalidArgument(
      "object report location, velocity and time must be finite");
}

Status StaleReport() { return Status::InvalidArgument("stale object report"); }

Status NonFiniteQuery() {
  return Status::InvalidArgument(
      "query region, center, radius and window must be finite");
}

const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRange:
      return "range";
    case QueryKind::kKnn:
      return "k-NN";
    case QueryKind::kPredictiveRange:
      return "predictive";
    case QueryKind::kCircleRange:
      return "circular range";
  }
  return "unknown";
}

Status OutsideSpace(QueryKind kind) {
  std::ostringstream os;
  os << KindName(kind) << " query must overlap the space bounds";
  return Status::InvalidArgument(os.str());
}

// The kind a pending registration gives its query.
QueryKind RegisteredKind(QueryChangeKind change) {
  switch (change) {
    case QueryChangeKind::kRegisterKnn:
      return QueryKind::kKnn;
    case QueryChangeKind::kRegisterPredictive:
      return QueryKind::kPredictiveRange;
    case QueryChangeKind::kRegisterCircle:
      return QueryKind::kCircleRange;
    default:
      return QueryKind::kRange;
  }
}

}  // namespace

Point QueryProcessor::ClampLocation(const Point& loc) const {
  const Rect& b = options_.bounds;
  return Point{std::clamp(loc.x, b.min_x, b.max_x),
               std::clamp(loc.y, b.min_y, b.max_y)};
}

Rect QueryProcessor::ClampRegion(const Rect& region) const {
  return region.Intersection(options_.bounds);
}

bool QueryProcessor::IsStale(ObjectId id, Timestamp t) const {
  return t < buffer_.LatestReportTime(
                 id, [&] { return engine_->ObjectReportTime(id); });
}

Status QueryProcessor::UpsertObject(ObjectId id, const Point& loc,
                                    Timestamp t) {
  if (!IsFinite(loc) || !std::isfinite(t)) return NonFiniteReport();
  if (IsStale(id, t)) return StaleReport();
  buffer_.AddObjectUpsert(PendingObjectUpsert{id, ClampLocation(loc),
                                              Velocity{}, t,
                                              /*predictive=*/false});
  return Status::OK();
}

Status QueryProcessor::UpsertPredictiveObject(ObjectId id, const Point& loc,
                                              const Velocity& vel,
                                              Timestamp t) {
  if (!IsFinite(loc) || !IsFinite(vel) || !std::isfinite(t)) {
    return NonFiniteReport();
  }
  if (IsStale(id, t)) return StaleReport();
  buffer_.AddObjectUpsert(PendingObjectUpsert{id, ClampLocation(loc), vel, t,
                                              /*predictive=*/true});
  return Status::OK();
}

Status QueryProcessor::RemoveObject(ObjectId id) {
  const bool exists_in_store = engine_->ObjectReportTime(id).has_value();
  if (!exists_in_store && !buffer_.HasPendingUpsert(id)) {
    std::ostringstream os;
    os << "object " << id << " unknown";
    return Status::NotFound(os.str());
  }
  buffer_.AddObjectRemove(id, exists_in_store);
  return Status::OK();
}

Status QueryProcessor::AddRegistration(const PendingQueryChange& c) {
  const bool stored = HasQuery(c.id);
  if (buffer_.QueryLiveAfterDrain(c.id, stored)) {
    std::ostringstream os;
    os << "query " << c.id << " already registered";
    return Status::AlreadyExists(os.str());
  }
  buffer_.AddQueryChange(c, stored);
  return Status::OK();
}

Status QueryProcessor::AddMove(const PendingQueryChange& c, QueryKind kind) {
  // The kind the query has once the buffer drains.
  const std::optional<QueryKind> stored = engine_->StoredQueryKind(c.id);
  const PendingQueryChange* pending = buffer_.FindPendingQueryChange(c.id);
  std::optional<QueryKind> current = stored;
  if (pending != nullptr && pending->kind == QueryChangeKind::kUnregister) {
    std::ostringstream os;
    os << "query " << c.id << " pending unregistration";
    return Status::NotFound(os.str());
  }
  if (pending != nullptr && pending->kind != QueryChangeKind::kMove) {
    current = RegisteredKind(pending->kind);
  }
  if (!current.has_value()) return QueryEngine::UnknownQuery(c.id);
  if (*current != kind) {
    std::ostringstream os;
    os << "query " << c.id << " is not a " << KindName(kind) << " query";
    return Status::InvalidArgument(os.str());
  }
  if (kind == QueryKind::kCircleRange) {
    // The disk must keep overlapping the space; its radius is held by the
    // pending registration or the engine.
    const double radius = pending != nullptr &&
                                  pending->kind ==
                                      QueryChangeKind::kRegisterCircle
                              ? pending->radius
                              : engine_->CircleRadius(c.id);
    if (ClampRegion(Circle{c.center, radius}.BoundingBox()).IsEmpty()) {
      return OutsideSpace(kind);
    }
  }
  buffer_.AddQueryChange(c, stored.has_value());
  return Status::OK();
}

Status QueryProcessor::RegisterRangeQuery(QueryId id, const Rect& region) {
  if (!IsFinite(region)) return NonFiniteQuery();
  PendingQueryChange c;
  c.kind = QueryChangeKind::kRegisterRange;
  c.id = id;
  c.region = ClampRegion(region);
  if (c.region.IsEmpty()) return OutsideSpace(QueryKind::kRange);
  return AddRegistration(c);
}

Status QueryProcessor::MoveRangeQuery(QueryId id, const Rect& region) {
  if (!IsFinite(region)) return NonFiniteQuery();
  PendingQueryChange c;
  c.id = id;
  c.region = ClampRegion(region);
  if (c.region.IsEmpty()) return OutsideSpace(QueryKind::kRange);
  return AddMove(c, QueryKind::kRange);
}

Status QueryProcessor::RegisterKnnQuery(QueryId id, const Point& center,
                                        int k) {
  if (!IsFinite(center)) return NonFiniteQuery();
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  PendingQueryChange c;
  c.kind = QueryChangeKind::kRegisterKnn;
  c.id = id;
  c.center = center;
  c.k = k;
  return AddRegistration(c);
}

Status QueryProcessor::MoveKnnQuery(QueryId id, const Point& center) {
  if (!IsFinite(center)) return NonFiniteQuery();
  PendingQueryChange c;
  c.id = id;
  c.center = center;
  return AddMove(c, QueryKind::kKnn);
}

Status QueryProcessor::RegisterCircleQuery(QueryId id, const Point& center,
                                           double radius) {
  if (!IsFinite(center) || !std::isfinite(radius)) return NonFiniteQuery();
  if (radius <= 0.0) {
    return Status::InvalidArgument("circle radius must be positive");
  }
  if (ClampRegion(Circle{center, radius}.BoundingBox()).IsEmpty()) {
    return OutsideSpace(QueryKind::kCircleRange);
  }
  PendingQueryChange c;
  c.kind = QueryChangeKind::kRegisterCircle;
  c.id = id;
  c.center = center;
  c.radius = radius;
  return AddRegistration(c);
}

Status QueryProcessor::MoveCircleQuery(QueryId id, const Point& center) {
  if (!IsFinite(center)) return NonFiniteQuery();
  PendingQueryChange c;
  c.id = id;
  c.center = center;
  return AddMove(c, QueryKind::kCircleRange);
}

Status QueryProcessor::RegisterPredictiveQuery(QueryId id, const Rect& region,
                                               double t_from, double t_to) {
  if (!IsFinite(region) || !std::isfinite(t_from) || !std::isfinite(t_to)) {
    return NonFiniteQuery();
  }
  PendingQueryChange c;
  c.kind = QueryChangeKind::kRegisterPredictive;
  c.id = id;
  c.region = ClampRegion(region);
  c.t_from = t_from;
  c.t_to = t_to;
  if (c.region.IsEmpty()) return OutsideSpace(QueryKind::kPredictiveRange);
  if (t_to < t_from) {
    return Status::InvalidArgument("predictive window must have t_from <= t_to");
  }
  return AddRegistration(c);
}

Status QueryProcessor::MovePredictiveQuery(QueryId id, const Rect& region) {
  if (!IsFinite(region)) return NonFiniteQuery();
  PendingQueryChange c;
  c.id = id;
  c.region = ClampRegion(region);
  if (c.region.IsEmpty()) return OutsideSpace(QueryKind::kPredictiveRange);
  return AddMove(c, QueryKind::kPredictiveRange);
}

Status QueryProcessor::UnregisterQuery(QueryId id) {
  const bool stored = HasQuery(id);
  if (!buffer_.QueryLiveAfterDrain(id, stored)) {
    return QueryEngine::UnknownQuery(id);
  }
  PendingQueryChange c;
  c.kind = QueryChangeKind::kUnregister;
  c.id = id;
  buffer_.AddQueryChange(c, stored);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

TickResult QueryProcessor::EvaluateTick(Timestamp now) {
  TickResult result;
  EvaluateTickInto(now, &result);
  return result;
}

void QueryProcessor::EvaluateTickInto(Timestamp now, TickResult* result) {
  if (now < last_tick_time_) {
    STQ_LOG(Warning) << "EvaluateTick time went backwards (" << now << " < "
                     << last_tick_time_ << ")";
  }
  last_tick_time_ = now;

  const uint64_t allocs_before = AllocCount();

  result->time = now;
  result->updates.clear();
  result->stats = TickStats{};
  TickStats& stats = result->stats;
  {
    // Drain (id-sorted) and history: the start of the route phase, in
    // either engine.
    PhaseTimer route_timer(&stats.shard_route_seconds);
    buffer_.Drain(&batch_);
    if (history_ != nullptr) {
      for (ObjectId id : batch_.removals) history_->RecordRemoval(id, now);
      for (const PendingObjectUpsert& u : batch_.upserts) {
        history_->RecordReport(u.id, u.loc, u.t);
      }
    }
  }
  engine_->Tick(now, batch_, result);

  for (const Update& u : result->updates) {
    if (u.sign == UpdateSign::kPositive) {
      ++stats.positive_updates;
    } else {
      ++stats.negative_updates;
    }
  }
  stats.bytes_resident = engine_->AnswerBytesResident();
  // The counter is global (all threads), so under the sharded engine this
  // covers the shard ticks too.
  stats.heap_allocations = AllocCount() - allocs_before;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

Result<std::vector<ObjectId>> QueryProcessor::EvaluatePastRangeQuery(
    const Rect& region, Timestamp t) const {
  if (history_ == nullptr) {
    return Status::FailedPrecondition(
        "past queries require QueryProcessorOptions::record_history");
  }
  return history_->RangeAt(ClampRegion(region), t);
}

Status QueryProcessor::CheckInvariants() const {
  return InvariantAuditor().AuditProcessor(*this).ToStatus();
}

}  // namespace stq
