// UpdateBuffer: bulk buffering of incoming reports.
//
// "Since a typical location-aware server receives a massive amount of
// updates from moving objects and queries, it becomes a huge overhead to
// handle each update individually. Thus, we buffer a set of updates from
// moving objects and queries for bulk processing." (paper, Section 3.1)
//
// Between two evaluation ticks, the buffer coalesces reports per id
// (last-wins: only the most recent location / region matters), so one
// object reporting ten times in a period costs one evaluation.

#ifndef STQ_CORE_UPDATE_BUFFER_H_
#define STQ_CORE_UPDATE_BUFFER_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "stq/common/clock.h"
#include "stq/common/flat_hash.h"
#include "stq/common/ids.h"
#include "stq/geo/point.h"
#include "stq/geo/rect.h"

namespace stq {

struct PendingObjectUpsert {
  ObjectId id = 0;
  Point loc;
  Velocity vel;
  Timestamp t = 0.0;
  bool predictive = false;
};

enum class QueryChangeKind {
  kRegisterRange,
  kRegisterKnn,
  kRegisterPredictive,
  kRegisterCircle,
  kMove,        // geometry change of an existing query
  kUnregister,
};

struct PendingQueryChange {
  QueryChangeKind kind = QueryChangeKind::kMove;
  QueryId id = 0;
  // Geometry payload; which fields matter depends on the target query's
  // kind (range/predictive: region; knn/circle: center).
  Rect region;
  Point center;
  int k = 0;
  double radius = 0.0;  // circle queries
  double t_from = 0.0;
  double t_to = 0.0;
};

// One period's coalesced reports, drained from an UpdateBuffer. Each list
// is ascending by id, so every consumer processes them in one
// deterministic order, independent of hash-map iteration.
struct UpdateBatch {
  std::vector<PendingObjectUpsert> upserts;
  std::vector<ObjectId> removals;
  std::vector<PendingQueryChange> query_changes;
};

class UpdateBuffer {
 public:
  UpdateBuffer() = default;
  UpdateBuffer(const UpdateBuffer&) = delete;
  UpdateBuffer& operator=(const UpdateBuffer&) = delete;
  UpdateBuffer(UpdateBuffer&&) = default;
  UpdateBuffer& operator=(UpdateBuffer&&) = default;

  // --- Objects ------------------------------------------------------------

  // Coalesces with any pending upsert/removal of the same object.
  void AddObjectUpsert(const PendingObjectUpsert& upsert);

  // `existed_before` tells the buffer whether the object is in the store
  // (as opposed to only pending in this buffer); a removal of an object
  // that only ever existed as a pending upsert is a pure no-op.
  void AddObjectRemove(ObjectId id, bool existed_before);

  bool HasPendingUpsert(ObjectId id) const {
    return object_upserts_.contains(id);
  }
  // Pending upsert for `id`, or nullptr. Invalidated by further mutation.
  const PendingObjectUpsert* FindPendingUpsert(ObjectId id) const {
    auto it = object_upserts_.find(id);
    return it == object_upserts_.end() ? nullptr : &it->second;
  }
  bool HasPendingRemove(ObjectId id) const {
    return object_removes_.contains(id);
  }

  // The report time object `id` will hold once the buffer drains into an
  // engine, or -infinity when it will not exist. `stored()` returns the
  // engine's report time for the id (std::optional, empty when not
  // stored) and is called only when the buffer holds nothing for it: a
  // pending removal wipes the history, and a pending upsert supersedes the
  // store (it may be older than it when it follows a removal). The buffer
  // holds at most one of the two per id.
  template <typename StoredTime>
  double LatestReportTime(ObjectId id, const StoredTime& stored) const {
    constexpr double kNone = -std::numeric_limits<double>::infinity();
    if (HasPendingRemove(id)) return kNone;
    if (const PendingObjectUpsert* u = FindPendingUpsert(id); u != nullptr) {
      return u->t;
    }
    return stored().value_or(kNone);
  }

  // --- Queries ------------------------------------------------------------

  // Merge rules: a Move over a pending Register folds the new geometry
  // into the Register; an Unregister over a pending Register of a query
  // that never reached the store cancels both; a Move over a pending
  // Unregister is dropped (moving a dead query must not resurrect it).
  void AddQueryChange(const PendingQueryChange& change, bool existed_before);

  bool HasPendingQueryRegister(QueryId id) const;
  bool HasPendingQueryUnregister(QueryId id) const;
  // Whether query `id` will be registered once the buffer drains into an
  // engine that does (`stored`) or does not store it.
  bool QueryLiveAfterDrain(QueryId id, bool stored) const {
    return HasPendingQueryRegister(id) ||
           (stored && !HasPendingQueryUnregister(id));
  }

  // Pending change for `id`, or nullptr. Invalidated by further mutation.
  const PendingQueryChange* FindPendingQueryChange(QueryId id) const;
  bool HasAnyPendingQueryChange(QueryId id) const {
    return query_changes_.contains(id);
  }

  // Visits every pending upsert and every pending query change, in
  // unspecified order (sort by id for deterministic output).
  template <typename Fn>
  void ForEachPendingUpsert(const Fn& fn) const {
    for (const auto& [id, upsert] : object_upserts_) fn(upsert);
  }
  template <typename Fn>
  void ForEachPendingQueryChange(const Fn& fn) const {
    for (const auto& [id, change] : query_changes_) fn(change);
  }

  // --- Draining -----------------------------------------------------------

  size_t pending_object_ops() const {
    return object_upserts_.size() + object_removes_.size();
  }
  size_t pending_query_ops() const { return query_changes_.size(); }
  bool empty() const {
    return object_upserts_.empty() && object_removes_.empty() &&
           query_changes_.empty();
  }

  // Moves all pending work into `batch` (its lists are cleared first,
  // capacity kept), each list sorted by id, leaving the buffer empty.
  void Drain(UpdateBatch* batch);

  void Clear();

 private:
  FlatMap<ObjectId, PendingObjectUpsert> object_upserts_;
  FlatSet<ObjectId> object_removes_;
  FlatMap<QueryId, PendingQueryChange> query_changes_;
};

}  // namespace stq

#endif  // STQ_CORE_UPDATE_BUFFER_H_
