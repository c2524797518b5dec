#include "stq/core/update_buffer.h"

#include <algorithm>

namespace stq {

void UpdateBuffer::AddObjectUpsert(const PendingObjectUpsert& upsert) {
  object_removes_.erase(upsert.id);
  object_upserts_[upsert.id] = upsert;
}

void UpdateBuffer::AddObjectRemove(ObjectId id, bool existed_before) {
  const bool had_pending_upsert = object_upserts_.erase(id) > 0;
  if (existed_before) {
    object_removes_.insert(id);
  } else {
    // The object only ever existed as a pending upsert (or not at all);
    // nothing to remove from the store.
    (void)had_pending_upsert;
  }
}

void UpdateBuffer::AddQueryChange(const PendingQueryChange& change,
                                  bool existed_before) {
  auto it = query_changes_.find(change.id);
  if (it == query_changes_.end()) {
    query_changes_.emplace(change.id, change);
    return;
  }
  PendingQueryChange& pending = it->second;
  switch (change.kind) {
    case QueryChangeKind::kMove:
      if (pending.kind == QueryChangeKind::kUnregister) {
        // A Move cannot resurrect a query pending unregistration — the
        // unregister wins. (The processor rejects such Moves upstream,
        // but the buffer must not rely on that.)
      } else if (pending.kind == QueryChangeKind::kMove) {
        pending.region = change.region;
        pending.center = change.center;
      } else {
        // Fold new geometry into the pending Register, keeping the
        // registration's kind/k/window.
        pending.region = change.region;
        pending.center = change.center;
      }
      break;
    case QueryChangeKind::kUnregister:
      if (!existed_before &&
          pending.kind != QueryChangeKind::kUnregister &&
          pending.kind != QueryChangeKind::kMove) {
        // Register + Unregister of a query the store never saw: no-op.
        query_changes_.erase(it);
      } else {
        pending = change;
      }
      break;
    case QueryChangeKind::kRegisterRange:
    case QueryChangeKind::kRegisterKnn:
    case QueryChangeKind::kRegisterPredictive:
    case QueryChangeKind::kRegisterCircle:
      // Re-registration after a pending unregister (or overwriting a
      // pending register): the latest registration wins.
      pending = change;
      break;
  }
}

bool UpdateBuffer::HasPendingQueryRegister(QueryId id) const {
  auto it = query_changes_.find(id);
  if (it == query_changes_.end()) return false;
  switch (it->second.kind) {
    case QueryChangeKind::kRegisterRange:
    case QueryChangeKind::kRegisterKnn:
    case QueryChangeKind::kRegisterPredictive:
    case QueryChangeKind::kRegisterCircle:
      return true;
    default:
      return false;
  }
}

bool UpdateBuffer::HasPendingQueryUnregister(QueryId id) const {
  auto it = query_changes_.find(id);
  return it != query_changes_.end() &&
         it->second.kind == QueryChangeKind::kUnregister;
}

const PendingQueryChange* UpdateBuffer::FindPendingQueryChange(
    QueryId id) const {
  auto it = query_changes_.find(id);
  return it == query_changes_.end() ? nullptr : &it->second;
}

void UpdateBuffer::Drain(UpdateBatch* batch) {
  batch->upserts.clear();
  batch->upserts.reserve(object_upserts_.size());
  for (auto& [id, u] : object_upserts_) batch->upserts.push_back(u);
  std::sort(batch->upserts.begin(), batch->upserts.end(),
            [](const PendingObjectUpsert& a, const PendingObjectUpsert& b) {
              return a.id < b.id;
            });
  batch->removals.assign(object_removes_.begin(), object_removes_.end());
  std::sort(batch->removals.begin(), batch->removals.end());
  batch->query_changes.clear();
  batch->query_changes.reserve(query_changes_.size());
  for (auto& [id, c] : query_changes_) batch->query_changes.push_back(c);
  std::sort(batch->query_changes.begin(), batch->query_changes.end(),
            [](const PendingQueryChange& a, const PendingQueryChange& b) {
              return a.id < b.id;
            });
  Clear();
}

void UpdateBuffer::Clear() {
  object_upserts_.clear();
  object_removes_.clear();
  query_changes_.clear();
}

}  // namespace stq
