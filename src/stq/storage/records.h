// Persistent record types: the vocabulary both the WAL and the snapshot
// file are written in.

#ifndef STQ_STORAGE_RECORDS_H_
#define STQ_STORAGE_RECORDS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stq/common/clock.h"
#include "stq/common/ids.h"
#include "stq/common/status.h"
#include "stq/core/query_store.h"
#include "stq/geo/point.h"
#include "stq/geo/rect.h"

namespace stq {

enum class RecordType : uint8_t {
  kObjectUpsert = 1,
  kObjectRemove = 2,
  kQueryRegister = 3,
  kQueryMoveRect = 4,
  kQueryMoveCenter = 5,
  kQueryUnregister = 6,
  kCommit = 7,
  kTick = 8,
  // File-header record carrying the checkpoint epoch. Written first in
  // both the snapshot and the WAL; a WAL whose epoch differs from the
  // snapshot's is a stale leftover from before a checkpoint and is
  // ignored on recovery. Files without it (legacy) are epoch 0.
  kEpoch = 9,
};

struct PersistedObject {
  ObjectId id = 0;
  Point loc;
  Velocity vel;
  Timestamp t = 0.0;
  bool predictive = false;
};

struct PersistedQuery {
  QueryId id = 0;
  QueryKind kind = QueryKind::kRange;
  Rect region;    // range / predictive
  Point center;   // knn / circle
  int k = 0;      // knn
  double radius = 0.0;  // circle
  double t_from = 0.0;
  double t_to = 0.0;
  // Client channel the query's results are bound to (0 = unbound).
  ClientId owner = 0;
};

struct PersistedCommit {
  QueryId id = 0;
  std::vector<ObjectId> answer;
};

inline bool operator==(const PersistedObject& a, const PersistedObject& b) {
  return a.id == b.id && a.loc == b.loc && a.vel == b.vel && a.t == b.t &&
         a.predictive == b.predictive;
}

inline bool operator==(const PersistedQuery& a, const PersistedQuery& b) {
  return a.id == b.id && a.kind == b.kind && a.region == b.region &&
         a.center == b.center && a.k == b.k && a.radius == b.radius &&
         a.t_from == b.t_from && a.t_to == b.t_to && a.owner == b.owner;
}

inline bool operator==(const PersistedCommit& a, const PersistedCommit& b) {
  return a.id == b.id && a.answer == b.answer;
}

// Payload encoders (append to *out).
void EncodeObjectUpsert(const PersistedObject& o, std::string* out);
void EncodeObjectRemove(ObjectId id, std::string* out);
void EncodeQueryRegister(const PersistedQuery& q, std::string* out);
void EncodeQueryMoveRect(QueryId id, const Rect& region, std::string* out);
void EncodeQueryMoveCenter(QueryId id, const Point& center, std::string* out);
void EncodeQueryUnregister(QueryId id, std::string* out);
void EncodeCommit(QueryId id, const std::vector<ObjectId>& answer,
                  std::string* out);
inline void EncodeCommit(const PersistedCommit& c, std::string* out) {
  EncodeCommit(c.id, c.answer, out);
}
void EncodeTick(Timestamp t, std::string* out);
void EncodeEpoch(uint64_t epoch, std::string* out);

// Payload decoders. Return Corruption on malformed payloads.
Status DecodeObjectUpsert(const std::string& payload, PersistedObject* o);
Status DecodeObjectRemove(const std::string& payload, ObjectId* id);
Status DecodeQueryRegister(const std::string& payload, PersistedQuery* q);
Status DecodeQueryMoveRect(const std::string& payload, QueryId* id,
                           Rect* region);
Status DecodeQueryMoveCenter(const std::string& payload, QueryId* id,
                             Point* center);
Status DecodeQueryUnregister(const std::string& payload, QueryId* id);
Status DecodeCommit(const std::string& payload, PersistedCommit* c);
Status DecodeTick(const std::string& payload, Timestamp* t);
Status DecodeEpoch(const std::string& payload, uint64_t* epoch);

}  // namespace stq

#endif  // STQ_STORAGE_RECORDS_H_
