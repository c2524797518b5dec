#include "stq/storage/records.h"

#include "stq/storage/coding.h"

namespace stq {

namespace {
Status Malformed(const char* what) {
  return Status::Corruption(std::string("malformed record payload: ") + what);
}

void EncodeRect(const Rect& r, std::string* out) {
  PutDouble(out, r.min_x);
  PutDouble(out, r.min_y);
  PutDouble(out, r.max_x);
  PutDouble(out, r.max_y);
}

bool DecodeRect(const std::string& src, size_t* offset, Rect* r) {
  return GetDouble(src, offset, &r->min_x) &&
         GetDouble(src, offset, &r->min_y) &&
         GetDouble(src, offset, &r->max_x) &&
         GetDouble(src, offset, &r->max_y);
}
}  // namespace

void EncodeObjectUpsert(const PersistedObject& o, std::string* out) {
  PutFixed64(out, o.id);
  PutDouble(out, o.loc.x);
  PutDouble(out, o.loc.y);
  PutDouble(out, o.vel.vx);
  PutDouble(out, o.vel.vy);
  PutDouble(out, o.t);
  PutByte(out, o.predictive ? 1 : 0);
}

Status DecodeObjectUpsert(const std::string& payload, PersistedObject* o) {
  size_t offset = 0;
  uint8_t predictive = 0;
  if (!GetFixed64(payload, &offset, &o->id) ||
      !GetDouble(payload, &offset, &o->loc.x) ||
      !GetDouble(payload, &offset, &o->loc.y) ||
      !GetDouble(payload, &offset, &o->vel.vx) ||
      !GetDouble(payload, &offset, &o->vel.vy) ||
      !GetDouble(payload, &offset, &o->t) ||
      !GetByte(payload, &offset, &predictive)) {
    return Malformed("object upsert");
  }
  o->predictive = predictive != 0;
  return Status::OK();
}

void EncodeObjectRemove(ObjectId id, std::string* out) { PutFixed64(out, id); }

Status DecodeObjectRemove(const std::string& payload, ObjectId* id) {
  size_t offset = 0;
  if (!GetFixed64(payload, &offset, id)) return Malformed("object remove");
  return Status::OK();
}

void EncodeQueryRegister(const PersistedQuery& q, std::string* out) {
  PutFixed64(out, q.id);
  PutByte(out, static_cast<uint8_t>(q.kind));
  EncodeRect(q.region, out);
  PutDouble(out, q.center.x);
  PutDouble(out, q.center.y);
  PutFixed32(out, static_cast<uint32_t>(q.k));
  PutDouble(out, q.radius);
  PutDouble(out, q.t_from);
  PutDouble(out, q.t_to);
  PutFixed64(out, q.owner);
}

Status DecodeQueryRegister(const std::string& payload, PersistedQuery* q) {
  size_t offset = 0;
  uint8_t kind = 0;
  uint32_t k = 0;
  if (!GetFixed64(payload, &offset, &q->id) ||
      !GetByte(payload, &offset, &kind) ||
      !DecodeRect(payload, &offset, &q->region) ||
      !GetDouble(payload, &offset, &q->center.x) ||
      !GetDouble(payload, &offset, &q->center.y) ||
      !GetFixed32(payload, &offset, &k) ||
      !GetDouble(payload, &offset, &q->radius) ||
      !GetDouble(payload, &offset, &q->t_from) ||
      !GetDouble(payload, &offset, &q->t_to) ||
      !GetFixed64(payload, &offset, &q->owner)) {
    return Malformed("query register");
  }
  if (kind > static_cast<uint8_t>(QueryKind::kCircleRange)) {
    return Malformed("query kind");
  }
  q->kind = static_cast<QueryKind>(kind);
  q->k = static_cast<int>(k);
  return Status::OK();
}

void EncodeQueryMoveRect(QueryId id, const Rect& region, std::string* out) {
  PutFixed64(out, id);
  EncodeRect(region, out);
}

Status DecodeQueryMoveRect(const std::string& payload, QueryId* id,
                           Rect* region) {
  size_t offset = 0;
  if (!GetFixed64(payload, &offset, id) ||
      !DecodeRect(payload, &offset, region)) {
    return Malformed("query move rect");
  }
  return Status::OK();
}

void EncodeQueryMoveCenter(QueryId id, const Point& center, std::string* out) {
  PutFixed64(out, id);
  PutDouble(out, center.x);
  PutDouble(out, center.y);
}

Status DecodeQueryMoveCenter(const std::string& payload, QueryId* id,
                             Point* center) {
  size_t offset = 0;
  if (!GetFixed64(payload, &offset, id) ||
      !GetDouble(payload, &offset, &center->x) ||
      !GetDouble(payload, &offset, &center->y)) {
    return Malformed("query move center");
  }
  return Status::OK();
}

void EncodeQueryUnregister(QueryId id, std::string* out) {
  PutFixed64(out, id);
}

Status DecodeQueryUnregister(const std::string& payload, QueryId* id) {
  size_t offset = 0;
  if (!GetFixed64(payload, &offset, id)) {
    return Malformed("query unregister");
  }
  return Status::OK();
}

void EncodeCommit(QueryId id, const std::vector<ObjectId>& answer,
                  std::string* out) {
  PutFixed64(out, id);
  PutFixed32(out, static_cast<uint32_t>(answer.size()));
  for (ObjectId oid : answer) PutFixed64(out, oid);
}

Status DecodeCommit(const std::string& payload, PersistedCommit* c) {
  size_t offset = 0;
  uint32_t count = 0;
  if (!GetFixed64(payload, &offset, &c->id) ||
      !GetFixed32(payload, &offset, &count)) {
    return Malformed("commit");
  }
  // Validate the advertised count against the bytes actually present
  // before reserving: a corrupt count of ~2^32 would otherwise attempt a
  // 32 GiB allocation.
  if (!DecodeRemaining(payload, offset, static_cast<size_t>(count) * 8)) {
    return Malformed("commit count");
  }
  c->answer.clear();
  c->answer.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ObjectId oid = 0;
    if (!GetFixed64(payload, &offset, &oid)) return Malformed("commit body");
    c->answer.push_back(oid);
  }
  return Status::OK();
}

void EncodeTick(Timestamp t, std::string* out) { PutDouble(out, t); }

Status DecodeTick(const std::string& payload, Timestamp* t) {
  size_t offset = 0;
  if (!GetDouble(payload, &offset, t)) return Malformed("tick");
  return Status::OK();
}

void EncodeEpoch(uint64_t epoch, std::string* out) { PutFixed64(out, epoch); }

Status DecodeEpoch(const std::string& payload, uint64_t* epoch) {
  size_t offset = 0;
  if (!GetFixed64(payload, &offset, epoch)) return Malformed("epoch");
  return Status::OK();
}

}  // namespace stq
