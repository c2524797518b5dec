#include "stq/storage/repository.h"

#include <algorithm>
#include <utility>

#include "stq/common/flat_hash.h"

namespace stq {

Repository::Repository(std::string dir, Env* env)
    : dir_(std::move(dir)),
      snapshot_path_(dir_ + "/SNAPSHOT"),
      wal_path_(dir_ + "/WAL"),
      env_(env != nullptr ? env : Env::Default()) {}

Repository::~Repository() {
  // Destruction without Close() models a crash: drop the handle without
  // surfacing errors. Only synced data is owed to anyone.
  wal_.Abandon();
}

Status Repository::Open() {
  if (open_) return Status::FailedPrecondition("repository already open");
  STQ_RETURN_IF_ERROR(env_->CreateDir(dir_));
  // A SNAPSHOT.tmp is debris from a checkpoint that crashed before its
  // rename; the real SNAPSHOT is still authoritative.
  const std::string tmp = snapshot_path_ + ".tmp";
  if (env_->FileExists(tmp)) (void)env_->RemoveFile(tmp);

  STQ_RETURN_IF_ERROR(ReadSnapshot(env_, snapshot_path_, &recovered_, &epoch_));
  bool reuse_wal = false;
  STQ_RETURN_IF_ERROR(ReplayWal(&reuse_wal));
  if (reuse_wal) {
    STQ_RETURN_IF_ERROR(wal_.Open(env_, wal_path_, /*truncate=*/false));
  } else {
    Status s = CreateWal();
    if (!s.ok()) {
      wal_.Abandon();
      return s;
    }
  }
  poisoned_ = Status::OK();
  open_ = true;
  return Status::OK();
}

Status Repository::CreateWal() {
  STQ_RETURN_IF_ERROR(wal_.Open(env_, wal_path_, /*truncate=*/true));
  std::string payload;
  EncodeEpoch(epoch_, &payload);
  STQ_RETURN_IF_ERROR(
      wal_.Append(static_cast<uint8_t>(RecordType::kEpoch), payload));
  STQ_RETURN_IF_ERROR(wal_.Sync());
  // Make the WAL's existence durable: a snapshot whose WAL vanished in a
  // crash recovers fine, but a durable WAL must not point at a name that
  // was never dir-synced.
  return env_->SyncDir(dir_);
}

Status Repository::WalCorruption(const LogReader& reader,
                                 const std::string& what) {
  return Status::Corruption(
      "WAL corruption in " + wal_path_ + " at record #" +
      std::to_string(reader.records_read() == 0 ? 0
                                                : reader.records_read() - 1) +
      " (offset " + std::to_string(reader.last_record_offset()) + "): " +
      what);
}

Status Repository::ReplayWal(bool* reuse_wal) {
  *reuse_wal = false;
  if (!env_->FileExists(wal_path_)) return Status::OK();  // fresh start

  LogReader reader;
  STQ_RETURN_IF_ERROR(reader.Open(env_, wal_path_));
  uint8_t type = 0;
  std::string payload;  // reused by every record
  bool eof = false;
  STQ_RETURN_IF_ERROR(reader.ReadRecord(&type, &payload, &eof));
  if (!eof && static_cast<RecordType>(type) == RecordType::kEpoch) {
    uint64_t wal_epoch = 0;
    Status s = DecodeEpoch(payload, &wal_epoch);
    if (!s.ok()) return WalCorruption(reader, s.message());
    if (wal_epoch != epoch_) {
      // A leftover from before the last durable checkpoint (crash
      // between the snapshot rename and the WAL reset). Everything in it
      // is already reflected in the snapshot: ignore it.
      return reader.Close();
    }
    STQ_RETURN_IF_ERROR(reader.ReadRecord(&type, &payload, &eof));
  } else if (!eof && epoch_ != 0) {
    // Headerless (legacy) WAL against an epoch'd snapshot: stale.
    return reader.Close();
  }

  // A WAL holding only its epoch header (the one a clean shutdown
  // leaves) changes nothing: the snapshot is the state.
  if (!eof) STQ_RETURN_IF_ERROR(ReplayRecords(&reader, type, &payload));
  const uint64_t valid = reader.valid_offset();
  const uint64_t records = reader.records_read();
  STQ_RETURN_IF_ERROR(reader.Close());

  // Trim a torn tail (crash mid-append) so the next append cannot land
  // on top of a persisted partial frame and corrupt the log for the
  // *next* recovery.
  uint64_t size = 0;
  STQ_RETURN_IF_ERROR(env_->GetFileSize(wal_path_, &size));
  if (size > valid) {
    STQ_RETURN_IF_ERROR(env_->TruncateFile(wal_path_, valid));
  }

  // An empty (or fully torn) WAL is recreated with a synced epoch
  // header; one with at least one valid record is appended to.
  *reuse_wal = records > 0;
  return Status::OK();
}

Status Repository::ReplayRecords(LogReader* reader, uint8_t type,
                                 std::string* payload) {
  // Replay onto id-keyed hash maps so later records supersede earlier
  // ones; each list is sorted by id once, at the end.
  FlatMap<ObjectId, PersistedObject> objects;
  FlatMap<QueryId, PersistedQuery> queries;
  FlatMap<QueryId, PersistedCommit> commits;
  objects.reserve(recovered_.objects.size());
  queries.reserve(recovered_.queries.size());
  commits.reserve(recovered_.commits.size());
  for (const PersistedObject& o : recovered_.objects) objects[o.id] = o;
  for (const PersistedQuery& q : recovered_.queries) queries[q.id] = q;
  for (PersistedCommit& c : recovered_.commits) commits[c.id] = std::move(c);
  Timestamp last_tick = recovered_.last_tick;

  PersistedCommit commit;
  bool eof = false;
  while (!eof) {
    switch (static_cast<RecordType>(type)) {
      case RecordType::kObjectUpsert: {
        PersistedObject o;
        Status s = DecodeObjectUpsert(*payload, &o);
        if (!s.ok()) return WalCorruption(*reader, s.message());
        objects[o.id] = o;
        break;
      }
      case RecordType::kObjectRemove: {
        ObjectId id = 0;
        Status s = DecodeObjectRemove(*payload, &id);
        if (!s.ok()) return WalCorruption(*reader, s.message());
        objects.erase(id);
        break;
      }
      case RecordType::kQueryRegister: {
        PersistedQuery q;
        Status s = DecodeQueryRegister(*payload, &q);
        if (!s.ok()) return WalCorruption(*reader, s.message());
        queries[q.id] = q;
        break;
      }
      case RecordType::kQueryMoveRect: {
        QueryId id = 0;
        Rect region;
        Status s = DecodeQueryMoveRect(*payload, &id, &region);
        if (!s.ok()) return WalCorruption(*reader, s.message());
        if (PersistedQuery* q = queries.FindPtr(id); q != nullptr) {
          q->region = region;
        }
        break;
      }
      case RecordType::kQueryMoveCenter: {
        QueryId id = 0;
        Point center;
        Status s = DecodeQueryMoveCenter(*payload, &id, &center);
        if (!s.ok()) return WalCorruption(*reader, s.message());
        if (PersistedQuery* q = queries.FindPtr(id); q != nullptr) {
          q->center = center;
        }
        break;
      }
      case RecordType::kQueryUnregister: {
        QueryId id = 0;
        Status s = DecodeQueryUnregister(*payload, &id);
        if (!s.ok()) return WalCorruption(*reader, s.message());
        queries.erase(id);
        commits.erase(id);
        break;
      }
      case RecordType::kCommit: {
        Status s = DecodeCommit(*payload, &commit);
        if (!s.ok()) return WalCorruption(*reader, s.message());
        // Swap rather than copy: the superseded answer's buffer is reused
        // by the next commit record.
        PersistedCommit& entry = commits[commit.id];
        entry.id = commit.id;
        entry.answer.swap(commit.answer);
        break;
      }
      case RecordType::kTick: {
        Status s = DecodeTick(*payload, &last_tick);
        if (!s.ok()) return WalCorruption(*reader, s.message());
        break;
      }
      case RecordType::kEpoch:
        return WalCorruption(*reader, "epoch record not at start of log");
      default:
        return WalCorruption(*reader, "unexpected record type " +
                                         std::to_string(type));
    }
    STQ_RETURN_IF_ERROR(reader->ReadRecord(&type, payload, &eof));
  }
  auto by_id = [](const auto& a, const auto& b) { return a.id < b.id; };
  recovered_.objects.clear();
  recovered_.objects.reserve(objects.size());
  for (auto& [id, o] : objects) recovered_.objects.push_back(o);
  std::sort(recovered_.objects.begin(), recovered_.objects.end(), by_id);
  recovered_.queries.clear();
  recovered_.queries.reserve(queries.size());
  for (auto& [id, q] : queries) recovered_.queries.push_back(q);
  std::sort(recovered_.queries.begin(), recovered_.queries.end(), by_id);
  recovered_.commits.clear();
  recovered_.commits.reserve(commits.size());
  for (auto& [id, c] : commits) recovered_.commits.push_back(std::move(c));
  std::sort(recovered_.commits.begin(), recovered_.commits.end(), by_id);
  recovered_.last_tick = last_tick;

  return Status::OK();
}

template <typename EncodeFn>
Status Repository::AppendRecord(RecordType type, const EncodeFn& encode) {
  if (!open_) return Status::FailedPrecondition("repository not open");
  if (!poisoned_.ok()) return poisoned_;
  return wal_.AppendEncoded(static_cast<uint8_t>(type), encode);
}

Status Repository::LogObjectUpsert(const PersistedObject& o) {
  return AppendRecord(RecordType::kObjectUpsert,
                      [&](std::string* out) { EncodeObjectUpsert(o, out); });
}

Status Repository::LogObjectRemove(ObjectId id) {
  return AppendRecord(RecordType::kObjectRemove,
                      [&](std::string* out) { EncodeObjectRemove(id, out); });
}

Status Repository::LogQueryRegister(const PersistedQuery& q) {
  return AppendRecord(RecordType::kQueryRegister,
                      [&](std::string* out) { EncodeQueryRegister(q, out); });
}

Status Repository::LogQueryMoveRect(QueryId id, const Rect& region) {
  return AppendRecord(RecordType::kQueryMoveRect, [&](std::string* out) {
    EncodeQueryMoveRect(id, region, out);
  });
}

Status Repository::LogQueryMoveCenter(QueryId id, const Point& center) {
  return AppendRecord(RecordType::kQueryMoveCenter, [&](std::string* out) {
    EncodeQueryMoveCenter(id, center, out);
  });
}

Status Repository::LogQueryUnregister(QueryId id) {
  return AppendRecord(RecordType::kQueryUnregister, [&](std::string* out) {
    EncodeQueryUnregister(id, out);
  });
}

Status Repository::LogCommit(QueryId id, const std::vector<ObjectId>& answer) {
  // Answers arrive sorted (QueryProcessor::CurrentAnswer); sort a copy
  // only when one does not.
  const std::vector<ObjectId>* ids = &answer;
  std::vector<ObjectId> sorted;
  if (!std::is_sorted(answer.begin(), answer.end())) {
    sorted = answer;
    std::sort(sorted.begin(), sorted.end());
    ids = &sorted;
  }
  return AppendRecord(RecordType::kCommit, [&](std::string* out) {
    EncodeCommit(id, *ids, out);
  });
}

Status Repository::LogTick(Timestamp t) {
  return AppendRecord(RecordType::kTick,
                      [&](std::string* out) { EncodeTick(t, out); });
}

Status Repository::Sync() {
  if (!open_) return Status::FailedPrecondition("repository not open");
  if (!poisoned_.ok()) return poisoned_;
  return wal_.Sync();
}

Status Repository::Poison(const Status& s) {
  poisoned_ = s;
  wal_.Abandon();
  return s;
}

Status Repository::Checkpoint(const PersistedState& state) {
  if (!open_) return Status::FailedPrecondition("repository not open");
  if (!poisoned_.ok()) return poisoned_;
  if (!wal_.healthy()) return wal_.error();

  const uint64_t next_epoch = epoch_ + 1;
  const std::string tmp = snapshot_path_ + ".tmp";

  // (1) Write the new snapshot beside the old one. Abortable: on failure
  // the old SNAPSHOT+WAL pair is untouched and logging can continue.
  STQ_RETURN_IF_ERROR(WriteSnapshotFile(env_, tmp, state, next_epoch));

  // (2) Atomically swap it in. Still abortable: a failed rename leaves
  // the old snapshot in place.
  Status s = env_->RenameFile(tmp, snapshot_path_);
  if (!s.ok()) {
    (void)env_->RemoveFile(tmp);
    return s;
  }

  // (3) Point of no return. The new snapshot is now visible (and after
  // this sync, durable). If we cannot complete the switch we must stop
  // accepting writes: continuing to ack onto the old-epoch WAL would
  // lose them at the next recovery, which will prefer the new snapshot
  // and discard the stale WAL.
  s = env_->SyncDir(dir_);
  if (!s.ok()) return Poison(s);

  s = wal_.Close();
  if (!s.ok()) return Poison(s);

  epoch_ = next_epoch;
  s = CreateWal();
  if (!s.ok()) return Poison(s);

  return Status::OK();
}

Status Repository::Close() {
  if (!open_) return Status::OK();
  open_ = false;
  if (!poisoned_.ok()) {
    wal_.Abandon();
    return poisoned_;
  }
  return wal_.Close();
}

Result<TickResult> RestoreProcessor(const PersistedState& state,
                                    QueryProcessor* processor) {
  for (const PersistedObject& o : state.objects) {
    Status s = o.predictive
                   ? processor->UpsertPredictiveObject(o.id, o.loc, o.vel, o.t)
                   : processor->UpsertObject(o.id, o.loc, o.t);
    if (!s.ok()) return s;
  }
  for (const PersistedQuery& q : state.queries) {
    Status s;
    switch (q.kind) {
      case QueryKind::kRange:
        s = processor->RegisterRangeQuery(q.id, q.region);
        break;
      case QueryKind::kKnn:
        s = processor->RegisterKnnQuery(q.id, q.center, q.k);
        break;
      case QueryKind::kPredictiveRange:
        s = processor->RegisterPredictiveQuery(q.id, q.region, q.t_from,
                                               q.t_to);
        break;
      case QueryKind::kCircleRange:
        s = processor->RegisterCircleQuery(q.id, q.center, q.radius);
        break;
    }
    if (!s.ok()) return s;
  }
  return processor->EvaluateTick(state.last_tick);
}

}  // namespace stq
