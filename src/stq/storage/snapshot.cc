#include "stq/storage/snapshot.h"

#include <utility>

#include "stq/storage/wal.h"

namespace stq {

bool operator==(const PersistedState& a, const PersistedState& b) {
  return a.objects == b.objects && a.queries == b.queries &&
         a.commits == b.commits && a.last_tick == b.last_tick;
}

Status WriteSnapshotFile(Env* env, const std::string& path,
                         const PersistedState& state, uint64_t epoch) {
  if (env == nullptr) env = Env::Default();
  LogWriter writer;

  // On any failure: drop the half-written file so the next checkpoint
  // (or recovery) doesn't trip over it.
  auto fail = [&](const Status& s) {
    writer.Abandon();
    (void)env->RemoveFile(path);
    return s;
  };

  Status s = writer.Open(env, path, /*truncate=*/true);
  if (!s.ok()) return s;

  // Each record is encoded straight into the writer's frame buffer.
  auto append = [&writer](RecordType type, const auto& encode) {
    return writer.AppendEncoded(static_cast<uint8_t>(type), encode);
  };
  s = append(RecordType::kEpoch,
             [&](std::string* out) { EncodeEpoch(epoch, out); });
  if (!s.ok()) return fail(s);
  for (const PersistedObject& o : state.objects) {
    s = append(RecordType::kObjectUpsert,
               [&](std::string* out) { EncodeObjectUpsert(o, out); });
    if (!s.ok()) return fail(s);
  }
  for (const PersistedQuery& q : state.queries) {
    s = append(RecordType::kQueryRegister,
               [&](std::string* out) { EncodeQueryRegister(q, out); });
    if (!s.ok()) return fail(s);
  }
  for (const PersistedCommit& c : state.commits) {
    s = append(RecordType::kCommit,
               [&](std::string* out) { EncodeCommit(c, out); });
    if (!s.ok()) return fail(s);
  }
  // Terminal record: its presence marks the snapshot as complete.
  s = append(RecordType::kTick,
             [&](std::string* out) { EncodeTick(state.last_tick, out); });
  if (!s.ok()) return fail(s);
  s = writer.Sync();
  if (!s.ok()) return fail(s);
  s = writer.Close();
  if (!s.ok()) return fail(s);
  return Status::OK();
}

Status WriteSnapshot(Env* env, const std::string& path,
                     const PersistedState& state, uint64_t epoch) {
  if (env == nullptr) env = Env::Default();
  // Write to a temp file and rename for atomicity against crashes during
  // checkpointing; sync the directory so the rename itself is durable.
  const std::string tmp = path + ".tmp";
  STQ_RETURN_IF_ERROR(WriteSnapshotFile(env, tmp, state, epoch));
  Status s = env->RenameFile(tmp, path);
  if (!s.ok()) {
    (void)env->RemoveFile(tmp);
    return s;
  }
  return env->SyncDir(DirName(path));
}

Status ReadSnapshot(Env* env, const std::string& path, PersistedState* state,
                    uint64_t* epoch) {
  if (env == nullptr) env = Env::Default();
  *state = PersistedState{};
  if (epoch != nullptr) *epoch = 0;
  if (!env->FileExists(path)) {
    // A missing snapshot is a fresh start, not an error.
    return Status::OK();
  }
  LogReader reader;
  STQ_RETURN_IF_ERROR(reader.Open(env, path));
  bool complete = false;  // saw the terminal kTick record
  uint8_t type = 0;
  std::string payload;  // reused by every record
  bool eof = false;
  for (;;) {
    STQ_RETURN_IF_ERROR(reader.ReadRecord(&type, &payload, &eof));
    if (eof) break;
    complete = false;
    switch (static_cast<RecordType>(type)) {
      case RecordType::kEpoch: {
        uint64_t e = 0;
        STQ_RETURN_IF_ERROR(DecodeEpoch(payload, &e));
        if (epoch != nullptr) *epoch = e;
        break;
      }
      case RecordType::kObjectUpsert: {
        PersistedObject o;
        STQ_RETURN_IF_ERROR(DecodeObjectUpsert(payload, &o));
        state->objects.push_back(o);
        break;
      }
      case RecordType::kQueryRegister: {
        PersistedQuery q;
        STQ_RETURN_IF_ERROR(DecodeQueryRegister(payload, &q));
        state->queries.push_back(q);
        break;
      }
      case RecordType::kCommit: {
        PersistedCommit c;
        STQ_RETURN_IF_ERROR(DecodeCommit(payload, &c));
        state->commits.push_back(std::move(c));
        break;
      }
      case RecordType::kTick: {
        STQ_RETURN_IF_ERROR(DecodeTick(payload, &state->last_tick));
        complete = true;
        break;
      }
      default:
        return Status::Corruption("unexpected record type in snapshot");
    }
  }
  if (!complete) {
    // The WAL framing treats a torn tail as clean EOF, which is right for
    // a log but wrong for a snapshot: a snapshot missing its terminal
    // tick record lost data and must not be loaded as if it were whole.
    return Status::Corruption("torn snapshot (no terminal tick record): " +
                              path);
  }
  return reader.Close();
}

}  // namespace stq
