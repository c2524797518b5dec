// Repository: durable storage for the location-aware server.
//
// Plays the role the paper assigns to its Shore-based storage manager:
// every accepted report is logged, committed answers are persisted, and
// on restart the server recovers the objects, queries, committed answers,
// and last evaluation time. Layout inside the directory:
//
//   <dir>/SNAPSHOT   last checkpoint (WAL-framed records, epoch header)
//   <dir>/WAL        records accepted since the checkpoint (same epoch)
//
// Recovery = load SNAPSHOT, replay WAL on top. A torn WAL tail (crash
// mid-append) is tolerated and trimmed; corruption in the middle is
// surfaced with the byte offset and record index.
//
// Epochs make the SNAPSHOT/WAL pair crash-consistent: every checkpoint
// bumps the epoch, the new snapshot and the fresh WAL both start with a
// kEpoch record, and recovery ignores a WAL whose epoch differs from the
// snapshot's (a stale leftover from a crash mid-checkpoint). Legacy
// files without epoch records are epoch 0.
//
// Error model: the first I/O failure that can lose acknowledged data
// poisons the repository — healthy() turns false, every later mutation
// returns the original error, and the owner (PersistentServer) surfaces
// it as degraded() instead of silently acking onto a broken log.

#ifndef STQ_STORAGE_REPOSITORY_H_
#define STQ_STORAGE_REPOSITORY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stq/common/status.h"
#include "stq/core/query_processor.h"
#include "stq/storage/env.h"
#include "stq/storage/snapshot.h"
#include "stq/storage/wal.h"

namespace stq {

class Repository {
 public:
  // `env == nullptr` means Env::Default().
  explicit Repository(std::string dir, Env* env = nullptr);

  // Destroying an open repository models a crash: the WAL handle is
  // dropped without flushing (only synced data is owed to clients).
  ~Repository();

  Repository(const Repository&) = delete;
  Repository& operator=(const Repository&) = delete;

  // Loads SNAPSHOT + WAL; after Open() the recovered state is available
  // and the WAL accepts new records. Creates the directory if missing,
  // removes a leftover SNAPSHOT.tmp from a crashed checkpoint, trims a
  // torn WAL tail, and discards a stale-epoch WAL.
  Status Open();

  // The state Open() recovered (a later Checkpoint does not change it).
  const PersistedState& recovered() const { return recovered_; }
  // Hands the recovered state to the caller, leaving recovered() empty,
  // so an owner that has restored it does not keep a second copy.
  PersistedState TakeRecovered() { return std::exchange(recovered_, {}); }

  // Current checkpoint epoch (0 until the first checkpoint).
  uint64_t epoch() const { return epoch_; }

  // False once an I/O failure has made further logging unsafe; `error()`
  // is the first such failure.
  bool healthy() const { return open_ && poisoned_.ok() && wal_.healthy(); }
  Status error() const {
    if (!poisoned_.ok()) return poisoned_;
    return wal_.error();
  }

  // --- Logging (call as the server accepts each report) ---------------------

  Status LogObjectUpsert(const PersistedObject& o);
  Status LogObjectRemove(ObjectId id);
  Status LogQueryRegister(const PersistedQuery& q);
  Status LogQueryMoveRect(QueryId id, const Rect& region);
  Status LogQueryMoveCenter(QueryId id, const Point& center);
  Status LogQueryUnregister(QueryId id);
  Status LogCommit(QueryId id, const std::vector<ObjectId>& answer);
  Status LogTick(Timestamp t);
  Status Sync();

  // Writes a fresh SNAPSHOT of `state` under the next epoch and starts a
  // fresh WAL. Crash-safe ordering: until the new snapshot is durably
  // renamed into place, the old SNAPSHOT+WAL pair remains recoverable;
  // past that point any failure poisons the repository (continuing to
  // ack on the old epoch could lose data).
  Status Checkpoint(const PersistedState& state);

  Status Close();

 private:
  // Appends one record whose payload `encode(std::string*)` writes
  // straight into the WAL writer's reused frame buffer.
  template <typename EncodeFn>
  Status AppendRecord(RecordType type, const EncodeFn& encode);
  Status ReplayWal(bool* reuse_wal);
  // Folds the WAL's records, starting with the one already read into
  // `type` and *payload, onto recovered_.
  Status ReplayRecords(LogReader* reader, uint8_t type, std::string* payload);
  // Truncate-creates the WAL with a synced kEpoch header and syncs the
  // directory so the file's existence is durable.
  Status CreateWal();
  Status Poison(const Status& s);
  Status WalCorruption(const LogReader& reader, const std::string& what);

  std::string dir_;
  std::string snapshot_path_;
  std::string wal_path_;
  Env* env_;
  LogWriter wal_;
  PersistedState recovered_;
  uint64_t epoch_ = 0;
  Status poisoned_;
  bool open_ = false;
};

// Applies a recovered state onto a fresh QueryProcessor: objects are
// upserted and queries re-registered, then one EvaluateTick at
// state.last_tick rebuilds the current answers. Returns the tick result
// (the rebuilt answers as positive updates).
Result<TickResult> RestoreProcessor(const PersistedState& state,
                                    QueryProcessor* processor);

}  // namespace stq

#endif  // STQ_STORAGE_REPOSITORY_H_
