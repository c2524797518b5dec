// PersistentServer: a location-aware server with a durable repository.
//
// Combines stq::Server with stq::Repository to play the full role the
// paper assigns to its Shore-based storage manager: every accepted report
// is logged before it is acknowledged, committed answers are persisted,
// and after a crash Open() rebuilds the server — objects, queries, query
// -> client bindings, committed answers, and the last evaluation time —
// so that reconnecting clients recover through the usual committed-diff
// protocol as if the outage had been theirs.
//
// Client channels are transient: after recovery every known client is
// attached in the disconnected state and resynchronizes via
// ReconnectClient.
//
// Failure model: when the log cannot accept a record (disk full, torn
// write, failed sync) the mutation is refused and the server enters the
// degraded() state — it will not acknowledge reports it cannot make
// durable, and Tick() stops delivering answers. The owner decides
// whether to crash, alert, or fail over; the one thing a degraded server
// never does is lie.
//
// Concurrency contract: externally synchronized. One thread drives the
// ingest/tick/checkpoint API (the WAL append order IS the recovery
// order, so interleaving callers would scramble the log); internal
// parallelism stays behind ShardedEngine's fork/join (see
// sharded_server.h). Hence no stq::Mutex members here — a concurrent
// facade belongs in front of this class, not inside it. See DESIGN.md,
// "Static analysis & concurrency contracts".

#ifndef STQ_STORAGE_PERSISTENT_SERVER_H_
#define STQ_STORAGE_PERSISTENT_SERVER_H_

#include <memory>
#include <string>
#include <vector>

#include "stq/core/server.h"
#include "stq/core/session.h"
#include "stq/storage/env.h"
#include "stq/storage/repository.h"

namespace stq {

// The full durable state of `server`, sorted by id — what a checkpoint
// writes, and what crash tests compare against an oracle. Reports the
// processor has accepted but not yet ticked are laid over the engine's
// state (see QueryProcessor::pending_updates), so the capture equals what
// replaying the WAL would rebuild.
PersistedState CapturePersistedState(const Server& server);

class PersistentServer {
 public:
  struct Options {
    Server::Options server;
    std::string dir;  // repository directory (created if missing)
    // fsync the WAL at the end of every Tick().
    bool sync_every_tick = true;
    // I/O environment; nullptr means Env::Default().
    Env* env = nullptr;
  };

  explicit PersistentServer(const Options& options);

  // Recovers state from the repository (fresh start when empty) and
  // replays it into the server. Must be called exactly once before use.
  Status Open();

  Server& server() { return *server_; }
  const Server& server() const { return *server_; }
  QueryProcessor& processor() { return server_->processor(); }

  // True once an I/O failure has made further logging unsafe. A degraded
  // server refuses all logged mutations with FailedPrecondition and
  // returns empty deliveries from Tick(); `error()` is the root cause.
  bool degraded() const { return !repository_.healthy(); }
  Status error() const { return repository_.error(); }

  // --- Logged mutations (mirror Server's API) -------------------------------

  Status ReportObject(ObjectId id, const Point& loc, Timestamp t);
  Status ReportPredictiveObject(ObjectId id, const Point& loc,
                                const Velocity& vel, Timestamp t);
  Status RemoveObject(ObjectId id);

  Status AttachClient(ClientId cid) { return server_->AttachClient(cid); }
  Status DisconnectClient(ClientId cid) {
    return server_->DisconnectClient(cid);
  }
  Result<Server::Delivery> ReconnectClient(ClientId cid);

  Status RegisterRangeQuery(QueryId qid, ClientId cid, const Rect& region);
  Status RegisterKnnQuery(QueryId qid, ClientId cid, const Point& center,
                          int k);
  Status RegisterCircleQuery(QueryId qid, ClientId cid, const Point& center,
                             double radius);
  Status RegisterPredictiveQuery(QueryId qid, ClientId cid, const Rect& region,
                                 double t_from, double t_to);
  Status MoveRangeQuery(QueryId qid, const Rect& region);
  Status MoveKnnQuery(QueryId qid, const Point& center);
  Status MoveCircleQuery(QueryId qid, const Point& center);
  Status MovePredictiveQuery(QueryId qid, const Rect& region);
  Status CommitQuery(QueryId qid);
  Status UnregisterQuery(QueryId qid);

  // Evaluates one period, logs the tick time, and (by default) syncs the
  // WAL. If persisting the tick fails the deliveries are suppressed
  // (clients must not see answers the log cannot back) and the server
  // goes degraded.
  std::vector<Server::Delivery> Tick(Timestamp now);

  // Writes a snapshot of the full current state, acknowledged but not yet
  // ticked reports included, and starts a fresh WAL.
  Status Checkpoint();

  // The state a checkpoint would persist right now.
  PersistedState CaptureState() const;

  // Clean shutdown: a healthy server first writes a shutdown checkpoint
  // through the crash-safe Checkpoint() protocol, so the next Open()
  // reads one snapshot and an empty WAL instead of replaying the whole
  // history; then the WAL is closed. A degraded server skips the
  // checkpoint. When the checkpoint fails its error is returned, but the
  // WAL still closes and the next Open() replays it.
  Status Close();

  // Fronts this server with the session layer (stq::SessionManager), so
  // resyncs flow through the logged ReconnectClient path and demotions
  // through the logged disconnect. The adapter holds no state: sessions
  // survive whatever the repository survives.
  class SessionBackendAdapter final : public SessionBackend {
   public:
    explicit SessionBackendAdapter(PersistentServer* ps) : ps_(ps) {}
    Server& server() override { return ps_->server(); }
    std::vector<Server::Delivery> Tick(Timestamp now) override {
      return ps_->Tick(now);
    }
    Result<Server::Delivery> ReconnectClient(ClientId cid) override {
      return ps_->ReconnectClient(cid);
    }
    Status DisconnectClient(ClientId cid) override {
      return ps_->DisconnectClient(cid);
    }

   private:
    PersistentServer* ps_;
  };

 private:
  // Refuses mutations before the in-memory server is touched when the
  // repository can no longer make them durable.
  Status GuardWritable() const;
  // Logs the current answer of `qid` as committed, mirroring the
  // server-side commit that just happened.
  Status LogCommitOf(QueryId qid);

  Options options_;
  Repository repository_;
  std::unique_ptr<Server> server_;
  bool open_ = false;
};

}  // namespace stq

#endif  // STQ_STORAGE_PERSISTENT_SERVER_H_
