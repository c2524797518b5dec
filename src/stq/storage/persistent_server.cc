#include "stq/storage/persistent_server.h"

#include <algorithm>
#include <utility>

#include "stq/common/flat_hash.h"
#include "stq/common/logging.h"

namespace stq {

PersistedState CapturePersistedState(const Server& server) {
  PersistedState state;
  const QueryProcessor& qp = server.processor();
  // Reports accepted since the last tick are still buffered, but the WAL
  // already holds them: lay them over the engine's state, so the capture
  // equals what WAL replay rebuilds. A pending upsert or removal replaces
  // the stored object; a pending registration or unregistration replaces
  // the stored query, and a pending move changes its geometry.
  const UpdateBuffer& pending = qp.pending_updates();
  state.objects.reserve(qp.num_objects() + pending.pending_object_ops());
  state.queries.reserve(qp.num_queries() + pending.pending_query_ops());
  state.commits.reserve(server.committed().size());
  qp.ForEachObjectInfo([&](const QueryProcessor::ObjectInfo& o) {
    if (pending.HasPendingUpsert(o.id) || pending.HasPendingRemove(o.id)) {
      return;
    }
    state.objects.push_back(
        PersistedObject{o.id, o.loc, o.vel, o.t, o.predictive});
  });
  pending.ForEachPendingUpsert([&](const PendingObjectUpsert& u) {
    state.objects.push_back(
        PersistedObject{u.id, u.loc, u.vel, u.t, u.predictive});
  });
  qp.ForEachQueryInfo([&](const QueryProcessor::QueryInfo& q) {
    const PendingQueryChange* change = pending.FindPendingQueryChange(q.id);
    if (change != nullptr && change->kind != QueryChangeKind::kMove) return;
    PersistedQuery pq;
    pq.id = q.id;
    pq.kind = q.kind;
    pq.region = q.region;
    pq.center = q.circle.center;
    pq.k = q.k;
    // For k-NN the circle radius is derived state (distance to the k-th
    // neighbor), not a query parameter; persist it only for circles.
    pq.radius = q.kind == QueryKind::kCircleRange ? q.circle.radius : 0.0;
    pq.t_from = q.t_from;
    pq.t_to = q.t_to;
    if (change != nullptr) {
      if (q.kind == QueryKind::kKnn || q.kind == QueryKind::kCircleRange) {
        pq.center = change->center;
      } else {
        pq.region = change->region;
      }
    }
    state.queries.push_back(pq);
  });
  pending.ForEachPendingQueryChange([&](const PendingQueryChange& c) {
    PersistedQuery pq;
    pq.id = c.id;
    switch (c.kind) {
      case QueryChangeKind::kRegisterRange:
        pq.kind = QueryKind::kRange;
        pq.region = c.region;
        break;
      case QueryChangeKind::kRegisterPredictive:
        pq.kind = QueryKind::kPredictiveRange;
        pq.region = c.region;
        pq.t_from = c.t_from;
        pq.t_to = c.t_to;
        break;
      case QueryChangeKind::kRegisterKnn:
        pq.kind = QueryKind::kKnn;
        pq.center = c.center;
        pq.k = c.k;
        break;
      case QueryChangeKind::kRegisterCircle:
        pq.kind = QueryKind::kCircleRange;
        pq.center = c.center;
        pq.radius = c.radius;
        break;
      case QueryChangeKind::kMove:
      case QueryChangeKind::kUnregister:
        return;  // applied to (or dropped from) the stored queries above
    }
    state.queries.push_back(pq);
  });
  for (PersistedQuery& q : state.queries) {
    q.owner = server.OwnerOf(q.id).value_or(0);
  }
  server.committed().ForEach(
      [&](QueryId qid, const AnswerSet& answer) {
        PersistedCommit pc;
        pc.id = qid;
        // AnswerSet iterates ascending by id; already sorted.
        pc.answer.assign(answer.begin(), answer.end());
        state.commits.push_back(std::move(pc));
      });
  auto by_id = [](const auto& a, const auto& b) { return a.id < b.id; };
  std::sort(state.objects.begin(), state.objects.end(), by_id);
  std::sort(state.queries.begin(), state.queries.end(), by_id);
  std::sort(state.commits.begin(), state.commits.end(), by_id);
  state.last_tick = server.last_tick().time;
  return state;
}

PersistentServer::PersistentServer(const Options& options)
    : options_(options), repository_(options.dir, options.env) {}

Status PersistentServer::Open() {
  if (open_) return Status::FailedPrecondition("already open");
  STQ_RETURN_IF_ERROR(repository_.Open());
  // Taken, not borrowed: once restored, the server is the only copy.
  const PersistedState state = repository_.TakeRecovered();

  server_ = std::make_unique<Server>(options_.server);
  Result<TickResult> restore =
      RestoreProcessor(state, &server_->processor());
  if (!restore.ok()) return restore.status();
  server_->RestoreLastTick(*restore);

  // Re-attach every known client channel in the disconnected state and
  // rebind their queries; clients resynchronize via ReconnectClient.
  FlatSet<ClientId> seen;
  for (const PersistedQuery& q : state.queries) {
    if (q.owner == 0) continue;
    if (seen.insert(q.owner).second) {
      STQ_RETURN_IF_ERROR(
          server_->AttachClient(q.owner, /*connected=*/false));
    }
    STQ_RETURN_IF_ERROR(server_->AdoptQuery(q.id, q.owner));
  }
  for (const PersistedCommit& c : state.commits) {
    server_->RestoreCommitted(c.id, c.answer);
  }
  open_ = true;
  return Status::OK();
}

Status PersistentServer::GuardWritable() const {
  if (!open_) return Status::FailedPrecondition("not open");
  if (!repository_.healthy()) {
    return Status::FailedPrecondition("server degraded: " +
                                      repository_.error().ToString());
  }
  return Status::OK();
}

Status PersistentServer::ReportObject(ObjectId id, const Point& loc,
                                      Timestamp t) {
  STQ_RETURN_IF_ERROR(GuardWritable());
  STQ_RETURN_IF_ERROR(server_->ReportObject(id, loc, t));
  PersistedObject o;
  o.id = id;
  o.loc = loc;
  o.t = t;
  return repository_.LogObjectUpsert(o);
}

Status PersistentServer::ReportPredictiveObject(ObjectId id, const Point& loc,
                                                const Velocity& vel,
                                                Timestamp t) {
  STQ_RETURN_IF_ERROR(GuardWritable());
  STQ_RETURN_IF_ERROR(server_->ReportPredictiveObject(id, loc, vel, t));
  PersistedObject o;
  o.id = id;
  o.loc = loc;
  o.vel = vel;
  o.t = t;
  o.predictive = true;
  return repository_.LogObjectUpsert(o);
}

Status PersistentServer::RemoveObject(ObjectId id) {
  STQ_RETURN_IF_ERROR(GuardWritable());
  STQ_RETURN_IF_ERROR(server_->RemoveObject(id));
  return repository_.LogObjectRemove(id);
}

Result<Server::Delivery> PersistentServer::ReconnectClient(ClientId cid) {
  STQ_RETURN_IF_ERROR(GuardWritable());
  Result<Server::Delivery> delivery = server_->ReconnectClient(cid);
  if (!delivery.ok()) return delivery;
  // The wakeup response commits the recovered answers server-side; mirror
  // those commits in the log.
  std::vector<QueryId> owned;
  server_->processor().ForEachQueryInfo(
      [&](const QueryProcessor::QueryInfo& q) {
        if (server_->OwnerOf(q.id) == cid) owned.push_back(q.id);
      });
  std::sort(owned.begin(), owned.end());
  for (QueryId qid : owned) {
    Status s = LogCommitOf(qid);
    if (!s.ok()) return s;
  }
  return delivery;
}

Status PersistentServer::LogCommitOf(QueryId qid) {
  Result<std::vector<ObjectId>> answer =
      server_->processor().CurrentAnswer(qid);
  if (!answer.ok()) return Status::OK();
  return repository_.LogCommit(qid, *answer);
}

Status PersistentServer::RegisterRangeQuery(QueryId qid, ClientId cid,
                                            const Rect& region) {
  STQ_RETURN_IF_ERROR(GuardWritable());
  STQ_RETURN_IF_ERROR(server_->RegisterRangeQuery(qid, cid, region));
  PersistedQuery q;
  q.id = qid;
  q.kind = QueryKind::kRange;
  q.region = region;
  q.owner = cid;
  return repository_.LogQueryRegister(q);
}

Status PersistentServer::RegisterKnnQuery(QueryId qid, ClientId cid,
                                          const Point& center, int k) {
  STQ_RETURN_IF_ERROR(GuardWritable());
  STQ_RETURN_IF_ERROR(server_->RegisterKnnQuery(qid, cid, center, k));
  PersistedQuery q;
  q.id = qid;
  q.kind = QueryKind::kKnn;
  q.center = center;
  q.k = k;
  q.owner = cid;
  return repository_.LogQueryRegister(q);
}

Status PersistentServer::RegisterCircleQuery(QueryId qid, ClientId cid,
                                             const Point& center,
                                             double radius) {
  STQ_RETURN_IF_ERROR(GuardWritable());
  STQ_RETURN_IF_ERROR(server_->RegisterCircleQuery(qid, cid, center, radius));
  PersistedQuery q;
  q.id = qid;
  q.kind = QueryKind::kCircleRange;
  q.center = center;
  q.radius = radius;
  q.owner = cid;
  return repository_.LogQueryRegister(q);
}

Status PersistentServer::RegisterPredictiveQuery(QueryId qid, ClientId cid,
                                                 const Rect& region,
                                                 double t_from, double t_to) {
  STQ_RETURN_IF_ERROR(GuardWritable());
  STQ_RETURN_IF_ERROR(
      server_->RegisterPredictiveQuery(qid, cid, region, t_from, t_to));
  PersistedQuery q;
  q.id = qid;
  q.kind = QueryKind::kPredictiveRange;
  q.region = region;
  q.t_from = t_from;
  q.t_to = t_to;
  q.owner = cid;
  return repository_.LogQueryRegister(q);
}

Status PersistentServer::MoveRangeQuery(QueryId qid, const Rect& region) {
  STQ_RETURN_IF_ERROR(GuardWritable());
  // Hearing from a moving query may commit its latest answer (channel up
  // and, when a session layer gates commits, client caught up). The
  // commit serial says whether it actually did; mirror exactly those
  // commits in the log.
  const uint64_t serial = server_->commit_serial();
  STQ_RETURN_IF_ERROR(server_->MoveRangeQuery(qid, region));
  STQ_RETURN_IF_ERROR(repository_.LogQueryMoveRect(qid, region));
  if (server_->commit_serial() != serial) return LogCommitOf(qid);
  return Status::OK();
}

Status PersistentServer::MoveKnnQuery(QueryId qid, const Point& center) {
  STQ_RETURN_IF_ERROR(GuardWritable());
  const uint64_t serial = server_->commit_serial();
  STQ_RETURN_IF_ERROR(server_->MoveKnnQuery(qid, center));
  STQ_RETURN_IF_ERROR(repository_.LogQueryMoveCenter(qid, center));
  if (server_->commit_serial() != serial) return LogCommitOf(qid);
  return Status::OK();
}

Status PersistentServer::MoveCircleQuery(QueryId qid, const Point& center) {
  STQ_RETURN_IF_ERROR(GuardWritable());
  const uint64_t serial = server_->commit_serial();
  STQ_RETURN_IF_ERROR(server_->MoveCircleQuery(qid, center));
  STQ_RETURN_IF_ERROR(repository_.LogQueryMoveCenter(qid, center));
  if (server_->commit_serial() != serial) return LogCommitOf(qid);
  return Status::OK();
}

Status PersistentServer::MovePredictiveQuery(QueryId qid, const Rect& region) {
  STQ_RETURN_IF_ERROR(GuardWritable());
  const uint64_t serial = server_->commit_serial();
  STQ_RETURN_IF_ERROR(server_->MovePredictiveQuery(qid, region));
  STQ_RETURN_IF_ERROR(repository_.LogQueryMoveRect(qid, region));
  if (server_->commit_serial() != serial) return LogCommitOf(qid);
  return Status::OK();
}

Status PersistentServer::CommitQuery(QueryId qid) {
  STQ_RETURN_IF_ERROR(GuardWritable());
  const uint64_t serial = server_->commit_serial();
  STQ_RETURN_IF_ERROR(server_->CommitQuery(qid));
  if (server_->commit_serial() != serial) return LogCommitOf(qid);
  return Status::OK();
}

Status PersistentServer::UnregisterQuery(QueryId qid) {
  STQ_RETURN_IF_ERROR(GuardWritable());
  STQ_RETURN_IF_ERROR(server_->UnregisterQuery(qid));
  return repository_.LogQueryUnregister(qid);
}

std::vector<Server::Delivery> PersistentServer::Tick(Timestamp now) {
  if (!GuardWritable().ok()) return {};
  std::vector<Server::Delivery> deliveries = server_->Tick(now);
  Status s = repository_.LogTick(now);
  if (s.ok() && options_.sync_every_tick) s = repository_.Sync();
  if (!s.ok()) {
    // The answers of this tick may not survive a crash: do not hand them
    // to clients. The failed append/sync has already poisoned the
    // repository, so the server is degraded from here on.
    STQ_LOG(Error) << "failed to persist tick: " << s.ToString();
    return {};
  }
  return deliveries;
}

PersistedState PersistentServer::CaptureState() const {
  return CapturePersistedState(*server_);
}

Status PersistentServer::Checkpoint() {
  if (!open_) return Status::FailedPrecondition("not open");
  return repository_.Checkpoint(CaptureState());
}

Status PersistentServer::Close() {
  if (!open_) return Status::OK();
  open_ = false;
  // Shutdown checkpoint: the next Open() then reads one snapshot instead
  // of replaying the whole history. A degraded server skips it — its
  // memory may hold a mutation the log refused to acknowledge.
  Status checkpoint;
  if (repository_.healthy()) {
    checkpoint = repository_.Checkpoint(CaptureState());
  }
  const Status closed = repository_.Close();
  return checkpoint.ok() ? closed : checkpoint;
}

}  // namespace stq
