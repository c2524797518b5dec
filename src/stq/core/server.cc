#include "stq/core/server.h"

#include <algorithm>
#include <sstream>

#include "stq/common/check.h"
#include "stq/common/flat_hash.h"
#include "stq/core/invariant_auditor.h"

namespace stq {

Server::Server(const Options& options)
    : options_(options), processor_(options.processor) {}

Status Server::AttachClient(ClientId cid, bool connected) {
  auto [it, inserted] = clients_.emplace(cid, ClientChannel{});
  if (!inserted) {
    std::ostringstream os;
    os << "client " << cid << " already attached";
    return Status::AlreadyExists(os.str());
  }
  it->second.connected = connected;
  return Status::OK();
}

Status Server::DisconnectClient(ClientId cid) {
  auto it = clients_.find(cid);
  if (it == clients_.end()) {
    std::ostringstream os;
    os << "client " << cid << " unknown";
    return Status::NotFound(os.str());
  }
  it->second.connected = false;
  return Status::OK();
}

bool Server::IsConnected(ClientId cid) const {
  auto it = clients_.find(cid);
  return it != clients_.end() && it->second.connected;
}

Result<Server::Delivery> Server::ReconnectClient(ClientId cid) {
  auto it = clients_.find(cid);
  if (it == clients_.end()) {
    std::ostringstream os;
    os << "client " << cid << " unknown";
    return Status::NotFound(os.str());
  }
  it->second.connected = true;

  Delivery delivery;
  delivery.client = cid;
  delivery.delivered = true;

  std::vector<QueryId> qids = it->second.queries;
  std::sort(qids.begin(), qids.end());
  const WireCostModel& cost = options_.processor.wire_cost;
  AnswerSet answer_set;
  for (QueryId qid : qids) {
    if (!processor_.GetAnswerSet(qid, &answer_set)) continue;
    switch (options_.recovery) {
      case RecoveryPolicy::kCommittedDiff: {
        std::vector<Update> diff =
            committed_.DiffAgainstCommitted(qid, answer_set);
        delivery.bytes += cost.UpdateBytes(diff.size());
        delivery.updates.insert(delivery.updates.end(), diff.begin(),
                                diff.end());
        break;
      }
      case RecoveryPolicy::kFullAnswer: {
        // AnswerSet iterates ascending by id; no sort needed.
        std::vector<ObjectId> answer(answer_set.begin(), answer_set.end());
        delivery.bytes += cost.CompleteAnswerBytes(answer.size());
        delivery.full_answers.emplace_back(qid, std::move(answer));
        break;
      }
    }
    // The wakeup response is delivered by contract, so the recovered
    // answer is now guaranteed at the client.
    committed_.Commit(qid, answer_set);
  }
  total_bytes_shipped_ += delivery.bytes;
  total_recovery_bytes_ += delivery.bytes;
  return delivery;
}

Status Server::RegisterRangeQuery(QueryId qid, ClientId cid,
                                  const Rect& region) {
  if (!clients_.contains(cid)) {
    return Status::FailedPrecondition("client not attached");
  }
  STQ_RETURN_IF_ERROR(processor_.RegisterRangeQuery(qid, region));
  query_owner_[qid] = cid;
  clients_[cid].queries.push_back(qid);
  return Status::OK();
}

Status Server::RegisterKnnQuery(QueryId qid, ClientId cid, const Point& center,
                                int k) {
  if (!clients_.contains(cid)) {
    return Status::FailedPrecondition("client not attached");
  }
  STQ_RETURN_IF_ERROR(processor_.RegisterKnnQuery(qid, center, k));
  query_owner_[qid] = cid;
  clients_[cid].queries.push_back(qid);
  return Status::OK();
}

Status Server::RegisterCircleQuery(QueryId qid, ClientId cid,
                                   const Point& center, double radius) {
  if (!clients_.contains(cid)) {
    return Status::FailedPrecondition("client not attached");
  }
  STQ_RETURN_IF_ERROR(processor_.RegisterCircleQuery(qid, center, radius));
  query_owner_[qid] = cid;
  clients_[cid].queries.push_back(qid);
  return Status::OK();
}

Status Server::RegisterPredictiveQuery(QueryId qid, ClientId cid,
                                       const Rect& region, double t_from,
                                       double t_to) {
  if (!clients_.contains(cid)) {
    return Status::FailedPrecondition("client not attached");
  }
  STQ_RETURN_IF_ERROR(
      processor_.RegisterPredictiveQuery(qid, region, t_from, t_to));
  query_owner_[qid] = cid;
  clients_[cid].queries.push_back(qid);
  return Status::OK();
}

bool Server::CommitCurrent(QueryId qid, ClientId owner) {
  if (commit_hooks_ != nullptr && !commit_hooks_->MayCommit(owner)) {
    return false;
  }
  AnswerSet answer;
  if (!processor_.GetAnswerSet(qid, &answer)) return false;
  committed_.Commit(qid, std::move(answer));
  ++commit_serial_;
  if (commit_hooks_ != nullptr) commit_hooks_->OnCommitted(owner, qid);
  return true;
}

void Server::OnHeardFromQuery(QueryId qid) {
  // "Once the server receives any information from a moving query, it
  // considers its latest answer as a committed one." We additionally
  // require the result channel to be up: a lone uplink message from a
  // client whose downlink has been dead since before the last tick proves
  // nothing about what the client received. Under a lossy transport even
  // that is not enough, so the session layer's hooks (consulted inside
  // CommitCurrent) further require the client to be fully caught up.
  auto owner = query_owner_.find(qid);
  if (owner == query_owner_.end()) return;
  if (IsConnected(owner->second)) CommitCurrent(qid, owner->second);
}

Status Server::MoveRangeQuery(QueryId qid, const Rect& region) {
  STQ_RETURN_IF_ERROR(processor_.MoveRangeQuery(qid, region));
  OnHeardFromQuery(qid);
  return Status::OK();
}

Status Server::MoveKnnQuery(QueryId qid, const Point& center) {
  STQ_RETURN_IF_ERROR(processor_.MoveKnnQuery(qid, center));
  OnHeardFromQuery(qid);
  return Status::OK();
}

Status Server::MoveCircleQuery(QueryId qid, const Point& center) {
  STQ_RETURN_IF_ERROR(processor_.MoveCircleQuery(qid, center));
  OnHeardFromQuery(qid);
  return Status::OK();
}

Status Server::MovePredictiveQuery(QueryId qid, const Rect& region) {
  STQ_RETURN_IF_ERROR(processor_.MovePredictiveQuery(qid, region));
  OnHeardFromQuery(qid);
  return Status::OK();
}

Status Server::CommitQuery(QueryId qid) {
  auto owner = query_owner_.find(qid);
  if (owner == query_owner_.end()) return QueryEngine::UnknownQuery(qid);
  CommitCurrent(qid, owner->second);
  return Status::OK();
}

Status Server::UnregisterQuery(QueryId qid) {
  STQ_RETURN_IF_ERROR(processor_.UnregisterQuery(qid));
  committed_.Erase(qid);
  auto owner = query_owner_.find(qid);
  if (owner != query_owner_.end()) {
    auto& list = clients_[owner->second].queries;
    list.erase(std::remove(list.begin(), list.end(), qid), list.end());
    query_owner_.erase(owner);
  }
  return Status::OK();
}

Status Server::AdoptQuery(QueryId qid, ClientId cid) {
  if (!clients_.contains(cid)) {
    return Status::FailedPrecondition("client not attached");
  }
  if (!processor_.HasQuery(qid)) {
    return Status::NotFound("query not registered");
  }
  if (query_owner_.contains(qid)) {
    return Status::AlreadyExists("query already bound");
  }
  query_owner_[qid] = cid;
  clients_[cid].queries.push_back(qid);
  return Status::OK();
}

void Server::RestoreCommitted(QueryId qid,
                              const std::vector<ObjectId>& answer) {
  committed_.Commit(qid, AnswerSet(answer.begin(), answer.end()));
}

std::optional<ClientId> Server::OwnerOf(QueryId qid) const {
  auto it = query_owner_.find(qid);
  if (it == query_owner_.end()) return std::nullopt;
  return it->second;
}

std::vector<Server::Delivery> Server::Tick(Timestamp now) {
  last_tick_ = processor_.EvaluateTick(now);

  // Route the canonical update stream per owning client. The stream is
  // sorted by query id, so owner and connectivity are looked up once per
  // run of equal query ids: a first pass sizes every client's delivery,
  // a second copies the runs in. Hash iteration order never leaks:
  // deliveries are sorted by client id below.
  //
  // Updates owned by disconnected clients are counted and dropped up
  // front — materializing (and byte-accounting) a Delivery nobody will
  // receive is wasted work; those clients recover the lost stream from
  // the committed-answer repository at wakeup.
  struct Run {
    size_t begin = 0;
    size_t end = 0;
    size_t delivery = 0;  // index into `deliveries`
  };
  const std::vector<Update>& updates = last_tick_.updates;
  std::vector<Run> runs;
  std::vector<Delivery> deliveries;
  std::vector<size_t> sizes;  // per delivery
  FlatMap<ClientId, size_t> delivery_of;
  for (size_t i = 0; i < updates.size();) {
    const QueryId qid = updates[i].query;
    const size_t begin = i;
    while (i < updates.size() && updates[i].query == qid) ++i;
    auto owner = query_owner_.find(qid);
    if (owner == query_owner_.end()) continue;  // unbound query: no channel
    const ClientId cid = owner->second;
    if (!IsConnected(cid)) {
      updates_suppressed_for_disconnected_ += i - begin;
      continue;
    }
    auto [slot, inserted] = delivery_of.try_emplace(cid, deliveries.size());
    if (inserted) {
      deliveries.emplace_back();
      deliveries.back().client = cid;
      sizes.push_back(0);
    }
    sizes[slot->second] += i - begin;
    runs.push_back(Run{begin, i, slot->second});
  }
  for (size_t d = 0; d < deliveries.size(); ++d) {
    deliveries[d].updates.reserve(sizes[d]);
  }
  for (const Run& run : runs) {
    std::vector<Update>& dst = deliveries[run.delivery].updates;
    dst.insert(dst.end(), updates.begin() + static_cast<ptrdiff_t>(run.begin),
               updates.begin() + static_cast<ptrdiff_t>(run.end));
  }

  const WireCostModel& cost = options_.processor.wire_cost;
  for (Delivery& d : deliveries) {
    d.delivered = true;
    d.bytes = cost.UpdateBytes(d.updates.size());
    total_bytes_shipped_ += d.bytes;
  }
  std::sort(deliveries.begin(), deliveries.end(),
            [](const Delivery& a, const Delivery& b) {
              return a.client < b.client;
            });

  if (options_.audit_after_tick) {
    const AuditReport report = InvariantAuditor().AuditServer(*this);
    STQ_CHECK(report.ok())
        << "post-tick invariant audit failed: " << report.ToString();
  }
  return deliveries;
}

}  // namespace stq
