#include "stq/core/grid_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>

#include "stq/common/check.h"
#include "stq/core/grid_refiner.h"

namespace stq {

GridEngine::GridEngine(const QueryProcessorOptions& options)
    : options_(options),
      pool_(ThreadPool::ResolveWorkers(options.worker_threads) > 1
                ? std::make_unique<ThreadPool>(
                      ThreadPool::ResolveWorkers(options.worker_threads))
                : nullptr),
      grid_(std::make_unique<GridIndex>(options_.bounds,
                                        options_.grid_cells_per_side)),
      range_(EngineState{grid_.get(), &objects_, &queries_, &options_}),
      knn_(EngineState{grid_.get(), &objects_, &queries_, &options_}),
      predictive_(EngineState{grid_.get(), &objects_, &queries_, &options_}),
      circle_(EngineState{grid_.get(), &objects_, &queries_, &options_}) {
  if (options_.adaptive.enabled) {
    refiner_ = std::make_unique<GridRefiner>(options_.adaptive, grid_.get());
  }
}

GridEngine::~GridEngine() = default;

std::optional<Timestamp> GridEngine::ObjectReportTime(ObjectId id) const {
  const ObjectRecord* o = objects_.Find(id);
  if (o == nullptr) return std::nullopt;
  return o->t;
}

std::optional<QueryKind> GridEngine::StoredQueryKind(QueryId id) const {
  const QueryRecord* q = queries_.Find(id);
  if (q == nullptr) return std::nullopt;
  return q->kind;
}

double GridEngine::CircleRadius(QueryId id) const {
  return queries_.Find(id)->circle.radius;
}

// ---------------------------------------------------------------------------
// Tick phases
// ---------------------------------------------------------------------------

void GridEngine::ApplyObjectRemovals(const std::vector<ObjectId>& removals,
                                     std::vector<Update>* out,
                                     TickStats* stats) {
  for (ObjectId id : removals) {
    ObjectRecord* o = objects_.FindMutable(id);
    STQ_CHECK(o != nullptr) << "buffered removal of unknown object " << id;
    // Ship negatives for every answer the object participated in (copied:
    // SetMembership edits the QList under our feet); a k-NN query losing
    // a member must refill from the grid.
    const auto memberships = o->queries;
    for (QueryId qid : memberships) {
      QueryRecord* q = queries_.FindMutable(qid);
      STQ_DCHECK(q != nullptr);
      SetMembership(o, q, false, out);
      if (q->kind == QueryKind::kKnn) knn_.MarkDirty(qid);
    }
    if (o->predictive) {
      grid_->RemoveObjectFootprint(id, o->footprint);
    } else {
      grid_->RemoveObject(id, o->loc);
    }
    objects_.Erase(id);
    ++stats->object_removals_applied;
  }
}

void GridEngine::ApplyObjectUpserts(
    const std::vector<PendingObjectUpsert>& upserts,
    std::vector<ObjectId>* moved, TickStats* stats) {
  for (const PendingObjectUpsert& u : upserts) {
    ObjectRecord* o = objects_.FindMutable(u.id);
    if (o == nullptr) {
      ObjectRecord rec;
      rec.id = u.id;
      rec.loc = u.loc;
      rec.vel = u.predictive ? u.vel : Velocity{};
      rec.t = u.t;
      rec.predictive = u.predictive;
      if (rec.predictive) {
        rec.footprint = rec.trajectory().FootprintBetween(
            rec.t, rec.t + options_.prediction_horizon);
        grid_->InsertObjectFootprint(rec.id, rec.footprint);
      } else {
        grid_->InsertObject(rec.id, rec.loc);
      }
      objects_.Insert(std::move(rec));
    } else {
      if (o->predictive) {
        grid_->RemoveObjectFootprint(o->id, o->footprint);
      } else {
        grid_->RemoveObject(o->id, o->loc);
      }
      o->loc = u.loc;
      o->vel = u.predictive ? u.vel : Velocity{};
      o->t = u.t;
      o->predictive = u.predictive;
      if (o->predictive) {
        o->footprint = o->trajectory().FootprintBetween(
            o->t, o->t + options_.prediction_horizon);
        grid_->InsertObjectFootprint(o->id, o->footprint);
      } else {
        grid_->InsertObject(o->id, o->loc);
      }
    }
    moved->push_back(u.id);
    ++stats->object_updates_applied;
  }
}

void GridEngine::DropQueryRecord(QueryId id, TickStats* stats) {
  QueryRecord* q = queries_.FindMutable(id);
  STQ_CHECK(q != nullptr) << "dropping unknown query " << id;
  for (ObjectId oid : q->answer) {
    ObjectRecord* o = objects_.FindMutable(oid);
    STQ_DCHECK(o != nullptr);
    ObjectStore::RemoveQuery(o, id);
  }
  if (!q->grid_footprint.IsEmpty()) {
    grid_->RemoveQuery(id, q->grid_footprint);
  }
  queries_.Erase(id);
  ++stats->queries_unregistered;
}

void GridEngine::ApplyQueryChanges(
    const std::vector<PendingQueryChange>& changes, Timestamp now,
    std::vector<std::pair<QueryId, Rect>>* changed_rects,
    std::vector<QueryId>* moved_circles, TickStats* stats) {
  for (const PendingQueryChange& c : changes) {
    // A Register for an id still present in the store means the client
    // unregistered and re-registered within one period: drop the old
    // incarnation first.
    if (c.kind != QueryChangeKind::kMove &&
        c.kind != QueryChangeKind::kUnregister && queries_.Contains(c.id)) {
      DropQueryRecord(c.id, stats);
    }
    switch (c.kind) {
      case QueryChangeKind::kUnregister: {
        DropQueryRecord(c.id, stats);
        break;
      }
      case QueryChangeKind::kRegisterRange: {
        QueryRecord rec;
        rec.id = c.id;
        rec.kind = QueryKind::kRange;
        rec.region = c.region;
        rec.t = now;
        rec.grid_footprint = c.region;
        grid_->InsertQuery(c.id, c.region);
        queries_.Insert(std::move(rec));
        changed_rects->emplace_back(c.id, Rect::Empty());
        ++stats->query_changes_applied;
        break;
      }
      case QueryChangeKind::kRegisterPredictive: {
        QueryRecord rec;
        rec.id = c.id;
        rec.kind = QueryKind::kPredictiveRange;
        rec.region = c.region;
        rec.t_from = c.t_from;
        rec.t_to = c.t_to;
        rec.t = now;
        rec.grid_footprint = c.region;
        grid_->InsertQuery(c.id, c.region);
        queries_.Insert(std::move(rec));
        changed_rects->emplace_back(c.id, Rect::Empty());
        ++stats->query_changes_applied;
        break;
      }
      case QueryChangeKind::kRegisterKnn: {
        QueryRecord rec;
        rec.id = c.id;
        rec.kind = QueryKind::kKnn;
        rec.circle = Circle{c.center, 0.0};
        rec.k = c.k;
        rec.t = now;
        // The grid footprint is installed by the k-NN evaluator once the
        // first answer (and hence the circle radius) is known.
        queries_.Insert(std::move(rec));
        knn_.MarkDirty(c.id);
        ++stats->query_changes_applied;
        break;
      }
      case QueryChangeKind::kRegisterCircle: {
        QueryRecord rec;
        rec.id = c.id;
        rec.kind = QueryKind::kCircleRange;
        rec.circle = Circle{c.center, c.radius};
        rec.t = now;
        rec.grid_footprint =
            CircleEvaluator::FootprintOf(rec, options_.bounds);
        grid_->InsertQuery(c.id, rec.grid_footprint);
        queries_.Insert(std::move(rec));
        moved_circles->push_back(c.id);  // first evaluation
        ++stats->query_changes_applied;
        break;
      }
      case QueryChangeKind::kMove: {
        QueryRecord* q = queries_.FindMutable(c.id);
        STQ_CHECK(q != nullptr) << "buffered move of unknown query";
        q->t = now;
        if (q->kind == QueryKind::kKnn) {
          q->circle.center = c.center;
          knn_.MarkDirty(c.id);
        } else if (q->kind == QueryKind::kCircleRange) {
          q->circle.center = c.center;
          const Rect footprint =
              CircleEvaluator::FootprintOf(*q, options_.bounds);
          if (!(footprint == q->grid_footprint)) {
            if (!q->grid_footprint.IsEmpty()) {
              grid_->RemoveQuery(c.id, q->grid_footprint);
            }
            if (!footprint.IsEmpty()) grid_->InsertQuery(c.id, footprint);
            q->grid_footprint = footprint;
          }
          moved_circles->push_back(c.id);
        } else {
          const Rect old_region = q->region;
          q->region = c.region;
          grid_->RemoveQuery(c.id, q->grid_footprint);
          grid_->InsertQuery(c.id, c.region);
          q->grid_footprint = c.region;
          changed_rects->emplace_back(c.id, old_region);
        }
        ++stats->query_changes_applied;
        break;
      }
    }
  }
}

void GridEngine::RunQueryPass(
    const std::vector<std::pair<QueryId, Rect>>& changed,
    const std::vector<QueryId>& moved_circles, std::vector<Update>* out) {
  for (const auto& [qid, old_region] : changed) {
    QueryRecord* q = queries_.FindMutable(qid);
    STQ_DCHECK(q != nullptr);
    if (q->kind == QueryKind::kRange) {
      range_.OnQueryRegionChanged(q, old_region, out);
    } else {
      STQ_DCHECK(q->kind == QueryKind::kPredictiveRange);
      predictive_.OnQueryRegionChanged(q, old_region, out);
    }
  }
  for (QueryId qid : moved_circles) {
    QueryRecord* q = queries_.FindMutable(qid);
    STQ_DCHECK(q != nullptr && q->kind == QueryKind::kCircleRange);
    circle_.OnCircleMoved(q, out);
  }
}

void GridEngine::MatchObjectShard(const std::vector<ObjectId>& moved,
                                  size_t begin, size_t end,
                                  MatchOutput* out) const {
  // Read-only over the grid and both stores: every decision is recorded
  // as a delta intent and replayed later by ApplyMatchDeltas. Other
  // shards run this concurrently against the same state.
  const bool batch = options_.batch_evaluation;
  std::vector<QueryId>& candidates = out->candidates;
  for (size_t i = begin; i < end; ++i) {
    const ObjectId oid = moved[i];
    const ObjectRecord* o = objects_.Find(oid);
    if (o == nullptr) continue;  // upserted then removed within the tick

    // Negative side: re-test every membership under the new report.
    for (QueryId qid : o->queries) {
      const QueryRecord* q = queries_.Find(qid);
      STQ_DCHECK(q != nullptr) << "QList references missing query " << qid;
      switch (q->kind) {
        case QueryKind::kRange:
          if (!RangeEvaluator::Satisfies(*o, *q)) {
            out->deltas.push_back(MatchDelta{qid, oid, false});
          }
          break;
        case QueryKind::kPredictiveRange:
          if (!PredictiveEvaluator::Satisfies(*o, *q, options_)) {
            out->deltas.push_back(MatchDelta{qid, oid, false});
          }
          break;
        case QueryKind::kCircleRange:
          if (!CircleEvaluator::Satisfies(*o, *q)) {
            out->deltas.push_back(MatchDelta{qid, oid, false});
          }
          break;
        case QueryKind::kKnn:
          out->knn_dirty.push_back(qid);
          break;
      }
    }

    // Positive side: candidate queries are those stubbed into the cells
    // the object's (new) footprint touches. In batch mode a sampled
    // mover's candidates come from exactly one grid slot, so it is
    // deferred into the per-slot SoA batches (MatchProbeBatches below);
    // predictive movers keep the scalar multi-slot footprint probe.
    if (batch && !o->predictive) {
      out->probes.push_back(
          SlotProbe{grid_->SlotKeyOfPoint(o->loc), oid, o->loc.x, o->loc.y,
                    o->t});
      continue;
    }
    const Rect probe = o->predictive
                           ? o->footprint.BoundingBox()
                           : Rect{o->loc.x, o->loc.y, o->loc.x, o->loc.y};
    grid_->CollectQueriesInRect(probe, &candidates);
    for (QueryId qid : candidates) {
      const QueryRecord* q = queries_.Find(qid);
      STQ_DCHECK(q != nullptr) << "grid stub references missing query " << qid;
      switch (q->kind) {
        case QueryKind::kRange:
          if (RangeEvaluator::Satisfies(*o, *q)) {
            out->deltas.push_back(MatchDelta{qid, oid, true});
          }
          break;
        case QueryKind::kPredictiveRange:
          if (PredictiveEvaluator::Satisfies(*o, *q, options_)) {
            out->deltas.push_back(MatchDelta{qid, oid, true});
          }
          break;
        case QueryKind::kCircleRange:
          if (CircleEvaluator::Satisfies(*o, *q)) {
            out->deltas.push_back(MatchDelta{qid, oid, true});
          }
          break;
        case QueryKind::kKnn:
          // Entering the answer circle can displace the current k-th
          // neighbor; refill lazily at the k-NN phase. The comparison
          // uses the exact squared threshold (not the rounded radius) so
          // exact distance ties dirty the query too.
          if (SquaredDistance(q->circle.center, o->loc) <= q->knn_dist2) {
            out->knn_dirty.push_back(qid);
          }
          break;
      }
    }
  }
  if (batch) MatchProbeBatches(out);
}

void GridEngine::MatchProbeBatches(MatchOutput* out) const {
  // The deferred positive side of the batch object pass. Per (query,
  // object) pair this evaluates the exact same predicate the scalar loop
  // would have (the predictive case reduces to the rect+window kernel
  // because every sampled object has zero velocity), and delta signs are
  // decided on the same pre-pass state — so after canonicalization the
  // tick's update stream is byte-identical to the pre-batch path.
  std::vector<SlotProbe>& probes = out->probes;
  if (probes.empty()) return;
  std::sort(probes.begin(), probes.end(),
            [](const SlotProbe& a, const SlotProbe& b) {
              return a.slot != b.slot ? a.slot < b.slot : a.oid < b.oid;
            });
  CandidateBatch& b = out->batch;
  for (size_t g0 = 0; g0 < probes.size();) {
    size_t g1 = g0 + 1;
    while (g1 < probes.size() && probes[g1].slot == probes[g0].slot) ++g1;
    const size_t n = g1 - g0;
    b.clear();
    b.ids.reserve(n);
    for (size_t i = g0; i < g1; ++i) {
      const SlotProbe& p = probes[i];
      b.ids.push_back(p.oid);
      b.x.push_back(p.x);
      b.y.push_back(p.y);
      b.t.push_back(p.t);
    }
    const size_t words = MatchBitmapWords(n);
    b.bits.resize(words);
    // All group members share one grid slot; its stub list (unique qids)
    // is the exact candidate set the degenerate point-rect walk produces
    // for each of them.
    grid_->ForEachQueryAt(Point{probes[g0].x, probes[g0].y}, [&](QueryId qid) {
      const QueryRecord* q = queries_.Find(qid);
      STQ_DCHECK(q != nullptr) << "grid stub references missing query " << qid;
      switch (q->kind) {
        case QueryKind::kRange:
          MatchKernels::PointsInRect(b.x.data(), b.y.data(), n, q->region,
                                     b.bits.data());
          break;
        case QueryKind::kPredictiveRange:
          // Sampled movers have zero velocity, so the full trajectory
          // test reduces to rect containment AND a non-empty effective
          // window — the vectorizable kernel.
          MatchKernels::PointsInRectWindow(b.x.data(), b.y.data(), b.t.data(),
                                           n, q->region, q->t_from, q->t_to,
                                           options_.prediction_horizon,
                                           b.bits.data());
          break;
        case QueryKind::kCircleRange:
          MatchKernels::PointsInCircle(b.x.data(), b.y.data(), n,
                                       q->circle.center,
                                       q->circle.radius * q->circle.radius,
                                       b.bits.data());
          break;
        case QueryKind::kKnn: {
          MatchKernels::PointsInCircle(b.x.data(), b.y.data(), n,
                                       q->circle.center, q->knn_dist2,
                                       b.bits.data());
          for (size_t w = 0; w < words; ++w) {
            if (b.bits[w] != 0) {
              // One mark suffices: the dirty set deduplicates.
              out->knn_dirty.push_back(qid);
              break;
            }
          }
          return;
        }
      }
      for (size_t w = 0; w < words; ++w) {
        uint64_t word = b.bits[w];
        while (word != 0) {
          const size_t i =
              w * 64 + static_cast<size_t>(std::countr_zero(word));
          word &= word - 1;
          out->deltas.push_back(MatchDelta{qid, b.ids[i], true});
        }
      }
    });
    g0 = g1;
  }
}

void GridEngine::ApplyMatchDeltas(std::vector<MatchOutput>& outputs,
                                  std::vector<Update>* out) {
  // Shard order equals `moved` order, so this replay emits the same
  // update sequence the serial pass would have; SetMembership makes
  // duplicate decisions for one (query, object) pair no-ops.
  for (const MatchOutput& m : outputs) {
    for (const MatchDelta& d : m.deltas) {
      ObjectRecord* o = objects_.FindMutable(d.oid);
      QueryRecord* q = queries_.FindMutable(d.qid);
      STQ_DCHECK(o != nullptr && q != nullptr);
      SetMembership(o, q, d.add, out);
    }
    for (QueryId qid : m.knn_dirty) knn_.MarkDirty(qid);
  }
}

void GridEngine::RunObjectPass(const std::vector<ObjectId>& moved,
                               std::vector<Update>* out,
                               TickStats* stats) {
  const int shards = pool_ == nullptr ? 1 : pool_->num_workers();
  std::vector<MatchOutput>& outputs = scratch_.match_outputs;
  outputs.resize(static_cast<size_t>(shards));
  for (MatchOutput& m : outputs) m.clear();
  {
    PhaseTimer timer(&stats->object_match_seconds);
    if (pool_ != nullptr) {
      pool_->RunShards(moved.size(),
                       [&](int shard, size_t begin, size_t end) {
                         MatchObjectShard(moved, begin, end,
                                          &outputs[static_cast<size_t>(shard)]);
                       });
    } else {
      MatchObjectShard(moved, 0, moved.size(), &outputs[0]);
    }
  }
  PhaseTimer timer(&stats->object_apply_seconds);
  ApplyMatchDeltas(outputs, out);
}

void GridEngine::Tick(Timestamp now, const UpdateBatch& batch,
                      TickResult* result) {
  std::vector<Update>* out = &result->updates;
  TickStats* stats = &result->stats;
  std::vector<ObjectId>& moved = scratch_.moved;
  std::vector<std::pair<QueryId, Rect>>& changed_rects = scratch_.changed_rects;
  std::vector<QueryId>& moved_circles = scratch_.moved_circles;
  moved.clear();
  changed_rects.clear();
  moved_circles.clear();

  const auto tick_start = std::chrono::steady_clock::now();
  // Phase 1: removals leave the engine (negatives for their memberships).
  {
    PhaseTimer timer(&stats->removals_seconds);
    ApplyObjectRemovals(batch.removals, out, stats);
  }
  // Phase 2: bring every object's state (store + grid) up to date.
  {
    PhaseTimer timer(&stats->upserts_seconds);
    ApplyObjectUpserts(batch.upserts, &moved, stats);
  }
  // Phase 3: bring every query's state up to date.
  {
    PhaseTimer timer(&stats->query_changes_seconds);
    ApplyQueryChanges(batch.query_changes, now, &changed_rects,
                      &moved_circles, stats);
  }
  // Phase 4: incremental evaluation of changed range/predictive/circle
  // regions.
  {
    PhaseTimer timer(&stats->query_pass_seconds);
    RunQueryPass(changed_rects, moved_circles, out);
  }
  // Phase 5: incremental evaluation of moved/new objects (parallel match,
  // serial apply; times the halves into object_match/apply_seconds).
  RunObjectPass(moved, out, stats);
  // Phase 6: re-evaluate the k-NN queries dirtied by phases 1-5
  // (parallel searches, serial answer application).
  {
    std::vector<KnnEvaluator::DirtyAnswer> knn_answers;
    {
      PhaseTimer timer(&stats->knn_search_seconds);
      knn_answers = knn_.SearchDirty(pool_.get());
    }
    PhaseTimer timer(&stats->knn_apply_seconds);
    stats->knn_reevaluations = knn_.ApplyDirty(knn_answers, out);
  }
  // The single grid is one "shard": wall == busy == max over phases 1-6,
  // so its rows compare directly with the sharded engine's.
  const double tick_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    tick_start)
          .count();
  stats->shards_ticked = 1;
  stats->shard_tick_wall_seconds += tick_wall;
  stats->shard_tick_busy_seconds += tick_wall;
  stats->shard_tick_max_seconds =
      std::max(stats->shard_tick_max_seconds, tick_wall);

  {
    // Canonicalization is the single-grid analogue of the sharded merge.
    PhaseTimer merge_timer(&stats->shard_merge_seconds);
    CanonicalizeUpdates(out);
  }
  // Phase 7 (adaptive mode only): resolution maintenance on the
  // now-committed state. Pure index re-bucketing — the stream above is
  // already sealed, and the next tick's exact-geometry matching is
  // resolution-independent, so this is invisible in every future stream.
  if (refiner_ != nullptr) {
    PhaseTimer timer(&stats->adapt_seconds);
    const GridRefiner::StepStats adapt = refiner_->Tick(objects_, queries_);
    stats->cells_split = adapt.splits;
    stats->cells_merged = adapt.merges;
  }
}

// ---------------------------------------------------------------------------
// Read side
// ---------------------------------------------------------------------------

Result<std::vector<ObjectId>> GridEngine::CurrentAnswer(
    QueryId id) const {
  const QueryRecord* q = queries_.Find(id);
  if (q == nullptr) {
    return UnknownQuery(id);
  }
  return q->SortedAnswer();
}

Result<std::vector<ObjectId>> GridEngine::EvaluateFromScratch(
    QueryId id) const {
  const QueryRecord* q = queries_.Find(id);
  if (q == nullptr) {
    return UnknownQuery(id);
  }
  std::vector<ObjectId> answer;
  switch (q->kind) {
    case QueryKind::kRange:
      objects_.ForEach([&](const ObjectRecord& o) {
        if (RangeEvaluator::Satisfies(o, *q)) answer.push_back(o.id);
      });
      break;
    case QueryKind::kPredictiveRange:
      objects_.ForEach([&](const ObjectRecord& o) {
        if (PredictiveEvaluator::Satisfies(o, *q, options_)) {
          answer.push_back(o.id);
        }
      });
      break;
    case QueryKind::kCircleRange:
      objects_.ForEach([&](const ObjectRecord& o) {
        if (CircleEvaluator::Satisfies(o, *q)) {
          answer.push_back(o.id);
        }
      });
      break;
    case QueryKind::kKnn: {
      std::vector<KnnEvaluator::Neighbor> all;
      all.reserve(objects_.size());
      objects_.ForEach([&](const ObjectRecord& o) {
        all.push_back(KnnEvaluator::Neighbor{
            SquaredDistance(q->circle.center, o.loc), o.id});
      });
      const size_t keep = std::min(all.size(), static_cast<size_t>(q->k));
      std::partial_sort(all.begin(), all.begin() + keep, all.end());
      for (size_t i = 0; i < keep; ++i) answer.push_back(all[i].id);
      break;
    }
  }
  std::sort(answer.begin(), answer.end());
  return answer;
}

bool GridEngine::GetAnswerSet(QueryId id, AnswerSet* out) const {
  out->clear();
  const QueryRecord* q = queries_.Find(id);
  if (q == nullptr) return false;
  *out = q->answer;
  return true;
}

size_t GridEngine::AnswerBytesResident() const {
  size_t bytes = 0;
  queries_.ForEach(
      [&](const QueryRecord& q) { bytes += q.answer.bytes_resident(); });
  return bytes;
}

std::vector<KnnEvaluator::Neighbor> GridEngine::SearchKnn(
    const Point& center, int k, const Rect* within) const {
  if (k < 1) return {};
  return knn_.Search(center, k, within);
}

void GridEngine::ForEachObjectInfo(
    // stq-lint: allow(alloc-discipline/function): cold introspection walk
    const std::function<void(const ObjectInfo&)>& fn) const {
  objects_.ForEach([&](const ObjectRecord& o) {
    ObjectInfo info;
    info.id = o.id;
    info.loc = o.loc;
    info.vel = o.vel;
    info.t = o.t;
    info.predictive = o.predictive;
    fn(info);
  });
}

void GridEngine::ForEachQueryInfo(
    // stq-lint: allow(alloc-discipline/function): cold introspection walk
    const std::function<void(const QueryInfo&)>& fn) const {
  queries_.ForEach([&](const QueryRecord& q) {
    QueryInfo info;
    info.id = q.id;
    info.kind = q.kind;
    info.region = q.region;
    info.circle = q.circle;
    info.k = q.k;
    info.t_from = q.t_from;
    info.t_to = q.t_to;
    info.answer_size = q.answer.size();
    fn(info);
  });
}

}  // namespace stq
