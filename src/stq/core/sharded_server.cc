#include "stq/core/sharded_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "stq/common/check.h"
#include "stq/core/answer_set.h"
#include "stq/core/query_store.h"
#include "stq/geo/geometry.h"
#include "stq/geo/segment.h"

namespace stq {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Exact squared distance from `p` to the closed rect `r`; 0 when inside.
// Uses the same subtract-then-square arithmetic as SquaredDistance so an
// object sitting on the nearest rect corner produces bit-identical
// distances — the k-NN shard-skip rule stays exact under FP rounding.
double RectDistance2(const Rect& r, const Point& p) {
  const double dx = std::max({0.0, r.min_x - p.x, p.x - r.max_x});
  const double dy = std::max({0.0, r.min_y - p.y, p.y - r.max_y});
  return dx * dx + dy * dy;
}

// One (query, object) answer-stream delta during the merge. `d` sums the
// +1/-1 shard updates and the -1 move-away captures for the pair; `plus`
// counts the positive shard updates alone (a reset query rebuilds its
// refcount from the positives of its new incarnation). Leaf streams are
// sorted by (q, o) with one entry per pair, so merging leaves just adds
// the fields of equal keys.
struct MergeEntry {
  QueryId q = 0;
  ObjectId o = 0;
  int d = 0;
  int plus = 0;
};

bool MergeKeyLess(const MergeEntry& a, const MergeEntry& b) {
  if (a.q != b.q) return a.q < b.q;
  return a.o < b.o;
}

// Merge chunks per pool worker. More chunks than workers lets the
// work-stealing dispatch even out chunks of unequal cost; the count
// depends on the worker count only, so every worker count runs the same
// partitioned code path.
constexpr size_t kMergeChunksPerWorker = 4;

// Builds one shard's leaf: the linear merge of its capture negatives and
// its canonical update stream — both sorted by (query, object) — adding
// the fields of equal keys.
void BuildLeaf(const std::vector<MergeEntry>& captures,
               const std::vector<Update>& updates,
               std::vector<MergeEntry>* leaf) {
  leaf->clear();
  leaf->reserve(captures.size() + updates.size());
  auto append = [leaf](const MergeEntry& e) {
    if (!leaf->empty() && leaf->back().q == e.q && leaf->back().o == e.o) {
      leaf->back().d += e.d;
      leaf->back().plus += e.plus;
      return;
    }
    STQ_DCHECK(leaf->empty() || MergeKeyLess(leaf->back(), e))
        << "shard leaf input out of (query, object) order";
    leaf->push_back(e);
  };
  size_t i = 0;
  for (const Update& u : updates) {
    for (; i < captures.size() && (captures[i].q < u.query ||
                                   (captures[i].q == u.query &&
                                    captures[i].o <= u.object));
         ++i) {
      append(captures[i]);
    }
    const int d = u.sign == UpdateSign::kPositive ? 1 : -1;
    append(MergeEntry{u.query, u.object, d, d > 0 ? 1 : 0});
  }
  for (; i < captures.size(); ++i) append(captures[i]);
}

// Merges the canonical-order streams `a` and `b` into the canonical-order
// stream `out` and applies the cancel rule of CanonicalizeUpdates.
void MergeCanonicalTails(const std::vector<Update>& a,
                         const std::vector<Update>& b,
                         std::vector<Update>* out) {
  if (a.empty() && b.empty()) return;
  const auto n = static_cast<ptrdiff_t>(out->size());
  out->insert(out->end(), a.begin(), a.end());
  out->insert(out->end(), b.begin(), b.end());
  std::inplace_merge(out->begin() + n,
                     out->begin() + n + static_cast<ptrdiff_t>(a.size()),
                     out->end(), CanonicalUpdateLess);
  std::inplace_merge(out->begin(), out->begin() + n, out->end(),
                     CanonicalUpdateLess);
  DropCancellingPairs(out);
}

// One buffered operation for a shard, recorded during the serial route
// phase and applied at the start of the shard's parallel tick task, into
// the shard's own UpdateBuffer. Per-shard op order is removals, then
// upserts interleaved with their re-route removals, then query changes,
// then a rebalance's handoffs. The buffer coalesces each id's ops and
// drains them sorted by id, so the shard's tick does not depend on this
// order.
struct ShardOp {
  enum class Kind : uint8_t {
    kRemoveObject,  // object.id
    kUpsert,        // object
    kQueryChange,   // query: a registration, move or unregistration
    kCapture,  // query.id: snapshot the committed answer of a departing query
  };
  Kind kind = Kind::kRemoveObject;
  PendingObjectUpsert object;
  PendingQueryChange query;

  uint64_t id() const {
    return kind == Kind::kRemoveObject || kind == Kind::kUpsert ? object.id
                                                                : query.id;
  }
};

// Applies shard `s`'s routed ops to its own buffer `pending` through the
// buffer's Add* calls, and appends the capture negatives of its departing
// queries to `captures`. Reading a captured answer here, before the shard
// tick, is exact: the ops are buffered, so they cannot have changed the
// committed answer yet. Objects the shard removes this tick
// (`removed_from`) ship their own phase-1 negatives and are skipped. An
// op the shard cannot take means the router and the shard disagree about
// what the shard holds — never an input error, since the front door has
// checked every call — so it aborts, naming the shard and the id.
void ApplyShardOps(int s, const GridEngine& shard,
                   const std::vector<ShardOp>& ops,
                   const FlatSet<ObjectId>& removed_from,
                   UpdateBuffer* pending, std::vector<MergeEntry>* captures) {
  for (const ShardOp& op : ops) {
    bool ok = true;
    switch (op.kind) {
      case ShardOp::Kind::kRemoveObject: {
        const bool stored = shard.ObjectReportTime(op.object.id).has_value();
        ok = stored || pending->HasPendingUpsert(op.object.id);
        pending->AddObjectRemove(op.object.id, stored);
        break;
      }
      case ShardOp::Kind::kUpsert:
        ok = op.object.t >=
             pending->LatestReportTime(op.object.id, [&] {
               return shard.ObjectReportTime(op.object.id);
             });
        pending->AddObjectUpsert(op.object);
        break;
      case ShardOp::Kind::kQueryChange: {
        const bool stored = shard.StoredQueryKind(op.query.id).has_value();
        const bool live = pending->QueryLiveAfterDrain(op.query.id, stored);
        const bool registers = op.query.kind != QueryChangeKind::kMove &&
                               op.query.kind != QueryChangeKind::kUnregister;
        ok = registers ? !live : live;
        pending->AddQueryChange(op.query, stored);
        break;
      }
      case ShardOp::Kind::kCapture: {
        const QueryRecord* rec = shard.query_store().Find(op.query.id);
        ok = rec != nullptr;
        if (!ok) break;
        for (ObjectId oid : rec->answer) {  // ascending
          if (!removed_from.contains(oid)) {
            captures->push_back(MergeEntry{op.query.id, oid, -1, 0});
          }
        }
        break;
      }
    }
    STQ_CHECK(ok) << "shard " << s << " cannot take the routed op for id "
                  << op.id()
                  << ": the router and the shard disagree on what it holds";
  }
}

// An (object-driven) k-NN dirtiness event: the locations an object report
// touched this tick. Mirrors the single-grid engine, where a removal
// re-tests the old location and an upsert both the old membership and the
// new candidate probes against each answer circle.
struct KnnEvent {
  Point old_loc;
  Point new_loc;
  bool has_old = false;
  bool has_new = false;
};

}  // namespace

// Tick-scoped working buffers, reused across ticks. Every
// container is cleared (never shrunk) before use, so the steady-state
// tick allocates only when a buffer outgrows its previous high-water
// mark. Defined here because MergeEntry/Reset/KnnEvent are local to this
// translation unit.
struct ShardedEngine::TickScratch {
  std::vector<char> touched;
  // Indexed by shard id; written only by the worker that claimed the
  // shard during the parallel phase (ops are read-only there).
  std::vector<std::vector<ShardOp>> ops;
  // Each shard's ops, coalesced in its own buffer and drained for its
  // tick. The shard's worker writes the buffer on every op, so each inbox
  // starts a cache line of its own: neighbouring shards' workers never
  // write one line.
  struct alignas(64) ShardInbox {
    UpdateBuffer pending;
    UpdateBatch batch;
  };
  std::vector<ShardInbox> inboxes;
  std::vector<std::vector<MergeEntry>> captures;  // move-away negatives
  std::vector<std::vector<MergeEntry>> leaves;    // sorted leaf streams
  std::vector<TickResult> shard_results;
  // Query-partitioned merge: the chunks' first query ids (after chunk 0)
  // and the chunks' output streams.
  std::vector<QueryId> chunk_cuts;
  std::vector<std::vector<Update>> chunk_out;
  // The two streams merged into the chunks' output last, each already in
  // canonical order.
  std::vector<Update> reset_negatives;
  std::vector<Update> knn_updates;
  FlatSet<QueryId> reset_qids;
  FlatSet<ObjectId> global_removals;
  std::vector<FlatSet<ObjectId>> removed_from;
  std::vector<KnnEvent> events;
  std::vector<int> ticked;
  std::vector<double> shard_walls;  // indexed by position in `ticked`
  ShardList route_ns;  // routing fan-out of the report being dispatched
  std::vector<QueryId> knn_dirty_ids;
  // Entities a rebalance this tick re-homes, ascending: listed by
  // MaybeRebalance, routed by RouteHandoffs.
  std::vector<ObjectId> handoff_objects;
  std::vector<QueryId> handoff_queries;
};

ShardedEngine::~ShardedEngine() = default;

ShardedEngine::ShardedEngine(const QueryProcessorOptions& options)
    : options_(options),
      map_(options.bounds, options.num_shards),
      pool_(ThreadPool::ResolveWorkers(options.worker_threads) > 1
                ? std::make_unique<ThreadPool>(
                      ThreadPool::ResolveWorkers(options.worker_threads))
                : nullptr) {
  STQ_CHECK(options_.num_shards >= 2)
      << "ShardedEngine requires num_shards >= 2";
  // Every shard engine spans the whole universe at the global cell count:
  // the single grid's cell geometry, populated only by the shard's own
  // objects. A shard's answers then depend only on which objects and
  // queries it holds, never on where the cuts lie, so a rebalance moves
  // entities between shards without touching any grid geometry, and
  // refined cells survive it. Per-shard grids adapt independently.
  QueryProcessorOptions so = options_;
  so.worker_threads = 1;  // shards tick in parallel, each serially
  for (int s = 0; s < map_.num_shards(); ++s) {
    shards_.push_back(std::make_unique<GridEngine>(so));
  }
  scratch_ = std::make_unique<TickScratch>();
}

std::optional<Timestamp> ShardedEngine::ObjectReportTime(ObjectId id) const {
  const RoutedObject* ro = objects_.FindPtr(id);
  if (ro == nullptr) return std::nullopt;
  return ro->t;
}

std::optional<QueryKind> ShardedEngine::StoredQueryKind(QueryId id) const {
  const RoutedQuery* rq = queries_.FindPtr(id);
  if (rq == nullptr) return std::nullopt;
  return rq->kind;
}

double ShardedEngine::CircleRadius(QueryId id) const {
  return queries_.FindPtr(id)->circle.radius;
}

namespace {

// Quantile cuts of `hist` into `slabs` contiguous runs: slabs+1 edge
// indices (0 .. n), strictly increasing, each interior cut at the
// smallest prefix reaching its load quantile. Requires n >= slabs.
std::vector<int> QuantileCuts(const std::vector<size_t>& hist, int slabs) {
  const int n = static_cast<int>(hist.size());
  std::vector<int> cuts(static_cast<size_t>(slabs) + 1);
  cuts[0] = 0;
  cuts[slabs] = n;
  size_t total = 0;
  for (size_t v : hist) total += v;
  size_t cum = 0;
  int j = 0;
  for (int s = 1; s < slabs; ++s) {
    const double target =
        static_cast<double>(total) * static_cast<double>(s) / slabs;
    while (j < n && static_cast<double>(cum) < target) {
      cum += hist[j];
      ++j;
    }
    // Keep every slab at least one column wide and leave room for the
    // remaining cuts.
    cuts[s] = std::clamp(j, cuts[s - 1] + 1, n - (slabs - s));
  }
  return cuts;
}

}  // namespace

void ShardedEngine::MaybeRebalance(Timestamp now, TickStats* stats) {
  const AdaptiveGridOptions& opt = options_.adaptive;
  if (tick_index_ - last_rebalance_tick_ < opt.rebalance_cooldown_ticks) {
    return;
  }
  if (objects_.size() < opt.rebalance_min_objects) return;
  const int sx = map_.sx();
  const int sy = map_.sy();
  const int nx = options_.grid_cells_per_side;
  const int ny = options_.grid_cells_per_side;
  const Rect& uni = map_.universe();
  const double width = uni.Width();
  const double height = uni.Height();
  // Cell-aligned cuts need at least one global cell column/row per slab
  // and a non-degenerate universe.
  if (nx < sx || ny < sy || !(width > 0.0) || !(height > 0.0)) return;

  // Imbalance gate: committed home-shard object loads under the current
  // map. (Replicas are ignored — the home distribution is what the cuts
  // can actually move.)
  std::vector<size_t> load(shards_.size(), 0);
  for (const auto& [oid, ro] : objects_) ++load[map_.HomeOf(ro.loc)];
  size_t max_load = 0;
  for (size_t l : load) max_load = std::max(max_load, l);
  const double mean_load =
      static_cast<double>(objects_.size()) / static_cast<double>(load.size());
  if (static_cast<double>(max_load) < mean_load * opt.rebalance_imbalance) {
    return;
  }

  // The decision ran; anchor the cooldown here so an already-optimal
  // partition is not recomputed every tick while skew persists.
  last_rebalance_tick_ = tick_index_;

  // Marginal load histograms at global-grid cell granularity, then
  // quantile cuts per axis (the sx x sy factorization is fixed).
  const double cell_w = width / nx;
  const double cell_h = height / ny;
  std::vector<size_t> hist_x(static_cast<size_t>(nx), 0);
  std::vector<size_t> hist_y(static_cast<size_t>(ny), 0);
  for (const auto& [oid, ro] : objects_) {
    const int cx = std::clamp(
        static_cast<int>(std::floor((ro.loc.x - uni.min_x) / cell_w)), 0,
        nx - 1);
    const int cy = std::clamp(
        static_cast<int>(std::floor((ro.loc.y - uni.min_y) / cell_h)), 0,
        ny - 1);
    ++hist_x[cx];
    ++hist_y[cy];
  }
  std::vector<int> cuts_x = QuantileCuts(hist_x, sx);
  std::vector<int> cuts_y = QuantileCuts(hist_y, sy);
  if (cuts_x == x_cell_cuts_ && cuts_y == y_cell_cuts_) return;

  auto edges_of = [](const std::vector<int>& cuts, double min, double max,
                     double cell, int n) {
    std::vector<double> edges;
    edges.reserve(cuts.size());
    for (int j : cuts) {
      edges.push_back(j == 0 ? min : (j == n ? max : min + j * cell));
    }
    return edges;
  };
  std::vector<double> x_edges = edges_of(cuts_x, uni.min_x, uni.max_x, cell_w,
                                         nx);
  std::vector<double> y_edges = edges_of(cuts_y, uni.min_y, uni.max_y, cell_h,
                                         ny);

  // --- Install the map and list the handoffs -------------------------------
  map_.SetBoundaries(x_edges, y_edges);
  x_cell_cuts_ = std::move(cuts_x);
  y_cell_cuts_ = std::move(cuts_y);

  // Every entity whose route set changed is handed off by RouteHandoffs
  // in this same tick. k-NN state is router-owned and untouched by
  // partitioning.
  TickScratch& scratch = *scratch_;
  ShardList& ns = scratch.route_ns;
  size_t moved_objects = 0;
  for (const auto& [oid, ro] : objects_) {
    RouteShardsOfObject(CommittedReport(oid, ro), &ns);
    if (ns == ro.shards) continue;
    ++moved_objects;
    scratch.handoff_objects.push_back(oid);
  }
  for (const auto& [qid, rq] : queries_) {
    if (rq.kind == QueryKind::kKnn) continue;
    RouteShardsOf(rq, &ns);
    if (!(ns == rq.shards)) scratch.handoff_queries.push_back(qid);
  }
  std::sort(scratch.handoff_objects.begin(), scratch.handoff_objects.end());
  std::sort(scratch.handoff_queries.begin(), scratch.handoff_queries.end());

  ShardRebalanceEvent event;
  event.tick_index = tick_index_;
  event.time = now;
  event.x_edges = std::move(x_edges);
  event.y_edges = std::move(y_edges);
  event.moved_objects = moved_objects;
  rebalance_history_.push_back(std::move(event));
  ++stats->shard_rebalances;
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

void ShardedEngine::RouteShardsOf(const RoutedQuery& rq,
                                  ShardList* out) const {
  out->clear();
  switch (rq.kind) {
    case QueryKind::kRange:
    case QueryKind::kPredictiveRange:
      map_.ShardsOverlapping(rq.region, out);
      break;
    case QueryKind::kCircleRange: {
      // Seam-band tightening: the bounding box overlaps corner shards
      // the disk itself never reaches. The filter only saves work: every
      // object whose home shard it drops lies farther than the radius
      // (RectDistance2 under-approximates the distance to every in-shard
      // point monotonically under FP rounding, the same closed <= as the
      // disk), so that shard's registration would match nothing the home
      // shard of a member does not already report, and the refcounts
      // would absorb the duplicate anyway.
      map_.ShardsOverlapping(
          rq.circle.BoundingBox().Intersection(map_.universe()), out);
      const double r2 = rq.circle.radius * rq.circle.radius;
      size_t w = 0;
      for (int s : *out) {
        if (RectDistance2(map_.shard_rect(s), rq.circle.center) <= r2) {
          (*out)[w++] = s;
        }
      }
      out->resize(w);
      break;
    }
    case QueryKind::kKnn:
      break;  // router-owned
  }
}

void ShardedEngine::RouteShardsOfObject(const PendingObjectUpsert& u,
                                        ShardList* out) const {
  if (!u.predictive) {
    out->clear();
    out->push_back(map_.HomeOf(u.loc));
    return;
  }
  // Seam-band tightening: replicate along the exact trajectory segment,
  // not its bounding box — a diagonal mover's bbox drags in corner
  // shards the segment never enters. The filter only saves work: a
  // range or circle query tests the stored location, which its home
  // shard sees, and a predictive query matching the trajectory meets it
  // at a point of the segment, which the shard holding that point sees;
  // a shard the closed segment misses holds no extra candidate, and the
  // refcounts absorb any duplicate. `u.loc` is a segment endpoint, so
  // the home shard always survives the filter.
  const Segment footprint = Trajectory{u.loc, u.vel, u.t}.FootprintBetween(
      u.t, u.t + options_.prediction_horizon);
  map_.ShardsOverlapping(footprint.BoundingBox(), out);
  size_t w = 0;
  for (int s : *out) {
    if (SegmentIntersectsRect(footprint, map_.shard_rect(s))) {
      (*out)[w++] = s;
    }
  }
  out->resize(w);
  STQ_DCHECK(!out->empty()) << "predictive object routed to no shard";
}

PendingObjectUpsert ShardedEngine::CommittedReport(ObjectId id,
                                                  const RoutedObject& ro) {
  return PendingObjectUpsert{id, ro.loc, ro.vel, ro.t, ro.predictive};
}

void ShardedEngine::RouteObject(const PendingObjectUpsert& u,
                                RoutedObject* ro, bool resend_kept) {
  TickScratch& scratch = *scratch_;
  ShardList& ns = scratch.route_ns;
  RouteShardsOfObject(u, &ns);
  auto push = [&](int s, ShardOp::Kind kind) {
    ShardOp op;
    op.kind = kind;
    op.object = u;
    scratch.ops[s].push_back(op);
    scratch.touched[s] = 1;
  };
  for (int s : ns) {
    const bool kept =
        std::binary_search(ro->shards.begin(), ro->shards.end(), s);
    if (kept && !resend_kept) continue;
    // A report older than the stored one passes the stale check only
    // after a removal of the object this tick, which the buffer folded
    // into the report. The shard still stores the newer record, so it
    // gets the removal too and folds it the same way.
    if (kept && u.t < ro->t) push(s, ShardOp::Kind::kRemoveObject);
    push(s, ShardOp::Kind::kUpsert);
  }
  // Departed shards: the object hands off; the shard ships its own
  // phase-1 negatives for every answer it participated in there.
  for (int s : ro->shards) {
    if (std::binary_search(ns.begin(), ns.end(), s)) continue;
    push(s, ShardOp::Kind::kRemoveObject);
    scratch.removed_from[s].insert(u.id);
  }
  ro->shards = ns;
}

void ShardedEngine::RouteQuery(QueryId id, RoutedQuery* rq, bool resend_kept) {
  TickScratch& scratch = *scratch_;
  ShardList& ns = scratch.route_ns;
  RouteShardsOf(*rq, &ns);
  for (int s : ns) {
    const bool kept =
        std::binary_search(rq->shards.begin(), rq->shards.end(), s);
    if (kept && !resend_kept) continue;
    ShardOp op;
    op.kind = ShardOp::Kind::kQueryChange;
    PendingQueryChange& c = op.query;
    c.id = id;
    c.region = rq->region;
    c.center = rq->circle.center;
    c.radius = rq->circle.radius;
    c.t_from = rq->t_from;
    c.t_to = rq->t_to;
    switch (rq->kind) {
      case QueryKind::kRange:
        c.kind = QueryChangeKind::kRegisterRange;
        break;
      case QueryKind::kPredictiveRange:
        c.kind = QueryChangeKind::kRegisterPredictive;
        break;
      case QueryKind::kCircleRange:
        c.kind = QueryChangeKind::kRegisterCircle;
        break;
      case QueryKind::kKnn:
        STQ_CHECK(false) << "unreachable: k-NN queries route to no shard";
        break;
    }
    if (kept) c.kind = QueryChangeKind::kMove;
    scratch.ops[s].push_back(op);
    scratch.touched[s] = 1;
  }
  for (int s : rq->shards) {
    if (std::binary_search(ns.begin(), ns.end(), s)) continue;
    // Departing shard: capture its committed answer (it turns
    // all-negative at the router), then unregister there.
    ShardOp op;
    op.kind = ShardOp::Kind::kCapture;
    op.query.id = id;
    scratch.ops[s].push_back(op);
    op.kind = ShardOp::Kind::kQueryChange;
    op.query.kind = QueryChangeKind::kUnregister;
    scratch.ops[s].push_back(op);
    scratch.touched[s] = 1;
  }
  rq->shards = ns;
}

void ShardedEngine::RouteHandoffs() {
  // A handoff is an ordinary crossing of a seam: the departing shard gets
  // a removal (its own phase-1 negatives) or a capture plus unregister,
  // the arriving shard re-ingests the committed state (positives for
  // what it matches there), and the refcount merge nets each -A/+A pair
  // to nothing. Shards that keep the entity already hold it as is. No
  // history record and no k-NN event: the entity did not move. An entity
  // the batch already routed this tick holds its shard set under the new
  // map, so routing it again sends nothing; one the batch dropped is gone.
  for (ObjectId id : scratch_->handoff_objects) {
    RoutedObject* ro = objects_.FindPtr(id);
    if (ro != nullptr) {
      RouteObject(CommittedReport(id, *ro), ro, /*resend_kept=*/false);
    }
  }
  for (QueryId id : scratch_->handoff_queries) {
    RoutedQuery* rq = queries_.FindPtr(id);
    if (rq != nullptr) RouteQuery(id, rq, /*resend_kept=*/false);
  }
}

template <typename Fn>
void ShardedEngine::ForEachAnswerMember(QueryId id, const RoutedQuery& rq,
                                        Fn&& fn) const {
  // A k-way union of the shards' answer sets; a query overlaps a handful
  // of shards at most.
  SmallVector<AnswerSet::const_iterator, 4> cur;
  SmallVector<AnswerSet::const_iterator, 4> end;
  for (int s : rq.shards) {
    const QueryRecord* rec = shards_[s]->query_store().Find(id);
    STQ_CHECK(rec != nullptr) << "shard " << s << " lost query " << id;
    if (rec->answer.empty()) continue;
    cur.push_back(rec->answer.begin());
    end.push_back(rec->answer.end());
  }
  for (;;) {
    bool any = false;
    ObjectId next = 0;
    for (size_t i = 0; i < cur.size(); ++i) {
      if (cur[i] != end[i] && (!any || *cur[i] < next)) {
        next = *cur[i];
        any = true;
      }
    }
    if (!any) return;
    for (size_t i = 0; i < cur.size(); ++i) {
      if (cur[i] != end[i] && *cur[i] == next) ++cur[i];
    }
    fn(next);
  }
}

// ---------------------------------------------------------------------------
// Tick
// ---------------------------------------------------------------------------

void ShardedEngine::Tick(Timestamp now, const UpdateBatch& batch,
                         TickResult* result) {
  ++tick_index_;
  TickStats* stats = &result->stats;
  std::vector<Update>* out = &result->updates;

  // Adaptive shard rebalancing decides first, on committed router state,
  // before the batch is routed: it installs the new map and lists the
  // entities to hand off. The batch then routes against the new map like
  // any other; the handoffs route after it.
  TickScratch& scratch = *scratch_;
  scratch.handoff_objects.clear();
  scratch.handoff_queries.clear();
  if (options_.adaptive.enabled && options_.adaptive.rebalance) {
    PhaseTimer rebalance_timer(&stats->rebalance_seconds);
    MaybeRebalance(now, stats);
  }

  const size_t num_shards = shards_.size();
  std::vector<char>& touched = scratch.touched;
  touched.assign(num_shards, 0);
  // Per-shard op batches recorded by the route phase and applied inside
  // each shard's parallel tick task.
  std::vector<std::vector<ShardOp>>& ops = scratch.ops;
  ops.resize(num_shards);
  for (std::vector<ShardOp>& v : ops) v.clear();
  scratch.inboxes.resize(num_shards);
  // Per-shard capture negatives and leaf delta streams (captures + shard
  // updates), built by the parallel tasks and merged by the chunks below.
  std::vector<std::vector<MergeEntry>>& captures = scratch.captures;
  captures.resize(num_shards);
  for (std::vector<MergeEntry>& v : captures) v.clear();
  std::vector<std::vector<MergeEntry>>& leaves = scratch.leaves;
  leaves.resize(num_shards);
  // Phase-1 negatives of dropped queries, ascending (query, object): the
  // drops run in ascending query order and read each answer ascending.
  std::vector<Update>& reset_negatives = scratch.reset_negatives;
  FlatSet<QueryId>& reset_qids = scratch.reset_qids;
  FlatSet<ObjectId>& global_removals = scratch.global_removals;
  reset_negatives.clear();
  reset_qids.clear();
  global_removals.clear();
  // Objects shard s will emit its own phase-1 removal negatives for this
  // tick; move-away captures must not decrement those pairs again.
  std::vector<FlatSet<ObjectId>>& removed_from = scratch.removed_from;
  removed_from.resize(num_shards);
  for (FlatSet<ObjectId>& s : removed_from) s.clear();
  std::vector<KnnEvent>& events = scratch.events;
  events.clear();

  {
    PhaseTimer route_timer(&stats->shard_route_seconds);

    // --- Route removals ---------------------------------------------------
    for (ObjectId id : batch.removals) {
      auto it = objects_.find(id);
      STQ_CHECK(it != objects_.end())
          << "buffered removal of unknown object " << id;
      RoutedObject& ro = it->second;
      for (int s : ro.shards) {
        ShardOp op;
        op.kind = ShardOp::Kind::kRemoveObject;
        op.object.id = id;
        ops[s].push_back(op);
        touched[s] = 1;
        removed_from[s].insert(id);
      }
      global_removals.insert(id);
      KnnEvent e;
      e.old_loc = ro.loc;
      e.has_old = true;
      events.push_back(e);
      objects_.erase(it);
      ++stats->object_removals_applied;
    }

    // --- Route upserts ----------------------------------------------------
    for (const PendingObjectUpsert& u : batch.upserts) {
      KnnEvent e;
      e.new_loc = u.loc;
      e.has_new = true;
      auto it = objects_.find(u.id);
      if (it == objects_.end()) {
        it = objects_.emplace(u.id, RoutedObject{}).first;
      } else {
        e.old_loc = it->second.loc;
        e.has_old = true;
      }
      RoutedObject& ro = it->second;
      RouteObject(u, &ro, /*resend_kept=*/true);
      ro.loc = u.loc;
      ro.vel = u.predictive ? u.vel : Velocity{};
      ro.t = u.t;
      ro.predictive = u.predictive;
      events.push_back(e);
      ++stats->object_updates_applied;
    }

    // --- Route query changes ----------------------------------------------
    // Every removal is routed by now, so a dropped query's phase-1
    // negatives (the single-grid engine ships one for every removed object
    // that was a member at tick start, even when the query itself is
    // dropped later in the tick) are known when it is dropped. Its shards'
    // committed answers are still the tick-start ones: shard ops apply in
    // the shard phase.
    auto drop_routed_query = [&](QueryId qid) {
      auto it = queries_.find(qid);
      STQ_CHECK(it != queries_.end()) << "dropping unknown query " << qid;
      RoutedQuery& rq = it->second;
      if (!global_removals.empty()) {
        auto note = [&](ObjectId oid) {
          if (global_removals.contains(oid)) {
            reset_negatives.push_back(Update::Negative(qid, oid));
          }
        };
        if (rq.kind == QueryKind::kKnn) {
          for (ObjectId oid : rq.knn_answer) note(oid);  // sorted by id
        } else {
          ForEachAnswerMember(qid, rq, note);
        }
      }
      reset_qids.insert(qid);
      for (int s : rq.shards) {
        ShardOp op;
        op.kind = ShardOp::Kind::kQueryChange;
        op.query.kind = QueryChangeKind::kUnregister;
        op.query.id = qid;
        ops[s].push_back(op);
        touched[s] = 1;
      }
      knn_dirty_.erase(qid);
      queries_.erase(it);
      ++stats->queries_unregistered;
    };

    for (const PendingQueryChange& c : batch.query_changes) {
      switch (c.kind) {
        case QueryChangeKind::kUnregister: {
          drop_routed_query(c.id);
          break;
        }
        case QueryChangeKind::kMove: {
          auto it = queries_.find(c.id);
          STQ_CHECK(it != queries_.end()) << "buffered move of unknown query";
          RoutedQuery& rq = it->second;
          if (rq.kind == QueryKind::kKnn) {
            rq.circle.center = c.center;
            knn_dirty_.insert(c.id);
            ++stats->query_changes_applied;
            break;
          }
          if (rq.kind == QueryKind::kCircleRange) {
            rq.circle.center = c.center;
          } else {
            rq.region = c.region;
          }
          RouteQuery(c.id, &rq, /*resend_kept=*/true);
          ++stats->query_changes_applied;
          break;
        }
        default: {  // a Register*: re-registration drops the old incarnation
          if (queries_.contains(c.id)) drop_routed_query(c.id);
          RoutedQuery rq;
          switch (c.kind) {
            case QueryChangeKind::kRegisterRange:
              rq.kind = QueryKind::kRange;
              rq.region = c.region;
              break;
            case QueryChangeKind::kRegisterPredictive:
              rq.kind = QueryKind::kPredictiveRange;
              rq.region = c.region;
              rq.t_from = c.t_from;
              rq.t_to = c.t_to;
              break;
            case QueryChangeKind::kRegisterCircle:
              rq.kind = QueryKind::kCircleRange;
              rq.circle = Circle{c.center, c.radius};
              break;
            case QueryChangeKind::kRegisterKnn:
              rq.kind = QueryKind::kKnn;
              rq.circle = Circle{c.center, 0.0};
              rq.k = c.k;
              break;
            case QueryChangeKind::kMove:
            case QueryChangeKind::kUnregister:
              STQ_CHECK(false) << "unreachable";
              break;
          }
          RouteQuery(c.id, &rq, /*resend_kept=*/true);
          if (rq.kind == QueryKind::kKnn) knn_dirty_.insert(c.id);
          queries_.emplace(c.id, std::move(rq));
          ++stats->query_changes_applied;
          break;
        }
      }
    }

    RouteHandoffs();
  }

  // --- Parallel shard phase -------------------------------------------------
  // Each touched shard's task applies its buffered op batch (shard
  // ingestion overlaps with other shards' ticks — the route phase above
  // only computed the decisions), runs the shard tick, and builds its
  // sorted leaf delta stream. Tasks are claimed via the pool's
  // work-stealing dispatcher with the largest batches first, so one
  // heavy shard cannot strand the rest of a static partition idle.
  std::vector<int>& ticked = scratch.ticked;
  ticked.clear();
  for (size_t s = 0; s < num_shards; ++s) {
    if (touched[s]) ticked.push_back(static_cast<int>(s));
  }
  std::sort(ticked.begin(), ticked.end(), [&ops](int a, int b) {
    if (ops[a].size() != ops[b].size()) return ops[a].size() > ops[b].size();
    return a < b;  // deterministic tie-break
  });
  std::vector<TickResult>& shard_results = scratch.shard_results;
  shard_results.resize(num_shards);
  {
    PhaseTimer wall_timer(&stats->shard_tick_wall_seconds);
    std::vector<double>& shard_walls = scratch.shard_walls;
    shard_walls.assign(ticked.size(), 0.0);
    auto run_one = [&](size_t i) {
      const auto t0 = std::chrono::steady_clock::now();
      const int s = ticked[i];
      GridEngine& shard = *shards_[s];
      TickScratch::ShardInbox& inbox = scratch.inboxes[s];
      ApplyShardOps(s, shard, ops[s], removed_from[s], &inbox.pending,
                    &captures[s]);
      // Captures come out ascending per run: the query changes', then a
      // rebalance's handoffs, which interleave with them in id order.
      std::vector<MergeEntry>& caps = captures[s];
      if (!std::is_sorted(caps.begin(), caps.end(), MergeKeyLess)) {
        std::sort(caps.begin(), caps.end(), MergeKeyLess);
      }
      inbox.pending.Drain(&inbox.batch);
      TickResult& shard_result = shard_results[s];
      shard_result.updates.clear();
      shard_result.stats = TickStats{};
      shard.Tick(now, inbox.batch, &shard_result);
      // Built in a local for the same cache-line reason as the merge
      // chunks' outputs below.
      std::vector<MergeEntry> leaf;
      leaf.swap(leaves[s]);
      BuildLeaf(captures[s], shard_result.updates, &leaf);
      leaves[s].swap(leaf);
      shard_walls[i] = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    };
    if (pool_ != nullptr && ticked.size() > 1) {
      pool_->RunDynamic(ticked.size(), run_one);
    } else {
      for (size_t i = 0; i < ticked.size(); ++i) run_one(i);
    }
    for (double w : shard_walls) {
      stats->shard_tick_busy_seconds += w;
      stats->shard_tick_max_seconds = std::max(stats->shard_tick_max_seconds, w);
    }
  }
  stats->shards_ticked = ticked.size();
  for (int s : ticked) {
    const TickStats& ss = shard_results[s].stats;
    stats->removals_seconds += ss.removals_seconds;
    stats->upserts_seconds += ss.upserts_seconds;
    stats->query_changes_seconds += ss.query_changes_seconds;
    stats->query_pass_seconds += ss.query_pass_seconds;
    stats->object_match_seconds += ss.object_match_seconds;
    stats->object_apply_seconds += ss.object_apply_seconds;
    stats->knn_search_seconds += ss.knn_search_seconds;
    stats->knn_apply_seconds += ss.knn_apply_seconds;
    stats->cells_split += ss.cells_split;
    stats->cells_merged += ss.cells_merged;
    stats->adapt_seconds += ss.adapt_seconds;
  }

  // --- Refcount merge -------------------------------------------------------
  // The query-id space is cut into chunks at query boundaries, so every
  // query's refcounts belong to exactly one chunk. On the pool, each chunk
  // k-way merges its slice of every (sorted) leaf, applies the refcount
  // transitions of its queries and writes its own output buffer; nothing
  // is inserted into or erased from the router maps. Concatenated in
  // chunk order, the outputs are in canonical order, whatever the cuts
  // and claim order.
  {
    PhaseTimer merge_timer(&stats->shard_merge_seconds);
    // Cut at evenly spaced entries of the largest leaf; shards split the
    // universe by space, not by query id, so every leaf spans the id
    // space much the same way.
    std::vector<QueryId>& cuts = scratch.chunk_cuts;
    cuts.clear();
    const auto largest = std::max_element(
        ticked.begin(), ticked.end(),
        [&](int a, int b) { return leaves[a].size() < leaves[b].size(); });
    if (largest != ticked.end() && !leaves[*largest].empty()) {
      const std::vector<MergeEntry>& leaf = leaves[*largest];
      const size_t want_chunks =
          kMergeChunksPerWorker * static_cast<size_t>(worker_threads());
      for (size_t c = 1; c < want_chunks; ++c) {
        const QueryId q = leaf[c * leaf.size() / want_chunks].q;
        if (cuts.empty() || q > cuts.back()) cuts.push_back(q);
      }
    }
    const size_t num_chunks = cuts.size() + 1;
    std::vector<std::vector<Update>>& chunk_out = scratch.chunk_out;
    if (chunk_out.size() < num_chunks) chunk_out.resize(num_chunks);

    auto merge_chunk = [&](size_t c) {
      // The output vector is grown as a local: neighbouring chunks'
      // vector headers share cache lines, and writing them once per
      // entry would bounce those lines between workers.
      std::vector<Update> dst;
      dst.swap(chunk_out[c]);
      dst.clear();
      auto first_of = [](const std::vector<MergeEntry>& leaf, QueryId q) {
        return std::lower_bound(
            leaf.data(), leaf.data() + leaf.size(), q,
            [](const MergeEntry& e, QueryId id) { return e.q < id; });
      };
      SmallVector<const MergeEntry*, 8> pos;
      SmallVector<const MergeEntry*, 8> end;
      for (int s : ticked) {
        const std::vector<MergeEntry>& leaf = leaves[s];
        pos.push_back(c == 0 ? leaf.data() : first_of(leaf, cuts[c - 1]));
        end.push_back(c + 1 == num_chunks ? leaf.data() + leaf.size()
                                          : first_of(leaf, cuts[c]));
      }
      QueryId q = 0;
      bool have_q = false;
      bool reset = false;
      RoutedQuery* rq = nullptr;
      for (;;) {
        const MergeEntry* head = nullptr;
        for (size_t l = 0; l < pos.size(); ++l) {
          if (pos[l] != end[l] &&
              (head == nullptr || MergeKeyLess(*pos[l], *head))) {
            head = pos[l];
          }
        }
        if (head == nullptr) break;
        MergeEntry sum{head->q, head->o, 0, 0};
        for (size_t l = 0; l < pos.size(); ++l) {
          if (pos[l] != end[l] && pos[l]->q == sum.q &&
              pos[l]->o == sum.o) {
            sum.d += pos[l]->d;
            sum.plus += pos[l]->plus;
            ++pos[l];
          }
        }
        if (!have_q || sum.q != q) {
          q = sum.q;
          have_q = true;
          reset = reset_qids.contains(q);
          rq = queries_.FindPtr(q);
        }
        if (reset) {
          // The query was dropped (and possibly re-registered) this tick.
          // The single-grid engine starts the new incarnation's answer
          // stream from scratch: every shard-reported member of the NEW
          // incarnation ships as a positive, regardless of old
          // membership; the old incarnation's emissions are discarded
          // (its removal negatives are the reset negatives).
          if (rq != nullptr && sum.plus > 0) {
            dst.push_back(Update::Positive(q, sum.o));
            rq->counts[sum.o] = sum.plus;
          }
          continue;
        }
        if (sum.d == 0) continue;  // cancelled within or across shards
        STQ_DCHECK(rq != nullptr) << "merge entry for unrouted query " << q;
        FlatMap<ObjectId, int>& counts = rq->counts;
        auto cit = counts.find(sum.o);
        const int before = cit == counts.end() ? 0 : cit->second;
        const int after = before + sum.d;
        STQ_DCHECK(after >= 0) << "negative shard refcount for query " << q
                               << ", object " << sum.o;
        if (before == 0 && after > 0) {
          dst.push_back(Update::Positive(q, sum.o));
        } else if (before > 0 && after == 0) {
          dst.push_back(Update::Negative(q, sum.o));
        }
        if (after == 0) {
          if (cit != counts.end()) {
            counts.erase(cit);
            // An answer that drains (a hotspot moving on) gives its
            // refcount slots back.
            counts.shrink_if_sparse();
          }
        } else if (cit == counts.end()) {
          counts.emplace(sum.o, after);
        } else {
          cit->second = after;
        }
      }
      chunk_out[c].swap(dst);
    };
    if (pool_ != nullptr && num_chunks > 1) {
      pool_->RunDynamic(num_chunks, merge_chunk);
    } else {
      for (size_t c = 0; c < num_chunks; ++c) merge_chunk(c);
    }
    size_t total = 0;
    for (size_t c = 0; c < num_chunks; ++c) total += chunk_out[c].size();
    out->reserve(total);
    for (size_t c = 0; c < num_chunks; ++c) {
      out->insert(out->end(), chunk_out[c].begin(), chunk_out[c].end());
    }
  }

  // --- Router k-NN ----------------------------------------------------------
  {
    PhaseTimer knn_timer(&stats->shard_knn_seconds);
    if (!events.empty()) {
      for (const auto& [qid, rq] : queries_) {
        if (rq.kind != QueryKind::kKnn || knn_dirty_.contains(qid)) continue;
        for (const KnnEvent& e : events) {
          double d2 = kInf;
          if (e.has_old) {
            d2 = std::min(d2, SquaredDistance(rq.circle.center, e.old_loc));
          }
          if (e.has_new) {
            d2 = std::min(d2, SquaredDistance(rq.circle.center, e.new_loc));
          }
          // <= mirrors the single-grid candidate probe: exact threshold
          // ties dirty the query too; an unfilled answer (infinite
          // threshold) is dirtied by every event.
          if (d2 <= rq.knn_dist2) {
            knn_dirty_.insert(qid);
            break;
          }
        }
      }
    }
    std::vector<QueryId>& dirty = scratch.knn_dirty_ids;
    dirty.assign(knn_dirty_.begin(), knn_dirty_.end());
    std::sort(dirty.begin(), dirty.end());
    knn_dirty_.clear();
    std::vector<Update>& knn_out = scratch.knn_updates;
    knn_out.clear();
    for (QueryId qid : dirty) {
      auto it = queries_.find(qid);
      if (it == queries_.end() || it->second.kind != QueryKind::kKnn) continue;
      RoutedQuery& rq = it->second;
      const std::vector<KnnEvaluator::Neighbor> neighbors =
          SearchKnn(rq.circle.center, rq.k);
      std::vector<ObjectId> fresh;
      fresh.reserve(neighbors.size());
      for (const auto& nb : neighbors) fresh.push_back(nb.id);
      std::sort(fresh.begin(), fresh.end());
      // Diff against the committed answer (both sorted by id).
      size_t a = 0, b = 0;
      while (a < rq.knn_answer.size() || b < fresh.size()) {
        if (b == fresh.size() ||
            (a < rq.knn_answer.size() && rq.knn_answer[a] < fresh[b])) {
          knn_out.push_back(Update::Negative(qid, rq.knn_answer[a]));
          ++a;
        } else if (a == rq.knn_answer.size() || fresh[b] < rq.knn_answer[a]) {
          knn_out.push_back(Update::Positive(qid, fresh[b]));
          ++b;
        } else {
          ++a;
          ++b;
        }
      }
      rq.knn_answer = std::move(fresh);
      rq.knn_dist2 = neighbors.size() == static_cast<size_t>(rq.k)
                         ? neighbors.back().dist2
                         : kInf;
      ++stats->knn_reevaluations;
    }
  }

  {
    // The reset negatives and the k-NN diffs (ascending query id, each
    // query's ids ascending) merge into the chunks' canonical stream.
    PhaseTimer merge_timer(&stats->shard_merge_seconds);
    MergeCanonicalTails(reset_negatives, scratch.knn_updates, out);
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

size_t ShardedEngine::AnswerBytesResident() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) bytes += shard->AnswerBytesResident();
  return bytes;
}

std::vector<int> ShardedEngine::ObjectShards(ObjectId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) return {};
  return std::vector<int>(it->second.shards.begin(), it->second.shards.end());
}

std::vector<int> ShardedEngine::QueryShards(QueryId id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) return {};
  return std::vector<int>(it->second.shards.begin(), it->second.shards.end());
}

Result<std::vector<ObjectId>> ShardedEngine::CurrentAnswer(QueryId id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return UnknownQuery(id);
  }
  const RoutedQuery& rq = it->second;
  if (rq.kind == QueryKind::kKnn) return rq.knn_answer;
  std::vector<ObjectId> answer;
  answer.reserve(rq.counts.size());
  ForEachAnswerMember(id, rq, [&answer](ObjectId oid) {
    answer.push_back(oid);
  });
  return answer;
}

bool ShardedEngine::GetAnswerSet(QueryId id, AnswerSet* out) const {
  out->clear();
  auto it = queries_.find(id);
  if (it == queries_.end()) return false;
  const RoutedQuery& rq = it->second;
  if (rq.kind == QueryKind::kKnn) {
    out->insert(rq.knn_answer.begin(), rq.knn_answer.end());
    return true;
  }
  if (rq.shards.size() == 1) {
    // Most queries live in one shard: its answer set is the answer.
    const QueryRecord* rec = shards_[rq.shards[0]]->query_store().Find(id);
    STQ_CHECK(rec != nullptr)
        << "shard " << rq.shards[0] << " lost query " << id;
    *out = rec->answer;
    return true;
  }
  ForEachAnswerMember(id, rq, [out](ObjectId oid) { out->insert(oid); });
  return true;
}

void ShardedEngine::ForEachObjectInfo(
    // stq-lint: allow(alloc-discipline/function): cold introspection walk
    const std::function<void(const ObjectInfo&)>& fn) const {
  for (const auto& [oid, ro] : objects_) {
    ObjectInfo info;
    info.id = oid;
    info.loc = ro.loc;
    info.vel = ro.vel;
    info.t = ro.t;
    info.predictive = ro.predictive;
    fn(info);
  }
}

void ShardedEngine::ForEachQueryInfo(
    // stq-lint: allow(alloc-discipline/function): cold introspection walk
    const std::function<void(const QueryInfo&)>& fn) const {
  for (const auto& [qid, rq] : queries_) {
    QueryInfo info;
    info.id = qid;
    info.kind = rq.kind;
    info.region = rq.region;
    info.circle = rq.circle;
    info.k = rq.k;
    info.t_from = rq.t_from;
    info.t_to = rq.t_to;
    info.answer_size = rq.kind == QueryKind::kKnn ? rq.knn_answer.size()
                                                  : rq.counts.size();
    fn(info);
  }
}

Result<std::vector<ObjectId>> ShardedEngine::EvaluateFromScratch(
    QueryId id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return UnknownQuery(id);
  }
  const RoutedQuery& rq = it->second;
  std::vector<ObjectId> answer;
  if (rq.kind == QueryKind::kKnn) {
    for (const auto& nb : SearchKnn(rq.circle.center, rq.k)) {
      answer.push_back(nb.id);
    }
  } else {
    FlatSet<ObjectId> seen;
    for (int s : rq.shards) {
      Result<std::vector<ObjectId>> part = shards_[s]->EvaluateFromScratch(id);
      STQ_CHECK(part.ok()) << "shard " << s << " lost query " << id << ": "
                           << part.status().ToString();
      seen.insert(part->begin(), part->end());
    }
    answer.assign(seen.begin(), seen.end());
  }
  std::sort(answer.begin(), answer.end());
  return answer;
}

std::vector<KnnEvaluator::Neighbor> ShardedEngine::SearchKnn(
    const Point& center, int k) const {
  std::vector<KnnEvaluator::Neighbor> merged;
  if (k < 1) return merged;
  // Each shard's walk is clipped to its slab: its grid spans the universe,
  // and every object it holds whose home it is sits in the slab. A
  // replica from elsewhere its walk misses is found by its home shard.
  const int home = map_.HomeOf(center);
  const Rect home_slab = map_.shard_rect(home);
  merged = shards_[home]->SearchKnn(center, k, &home_slab);
  double r2 = merged.size() == static_cast<size_t>(k) ? merged.back().dist2
                                                      : kInf;
  for (int s = 0; s < map_.num_shards(); ++s) {
    if (s == home) continue;
    // Every object in shard s is at least RectDistance2 away; a shard
    // strictly beyond the current k-th distance cannot contribute.
    const Rect slab = map_.shard_rect(s);
    if (RectDistance2(slab, center) > r2) continue;
    const std::vector<KnnEvaluator::Neighbor> part =
        shards_[s]->SearchKnn(center, k, &slab);
    merged.insert(merged.end(), part.begin(), part.end());
    std::sort(merged.begin(), merged.end());
    // Predictive replicas appear in several shards with identical stored
    // positions; (dist2, id) duplicates are adjacent after the sort.
    merged.erase(std::unique(merged.begin(), merged.end(),
                             [](const KnnEvaluator::Neighbor& a,
                                const KnnEvaluator::Neighbor& b) {
                               return a.id == b.id && a.dist2 == b.dist2;
                             }),
                 merged.end());
    if (merged.size() > static_cast<size_t>(k)) {
      merged.resize(static_cast<size_t>(k));
    }
    if (merged.size() == static_cast<size_t>(k)) {
      r2 = merged.back().dist2;
    }
  }
  return merged;
}

// ---------------------------------------------------------------------------
// Cross-shard audit
// ---------------------------------------------------------------------------

void ShardedEngine::AuditCrossShard(
    size_t max_violations, std::vector<std::string>* violations) const {
  auto full = [&]() { return violations->size() >= max_violations; };
  auto add = [&](const std::string& msg) {
    if (!full()) violations->push_back("cross-shard: " + msg);
  };

  // The partition map itself: uniform or explicit boundaries, it must be
  // structurally sound; and every shard engine must cover the whole
  // universe at the global cell count, whatever the cuts (a rebalance
  // moves entities, never grid geometry).
  if (const Status st = map_.Validate(); !st.ok()) {
    add("shard map invalid: " + st.ToString());
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    const GridIndex& grid = shards_[s]->grid();
    if (!(grid.bounds() == options_.bounds) ||
        grid.cells_x() != options_.grid_cells_per_side ||
        grid.cells_y() != options_.grid_cells_per_side) {
      std::ostringstream os;
      os << "shard " << s
         << " grid does not cover the universe at the global cell count";
      add(os.str());
    }
  }

  // Objects: routing is consistent and every routed shard stores the
  // exact same record.
  std::vector<ObjectId> oids;
  oids.reserve(objects_.size());
  for (const auto& [oid, ro] : objects_) oids.push_back(oid);
  std::sort(oids.begin(), oids.end());
  for (ObjectId oid : oids) {
    if (full()) return;
    const RoutedObject& ro = *objects_.FindPtr(oid);
    ShardList expected;
    RouteShardsOfObject(CommittedReport(oid, ro), &expected);
    if (!(expected == ro.shards)) {
      std::ostringstream os;
      os << "object " << oid << " routed to " << ro.shards.size()
         << " shard(s) but its location/footprint maps to "
         << expected.size();
      add(os.str());
    }
    if (!ro.predictive && ro.shards.size() != 1) {
      std::ostringstream os;
      os << "sampled object " << oid << " lives in " << ro.shards.size()
         << " shards (double-counted); expected exactly its home shard";
      add(os.str());
    }
    for (int s : ro.shards) {
      const ObjectRecord* rec = shards_[s]->object_store().Find(oid);
      if (rec == nullptr) {
        std::ostringstream os;
        os << "object " << oid << " routed to shard " << s
           << " but missing from its store";
        add(os.str());
        continue;
      }
      if (!(rec->loc == ro.loc) || rec->t != ro.t ||
          rec->predictive != ro.predictive || !(rec->vel == ro.vel)) {
        std::ostringstream os;
        os << "object " << oid << " state in shard " << s
           << " diverges from the router's record";
        add(os.str());
      }
    }
  }

  // Reverse direction: no shard stores an object the router did not
  // route there.
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::vector<ObjectId> stored;
    shards_[s]->object_store().ForEach(
        [&](const ObjectRecord& rec) { stored.push_back(rec.id); });
    std::sort(stored.begin(), stored.end());
    for (ObjectId oid : stored) {
      if (full()) return;
      auto it = objects_.find(oid);
      if (it == objects_.end() ||
          !std::binary_search(it->second.shards.begin(),
                              it->second.shards.end(),
                              static_cast<int>(s))) {
        std::ostringstream os;
        os << "shard " << s << " stores object " << oid
           << " the router never routed there";
        add(os.str());
      }
    }
  }

  // Queries: shard registration matches routing, and the union of the
  // per-shard answers (with multiplicity) is exactly the router's
  // reference-counted committed answer.
  std::vector<QueryId> qids;
  qids.reserve(queries_.size());
  for (const auto& [qid, rq] : queries_) qids.push_back(qid);
  std::sort(qids.begin(), qids.end());
  for (QueryId qid : qids) {
    if (full()) return;
    const RoutedQuery& rq = *queries_.FindPtr(qid);
    if (rq.kind == QueryKind::kKnn) {
      if (!rq.shards.empty()) {
        std::ostringstream os;
        os << "k-NN query " << qid << " routed to shards; it is router-owned";
        add(os.str());
      }
      std::vector<ObjectId> fresh;
      for (const auto& nb : SearchKnn(rq.circle.center, rq.k)) {
        fresh.push_back(nb.id);
      }
      std::sort(fresh.begin(), fresh.end());
      if (fresh != rq.knn_answer) {
        std::ostringstream os;
        os << "k-NN query " << qid << " committed answer ("
           << rq.knn_answer.size() << " ids) != cross-shard search ("
           << fresh.size() << " ids)";
        add(os.str());
      }
      continue;
    }
    ShardList expected;
    RouteShardsOf(rq, &expected);
    if (!(expected == rq.shards)) {
      std::ostringstream os;
      os << "query " << qid << " routed to " << rq.shards.size()
         << " shard(s) but its region overlaps " << expected.size();
      add(os.str());
    }
    FlatMap<ObjectId, int> counts;
    for (int s : rq.shards) {
      if (shards_[s]->query_store().Find(qid) == nullptr) {
        std::ostringstream os;
        os << "query " << qid << " routed to shard " << s
           << " but missing from its store";
        add(os.str());
        continue;
      }
      Result<std::vector<ObjectId>> ans = shards_[s]->CurrentAnswer(qid);
      if (!ans.ok()) continue;
      for (ObjectId oid : *ans) ++counts[oid];
    }
    const FlatMap<ObjectId, int>& committed = rq.counts;
    std::vector<ObjectId> keys;
    for (const auto& [oid, cnt] : counts) keys.push_back(oid);
    for (const auto& [oid, cnt] : committed) keys.push_back(oid);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (ObjectId oid : keys) {
      if (full()) return;
      const auto a = counts.find(oid);
      const auto b = committed.find(oid);
      const int shard_count = a == counts.end() ? 0 : a->second;
      const int ref_count = b == committed.end() ? 0 : b->second;
      if (shard_count != ref_count) {
        std::ostringstream os;
        os << "query " << qid << ", object " << oid << ": " << shard_count
           << " shard(s) report the pair but the router's refcount is "
           << ref_count;
        add(os.str());
      }
    }
  }

  // Reverse direction: no shard hosts a query the router did not route
  // there (or of a different kind).
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::vector<QueryId> stored;
    shards_[s]->query_store().ForEach(
        [&](const QueryRecord& rec) { stored.push_back(rec.id); });
    std::sort(stored.begin(), stored.end());
    for (QueryId qid : stored) {
      if (full()) return;
      auto it = queries_.find(qid);
      if (it == queries_.end() ||
          !std::binary_search(it->second.shards.begin(),
                              it->second.shards.end(), static_cast<int>(s))) {
        std::ostringstream os;
        os << "shard " << s << " hosts query " << qid
           << " the router never routed there";
        add(os.str());
        continue;
      }
      if (shards_[s]->query_store().Find(qid)->kind != it->second.kind) {
        std::ostringstream os;
        os << "shard " << s << " hosts query " << qid
           << " with a different kind than the router's record";
        add(os.str());
      }
    }
  }
}

}  // namespace stq
