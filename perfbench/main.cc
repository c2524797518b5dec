// stq_e2e: the end-to-end benchmark of the stq server stack.
//
//   stq_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out <dir>]
//
// A single thread runs a closed loop over the library's public API:
// for each period T it feeds that period's object reports and query
// moves through the server facade (Server, or PersistentServer on the
// durable workload), then calls SessionManager::Tick, which evaluates,
// flushes envelopes through the transport and pumps every ClientSession.
// The next period starts only after Tick returns, by which time every
// envelope the transport delivered has been applied by its client.
//
// Before the timed loop the server is set up from scratch (clients,
// initial objects and queries, the initial tick that ships the first
// full answers) at least three times and until 2.5 s are spent;
// setup_s is the median and the last set-up is the one measured. After
// the loop the run quiesces the transport, checks the outputs, and
// measures recovery_s, repeated likewise (at least once).
//
// End-to-end metrics (untraced runs):
//   setup_s                median set-up time; input generation excluded
//   period_p50_ms / _tail  one period: ingest, Tick (evaluate, flush,
//                          apply; WAL sync on the durable workload)
//   delivery_p50_ms / _tail  SessionManager::Tick alone
//   reports_per_s          object reports plus query moves per second of
//                          timed periods
//   shipped_kb_per_period  encoded envelope bytes (tick stream and resync
//                          responses) per period, in KiB
//   peak_rss_mb            process peak resident set (VmHWM) at the end
//   ok_op_share            1 - failed / attempted (API calls, clients,
//                          checks); its complement is the failed share
//   recovery_s             durable: PersistentServer::Open on the run's
//                          repository after Close; in memory, which has
//                          no log: a fresh Server re-fed every object and
//                          query plus the tick that rebuilds the answers
// The tail is the highest percentile with at least ten periods beyond it
// (the upper median below 21 periods); the run's JSON records which.
//
// Checks, each counted in `failed` / ok_op_share:
//   - every API call returns OK;
//   - after quiesce every client holds CurrentAnswer for each query;
//   - a seeded sample of queries matches EvaluateFromScratch;
//   - the three set-ups ship the same initial stream;
//   - the canonical update-stream CRC and the shipped bytes equal those
//     of every earlier run of the same binary, workload, seed and length
//     in --out, traced or not (the decorators must pass everything
//     through). Runs are keyed by a CRC of this executable, so a rebuild
//     with different code starts a fresh record;
//   - the recovered server holds the state the run ended with.
// Any failure prints "correct": false and exits 1.
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 the same loop runs with every seam wrapped (trace.h)
// and the line carries the per-layer metrics instead. Each run also
// writes <out>/<workload>-seed<seed>-trace<t>.json (host fingerprint,
// sizes, flush policy, every metric, which end-to-end metric each
// per-layer metric should move, the peak resident set before set-up,
// which is the inputs' and generators' share of peak_rss_mb) and, when
// traced, a Chrome trace.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "stq/common/alloc_stats.h"
#include "stq/common/crc32.h"
#include "stq/common/random.h"
#include "stq/core/server.h"
#include "stq/core/session.h"
#include "stq/core/transport.h"
#include "stq/storage/persistent_server.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Set-up and recovery are repeated until this much time is spent (within
// the repeat bounds) and their medians reported.
// Over a second: on a shared host the speed shifts about once a second,
// and a shorter window would sample only one such shift.
constexpr double kRepeatBudgetS = 2.5;
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 40;
constexpr int kMaxRecoveries = 40;
constexpr size_t kMinPeriods = 12;  // the tail needs >= 10 beyond it
constexpr size_t kSampleQueries = 200;
constexpr size_t kMaxQuiesceTicks = 64;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out = ".bench_build/runs";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
      have_seconds = args->seconds > 0;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         have_seconds && have_trace;
}

int HostThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Millis(double seconds) { return seconds * 1e3; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// The highest percentile with at least ten samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t samples = 0;
};

Tail TailOf(std::vector<double> v) {
  Tail tail;
  tail.samples = v.size();
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  // Below 21 samples that percentile would fall under the median; the
  // upper median is then the tail.
  const size_t index = std::max(n > 10 ? n - 11 : n - 1, n / 2);
  tail.value = v[index];
  tail.percentile = 100.0 * static_cast<double>(index + 1) /
                    static_cast<double>(n);
  return tail;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// CRC of this executable, naming the code a run measured.
std::string CodeId() {
  std::ifstream exe("/proc/self/exe", std::ios::binary);
  std::vector<char> buf(1 << 20);
  uint32_t crc = 0;
  while (exe.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         exe.gcount() > 0) {
    crc = stq::Crc32c(crc, buf.data(), static_cast<size_t>(exe.gcount()));
  }
  char hex[16];
  std::snprintf(hex, sizeof hex, "%08" PRIx32, crc);
  return hex;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

uint32_t ExtendCrc(uint32_t crc, const std::vector<stq::Update>& updates) {
  std::string bytes(updates.size() * 17, '\0');
  char* p = bytes.data();
  for (const stq::Update& u : updates) {
    std::memcpy(p, &u.query, 8);
    std::memcpy(p + 8, &u.object, 8);
    p[16] = static_cast<char>(u.sign);
    p += 17;
  }
  return stq::Crc32c(crc, bytes.data(), bytes.size());
}

stq::Server::Options ServerOptions(const WorkloadSpec& spec) {
  stq::Server::Options options;
  stq::QueryProcessorOptions& p = options.processor;
  p.grid_cells_per_side = spec.grid_cells;
  p.num_shards = spec.shards;
  p.worker_threads = std::min(spec.workers, HostThreads());
  if (spec.adaptive) {
    p.adaptive.enabled = true;
    p.adaptive.split_threshold = 32;
    p.adaptive.merge_threshold = 12;
    p.adaptive.max_level = 4;
    p.adaptive.cooldown_ticks = 2;
    p.adaptive.rebalance = spec.shards > 1;
    p.adaptive.rebalance_cooldown_ticks = 3;
    p.adaptive.rebalance_imbalance = 1.2;
  }
  return options;
}

// Defaults: unbounded flush, heartbeats on, 64-envelope queues.
const stq::SessionOptions kSessionOptions;

// Counts failed operations against attempted ones.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  void Call(const stq::Status& s, const char* what) {
    if (s.ok()) {
      ++attempted;
    } else {
      Check(false, std::string(what) + ": " + s.ToString());
    }
  }
};

// The server stack of one run. Members are built in declaration order
// and destroyed in reverse, but the destructor drops the SessionManager
// explicitly first: ~SessionManager calls backend_->server(), so it must
// never outlive the (Persistent)Server it fronts.
struct World {
  explicit World(const WorkloadSpec& s) : spec(s) {}
  ~World() {
    manager.reset();
    sessions.clear();
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  stq::Server& server() { return durable ? durable->server() : *memory; }

  stq::Status Report(const ObjectMove& r, double t) {
    return durable ? durable->ReportObject(r.id, r.loc, t)
                   : memory->ReportObject(r.id, r.loc, t);
  }
  stq::Status Move(const QueryMove& q) {
    return durable ? durable->MoveRangeQuery(q.id, q.region)
                   : memory->MoveRangeQuery(q.id, q.region);
  }

  const WorkloadSpec& spec;
  std::unique_ptr<TracedEnv> env;
  std::unique_ptr<stq::PersistentServer> durable;
  std::unique_ptr<stq::Server> memory;
  std::unique_ptr<stq::SessionBackend> backend;
  std::unique_ptr<TracedBackend> traced_backend;
  std::unique_ptr<stq::Transport> transport;
  stq::FaultInjectionTransport* faulty = nullptr;
  std::unique_ptr<WireTransport> wire;
  std::vector<std::unique_ptr<stq::ClientSession>> sessions;
  std::unique_ptr<stq::SessionManager> manager;
};

// Builds the stack and loads the initial world: the set-up that setup_s
// times. `tracer` is null on untraced runs.
std::unique_ptr<World> SetUp(const WorkloadSpec& spec, const Source& in,
                             uint64_t seed, const std::string& dir,
                             Tracer* tracer, Ledger* ledger) {
  auto w = std::make_unique<World>(spec);
  const stq::Server::Options options = ServerOptions(spec);
  stq::SessionBackend* backend = nullptr;
  if (spec.durable) {
    stq::PersistentServer::Options po;
    po.server = options;
    po.dir = dir;
    po.sync_every_tick = true;
    if (tracer != nullptr) {
      w->env = std::make_unique<TracedEnv>(stq::Env::Default(), tracer);
      po.env = w->env.get();
    }
    std::filesystem::create_directories(dir);
    w->durable = std::make_unique<stq::PersistentServer>(po);
    const stq::Status opened = w->durable->Open();
    ledger->Call(opened, "PersistentServer::Open");
    if (!opened.ok()) return nullptr;
    w->backend = std::make_unique<stq::PersistentServer::SessionBackendAdapter>(
        w->durable.get());
  } else {
    w->memory = std::make_unique<stq::Server>(options);
    w->backend = std::make_unique<stq::PlainSessionBackend>(w->memory.get());
  }
  backend = w->backend.get();
  if (tracer != nullptr) {
    w->traced_backend = std::make_unique<TracedBackend>(backend, tracer);
    backend = w->traced_backend.get();
  }
  if (spec.drop > 0.0 || spec.delay > 0.0) {
    auto faulty = std::make_unique<stq::FaultInjectionTransport>(seed);
    w->faulty = faulty.get();
    w->transport = std::move(faulty);
  } else {
    w->transport = std::make_unique<stq::PerfectTransport>();
  }
  w->wire = std::make_unique<WireTransport>(w->transport.get(), tracer);
  w->manager = std::make_unique<stq::SessionManager>(backend, w->wire.get(),
                                                     kSessionOptions);

  w->sessions.reserve(spec.clients);
  for (stq::ClientId cid = 1; cid <= spec.clients; ++cid) {
    ledger->Call(w->durable ? w->durable->AttachClient(cid)
                            : w->memory->AttachClient(cid),
                 "AttachClient");
    w->sessions.push_back(std::make_unique<stq::ClientSession>(
        cid, w->manager.get(), w->wire.get(), kSessionOptions));
    ledger->Call(w->manager->AttachSession(w->sessions.back().get()),
                 "AttachSession");
  }
  for (const ObjectMove& r : in.objects()) {
    ledger->Call(w->Report(r, 0.0), "ReportObject");
  }
  for (const QueryMove& q : in.queries()) {
    const stq::ClientId owner = OwnerOf(spec, q.id);
    ledger->Call(w->durable
                     ? w->durable->RegisterRangeQuery(q.id, owner, q.region)
                     : w->memory->RegisterRangeQuery(q.id, owner, q.region),
                 "RegisterRangeQuery");
  }
  w->manager->Tick(0.0);
  return w;
}

// Clients whose local answers differ from the server's for any query.
size_t UnconvergedClients(World* w, size_t num_queries) {
  std::vector<char> bad(w->spec.clients + 1, 0);
  const stq::QueryProcessor& qp = w->server().processor();
  for (stq::QueryId qid = 1; qid <= num_queries; ++qid) {
    const stq::ClientId owner = OwnerOf(w->spec, qid);
    const stq::Result<std::vector<stq::ObjectId>> truth =
        qp.CurrentAnswer(qid);
    if (!truth.ok() ||
        w->sessions[owner - 1]->client().SortedAnswerOf(qid) !=
            truth.value()) {
      bad[owner] = 1;
    }
  }
  return static_cast<size_t>(std::count(bad.begin(), bad.end(), 1));
}

// CRC over every query's current answer (the in-memory recovery check).
uint32_t AnswerDigest(const stq::QueryProcessor& qp, size_t num_queries) {
  uint32_t crc = 0;
  for (stq::QueryId qid = 1; qid <= num_queries; ++qid) {
    const stq::Result<std::vector<stq::ObjectId>> a = qp.CurrentAnswer(qid);
    if (!a.ok()) return 0;
    crc = stq::Crc32c(crc, &qid, sizeof qid);
    crc = stq::Crc32c(crc, a.value().data(),
                      a.value().size() * sizeof(stq::ObjectId));
  }
  return crc;
}

struct Counters {
  stq::SessionCounters session;
  stq::TransportCounters transport;
  stq::ClientSession::Counters clients;
  uint64_t wire_bytes = 0;
  uint64_t received = 0;
  uint64_t wal_bytes = 0;

  static Counters Of(World* w) {
    Counters c;
    c.session = w->manager->counters();
    c.transport = w->wire->inner_counters();
    std::vector<stq::ClientSession*> raw;
    raw.reserve(w->sessions.size());
    for (auto& s : w->sessions) raw.push_back(s.get());
    c.clients = stq::SumSessionCounters(raw);
    c.wire_bytes = w->wire->bytes();
    c.received = w->wire->received();
    c.wal_bytes = w->env ? w->env->appended_bytes() : 0;
    return c;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string moves;  // per-layer only: the end-to-end metric it should move
};

// Samples of one run: set-ups, the timed loop's periods, recoveries.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> recovery_s;
  std::vector<double> period_ms;
  std::vector<double> delivery_ms;
  std::vector<stq::TickStats> stats;
  std::vector<size_t> updates;
  double loop_seconds = 0.0;
  uint64_t reports = 0;  // object reports plus query moves fed
};

// The per-layer metrics of a traced run, from its spans, TickStats and
// the counters of each layer. Times are medians over the timed periods
// (shard.rebalance_ms, rare and spiky, is the run's total); counts are
// totals over the timed periods unless named per period or per tick.
// Self times subtract every seam a span calls: session.flush_self_ms is
// SessionManager::Tick minus backend Tick / ReconnectClient /
// DisconnectClient and transport Send / SendControl / Pump, and
// transport.send_self_ms is those transport calls minus client apply.
std::vector<Metric> PerLayer(const WorkloadSpec& spec, const Samples& s,
                             const Tracer& tracer, const Counters& c0,
                             const Counters& c1, size_t answer_bytes,
                             double gen_seconds) {
  const size_t periods = s.period_ms.size();
  const double n = static_cast<double>(periods);
  const size_t kNames = static_cast<size_t>(SpanName::kCount);
  // busy[name][period] / self[name][period], in ms; calls[name].
  std::vector<std::vector<double>> busy(kNames, std::vector<double>(periods));
  std::vector<std::vector<double>> self(kNames, std::vector<double>(periods));
  std::vector<uint64_t> calls(kNames, 0);
  const std::vector<int64_t> self_ns = tracer.SelfNs();
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& span = tracer.spans()[i];
    const size_t k = static_cast<size_t>(span.name);
    busy[k][span.period] += Millis(span.busy_ns);
    self[k][span.period] += Millis(self_ns[i]);
    calls[k] += span.count;
  }
  auto busy_p50 = [&](SpanName name) {
    return Median(busy[static_cast<size_t>(name)]);
  };
  auto stat_p50 = [&](double stq::TickStats::*field) {
    std::vector<double> v;
    for (const stq::TickStats& t : s.stats) v.push_back(Millis(t.*field));
    return Median(v);
  };
  double parallel = 0, phases = 0, busy_sum = 0, critical_sum = 0;
  double rebalance_s = 0, allocs = 0, updates = 0;
  size_t rebalances = 0, split = 0, merged = 0;
  for (size_t p = 0; p < periods; ++p) {
    const stq::TickStats& t = s.stats[p];
    parallel += t.ParallelSeconds();
    phases += t.TotalPhaseSeconds();
    busy_sum += t.shard_tick_busy_seconds;
    critical_sum += t.shard_tick_max_seconds;
    rebalance_s += t.rebalance_seconds;
    rebalances += t.shard_rebalances;
    split += t.cells_split;
    merged += t.cells_merged;
    allocs += static_cast<double>(t.heap_allocations);
    updates += static_cast<double>(s.updates[p]);
  }
  std::vector<double> transport_self(periods);
  for (size_t p = 0; p < periods; ++p) {
    for (SpanName name : {SpanName::kSend, SpanName::kControl,
                          SpanName::kPump}) {
      transport_self[p] += self[static_cast<size_t>(name)][p];
    }
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double reports = static_cast<double>(s.reports);
  const std::vector<double>& ingest =
      busy[static_cast<size_t>(SpanName::kIngest)];
  double ingest_ms = 0;
  for (double v : ingest) ingest_ms += v;
  const auto d = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double sent = d(c0.transport.sent, c1.transport.sent) +
                      d(c0.transport.control_sent, c1.transport.control_sent);
  const double envelopes =
      d(c0.session.envelopes_sent, c1.session.envelopes_sent);
  const double resyncs =
      d(c0.session.resyncs_served_diff, c1.session.resyncs_served_diff) +
      d(c0.session.resyncs_served_full, c1.session.resyncs_served_full);
  const double useful =
      d(c0.clients.envelopes_applied, c1.clients.envelopes_applied) +
      d(c0.clients.resyncs_applied, c1.clients.resyncs_applied);
  const double shards = static_cast<double>(spec.shards);

  // Which end-to-end metric each should move, on which workload.
  const char* kE2eServer =
      "reports_per_s, period_p50_ms [durable-lossy, fig5a-serial]";
  const char* kE2eEngine = "delivery_p50_ms, period_p50_ms [fig5a-serial]";
  const char* kE2eShard = "delivery_p50_ms [paper-sharded]";
  const char* kE2eAdapt = "period_tail_ms [hotspot-adaptive]";
  const char* kE2eSession = "delivery_p50_ms [paper-sharded, durable-lossy]";
  const char* kE2eResync = "delivery_tail_ms [durable-lossy]";
  const char* kE2eTransport =
      "delivery_p50_ms, shipped_kb_per_period [all]";
  const char* kE2eClient = "delivery_p50_ms, delivery_tail_ms [all]";
  return {
      {"server.ingest_ms_per_period", Median(ingest), "ms", kE2eServer},
      {"server.ns_per_report", ratio(ingest_ms * 1e6, reports), "ns",
       kE2eServer},
      {"engine.tick_ms", busy_p50(SpanName::kEngineTick), "ms", kE2eEngine},
      {"engine.object_match_ms",
       stat_p50(&stq::TickStats::object_match_seconds), "ms", kE2eEngine},
      {"engine.object_apply_ms",
       stat_p50(&stq::TickStats::object_apply_seconds), "ms", kE2eEngine},
      {"engine.query_pass_ms", stat_p50(&stq::TickStats::query_pass_seconds),
       "ms", kE2eEngine},
      {"engine.upserts_ms", stat_p50(&stq::TickStats::upserts_seconds), "ms",
       kE2eEngine},
      {"engine.parallel_share", ratio(parallel, phases), "ratio", kE2eShard},
      {"engine.allocs_per_tick", ratio(allocs, n), "count",
       "peak_rss_mb [all]"},
      {"engine.answer_bytes", static_cast<double>(answer_bytes), "bytes",
       "peak_rss_mb [all]"},
      {"engine.updates_per_period", ratio(updates, n), "count",
       "shipped_kb_per_period [all]"},
      {"shard.route_ms", stat_p50(&stq::TickStats::shard_route_seconds), "ms",
       kE2eShard},
      {"shard.critical_ms", stat_p50(&stq::TickStats::shard_tick_max_seconds),
       "ms", kE2eShard},
      {"shard.busy_ms", stat_p50(&stq::TickStats::shard_tick_busy_seconds),
       "ms", kE2eShard},
      {"shard.merge_ms", stat_p50(&stq::TickStats::shard_merge_seconds), "ms",
       kE2eShard},
      {"shard.balance", ratio(busy_sum, shards * critical_sum), "ratio",
       kE2eShard},
      {"shard.rebalances", static_cast<double>(rebalances), "count",
       kE2eAdapt},
      {"shard.rebalance_ms", Millis(rebalance_s), "ms", kE2eAdapt},
      {"adaptive.cells_split", static_cast<double>(split), "count",
       kE2eAdapt},
      {"adaptive.cells_merged", static_cast<double>(merged), "count",
       kE2eAdapt},
      {"adaptive.adapt_ms", stat_p50(&stq::TickStats::adapt_seconds), "ms",
       kE2eAdapt},
      {"session.flush_self_ms",
       Median(self[static_cast<size_t>(SpanName::kSessionTick)]), "ms",
       kE2eSession},
      {"session.envelopes_per_period", ratio(envelopes, n), "count",
       kE2eSession},
      {"session.heartbeat_share",
       ratio(d(c0.session.heartbeats_sent, c1.session.heartbeats_sent),
             envelopes),
       "ratio", "shipped_kb_per_period [all]"},
      {"session.resync_ms", busy_p50(SpanName::kResync), "ms", kE2eResync},
      {"session.resyncs_served", resyncs, "count", kE2eResync},
      {"session.commits_gated",
       d(c0.session.commits_gated, c1.session.commits_gated), "count",
       kE2eResync},
      {"session.queue_high_water",
       static_cast<double>(c1.session.queue_high_water), "count",
       kE2eResync},
      {"transport.send_self_ms", Median(transport_self), "ms", kE2eTransport},
      {"transport.bytes_per_period", ratio(d(c0.wire_bytes, c1.wire_bytes), n),
       "bytes", kE2eTransport},
      {"transport.delivered_ratio",
       ratio(d(c0.transport.delivered, c1.transport.delivered), sent),
       "ratio", kE2eTransport},
      {"transport.dropped", d(c0.transport.dropped, c1.transport.dropped),
       "count", kE2eTransport},
      {"transport.delayed", d(c0.transport.delayed, c1.transport.delayed),
       "count", kE2eTransport},
      {"client.apply_ms", busy_p50(SpanName::kApply), "ms", kE2eClient},
      {"client.useful_envelope_ratio",
       ratio(useful, d(c0.received, c1.received)), "ratio", kE2eClient},
      {"client.gaps_detected",
       d(c0.clients.gaps_detected, c1.clients.gaps_detected), "count",
       kE2eClient},
      {"client.resyncs_applied",
       d(c0.clients.resyncs_applied, c1.clients.resyncs_applied), "count",
       kE2eClient},
      {"storage.wal_append_ms_per_period", busy_p50(SpanName::kAppend), "ms",
       "reports_per_s [durable-lossy]"},
      {"storage.wal_bytes_per_report",
       ratio(d(c0.wal_bytes, c1.wal_bytes), reports), "bytes",
       "reports_per_s [durable-lossy]"},
      {"storage.wal_sync_ms", busy_p50(SpanName::kSync), "ms",
       "delivery_tail_ms [durable-lossy]"},
      {"storage.syncs_per_period",
       ratio(static_cast<double>(calls[static_cast<size_t>(SpanName::kSync)]),
             n),
       "count", "delivery_tail_ms [durable-lossy]"},
      {"gen.workload_s", gen_seconds, "s", "none: never program time"},
      {"trace.period_p50_ms", Median(s.period_ms), "ms",
       "none: traced period_p50_ms, for the tracing overhead"},
  };
}

// Earlier runs of the same workload, seed and length, one line each.
struct PriorRun {
  bool trace = false;
  uint32_t crc = 0;
  uint64_t shipped = 0;
  double period_p50_ms = 0.0;
};

std::vector<PriorRun> ReadRuns(const std::string& path) {
  std::vector<PriorRun> runs;
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    PriorRun r;
    int trace = 0;
    unsigned long long shipped = 0;
    if (std::sscanf(line.c_str(),
                    "trace=%d crc=%" SCNx32 " shipped=%llu p50_ms=%lf", &trace,
                    &r.crc, &shipped, &r.period_p50_ms) == 4) {
      r.trace = trace == 1;
      r.shipped = shipped;
      runs.push_back(r);
    }
  }
  return runs;
}

void WriteResult(const std::string& path, const Args& args,
                 const WorkloadSpec& spec, size_t periods,
                 const Tail& period_tail, const Tail& delivery_tail,
                 uint32_t crc, const Ledger& ledger,
                 const std::vector<Metric>& end_to_end,
                 const std::vector<Metric>& per_layer, const Samples& samples,
                 double trace_overhead_ms, bool have_overhead,
                 const std::string& code_id, double gen_rss_mb) {
  std::ofstream f(path);
  auto series = [](const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      out += (i ? ", " : "") + JsonNumber(v[i]);
    }
    return out + "]";
  };
  auto metrics = [&](const std::vector<Metric>& list, bool with_moves) {
    std::string out = "{";
    for (size_t i = 0; i < list.size(); ++i) {
      const Metric& m = list[i];
      out += (i ? ",\n    " : "\n    ") + JsonString(m.name) +
             ": {\"value\": " + JsonNumber(m.value) +
             ", \"unit\": " + JsonString(m.unit);
      if (with_moves) out += ", \"moves\": " + JsonString(m.moves);
      out += "}";
    }
    return out + "\n  }";
  };
#ifdef STQ_SIMD
  const bool simd = true;
#else
  const bool simd = false;
#endif
#ifdef STQ_ALLOC_COUNTING
  const bool alloc_counting = stq::AllocCountingEnabled();
#else
  const bool alloc_counting = false;
#endif
  f << "{\n  \"workload\": " << JsonString(spec.name)
    << ",\n  \"why\": " << JsonString(spec.why) << ",\n  \"seed\": "
    << args.seed << ",\n  \"seconds\": " << args.seconds
    << ",\n  \"trace\": " << (args.trace ? 1 : 0)
    << ",\n  \"code\": " << JsonString(code_id)
    << ",\n  \"host\": {\"nproc\": " << HostThreads()
    << ", \"cpu\": " << JsonString(CpuModel())
    << ", \"compiler\": " << JsonString("gcc " __VERSION__)
    << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
    << ", \"STQ_SIMD\": " << (simd ? "true" : "false")
    << ", \"STQ_ALLOC_COUNTING\": " << (alloc_counting ? "true" : "false")
    << "},\n  \"sizes\": {\"objects\": " << spec.objects
    << ", \"queries\": " << spec.queries << ", \"clients\": " << spec.clients
    << ", \"periods\": " << periods << ", \"period_s\": " << kPeriodSeconds
    << ", \"query_side\": " << JsonNumber(spec.query_side)
    << ", \"object_fraction\": " << JsonNumber(spec.object_fraction)
    << ", \"query_fraction\": " << JsonNumber(spec.query_fraction)
    << ", \"grid_cells\": " << spec.grid_cells
    << ", \"shards\": " << spec.shards << ", \"workers\": "
    << std::min(spec.workers, HostThreads())
    << ", \"adaptive\": " << (spec.adaptive ? "true" : "false")
    << ", \"durable\": " << (spec.durable ? "true" : "false")
    << ", \"drop\": " << JsonNumber(spec.drop)
    << ", \"delay\": " << JsonNumber(spec.delay)
    << "},\n  \"loop\": \"closed, single thread\""
    << ",\n  \"peak_rss_before_setup_mb\": " << JsonNumber(gen_rss_mb)
    << ",\n  \"flush_policy\": {\"max_queue_envelopes\": "
    << kSessionOptions.max_queue_envelopes
    << ", \"max_flush_per_tick\": " << kSessionOptions.max_flush_per_tick
    << ", \"max_resyncs_per_tick\": " << kSessionOptions.max_resyncs_per_tick
    << ", \"heartbeats\": " << (kSessionOptions.heartbeats ? "true" : "false")
    << ", \"sync_every_tick\": " << (spec.durable ? "true" : "false")
    << "},\n  \"period_tail\": {\"percentile\": "
    << JsonNumber(period_tail.percentile)
    << ", \"samples\": " << period_tail.samples
    << "},\n  \"delivery_tail\": {\"percentile\": "
    << JsonNumber(delivery_tail.percentile)
    << ", \"samples\": " << delivery_tail.samples << "},\n  \"stream_crc\": ";
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof crc_hex, "%08" PRIx32, crc);
  f << JsonString(crc_hex) << ",\n  \"attempted\": " << ledger.attempted
    << ",\n  \"failed\": " << ledger.failed << ",\n  \"failures\": [";
  for (size_t i = 0; i < ledger.failures.size(); ++i) {
    f << (i ? ", " : "") << JsonString(ledger.failures[i]);
  }
  f << "],\n  \"trace_overhead_ms\": "
    << (have_overhead ? JsonNumber(trace_overhead_ms) : "null")
    << ",\n  \"end_to_end\": " << metrics(end_to_end, false)
    << ",\n  \"per_layer\": " << metrics(per_layer, true)
    << ",\n  \"setup_s\": " << series(samples.setup_s)
    << ",\n  \"recovery_s\": " << series(samples.recovery_s)
    << ",\n  \"period_ms\": " << series(samples.period_ms)
    << ",\n  \"delivery_ms\": " << series(samples.delivery_ms) << "\n}\n";
}

int Run(const Args& args) {
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const WorkloadSpec& s : Workloads()) {
      std::fprintf(stderr, " %s", s.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const WorkloadSpec& spec = *found;
  const size_t periods = std::max<size_t>(
      kMinPeriods, static_cast<size_t>(std::llround(
                       args.seconds * spec.periods_per_second)));
  std::filesystem::create_directories(args.out);
  const std::string stem = args.out + "/" + spec.name + "-seed" +
                           std::to_string(args.seed);
  const std::string wal_root =
      stem + "-trace" + std::to_string(args.trace ? 1 : 0) + "-wal";
  std::filesystem::remove_all(wal_root);

  std::printf("# workload %s seed %" PRIu64 " periods %zu trace %d\n",
              spec.name, args.seed, periods, args.trace ? 1 : 0);
  std::fflush(stdout);

  const std::string code_id = CodeId();

  // --- gen: never program time -----------------------------------------------
  // The initial world now; each period just before it runs, outside the
  // timed window.
  int64_t gen_ns = NowNs();
  const std::unique_ptr<Source> in = Source::Make(spec, args.seed);
  Period period;
  in->Next(&period);
  gen_ns = NowNs() - gen_ns;
  const double gen_rss_mb = PeakRssMb();

  Ledger ledger;
  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>();

  // --- setup, repeated -------------------------------------------------------
  Samples s;
  std::unique_ptr<World> world;
  uint32_t initial_crc = 0;
  std::string dir;
  double setup_total_s = 0.0;
  for (int rep = 0; rep < kMaxSetups; ++rep) {
    if (rep >= kMinSetups && setup_total_s >= kRepeatBudgetS) break;
    world.reset();
    dir = wal_root + "/rep" + std::to_string(rep);
    const int64_t start = NowNs();
    world = SetUp(spec, *in, args.seed, dir, tracer.get(), &ledger);
    s.setup_s.push_back(Seconds(NowNs() - start));
    setup_total_s += s.setup_s.back();
    if (world == nullptr) {
      for (const std::string& failure : ledger.failures) {
        std::fprintf(stderr, "set-up failed: %s\n", failure.c_str());
      }
      return 1;
    }
    const uint32_t crc = ExtendCrc(0, world->server().last_tick().updates);
    if (rep == 0) initial_crc = crc;
    ledger.Check(crc == initial_crc, "set-ups shipped different streams");
  }
  uint32_t crc = initial_crc;

  // --- timed closed loop -----------------------------------------------------
  if (world->faulty != nullptr) {
    stq::ChaosProfile chaos;
    chaos.drop = spec.drop;
    chaos.delay = spec.delay;
    chaos.max_delay_ticks = 2;
    world->faulty->SetChaosProfile(chaos);
  }
  const Counters c0 = Counters::Of(world.get());
  for (size_t p = 0; p < periods; ++p) {
    if (p > 0) {
      const int64_t g0 = NowNs();
      in->Next(&period);
      gen_ns += NowNs() - g0;
    }
    s.reports += period.reports.size() + period.moves.size();
    if (tracer) tracer->BeginPeriod(static_cast<uint32_t>(p));
    const int64_t t0 = NowNs();
    {
      Scope ingest(tracer.get(), SpanName::kIngest);
      for (const ObjectMove& r : period.reports) {
        ledger.Call(world->Report(r, period.time), "ReportObject");
      }
      for (const QueryMove& q : period.moves) {
        ledger.Call(world->Move(q), "MoveRangeQuery");
      }
    }
    const int64_t t1 = NowNs();
    {
      Scope tick(tracer.get(), SpanName::kSessionTick);
      world->manager->Tick(period.time);
    }
    const int64_t t2 = NowNs();
    if (tracer) tracer->EndPeriod();
    s.period_ms.push_back(Millis(t2 - t0));
    s.delivery_ms.push_back(Millis(t2 - t1));
    s.loop_seconds += Seconds(t2 - t0);
    const stq::TickResult& tick = world->server().last_tick();
    s.stats.push_back(tick.stats);
    s.updates.push_back(tick.updates.size());
    crc = ExtendCrc(crc, tick.updates);
  }
  const Counters c1 = Counters::Of(world.get());
  const size_t answer_bytes = world->server().processor().AnswerBytesResident();

  // --- quiesce and check -----------------------------------------------------
  if (world->faulty != nullptr) world->faulty->SetChaosProfile({});
  double now = period.time;
  size_t quiesce_ticks = 0;
  size_t unconverged = UnconvergedClients(world.get(), spec.queries);
  while (unconverged > 0 && quiesce_ticks < kMaxQuiesceTicks) {
    ++quiesce_ticks;
    now += kPeriodSeconds;
    world->manager->Tick(now);
    unconverged = UnconvergedClients(world.get(), spec.queries);
  }
  ledger.attempted += spec.clients;
  ledger.failed += unconverged;
  if (unconverged > 0) {
    ledger.failures.push_back(std::to_string(unconverged) +
                              " clients not converged after quiesce");
  }
  {
    stq::Xorshift128Plus rng(args.seed ^ 0x5EEDC0DEull);
    const stq::QueryProcessor& qp = world->server().processor();
    for (size_t i = 0; i < std::min(kSampleQueries, spec.queries); ++i) {
      const stq::QueryId qid = 1 + rng.NextUint64(spec.queries);
      const auto current = qp.CurrentAnswer(qid);
      const auto scratch = qp.EvaluateFromScratch(qid);
      ledger.Check(current.ok() && scratch.ok() &&
                       current.value() == scratch.value(),
                   "query " + std::to_string(qid) +
                       " differs from EvaluateFromScratch");
    }
  }

  // --- recovery --------------------------------------------------------------
  std::vector<double>& recovery_s = s.recovery_s;
  if (spec.durable) {
    const stq::PersistedState before = world->durable->CaptureState();
    world->manager.reset();
    ledger.Call(world->durable->Close(), "PersistentServer::Close");
    world.reset();
    stq::PersistentServer::Options po;
    po.server = ServerOptions(spec);
    po.dir = dir;
    double total_s = 0.0;
    while (total_s < kRepeatBudgetS &&
           recovery_s.size() < static_cast<size_t>(kMaxRecoveries)) {
      const int64_t start = NowNs();
      stq::PersistentServer reopened(po);
      ledger.Call(reopened.Open(), "PersistentServer::Open (recovery)");
      recovery_s.push_back(Seconds(NowNs() - start));
      total_s += recovery_s.back();
      ledger.Check(reopened.CaptureState() == before,
                   "recovered state differs from the state before Close");
      ledger.Call(reopened.Close(), "PersistentServer::Close (recovery)");
    }
  } else {
    // An in-memory server has no log: after a restart every object and
    // query is reported again and the first tick rebuilds the answers.
    const stq::QueryProcessor& qp = world->server().processor();
    const uint32_t digest = AnswerDigest(qp, spec.queries);
    std::vector<stq::QueryProcessor::ObjectInfo> objects;
    qp.ForEachObjectInfo([&](const stq::QueryProcessor::ObjectInfo& o) {
      objects.push_back(o);
    });
    std::vector<QueryMove> queries;
    qp.ForEachQueryInfo([&](const stq::QueryProcessor::QueryInfo& q) {
      queries.push_back({q.id, q.region});
    });
    world.reset();
    double total_s = 0.0;
    while (total_s < kRepeatBudgetS &&
           recovery_s.size() < static_cast<size_t>(kMaxRecoveries)) {
      const int64_t start = NowNs();
      auto server = std::make_unique<stq::Server>(ServerOptions(spec));
      for (stq::ClientId cid = 1; cid <= spec.clients; ++cid) {
        ledger.Call(server->AttachClient(cid), "AttachClient (recovery)");
      }
      for (const stq::QueryProcessor::ObjectInfo& o : objects) {
        ledger.Call(server->ReportObject(o.id, o.loc, o.t),
                    "ReportObject (recovery)");
      }
      for (const QueryMove& q : queries) {
        ledger.Call(
            server->RegisterRangeQuery(q.id, OwnerOf(spec, q.id), q.region),
            "RegisterRangeQuery (recovery)");
      }
      server->Tick(now);
      recovery_s.push_back(Seconds(NowNs() - start));
      total_s += recovery_s.back();
      ledger.Check(AnswerDigest(server->processor(), spec.queries) == digest,
                   "reloaded server answers differ");
    }
  }
  std::filesystem::remove_all(wal_root);

  // --- end-to-end metrics ----------------------------------------------------
  const double n = static_cast<double>(periods);
  const Tail period_tail = TailOf(s.period_ms);
  const Tail delivery_tail = TailOf(s.delivery_ms);
  const uint64_t shipped = c1.wire_bytes - c0.wire_bytes;
  const double period_p50 = Median(s.period_ms);
  std::vector<Metric> end_to_end = {
      {"setup_s", Median(s.setup_s), "s", ""},
      {"period_p50_ms", period_p50, "ms", ""},
      {"period_tail_ms", period_tail.value, "ms", ""},
      {"delivery_p50_ms", Median(s.delivery_ms), "ms", ""},
      {"delivery_tail_ms", delivery_tail.value, "ms", ""},
      {"reports_per_s", static_cast<double>(s.reports) / s.loop_seconds,
       "1/s", ""},
      {"shipped_kb_per_period", static_cast<double>(shipped) / 1024.0 / n,
       "KiB", ""},
      {"peak_rss_mb", PeakRssMb(), "MiB", ""},
      {"ok_op_share", 0.0, "ratio", ""},  // filled in after the run checks
      {"recovery_s", Median(recovery_s), "s", ""},
  };

  // Repeatability: the stream CRC and the shipped bytes must equal those
  // of every earlier run of this binary, workload, seed and length.
  const std::string runs_path =
      stem + "-p" + std::to_string(periods) + "-" + code_id + ".runs";
  double overhead_ms = 0.0;
  bool have_overhead = false;
  for (const PriorRun& prior : ReadRuns(runs_path)) {
    ledger.Check(prior.crc == crc,
                 "stream CRC differs from an earlier run of this seed");
    ledger.Check(prior.shipped == shipped,
                 "shipped bytes differ from an earlier run of this seed");
    if (args.trace && !prior.trace) {
      overhead_ms = period_p50 - prior.period_p50_ms;
      have_overhead = true;
    }
  }
  {
    std::ofstream runs(runs_path, std::ios::app);
    char line[128];
    std::snprintf(line, sizeof line,
                  "trace=%d crc=%08" PRIx32 " shipped=%" PRIu64
                  " p50_ms=%.6f\n",
                  args.trace ? 1 : 0, crc, shipped, period_p50);
    runs << line;
  }
  end_to_end[8].value = 1.0 - static_cast<double>(ledger.failed) /
                                  static_cast<double>(ledger.attempted);

  std::vector<Metric> per_layer;
  if (tracer) {
    per_layer = PerLayer(spec, s, *tracer, c0, c1, answer_bytes,
                         Seconds(gen_ns));
    tracer->WriteChromeTrace(stem + ".trace.json");
  }
  WriteResult(stem + "-trace" + std::to_string(args.trace ? 1 : 0) + ".json",
              args, spec, periods, period_tail, delivery_tail, crc, ledger,
              end_to_end, per_layer, s, overhead_ms, have_overhead, code_id,
              gen_rss_mb);

  // --- report ----------------------------------------------------------------
  std::printf("# code %s  stream_crc %08" PRIx32 "  gen.workload_s %.3f"
              "  peak rss before set-up %.1f MiB  period tail p%.2f of %zu"
              "  quiesce_ticks %zu\n",
              code_id.c_str(), crc, Seconds(gen_ns), gen_rss_mb,
              period_tail.percentile, period_tail.samples, quiesce_ticks);
  if (have_overhead) {
    std::printf("# tracing overhead: period_p50_ms %+.3f ms vs untraced\n",
                overhead_ms);
  }
  for (const std::string& failure : ledger.failures) {
    std::printf("# FAILED: %s\n", failure.c_str());
  }
  const std::vector<Metric>& shown = args.trace ? per_layer : end_to_end;
  for (const Metric& m : shown) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += ledger.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.attempted) +
          ", \"failed\": " + std::to_string(ledger.failed) +
          ", \"metrics\": {";
  for (size_t i = 0; i < shown.size(); ++i) {
    line += (i ? ", " : "") + JsonString(shown[i].name) +
            ": {\"value\": " + JsonNumber(shown[i].value) +
            ", \"unit\": " + JsonString(shown[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return ledger.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
