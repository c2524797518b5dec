#include "trace.h"

#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

struct NameInfo {
  const char* name;
  const char* layer;
};

constexpr NameInfo kNames[] = {
    {"period", "bench"},
    {"server.ingest", "server"},
    {"session.tick", "session"},
    {"engine.tick", "engine"},
    {"session.resync", "session"},
    {"session.demote", "session"},
    {"transport.send", "transport"},
    {"transport.control", "transport"},
    {"transport.pump", "transport"},
    {"client.apply", "client"},
    {"storage.append", "storage"},
    {"storage.flush", "storage"},
    {"storage.sync", "storage"},
};
static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
              static_cast<size_t>(SpanName::kCount));

}  // namespace

const char* SpanNameString(SpanName name) {
  return kNames[static_cast<size_t>(name)].name;
}

const char* SpanLayer(SpanName name) {
  return kNames[static_cast<size_t>(name)].layer;
}

// --- Tracer ------------------------------------------------------------------

void Tracer::BeginPeriod(uint32_t period) {
  const int64_t now = NowNs();
  Span root;
  root.name = SpanName::kPeriod;
  root.period = period;
  root.start_ns = now;
  spans_.push_back(root);
  children_.clear();  // spans never merge across periods
  stack_.push_back(Frame{static_cast<int32_t>(spans_.size() - 1), now});
}

void Tracer::EndPeriod() {
  Exit();
}

void Tracer::Enter(SpanName name) {
  const int32_t parent = stack_.back().span;
  const uint64_t key = (static_cast<uint64_t>(parent) << 8) |
                       static_cast<uint64_t>(name);
  const int64_t now = NowNs();
  auto [it, inserted] = children_.try_emplace(key, 0);
  if (inserted) {
    Span span;
    span.name = name;
    span.period = spans_[parent].period;
    span.parent = parent;
    span.start_ns = now;
    spans_.push_back(span);
    it->second = static_cast<int32_t>(spans_.size() - 1);
  }
  stack_.push_back(Frame{it->second, now});
}

void Tracer::Exit() {
  const int64_t now = NowNs();
  const Frame frame = stack_.back();
  stack_.pop_back();
  Span& span = spans_[frame.span];
  span.busy_ns += now - frame.start_ns;
  span.end_ns = now;
  ++span.count;
}

std::vector<int64_t> Tracer::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].busy_ns;
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[span.parent] -= span.busy_ns;
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfNs();
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  // One track per layer keeps merged spans, whose [first call, last
  // return] intervals may overlap their siblings, readable.
  for (size_t t = 0; t < static_cast<size_t>(SpanName::kCount); ++t) {
    std::fprintf(f,
                 "{\"ph\": \"M\", \"pid\": 1, \"tid\": %zu, \"name\": "
                 "\"thread_name\", \"args\": {\"name\": \"%s\"}},\n",
                 t, kNames[t].name);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(
        f,
        "{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"name\": \"%s\", "
        "\"cat\": \"%s\", \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": "
        "%zu, \"parent\": %d, \"period\": %u, \"calls\": %u, \"busy_ms\": "
        "%.6f, \"self_ms\": %.6f}}%s\n",
        static_cast<int>(s.name), SpanNameString(s.name), SpanLayer(s.name),
        static_cast<double>(s.start_ns - origin_ns_) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
        s.period, s.count, static_cast<double>(s.busy_ns) / 1e6,
        static_cast<double>(self[i]) / 1e6,
        i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --- Session backend ---------------------------------------------------------

std::vector<stq::Server::Delivery> TracedBackend::Tick(stq::Timestamp now) {
  Scope scope(tracer_, SpanName::kEngineTick);
  return inner_->Tick(now);
}

stq::Result<stq::Server::Delivery> TracedBackend::ReconnectClient(
    stq::ClientId cid) {
  Scope scope(tracer_, SpanName::kResync);
  return inner_->ReconnectClient(cid);
}

stq::Status TracedBackend::DisconnectClient(stq::ClientId cid) {
  Scope scope(tracer_, SpanName::kDisconnect);
  return inner_->DisconnectClient(cid);
}

// --- Transport ---------------------------------------------------------------

class WireTransport::TracedSink final : public stq::TransportSink {
 public:
  TracedSink(stq::TransportSink* inner, Tracer* tracer, uint64_t* received)
      : inner_(inner), tracer_(tracer), received_(received) {}

  void OnEnvelope(const std::string& encoded) override {
    ++*received_;
    Scope scope(tracer_, SpanName::kApply);
    inner_->OnEnvelope(encoded);
  }

 private:
  stq::TransportSink* inner_;
  Tracer* tracer_;
  uint64_t* received_;
};

WireTransport::WireTransport(stq::Transport* inner, Tracer* tracer)
    : inner_(inner), tracer_(tracer) {}

WireTransport::~WireTransport() = default;

void WireTransport::Bind(stq::ClientId cid, stq::TransportSink* sink) {
  if (tracer_ == nullptr) {
    inner_->Bind(cid, sink);
    return;
  }
  sinks_.push_back(std::make_unique<TracedSink>(sink, tracer_, &received_));
  inner_->Bind(cid, sinks_.back().get());
}

void WireTransport::Send(stq::ClientId cid, const std::string& encoded) {
  bytes_ += encoded.size();
  Scope scope(tracer_, SpanName::kSend);
  inner_->Send(cid, encoded);
}

void WireTransport::SendControl(stq::ClientId cid,
                                const std::string& encoded) {
  bytes_ += encoded.size();
  Scope scope(tracer_, SpanName::kControl);
  inner_->SendControl(cid, encoded);
}

void WireTransport::Pump(uint64_t now_tick) {
  Scope scope(tracer_, SpanName::kPump);
  inner_->Pump(now_tick);
}

// --- Env ---------------------------------------------------------------------

class TracedEnv::TracedFile final : public stq::WritableFile {
 public:
  TracedFile(std::unique_ptr<stq::WritableFile> inner, TracedEnv* env)
      : inner_(std::move(inner)), env_(env) {}

  using stq::WritableFile::Append;
  stq::Status Append(const char* data, size_t n) override {
    env_->appended_bytes_ += n;
    Scope scope(env_->tracer_, SpanName::kAppend);
    return inner_->Append(data, n);
  }
  stq::Status Flush() override {
    Scope scope(env_->tracer_, SpanName::kFlush);
    return inner_->Flush();
  }
  stq::Status Sync() override {
    Scope scope(env_->tracer_, SpanName::kSync);
    return inner_->Sync();
  }
  stq::Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<stq::WritableFile> inner_;
  TracedEnv* env_;
};

stq::Status TracedEnv::NewWritableFile(
    const std::string& path, bool truncate,
    std::unique_ptr<stq::WritableFile>* file) {
  std::unique_ptr<stq::WritableFile> inner;
  stq::Status s = inner_->NewWritableFile(path, truncate, &inner);
  if (!s.ok()) return s;
  *file = std::make_unique<TracedFile>(std::move(inner), this);
  return stq::Status::OK();
}

}  // namespace perfbench
