// Benchmark-owned tracing for the end-to-end benchmark.
//
// Every layer is timed from outside, by decorators around the library's
// public seams: a SessionBackend around the server the session layer
// fronts, a Transport (plus one sink per client session) around the
// delivery path, and an Env (plus its WritableFile) around the storage
// layer's I/O. No code under src/ knows it is being traced.
//
// Spans live in memory and are written once, at the end of the run, as
// Chrome trace-event JSON. A span is identified by its parent and its
// name: repeated calls of one seam under the same parent (one Send per
// envelope, one Append per WAL record) merge into one span that keeps a
// call count and the summed busy time, so a period with 60K reports
// still costs a handful of spans. Each timed period opens one root span;
// its index is the id every span of that period shares. A span's self
// time is its busy time minus the busy time of its children.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "stq/core/session.h"
#include "stq/core/transport.h"
#include "stq/storage/env.h"

namespace perfbench {

// Monotonic nanoseconds (steady clock).
int64_t NowNs();

enum class SpanName : uint8_t {
  kPeriod,      // one closed-loop period (root)
  kIngest,      // the period's reports through the server facade
  kSessionTick, // SessionManager::Tick
  kEngineTick,  // backend Tick: evaluation, delivery split, WAL tick record
  kResync,      // backend ReconnectClient (resync served)
  kDisconnect,  // backend DisconnectClient (queue overflow demotion)
  kSend,        // Transport::Send (tick stream)
  kControl,     // Transport::SendControl (resync responses)
  kPump,        // Transport::Pump (delayed / reordered deliveries)
  kApply,       // ClientSession::OnEnvelope: decode, sequence check, apply
  kAppend,      // WritableFile::Append
  kFlush,       // WritableFile::Flush
  kSync,        // WritableFile::Sync
  kCount,
};

const char* SpanNameString(SpanName name);
// The repository module a span belongs to (server, engine, session, ...).
const char* SpanLayer(SpanName name);

class Tracer {
 public:
  struct Span {
    SpanName name = SpanName::kPeriod;
    uint32_t period = 0;
    int32_t parent = -1;
    uint32_t count = 0;
    int64_t start_ns = 0;  // first call
    int64_t end_ns = 0;    // last return
    int64_t busy_ns = 0;   // summed call durations
  };

  Tracer() : origin_ns_(NowNs()) {}

  // Spans are only recorded between BeginPeriod and EndPeriod; outside a
  // period the decorators forward without timing.
  bool armed() const { return !stack_.empty(); }
  void BeginPeriod(uint32_t period);
  void EndPeriod();

  void Enter(SpanName name);
  void Exit();

  const std::vector<Span>& spans() const { return spans_; }
  // Busy time minus the children's busy time, per span.
  std::vector<int64_t> SelfNs() const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Frame {
    int32_t span = 0;
    int64_t start_ns = 0;
  };

  int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  // (parent span, name) -> span, so repeated calls merge.
  std::unordered_map<uint64_t, int32_t> children_;
};

// Times one call when a tracer is armed; otherwise does nothing.
class Scope {
 public:
  Scope(Tracer* tracer, SpanName name)
      : tracer_(tracer != nullptr && tracer->armed() ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->Enter(name);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->Exit();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

// --- Decorators --------------------------------------------------------------

class TracedBackend final : public stq::SessionBackend {
 public:
  TracedBackend(stq::SessionBackend* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  stq::Server& server() override { return inner_->server(); }
  std::vector<stq::Server::Delivery> Tick(stq::Timestamp now) override;
  stq::Result<stq::Server::Delivery> ReconnectClient(
      stq::ClientId cid) override;
  stq::Status DisconnectClient(stq::ClientId cid) override;

 private:
  stq::SessionBackend* inner_;
  Tracer* tracer_;
};

// Counts the encoded bytes of every envelope it forwards. With a tracer
// it also times Send / SendControl / Pump and wraps each bound sink, so
// client apply time shows as a child of the transport call delivering it.
class WireTransport final : public stq::Transport {
 public:
  WireTransport(stq::Transport* inner, Tracer* tracer);
  ~WireTransport() override;

  void Bind(stq::ClientId cid, stq::TransportSink* sink) override;
  void Unbind(stq::ClientId cid) override { inner_->Unbind(cid); }
  void Send(stq::ClientId cid, const std::string& encoded) override;
  void SendControl(stq::ClientId cid, const std::string& encoded) override;
  void Pump(uint64_t now_tick) override;
  bool UplinkUp(stq::ClientId cid) const override {
    return inner_->UplinkUp(cid);
  }

  const stq::TransportCounters& inner_counters() const {
    return inner_->counters();
  }
  uint64_t bytes() const { return bytes_; }
  // Envelopes handed to a client sink (traced runs only).
  uint64_t received() const { return received_; }

 private:
  class TracedSink;

  stq::Transport* inner_;
  Tracer* tracer_;
  uint64_t bytes_ = 0;
  uint64_t received_ = 0;
  std::vector<std::unique_ptr<TracedSink>> sinks_;
};

// Forwards to an inner Env, counting appended bytes and timing the
// WritableFile calls of every file it opens.
class TracedEnv final : public stq::Env {
 public:
  TracedEnv(stq::Env* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  stq::Status NewWritableFile(
      const std::string& path, bool truncate,
      std::unique_ptr<stq::WritableFile>* file) override;
  stq::Status NewSequentialFile(
      const std::string& path,
      std::unique_ptr<stq::SequentialFile>* file) override {
    return inner_->NewSequentialFile(path, file);
  }
  stq::Status RenameFile(const std::string& from,
                         const std::string& to) override {
    return inner_->RenameFile(from, to);
  }
  stq::Status RemoveFile(const std::string& path) override {
    return inner_->RemoveFile(path);
  }
  stq::Status TruncateFile(const std::string& path, uint64_t size) override {
    return inner_->TruncateFile(path, size);
  }
  stq::Status SyncDir(const std::string& dir) override {
    return inner_->SyncDir(dir);
  }
  stq::Status CreateDir(const std::string& dir) override {
    return inner_->CreateDir(dir);
  }
  stq::Status ListDir(const std::string& dir,
                      std::vector<std::string>* names) override {
    return inner_->ListDir(dir, names);
  }
  bool FileExists(const std::string& path) override {
    return inner_->FileExists(path);
  }
  stq::Status GetFileSize(const std::string& path, uint64_t* size) override {
    return inner_->GetFileSize(path, size);
  }

  uint64_t appended_bytes() const { return appended_bytes_; }

 private:
  class TracedFile;

  stq::Env* inner_;
  Tracer* tracer_;
  uint64_t appended_bytes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
