// Tracing from outside the program: an in-memory span log, the per-thread
// op context that links spans of one op, and pass-through decorators that
// wrap the public layer boundaries — a net::Transport around the in-proc
// transport and a storage::IoEngine around the resolved engine. Neither
// decorator changes what the wrapped object does; they only time and count.
#ifndef CHARIOTS_E2EBENCH_TRACING_H_
#define CHARIOTS_E2EBENCH_TRACING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/transport.h"
#include "report.h"
#include "storage/io_engine.h"

namespace e2e {

/// The kind of op a span tree belongs to (its root).
enum class OpKind : uint8_t { kNone, kAppend, kRead };

/// The op and span the calling thread is working for. Benchmark threads set
/// it around each op; the transport decorator carries it across message
/// deliveries, so a Send made inside a decorated handler inherits the op of
/// the message that started the handler.
struct OpContext {
  uint64_t op = 0;
  uint64_t span = 0;
  OpKind kind = OpKind::kNone;
  bool sampled = false;  ///< whether this op's spans are recorded
};
OpContext& CurrentOp();

/// Fixed-capacity in-memory span log; spans past capacity are counted as
/// dropped. Written out once, when the run ends. One op in kSampleEvery
/// (and one background message or engine call in kSampleEvery) records its
/// spans, so the log covers the whole run; counters and latency samples in
/// the decorators see every op.
class SpanLog {
 public:
  static constexpr uint64_t kSampleEvery = 4;

  explicit SpanLog(size_t capacity);

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  /// Whether the next op (or background event) records spans.
  bool Sample() {
    return sample_seq_.fetch_add(1, std::memory_order_relaxed) %
               kSampleEvery ==
           0;
  }
  /// `name` must be a string literal (stored by pointer).
  void Add(uint64_t id, uint64_t parent, uint64_t op, const char* name,
           int64_t start_ns, int64_t end_ns);
  size_t size() const;
  uint64_t dropped() const { return dropped_.load(); }

  /// Per span name: count, mean duration and mean self time (duration
  /// minus the part covered by child spans), in microseconds.
  struct NameStats {
    uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::map<std::string, NameStats> SelfTimes() const;

  /// One JSON object per line: id, parent, op, name, start_ns, end_ns.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Rec {
    uint64_t id, parent, op;
    const char* name;
    int64_t start, end;
  };
  std::vector<Rec> recs_;
  std::atomic<size_t> n_{0};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> sample_seq_{0};
};

/// RAII span on the calling thread: a root span (new op) or a child of the
/// current span. A null log makes it a no-op, so untraced runs pay nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, OpKind root_kind = OpKind::kNone);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t op() const { return ctx_.op; }
  bool sampled() const { return ctx_.sampled; }

 private:
  SpanLog* const log_;
  const char* const name_;
  uint64_t id_ = 0;
  int64_t start_ = 0;
  OpContext saved_;
  OpContext ctx_;
};

/// Message classes the transport decorator reports on.
enum class MsgKind : uint8_t { kAppend, kRead, kInv, kVal, kGeo, kOther };
inline constexpr size_t kMsgKinds = 6;
const char* MsgKindName(MsgKind kind);

/// Pass-through net::Transport decorator. Counts messages and wire bytes,
/// times the wait from Send to handler start (RPC traffic matched exactly by
/// (requester, rpc_id); one-way traffic FIFO per (from, to)), the handler
/// run, each RPC's round trip, and the Hermes INV round (from a handler's
/// first INV send to its last INV ack).
class TracingTransport : public chariots::net::Transport {
 public:
  TracingTransport(chariots::net::Transport* inner, SpanLog* spans);

  chariots::Status Register(const chariots::net::NodeId& node,
                            chariots::net::MessageHandler handler) override;
  chariots::Status Unregister(const chariots::net::NodeId& node) override;
  chariots::Status Send(chariots::net::Message msg) override;

  struct Stats {
    uint64_t bytes = 0;
    uint64_t msgs_by_op[3] = {0, 0, 0};  ///< indexed by OpKind
    uint64_t msgs_by_kind[kMsgKinds] = {};
    Samples delivery_wait_us;
    std::array<Samples, kMsgKinds> handler_us;
    std::array<Samples, kMsgKinds> rpc_rtt_us;
    Samples inv_round_us;
  };
  /// Clears counters and samples (start of the measured window).
  void Reset();
  Stats Snapshot() const;

 private:
  struct InFlight {
    int64_t sent = 0;
    uint64_t op = 0;
    uint64_t span = 0;  ///< the sender's span: parent of wait + handler
    OpKind op_kind = OpKind::kNone;
    MsgKind kind = MsgKind::kOther;
    bool sampled = false;
  };
  struct Call {
    int64_t sent = 0;
    uint64_t caller_span = 0;
    uint64_t caller_op = 0;
    MsgKind kind = MsgKind::kOther;
  };
  struct InvRound {
    int64_t first_send = 0;
    int64_t last_ack = 0;
  };

  void Deliver(const chariots::net::MessageHandler& handler,
               chariots::net::Message msg);

  chariots::net::Transport* const inner_;
  SpanLog* const spans_;
  mutable std::mutex mu_;
  // Keys hash the node names (see tracing.cc), so the hot path allocates
  // nothing.
  /// One-way messages in flight, FIFO per (from, to).
  std::unordered_map<uint64_t, std::deque<InFlight>> oneway_;
  /// RPC requests and responses in flight, by (requester, rpc_id, is_response).
  std::unordered_map<uint64_t, InFlight> rpc_msgs_;
  /// Outstanding calls by (requester, rpc_id).
  std::unordered_map<uint64_t, Call> calls_;
  /// Open INV rounds by the span of the handler that sent them.
  std::unordered_map<uint64_t, InvRound> inv_rounds_;
  Stats stats_;
};

/// Pass-through storage::IoEngine decorator: counts Appendv calls, syncs
/// and bytes, and times each call (span + samples + busy time).
class TracingIoEngine : public chariots::storage::IoEngine {
 public:
  TracingIoEngine(chariots::storage::IoEngine* inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  const char* name() const override { return inner_->name(); }
  chariots::Status Appendv(int fd, std::span<const std::string_view> parts,
                           bool sync) override;
  chariots::Status Fsync(int fd) override;

  struct Stats {
    uint64_t appendv = 0;
    uint64_t syncs = 0;  ///< Appendv with sync set, plus Fsync calls
    uint64_t bytes = 0;
    int64_t busy_ns = 0;
    Samples appendv_us;
  };
  void Reset();
  Stats Snapshot() const;

 private:
  void Note(int64_t start, int64_t end, bool appendv, bool sync,
            uint64_t bytes);

  chariots::storage::IoEngine* const inner_;
  SpanLog* const spans_;
  mutable std::mutex mu_;
  Stats stats_;
};

}  // namespace e2e

#endif  // CHARIOTS_E2EBENCH_TRACING_H_
