#include "tracing.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>

#include "flstore/service.h"

namespace e2e {

using chariots::Status;
using chariots::net::Message;
using chariots::net::MessageHandler;
using chariots::net::NodeId;

OpContext& CurrentOp() {
  thread_local OpContext ctx;
  return ctx;
}

// ------------------------------------------------------------------ spans

SpanLog::SpanLog(size_t capacity) : recs_(capacity) {}

void SpanLog::Add(uint64_t id, uint64_t parent, uint64_t op, const char* name,
                  int64_t start_ns, int64_t end_ns) {
  size_t slot = n_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= recs_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  recs_[slot] = {id, parent, op, name, start_ns, end_ns};
}

size_t SpanLog::size() const {
  return std::min(n_.load(std::memory_order_acquire), recs_.size());
}

std::map<std::string, SpanLog::NameStats> SpanLog::SelfTimes() const {
  const size_t n = size();
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(n);
  for (size_t i = 0; i < n; ++i) by_id[recs_[i].id] = i;
  std::vector<std::vector<size_t>> children(n);
  for (size_t i = 0; i < n; ++i) {
    auto it = by_id.find(recs_[i].parent);
    if (recs_[i].parent != 0 && it != by_id.end()) {
      children[it->second].push_back(i);
    }
  }
  std::map<std::string, NameStats> out;
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (size_t i = 0; i < n; ++i) {
    const Rec& r = recs_[i];
    // Union of the children's intervals, clipped to this span.
    cover.clear();
    for (size_t c : children[i]) {
      int64_t s = std::max(recs_[c].start, r.start);
      int64_t e = std::min(recs_[c].end, r.end);
      if (e > s) cover.emplace_back(s, e);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0, cur_s = 0, cur_e = INT64_MIN;
    for (auto [s, e] : cover) {
      if (s > cur_e) {
        if (cur_e > cur_s) covered += cur_e - cur_s;
        cur_s = s;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_s) covered += cur_e - cur_s;
    NameStats& st = out[r.name];
    st.count++;
    st.total_us += static_cast<double>(r.end - r.start) / 1e3;
    st.self_us += static_cast<double>(r.end - r.start - covered) / 1e3;
  }
  for (auto& [name, st] : out) {
    st.total_us /= static_cast<double>(st.count);
    st.self_us /= static_cast<double>(st.count);
  }
  return out;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) {
    const Rec& r = recs_[i];
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.op), r.name,
                 static_cast<long long>(r.start),
                 static_cast<long long>(r.end));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, OpKind root_kind)
    : log_(log), name_(name) {
  if (log_ == nullptr) return;
  saved_ = CurrentOp();
  id_ = log_->NewId();
  ctx_ = root_kind != OpKind::kNone
             ? OpContext{id_, id_, root_kind, log_->Sample()}
             : OpContext{saved_.op, id_, saved_.kind, saved_.sampled};
  CurrentOp() = ctx_;
  start_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  const bool root = ctx_.op == id_;
  if (ctx_.sampled) {
    log_->Add(id_, root ? 0 : saved_.span, ctx_.op, name_, start_, NowNs());
  }
  CurrentOp() = saved_;
}

// -------------------------------------------------------------- transport

namespace {

constexpr const char* kWaitNames[kMsgKinds] = {
    "net.wait.append", "net.wait.read", "net.wait.inv",
    "net.wait.val",    "net.wait.geo",  "net.wait.other"};
constexpr const char* kHandlerNames[kMsgKinds] = {
    "net.handler.append", "net.handler.read", "net.handler.inv",
    "net.handler.val",    "net.handler.geo",  "net.handler.other"};

MsgKind Classify(const Message& m) {
  if (m.to.starts_with("geo/") || m.from.starts_with("geo/")) {
    return MsgKind::kGeo;
  }
  namespace fl = chariots::flstore;
  switch (m.type) {
    case fl::kAppend:
    case fl::kAppendOrdered:
    case fl::kAppendBatch:
      return MsgKind::kAppend;
    case fl::kRead:
    case fl::kReadCommitted:
    case fl::kReadRange:
      return MsgKind::kRead;
    case fl::kInvalidate:
      return MsgKind::kInv;
    case fl::kValidate:
      return MsgKind::kVal;
    default:
      return MsgKind::kOther;
  }
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

uint64_t Hash(const NodeId& node) { return std::hash<NodeId>{}(node); }

/// (requester, rpc_id) of a request or its response.
uint64_t CallKey(const Message& m) {
  return Hash(m.is_response ? m.to : m.from) * 0x9e3779b97f4a7c15ull ^
         m.rpc_id;
}

uint64_t RpcMsgKey(const Message& m) {
  return CallKey(m) * 0xbf58476d1ce4e5b9ull + (m.is_response ? 1 : 0);
}

uint64_t OneWayKey(const Message& m) {
  return Hash(m.from) * 0x94d049bb133111ebull ^ Hash(m.to);
}

}  // namespace

const char* MsgKindName(MsgKind kind) {
  static constexpr const char* kNames[kMsgKinds] = {"append", "read", "inv",
                                                    "val",    "geo",  "other"};
  return kNames[static_cast<size_t>(kind)];
}

TracingTransport::TracingTransport(chariots::net::Transport* inner,
                                   SpanLog* spans)
    : inner_(inner), spans_(spans) {}

Status TracingTransport::Register(const NodeId& node, MessageHandler handler) {
  return inner_->Register(
      node, [this, handler = std::move(handler)](Message msg) {
        Deliver(handler, std::move(msg));
      });
}

Status TracingTransport::Unregister(const NodeId& node) {
  return inner_->Unregister(node);
}

Status TracingTransport::Send(Message msg) {
  const OpContext ctx = CurrentOp();
  const int64_t now = NowNs();
  const bool rpc = msg.rpc_id != 0;
  const bool response = msg.is_response;
  const uint64_t call_key = rpc ? CallKey(msg) : 0;
  const uint64_t key = rpc ? RpcMsgKey(msg) : OneWayKey(msg);
  // Background traffic (no op) is sampled per message.
  const bool sampled = ctx.op != 0 ? ctx.sampled : spans_->Sample();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.bytes += msg.WireSize();
    stats_.msgs_by_op[static_cast<size_t>(ctx.kind)]++;
    InFlight f{now, ctx.op, ctx.span, ctx.kind, Classify(msg), sampled};
    if (rpc) {
      if (!response) {
        calls_[call_key] = {now, ctx.span, ctx.op, f.kind};
        if (f.kind == MsgKind::kInv && ctx.span != 0) {
          InvRound& round = inv_rounds_[ctx.span];
          if (round.first_send == 0) round.first_send = now;
        }
      } else if (auto it = calls_.find(call_key); it != calls_.end()) {
        f.kind = it->second.kind;
      }
      rpc_msgs_[key] = f;
    } else {
      oneway_[key].push_back(f);
    }
    stats_.msgs_by_kind[static_cast<size_t>(f.kind)]++;
  }
  Status st = inner_->Send(std::move(msg));
  if (!st.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (rpc) {
      rpc_msgs_.erase(key);
      if (!response) calls_.erase(call_key);
    } else if (auto it = oneway_.find(key);
               it != oneway_.end() && !it->second.empty()) {
      it->second.pop_back();
    }
  }
  return st;
}

void TracingTransport::Deliver(const MessageHandler& handler, Message msg) {
  const int64_t now = NowNs();
  const bool response = msg.is_response;
  InFlight f;
  f.kind = Classify(msg);
  bool found = false;
  uint64_t parent = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (msg.rpc_id != 0) {
      const uint64_t call_key = CallKey(msg);
      auto it = rpc_msgs_.find(RpcMsgKey(msg));
      if (it != rpc_msgs_.end()) {
        f = it->second;
        found = true;
        rpc_msgs_.erase(it);
      }
      parent = f.span;
      if (response) {
        if (auto c = calls_.find(call_key); c != calls_.end()) {
          const Call call = c->second;
          calls_.erase(c);
          f.kind = call.kind;
          f.op = call.caller_op;
          parent = call.caller_span;
          stats_.rpc_rtt_us[static_cast<size_t>(call.kind)].Add(
              Us(now - call.sent));
          if (call.kind == MsgKind::kInv) {
            if (auto r = inv_rounds_.find(call.caller_span);
                r != inv_rounds_.end()) {
              r->second.last_ack = now;
            }
          }
        }
      }
    } else if (auto it = oneway_.find(OneWayKey(msg));
               it != oneway_.end() && !it->second.empty()) {
      f = it->second.front();
      it->second.pop_front();
      found = true;
      parent = f.span;
    }
    if (found) stats_.delivery_wait_us.Add(Us(now - f.sent));
  }
  const size_t kind = static_cast<size_t>(f.kind);
  if (found && f.sampled) {
    spans_->Add(spans_->NewId(), parent, f.op, kWaitNames[kind], f.sent, now);
  }
  if (response) {
    // A response only wakes the waiting caller; its wait is the span above.
    handler(std::move(msg));
    return;
  }
  const uint64_t span = spans_->NewId();
  const OpContext saved = CurrentOp();
  CurrentOp() = OpContext{f.op, span, f.op_kind, f.sampled};
  const int64_t start = NowNs();
  handler(std::move(msg));
  const int64_t end = NowNs();
  CurrentOp() = saved;
  if (f.sampled) {
    spans_->Add(span, parent, f.op, kHandlerNames[kind], start, end);
  }
  std::lock_guard<std::mutex> lock(mu_);
  stats_.handler_us[kind].Add(Us(end - start));
  if (auto r = inv_rounds_.find(span); r != inv_rounds_.end()) {
    if (r->second.last_ack != 0) {
      stats_.inv_round_us.Add(Us(r->second.last_ack - r->second.first_send));
    }
    inv_rounds_.erase(r);
  }
}

void TracingTransport::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = Stats{};
}

TracingTransport::Stats TracingTransport::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// -------------------------------------------------------------- io engine

Status TracingIoEngine::Appendv(int fd, std::span<const std::string_view> parts,
                                bool sync) {
  uint64_t bytes = 0;
  for (std::string_view part : parts) bytes += part.size();
  const int64_t start = NowNs();
  Status st = inner_->Appendv(fd, parts, sync);
  Note(start, NowNs(), /*appendv=*/true, sync, bytes);
  return st;
}

Status TracingIoEngine::Fsync(int fd) {
  const int64_t start = NowNs();
  Status st = inner_->Fsync(fd);
  Note(start, NowNs(), /*appendv=*/false, /*sync=*/true, 0);
  return st;
}

void TracingIoEngine::Note(int64_t start, int64_t end, bool appendv, bool sync,
                           uint64_t bytes) {
  const OpContext& ctx = CurrentOp();
  if (ctx.op != 0 ? ctx.sampled : spans_->Sample()) {
    spans_->Add(spans_->NewId(), ctx.span, ctx.op,
                appendv ? "storage.appendv" : "storage.fsync", start, end);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (appendv) {
    stats_.appendv++;
    stats_.appendv_us.Add(Us(end - start));
  }
  if (sync) stats_.syncs++;
  stats_.bytes += bytes;
  stats_.busy_ns += end - start;
}

void TracingIoEngine::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = Stats{};
}

TracingIoEngine::Stats TracingIoEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace e2e
