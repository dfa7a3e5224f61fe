// flstore_mixed: the intra-DC FLStore RPC path. One controller and two
// stripes, each a Hermes replica set of three (coordinator + 2 replicas),
// memory stores, zero injected delay. Two closed-loop FLStoreClient threads
// run a seeded 50/50 mix of 256 B appends and reads of uniformly chosen LIds
// from a 64K-record preload (16 MiB: 4x the client read cache and the
// maintainer tail cache).
//
// Every read is checked against the bytes preloaded at that LId; every
// append is checked after the run on all three members of its stripe.
// Stores are memory-only, so the storage engine is never reached.
// Visibility is the Head of the Log (paper §5.4): an append is visible to
// gap-safe readers everywhere once every stripe's coordinator reports a Head
// of the Log above it.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "common/executor.h"
#include "flstore/client.h"
#include "flstore/service.h"
#include "flstore/striping.h"
#include "net/inproc_transport.h"
#include "tracing.h"
#include "workloads.h"

namespace e2e {

namespace {

using chariots::Executor;
using chariots::flstore::ClientOptions;
using chariots::flstore::ClusterInfo;
using chariots::flstore::ControllerServer;
using chariots::flstore::EpochJournal;
using chariots::flstore::FLStoreClient;
using chariots::flstore::LId;
using chariots::flstore::LogRecord;
using chariots::flstore::MaintainerOptions;
using chariots::flstore::MaintainerServer;
using chariots::flstore::ReplicaRole;

constexpr uint32_t kStripes = 2;
constexpr int kReplicas = 2;  // per stripe, besides the coordinator
constexpr uint64_t kStripeBatch = 64;
constexpr size_t kBodyBytes = 256;
constexpr size_t kPreloadRecords = 64 * 1024;
constexpr size_t kPreloadBatch = 256;
constexpr int kThreads = 2;
constexpr int kSetupRepeats = 5;
constexpr double kWarmupSec = 2.0;
constexpr int64_t kDrainTimeoutNs = 10'000'000'000;
/// Body streams: load thread t appends stream t; the preload is its own
/// stream, as are the fillers that close Head-of-the-Log gaps at the end.
constexpr uint64_t kPreloadStream = 100;
constexpr uint64_t kFillerStream = 101;

LogRecord Record(std::string body) {
  LogRecord rec;
  rec.body = std::move(body);
  return rec;
}

std::string CoordinatorNode(uint32_t s) {
  return "dc0/maintainer/" + std::to_string(s);
}

/// Controller + kStripes replica sets over one in-proc transport.
class FlstoreTopology {
 public:
  explicit FlstoreTopology(SpanLog* spans) {
    chariots::net::Transport* transport = &inner_;
    if (spans != nullptr) {
      traced_ = std::make_unique<TracingTransport>(&inner_, spans);
      transport = traced_.get();
    }
    transport_ = transport;
    ClusterInfo info;
    info.journal = EpochJournal(kStripes, kStripeBatch);
    std::vector<chariots::net::NodeId> coordinators;
    for (uint32_t s = 0; s < kStripes; ++s) {
      coordinators.push_back(CoordinatorNode(s));
      std::vector<chariots::net::NodeId> replicas;
      for (int r = 1; r <= kReplicas; ++r) {
        replicas.push_back("dc0/replica/" + std::to_string(s) + "/" +
                           std::to_string(r));
      }
      info.replicas.push_back(replicas);
      info.fence_epochs.push_back(1);
    }
    info.maintainers = coordinators;
    controller_ =
        std::make_unique<ControllerServer>(transport, "dc0/controller", info);
    Check(controller_->Start(), "controller start");
    for (uint32_t s = 0; s < kStripes; ++s) {
      MaintainerOptions mo;
      mo.index = s;
      mo.journal = EpochJournal(kStripes, kStripeBatch);
      mo.store.mode = chariots::storage::SyncMode::kMemoryOnly;
      auto options = [&](const chariots::net::NodeId& node, ReplicaRole role) {
        MaintainerServer::Options so;
        so.node = node;
        so.peers = coordinators;
        so.replica.role = role;
        so.replica.epoch = 1;
        if (role == ReplicaRole::kCoordinator) {
          so.replica.peers = info.replicas[s];
        }
        so.controller = "dc0/controller";
        return so;
      };
      std::vector<std::unique_ptr<MaintainerServer>> members;
      for (const auto& node : info.replicas[s]) {
        members.push_back(std::make_unique<MaintainerServer>(
            transport, mo, options(node, ReplicaRole::kReplica)));
        Check(members.back()->Start(), "replica start");
      }
      // Coordinator last: its first INV must find the replicas listening.
      members.insert(
          members.begin(),
          std::make_unique<MaintainerServer>(
              transport, mo,
              options(CoordinatorNode(s), ReplicaRole::kCoordinator)));
      Check(members.front()->Start(), "coordinator start");
      stripes_.push_back(std::move(members));
    }
  }

  ~FlstoreTopology() {
    for (auto& c : clients_) c->Stop();
    clients_.clear();
    for (auto& members : stripes_) {
      for (auto& m : members) m->Stop();
    }
    controller_->Stop();
  }

  FLStoreClient* NewClient(const std::string& name) {
    clients_.push_back(std::make_unique<FLStoreClient>(
        transport_, "dc0/client/" + name, "dc0/controller", ClientOptions{}));
    Check(clients_.back()->Start(), "client start");
    return clients_.back().get();
  }

  /// Coordinator first, then replicas.
  const std::vector<std::unique_ptr<MaintainerServer>>& stripe(uint32_t s) {
    return stripes_[s];
  }
  /// Head of the Log every coordinator agrees on.
  LId MinHeadOfLog() {
    LId hl = UINT64_MAX;
    for (auto& members : stripes_) {
      hl = std::min(hl, members.front()->maintainer().HeadOfLog());
    }
    return hl;
  }
  TracingTransport* traced() { return traced_.get(); }

 private:
  static void Check(const chariots::Status& st, const char* what) {
    if (st.ok()) return;
    std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
    std::exit(3);
  }

  // Destruction order: clients, servers, controller, decorator, transport.
  chariots::net::InProcTransport inner_;
  std::unique_ptr<TracingTransport> traced_;
  chariots::net::Transport* transport_ = nullptr;
  std::unique_ptr<ControllerServer> controller_;
  std::vector<std::vector<std::unique_ptr<MaintainerServer>>> stripes_;
  std::vector<std::unique_ptr<FLStoreClient>> clients_;
};

struct AppendOp {
  uint64_t stream = 0;
  uint64_t seq = 0;
  LId lid = 0;
  int64_t start = 0;
  bool measured = false;
  double us = 0;  ///< latency of the Append call
};

/// Per-thread results of the load.
struct ThreadResult {
  std::vector<AppendOp> appends;
  /// (start, latency in us) of every measured read.
  std::vector<std::pair<int64_t, double>> read_us;
  uint64_t attempted = 0, failed = 0;
  uint64_t measured_appends = 0, measured_reads = 0;
};

class FlstoreBench {
 public:
  FlstoreBench(const Options& opts, Report* report)
      : opts_(opts), report_(report) {}

  double RunPhase(double seconds, SpanLog* spans, bool emit_e2e);

 private:
  /// Builds the topology and preloads it; fills preload_lids_.
  std::unique_ptr<FlstoreTopology> Setup(SpanLog* spans);
  void Load(int t, SpanLog* spans, ThreadResult* out);

  const Options& opts_;
  Report* const report_;
  std::vector<LId> preload_lids_;
  RunWindow window_;
  std::vector<FLStoreClient*> clients_;
};

std::unique_ptr<FlstoreTopology> FlstoreBench::Setup(SpanLog* spans) {
  auto topo = std::make_unique<FlstoreTopology>(spans);
  FLStoreClient* loader = topo->NewClient("preload");
  preload_lids_.clear();
  std::vector<LogRecord> batch;
  for (size_t k = 0; k < kPreloadRecords; k += kPreloadBatch) {
    batch.clear();
    for (size_t i = k; i < k + kPreloadBatch; ++i) {
      batch.push_back(
          Record(MakeBody(opts_.seed, kPreloadStream, i, kBodyBytes)));
    }
    auto lids = loader->AppendBatch(batch);
    if (!lids.ok() || lids->size() != batch.size()) {
      std::fprintf(stderr, "preload failed: %s\n",
                   lids.status().ToString().c_str());
      std::exit(3);
    }
    preload_lids_.insert(preload_lids_.end(), lids->begin(), lids->end());
  }
  return topo;
}

void FlstoreBench::Load(int t, SpanLog* spans, ThreadResult* out) {
  FLStoreClient* client = clients_[t];
  uint64_t rng = opts_.seed ^ (0x9e3779b97f4a7c15ull * (t + 1));
  uint64_t seq = 0;
  for (;;) {
    const int64_t start = NowNs();
    if (start >= window_.end()) break;
    const bool measured = start >= window_.start();
    const uint64_t u = SplitMix(&rng);
    ++out->attempted;
    if (u & 1) {
      const LogRecord rec = Record(MakeBody(opts_.seed, t, seq, kBodyBytes));
      chariots::Result<LId> r = chariots::Status::Internal("not run");
      {
        ScopedSpan root(spans, "op.append", OpKind::kAppend);
        ScopedSpan api(spans, "flstore.FLStoreClient.Append");
        r = client->Append(rec);
      }
      const int64_t end = NowNs();
      if (!r.ok()) {
        ++out->failed;
        report_->Fail("Append: " + r.status().ToString());
      } else {
        out->appends.push_back({static_cast<uint64_t>(t), seq, *r, start,
                                measured, (end - start) / 1e3});
        if (measured) ++out->measured_appends;
      }
      ++seq;
    } else {
      const size_t k = (u >> 1) % preload_lids_.size();
      chariots::Result<LogRecord> r = chariots::Status::Internal("not run");
      {
        ScopedSpan root(spans, "op.read", OpKind::kRead);
        ScopedSpan api(spans, "flstore.FLStoreClient.Read");
        r = client->Read(preload_lids_[k]);
      }
      const int64_t end = NowNs();
      if (!r.ok()) {
        ++out->failed;
        report_->Fail("Read(" + std::to_string(preload_lids_[k]) +
                      "): " + r.status().ToString());
      } else if (r->body !=
                 MakeBody(opts_.seed, kPreloadStream, k, kBodyBytes)) {
        ++out->failed;
        report_->Fail("Read(" + std::to_string(preload_lids_[k]) +
                      ") returned other bytes");
      } else if (measured) {
        out->read_us.emplace_back(start, (end - start) / 1e3);
        ++out->measured_reads;
      }
    }
  }
}

/// Remote reads per serving node, summed over clients.
std::map<std::string, uint64_t> RemoteReads(
    const std::vector<FLStoreClient*>& clients) {
  std::map<std::string, uint64_t> out;
  for (FLStoreClient* c : clients) {
    for (const auto& [node, n] : c->reads_by_node()) out[node] += n;
  }
  return out;
}

uint64_t Retries(const std::vector<FLStoreClient*>& clients) {
  uint64_t n = 0;
  for (FLStoreClient* c : clients) n += c->retries();
  return n;
}

double FlstoreBench::RunPhase(double seconds, SpanLog* spans, bool emit_e2e) {
  std::vector<double> setup_s;
  std::unique_ptr<FlstoreTopology> topo;
  const int repeats = emit_e2e ? kSetupRepeats : 1;
  for (int k = 0; k < repeats; ++k) {
    topo.reset();
    const int64_t t0 = NowNs();
    topo = Setup(spans);
    setup_s.push_back((NowNs() - t0) / 1e9);
  }
  clients_.clear();
  for (int t = 0; t < kThreads; ++t) {
    clients_.push_back(topo->NewClient("load" + std::to_string(t)));
  }

  window_.Set(NowNs() + static_cast<int64_t>(kWarmupSec * 1e9), seconds);
  Executor* exec = Executor::Default();
  uint64_t tasks0 = 0, tasks1 = 0, retries0 = 0, retries1 = 0;
  std::map<std::string, uint64_t> reads0, reads1;
  // Head-of-the-Log timeline (time, HL), sampled every 100 us; the same
  // thread reads the counters at the window edges.
  std::vector<std::pair<int64_t, LId>> hl_timeline;
  std::atomic<bool> stop_poll{false};
  std::thread poller([&] {
    bool started = false, ended = false;
    LId last = 0;
    while (!stop_poll.load()) {
      const int64_t now = NowNs();
      window_.Poll(now);
      if (!started && now >= window_.start()) {
        started = true;
        tasks0 = exec->tasks_run();
        retries0 = Retries(clients_);
        reads0 = RemoteReads(clients_);
        if (spans != nullptr) topo->traced()->Reset();
      }
      if (!ended && now >= window_.end()) {
        ended = true;
        tasks1 = exec->tasks_run();
        retries1 = Retries(clients_);
        reads1 = RemoteReads(clients_);
      }
      const LId hl = topo->MinHeadOfLog();
      if (hl_timeline.empty() || hl > last) {
        hl_timeline.emplace_back(NowNs(), hl);
        last = hl;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  std::vector<ThreadResult> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { Load(t, spans, &results[t]); });
  }
  for (auto& th : threads) th.join();
  TracingTransport::Stats net{};
  while (NowNs() < window_.end() + 1'000'000) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (spans != nullptr) net = topo->traced()->Snapshot();

  // Drain: the Head of the Log must pass every measured append. A stripe
  // that ended a record behind leaves a gap only a later append fills, so
  // fillers are appended while the Head of the Log stalls.
  ThreadResult all;
  for (ThreadResult& r : results) {
    all.appends.insert(all.appends.end(), r.appends.begin(), r.appends.end());
    all.read_us.insert(all.read_us.end(), r.read_us.begin(), r.read_us.end());
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.measured_appends += r.measured_appends;
    all.measured_reads += r.measured_reads;
  }
  LId max_lid = 0;
  for (const AppendOp& op : all.appends) max_lid = std::max(max_lid, op.lid);
  FLStoreClient* filler = topo->NewClient("filler");
  const int64_t drain_deadline = NowNs() + kDrainTimeoutNs;
  uint64_t filler_seq = 0;
  while (!all.appends.empty() && topo->MinHeadOfLog() <= max_lid &&
         NowNs() < drain_deadline) {
    const LId before = topo->MinHeadOfLog();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (topo->MinHeadOfLog() != before) continue;
    auto r = filler->Append(
        Record(MakeBody(opts_.seed, kFillerStream, filler_seq, kBodyBytes)));
    if (!r.ok()) {
      report_->Fail("filler Append: " + r.status().ToString());
      break;
    }
    all.appends.push_back({kFillerStream, filler_seq++, *r, 0, false});
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  stop_poll.store(true);
  poller.join();

  // Every append: on all three members of its stripe, with its own bytes.
  const EpochJournal journal(kStripes, kStripeBatch);
  std::vector<LId> seen;
  for (const AppendOp& op : all.appends) {
    seen.push_back(op.lid);
    const std::string expected =
        MakeBody(opts_.seed, op.stream, op.seq, kBodyBytes);
    for (const auto& member : topo->stripe(journal.MaintainerFor(op.lid))) {
      auto rec = member->maintainer().Read(op.lid);
      if (!rec.ok() || rec->body != expected) {
        ++all.failed;
        report_->Fail("LId " + std::to_string(op.lid) +
                      " at a stripe member: " +
                      (rec.ok() ? "other bytes" : rec.status().ToString()));
        break;
      }
    }
  }
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    report_->Fail("two appends acked with the same LId");
  }
  // End-to-end figures cover the ops that started in quiet slices; the
  // per-layer ones, like the counters they are divided by, every measured
  // op.
  window_.SelectQuiet();
  Samples append_us, read_us, visible_ms;
  for (const auto& [start, us] : all.read_us) {
    if (window_.Quiet(start)) read_us.Add(us);
  }
  for (const AppendOp& op : all.appends) {
    if (!op.measured) continue;
    auto it = std::upper_bound(
        hl_timeline.begin(), hl_timeline.end(), op.lid,
        [](LId lid, const std::pair<int64_t, LId>& p) {
          return lid < p.second;
        });
    if (it == hl_timeline.end()) {
      ++all.failed;
      report_->Fail("LId " + std::to_string(op.lid) +
                    " never fell below the Head of the Log");
      continue;
    }
    if (window_.Quiet(op.start)) {
      append_us.Add(op.us);
      visible_ms.Add((it->first - op.start) / 1e6);
    }
  }
  report_->AddAttempted(all.attempted);
  report_->AddFailed(all.failed);

  const uint64_t completed = all.measured_appends + all.measured_reads;
  const uint64_t quiet = append_us.size() + read_us.size();
  const double ops = static_cast<double>(completed);
  const double cpu_us_per_op = window_.CpuUsPerOp(quiet);
  if (emit_e2e) {
    report_->E2E("setup_s", Median(setup_s), "s");
    report_->E2E("ops_per_s", window_.OpsPerSec(quiet), "1/s");
    report_->Latency("append", append_us, "us");
    report_->Latency("read", read_us, "us");
    report_->Latency("remote_visible", visible_ms, "ms");
    report_->E2E("cpu_us_per_op", cpu_us_per_op, "us");
    report_->E2E("peak_rss_mb", PeakRssMb(), "MB");
    report_->MetaNum("setup_repeats", repeats);
  }
  if (spans != nullptr) {
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double appends = static_cast<double>(all.measured_appends);
    const double reads = static_cast<double>(all.measured_reads);
    report_->Layer("common.executor_tasks_per_op",
                   ratio(tasks1 - tasks0, ops), "count");
    report_->Layer("net.msgs_per_append",
                   ratio(net.msgs_by_op[static_cast<size_t>(OpKind::kAppend)],
                         appends),
                   "count");
    report_->Layer("net.msgs_per_read",
                   ratio(net.msgs_by_op[static_cast<size_t>(OpKind::kRead)],
                         reads),
                   "count");
    report_->Layer("net.bytes_per_op", ratio(net.bytes, ops), "B");
    FillNetLayer(net, report_);
    report_->Layer("flstore.inv_round_p50_us", net.inv_round_us.Pct(50), "us");
    report_->Layer("flstore.inv_round_p99_us", net.inv_round_us.Pct(99), "us");
    report_->Count("flstore.inv_round_p50_us", net.inv_round_us.size());
    uint64_t remote = 0, top = 0;
    for (const auto& [node, n] : reads1) {
      const uint64_t d = n - reads0[node];
      remote += d;
      top = std::max(top, d);
    }
    report_->Layer("flstore.read_cache_hit_frac",
                   reads > 0 ? 1.0 - ratio(remote, reads) : 0.0, "fraction");
    report_->Layer("flstore.read_share_max", ratio(top, remote), "fraction");
    report_->Layer("flstore.retries_per_op", ratio(retries1 - retries0, ops),
                   "count");
    FillGeoLayerAbsent(report_);
    // Memory-only stores: the engine is never reached.
    FillStorageLayer(TracingIoEngine::Stats{}, 0, 0, 0, 0, report_);
  }
  if (emit_e2e || spans != nullptr) {
    window_.ReportHost(report_);
    report_->MetaNum("record_bytes", kBodyBytes);
    report_->MetaNum("preload_records", kPreloadRecords);
    report_->MetaNum("stripes", kStripes);
    report_->MetaNum("replicas_per_stripe", kReplicas + 1);
    report_->MetaNum("stripe_batch", kStripeBatch);
    report_->MetaNum("client_read_cache_bytes",
                     ClientOptions{}.read_cache_bytes);
    report_->MetaStr("store_mode", "memory_only");
    report_->MetaStr("io_engine", "unused (memory-only store)");
    report_->MetaNum("wan_one_way_delay_ms", 0);
    report_->MetaStr("load",
                     "closed loop, 2 client threads, 50/50 append/read");
  }
  clients_.clear();
  topo.reset();
  return cpu_us_per_op;
}

}  // namespace

void RunFlstoreMixed(const Options& opts, Report* report) {
  FlstoreBench bench(opts, report);
  RunWithTracing(opts, report, [&](double seconds, SpanLog* spans, bool e2e) {
    return bench.RunPhase(seconds, spans, e2e);
  });
}

}  // namespace e2e
