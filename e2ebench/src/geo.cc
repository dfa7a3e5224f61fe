// Geo workloads: two Chariots datacenters over a simulated WAN.
//
//   geo_closed            one closed-loop ChariotsClient::Append session
//                         per DC, memory-only stores: the latency an
//                         application waits on per causal append.
//   geo_closed_filestore  one closed-loop session per DC through
//                         Datacenter::TryAppend, waiting for on_committed,
//                         file stores written through the page cache: ingest
//                         with the storage layer on the commit path. There
//                         is no fdatasync; on a shared disk its tail is too
//                         unsteady for any run to hold (see README.md).
//
// Both time remote visibility through the remote DC's Subscribe callback and
// check every acked append with ReadByToid at the host and the remote DC.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "chariots/client.h"
#include "chariots/datacenter.h"
#include "chariots/fabric.h"
#include "common/executor.h"
#include "net/inproc_transport.h"
#include "storage/io_engine.h"
#include "tracing.h"
#include "workloads.h"

namespace e2e {

namespace {

using chariots::Executor;
using chariots::geo::ChariotsClient;
using chariots::geo::ChariotsConfig;
using chariots::geo::Datacenter;
using chariots::geo::DatacenterId;
using chariots::geo::GeoRecord;
using chariots::geo::TOId;
using chariots::geo::TransportFabric;

constexpr uint32_t kDcs = 2;
constexpr int64_t kWanDelayNs = 5'000'000;
constexpr size_t kBodyBytes = 128;
/// Starting two DCs takes tens (memory) to hundreds (files) of microseconds,
/// so the median of many starts is what keeps setup_s steady from run to
/// run; file-store starts also wait on the file system's journal now and
/// then. The starts are kSetupGap apart, so they spread over about a second
/// and a burst of host CPU steal reaches few of them.
constexpr int kSetupRepeats = 301;
constexpr auto kSetupGap = std::chrono::milliseconds(3);
constexpr double kWarmupSec = 0.5;
/// After each append its session reads back the append's own record
/// (read-your-write) and kHistoryReads seeded, uniformly chosen records
/// among its kHistoryWindow previous appends; every read is timed and
/// checked. The window keeps the read working set the same whatever the run
/// length.
constexpr int kHistoryReads = 3;
constexpr uint64_t kHistoryWindow = 1024;
constexpr int64_t kDrainTimeoutNs = 20'000'000'000;
constexpr auto kCommitTimeout = std::chrono::seconds(10);

/// Subscribe callbacks of one DC: when each record was committed there.
struct Arrivals {
  std::mutex mu;
  std::vector<std::pair<TOId, int64_t>> by_host[kDcs];
};

/// Two started datacenters over one in-proc WAN, optionally traced.
class GeoTopology {
 public:
  GeoTopology(bool file_store, const std::string& store_dir, SpanLog* spans)
      : store_dir_(store_dir) {
    chariots::net::LinkOptions wan;
    wan.latency_nanos = kWanDelayNs;
    inner_.SetLink("geo/", "geo/", wan);
    chariots::net::Transport* transport = &inner_;
    chariots::storage::IoEngine* engine = chariots::storage::IoEngineFromEnv();
    if (spans != nullptr) {
      traced_ = std::make_unique<TracingTransport>(&inner_, spans);
      transport = traced_.get();
      engine_ = std::make_unique<TracingIoEngine>(engine, spans);
      engine = engine_.get();
    }
    fabric_ = std::make_unique<TransportFabric>(transport);
    for (uint32_t d = 0; d < kDcs; ++d) {
      ChariotsConfig config;
      config.dc_id = d;
      config.num_datacenters = kDcs;
      config.io_engine = engine;
      if (file_store) {
        config.store_mode = chariots::storage::SyncMode::kBuffered;
        config.store_dir = store_dir + "/dc" + std::to_string(d);
      }
      dcs_.push_back(std::make_unique<Datacenter>(config, fabric_.get()));
      Arrivals* arrivals = &arrivals_[d];
      dcs_.back()->Subscribe([arrivals](const GeoRecord& rec) {
        const int64_t now = NowNs();
        std::lock_guard<std::mutex> lock(arrivals->mu);
        if (rec.host < kDcs) {
          arrivals->by_host[rec.host].emplace_back(rec.toid, now);
        }
      });
    }
    for (auto& dc : dcs_) {
      chariots::Status st = dc->Start();
      if (!st.ok()) {
        std::fprintf(stderr, "datacenter start failed: %s\n",
                     st.ToString().c_str());
        std::exit(3);
      }
    }
  }

  ~GeoTopology() {
    for (auto& dc : dcs_) dc->Stop();
    dcs_.clear();
    fabric_.reset();
    if (!store_dir_.empty()) std::filesystem::remove_all(store_dir_);
  }

  Datacenter* dc(uint32_t d) { return dcs_[d].get(); }
  TracingTransport* traced() { return traced_.get(); }
  TracingIoEngine* engine() { return engine_.get(); }

  /// Arrival time of (host, toid) at DC `at`, indexed by toid (0 = never).
  std::vector<int64_t> ArrivalTimes(uint32_t at, DatacenterId host,
                                    TOId max_toid) {
    std::vector<int64_t> out(max_toid + 1, 0);
    std::lock_guard<std::mutex> lock(arrivals_[at].mu);
    for (auto [toid, t] : arrivals_[at].by_host[host]) {
      if (toid <= max_toid && out[toid] == 0) out[toid] = t;
    }
    return out;
  }

  Datacenter::Stats SumStats() {
    Datacenter::Stats s;
    for (auto& dc : dcs_) {
      Datacenter::Stats d = dc->GetStats();
      s.batcher_records_in += d.batcher_records_in;
      s.batches_flushed += d.batches_flushed;
      s.filter_forwarded += d.filter_forwarded;
      s.filter_duplicates += d.filter_duplicates;
      s.records_sent += d.records_sent;
      s.batches_sent += d.batches_sent;
      s.sender_rewinds += d.sender_rewinds;
      s.appends_refused += d.appends_refused;
    }
    return s;
  }

 private:
  // Destruction order: datacenters, fabric, decorators, transport.
  chariots::net::InProcTransport inner_;
  std::unique_ptr<TracingTransport> traced_;
  std::unique_ptr<TracingIoEngine> engine_;
  std::unique_ptr<TransportFabric> fabric_;
  Arrivals arrivals_[kDcs];
  std::vector<std::unique_ptr<Datacenter>> dcs_;
  std::string store_dir_;
};

/// One append of the run, from the benchmark's side.
struct GeoOp {
  uint32_t dc = 0;
  uint64_t seq = 0;    ///< body stream position (per DC)
  int64_t start = 0;
  /// File store: when TryAppend returned (the commit wait starts there).
  int64_t returned = 0;
  /// Commit time: on_committed (file store) or the Append return.
  std::atomic<int64_t> committed{0};
  TOId toid = 0;
  bool accepted = false;
  bool measured = false;  ///< inside the measured window (not warm-up)
  uint64_t op_id = 0;     ///< root span id when traced and sampled
  /// Latencies (us) of the reads made after this append.
  std::array<double, 1 + kHistoryReads> read_us{};
  int reads = 0;
};

/// Set once by an on_committed callback; waited on by the load thread.
struct CommitLatch {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
};

class GeoBench {
 public:
  GeoBench(const Options& opts, bool file_store, Report* report)
      : opts_(opts), file_store_(file_store), report_(report) {}

  /// One measured phase on a fresh topology; `spans` null = untraced.
  /// Returns CPU microseconds per completed op.
  double RunPhase(double seconds, SpanLog* spans, bool emit_e2e);

 private:
  std::string StoresRoot() const { return opts_.out_dir + "/stores"; }
  std::string StoreDir(int k) const {
    if (!file_store_) return "";
    return StoresRoot() + "/geo-" + std::to_string(getpid()) + "-" +
           std::to_string(k);
  }
  /// One closed-loop session per DC until the window ends.
  void RunLoad(GeoTopology* topo, SpanLog* spans);
  /// One append: ChariotsClient::Append, or (file store) TryAppend and a wait
  /// for on_committed.
  void AppendOne(GeoTopology* topo, ChariotsClient* client, SpanLog* spans,
                 std::string body, GeoOp* op);
  /// Read-by-TOId of `target`, a committed append, at its host, checked
  /// against the bytes appended and timed into `op`.
  void ReadBack(GeoTopology* topo, const GeoOp& target, GeoOp* op);

  const Options& opts_;
  const bool file_store_;
  Report* const report_;
  /// Appends of the phase, per host DC.
  std::deque<GeoOp> ops_[kDcs];
  /// Ops before window_.start() are warm-up.
  RunWindow window_;
  int setup_counter_ = 0;
};

void GeoBench::RunLoad(GeoTopology* topo, SpanLog* spans) {
  std::vector<std::thread> threads;
  for (uint32_t d = 0; d < kDcs; ++d) {
    threads.emplace_back([&, d] {
      ChariotsClient client(topo->dc(d));
      uint64_t rng = opts_.seed * 2 + d;  // read positions
      for (uint64_t seq = 0;; ++seq) {
        const int64_t start = NowNs();
        if (start >= window_.end()) break;
        GeoOp& op = ops_[d].emplace_back();
        op.dc = d;
        op.seq = seq;
        op.start = start;
        op.measured = window_.Contains(start);
        AppendOne(topo, &client, spans,
                  MakeBody(opts_.seed, d, seq, kBodyBytes), &op);
        if (op.committed.load() == 0) continue;
        ReadBack(topo, op, &op);
        for (int k = 0; k < kHistoryReads && seq > 0; ++k) {
          const uint64_t back =
              1 + SplitMix(&rng) % std::min(seq, kHistoryWindow);
          const GeoOp& old = ops_[d][seq - back];
          if (old.committed.load() != 0) {
            ReadBack(topo, old, &op);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

void GeoBench::AppendOne(GeoTopology* topo, ChariotsClient* client,
                         SpanLog* spans, std::string body, GeoOp* op) {
  ScopedSpan root(spans, "op.append", OpKind::kAppend);
  op->op_id = root.sampled() ? root.op() : 0;
  if (!file_store_) {
    chariots::Result<std::pair<TOId, chariots::flstore::LId>> r =
        chariots::Status::Internal("not run");
    {
      ScopedSpan api(spans, "chariots.ChariotsClient.Append");
      r = client->Append(std::move(body));
    }
    if (r.ok()) {
      op->accepted = true;
      op->toid = r->first;
      op->committed.store(NowNs());
    }
    return;
  }
  auto latch = std::make_shared<CommitLatch>();
  std::atomic<int64_t>* committed = &op->committed;
  chariots::Result<TOId> r = chariots::Status::Internal("not run");
  {
    ScopedSpan api(spans, "chariots.Datacenter.TryAppend");
    r = topo->dc(op->dc)->TryAppend(
        std::move(body), {}, {},
        [latch, committed](TOId, chariots::flstore::LId) {
          committed->store(NowNs());
          std::lock_guard<std::mutex> lock(latch->mu);
          latch->done = true;
          latch->cv.notify_all();
        });
  }
  op->returned = NowNs();
  if (!r.ok()) return;
  op->accepted = true;
  op->toid = *r;
  ScopedSpan wait(spans, "chariots.commit_wait");
  std::unique_lock<std::mutex> lock(latch->mu);
  latch->cv.wait_for(lock, kCommitTimeout, [&] { return latch->done; });
}

void GeoBench::ReadBack(GeoTopology* topo, const GeoOp& target, GeoOp* op) {
  const int64_t t0 = NowNs();
  chariots::Result<GeoRecord> rec =
      topo->dc(target.dc)->ReadByToid(target.dc, target.toid);
  const int64_t t1 = NowNs();
  if (!rec.ok() || rec->body != MakeBody(opts_.seed, target.dc, target.seq,
                                         kBodyBytes)) {
    report_->Fail("read-back of (" + std::to_string(target.dc) + ", " +
                  std::to_string(target.toid) + ") at its host: " +
                  (rec.ok() ? "other bytes" : rec.status().ToString()));
    return;
  }
  op->read_us[op->reads++] = (t1 - t0) / 1e3;
}

double GeoBench::RunPhase(double seconds, SpanLog* spans, bool emit_e2e) {
  for (auto& q : ops_) q.clear();
  // Set-up: topology start, repeated; the last topology runs the load.
  std::vector<double> setup_s;
  std::unique_ptr<GeoTopology> topo;
  const int repeats = emit_e2e ? kSetupRepeats : 1;
  if (file_store_) {
    // Commit what earlier runs left in the file system's journal (their
    // store deletions), so a journal flush does not land inside set-up.
    std::filesystem::create_directories(StoresRoot());
    const int fd = open(StoresRoot().c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
      syncfs(fd);
      close(fd);
    }
  }
  for (int k = 0; k < repeats; ++k) {
    topo.reset();
    if (k > 0) std::this_thread::sleep_for(kSetupGap);
    const int64_t t0 = NowNs();
    topo = std::make_unique<GeoTopology>(
        file_store_, StoreDir(setup_counter_++), spans);
    setup_s.push_back((NowNs() - t0) / 1e9);
  }

  Executor* exec = Executor::Default();
  Datacenter::Stats stats0{}, stats1{};
  uint64_t tasks0 = 0, tasks1 = 0;
  // Counters are read at the window edges by a watcher thread, so warm-up
  // and drain work are excluded.
  window_.Set(NowNs() + static_cast<int64_t>(kWarmupSec * 1e9), seconds);
  // It sleeps from edge to edge rather than polling, so it takes no CPU
  // from the load while the window runs.
  auto sleep_until = [](int64_t t) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t)));
  };
  std::thread watcher([&] {
    sleep_until(window_.start());
    window_.Poll(NowNs());
    stats0 = topo->SumStats();
    tasks0 = exec->tasks_run();
    if (spans != nullptr) {
      topo->traced()->Reset();
      topo->engine()->Reset();
    }
    for (int64_t edge = window_.next_edge();
         edge != std::numeric_limits<int64_t>::max();
         edge = window_.next_edge()) {
      sleep_until(edge);
      window_.Poll(NowNs());
    }
    stats1 = topo->SumStats();
    tasks1 = exec->tasks_run();
  });
  RunLoad(topo.get(), spans);
  watcher.join();
  TracingTransport::Stats net{};
  TracingIoEngine::Stats io{};
  if (spans != nullptr) {
    net = topo->traced()->Snapshot();
    io = topo->engine()->Snapshot();
  }
  const double window_s = window_.seconds();

  // Drain: every accepted append committed at its host and incorporated at
  // the other datacenter.
  const int64_t drain_deadline = NowNs() + kDrainTimeoutNs;
  TOId max_toid[kDcs] = {0, 0};
  for (const auto& q : ops_) {
    for (const GeoOp& op : q) {
      if (op.accepted) max_toid[op.dc] = std::max(max_toid[op.dc], op.toid);
    }
  }
  for (const auto& q : ops_) {
    for (const GeoOp& op : q) {
      while (op.accepted && op.committed.load() == 0 &&
             NowNs() < drain_deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
  }
  for (uint32_t host = 0; host < kDcs; ++host) {
    for (uint32_t at = 0; at < kDcs; ++at) {
      int64_t left = std::max<int64_t>(drain_deadline - NowNs(), 1);
      if (max_toid[host] > 0) {
        topo->dc(at)->WaitForToid(host, max_toid[host], left);
      }
    }
  }

  // Checks and latency extraction.
  std::vector<int64_t> arrive[kDcs][kDcs];  // [at][host]
  for (uint32_t at = 0; at < kDcs; ++at) {
    for (uint32_t host = 0; host < kDcs; ++host) {
      arrive[at][host] = topo->ArrivalTimes(at, host, max_toid[host]);
    }
  }
  // End-to-end figures cover the ops that started in quiet slices; the
  // per-layer ones, like the counters they are divided by, every measured
  // op.
  window_.SelectQuiet();
  Samples append_us, remote_ms, read_us, commit_wait_us, remote_apply_ms;
  uint64_t attempted = 0, failed = 0, completed = 0, quiet = 0;
  for (const auto& q : ops_) {
    for (const GeoOp& op : q) {
      ++attempted;
      const uint32_t remote = 1 - op.dc;
      const int64_t committed = op.committed.load();
      bool ok = op.accepted && committed != 0;
      const int64_t host_durable = ok ? arrive[op.dc][op.dc][op.toid] : 0;
      const int64_t remote_seen = ok ? arrive[remote][op.dc][op.toid] : 0;
      ok = ok && remote_seen != 0;
      if (op.accepted) {
        const std::string expected =
            MakeBody(opts_.seed, op.dc, op.seq, kBodyBytes);
        for (uint32_t at : {op.dc, remote}) {
          chariots::Result<GeoRecord> rec =
              topo->dc(at)->ReadByToid(op.dc, op.toid);
          if (!rec.ok()) {
            ok = false;
            report_->Fail("ReadByToid(" + std::to_string(op.dc) + ", " +
                          std::to_string(op.toid) + ") at dc" +
                          std::to_string(at) + ": " + rec.status().ToString());
          } else if (rec->body != expected || rec->host != op.dc ||
                     rec->toid != op.toid) {
            ok = false;
            report_->Fail("ReadByToid(" + std::to_string(op.dc) + ", " +
                          std::to_string(op.toid) + ") at dc" +
                          std::to_string(at) + " returned other bytes");
          }
        }
      }
      if (!ok) {
        ++failed;
        continue;
      }
      if (!op.measured) continue;
      ++completed;
      if (window_.Quiet(op.start)) {
        ++quiet;
        append_us.Add((committed - op.start) / 1e3);
        remote_ms.Add((remote_seen - op.start) / 1e6);
        for (int k = 0; k < op.reads; ++k) read_us.Add(op.read_us[k]);
      }
      if (file_store_) commit_wait_us.Add((committed - op.returned) / 1e3);
      if (host_durable != 0) {
        remote_apply_ms.Add((remote_seen - host_durable) / 1e6);
        // The remote apply happens after the op's root span has ended; it
        // hangs off the root as the one pipeline stage observed from outside.
        if (spans != nullptr && op.op_id != 0) {
          spans->Add(spans->NewId(), op.op_id, op.op_id,
                     "chariots.remote_apply", host_durable, remote_seen);
        }
      }
    }
  }
  const std::vector<TOId> v0 = topo->dc(0)->IncorporatedVector();
  const std::vector<TOId> v1 = topo->dc(1)->IncorporatedVector();
  if (v0 != v1) {
    report_->Fail("IncorporatedVector differs across DCs after drain");
  }
  report_->AddAttempted(attempted);
  report_->AddFailed(failed);

  const double cpu_us_per_op = window_.CpuUsPerOp(quiet);
  const double ops = static_cast<double>(completed);
  if (emit_e2e) {
    report_->E2E("setup_s", Median(setup_s), "s");
    report_->E2E("ops_per_s", window_.OpsPerSec(quiet), "1/s");
    report_->Latency("append", append_us, "us");
    report_->Latency("read", read_us, "us");
    report_->Latency("remote_visible", remote_ms, "ms");
    report_->E2E("cpu_us_per_op", cpu_us_per_op, "us");
    report_->E2E("peak_rss_mb", PeakRssMb(), "MB");
    report_->MetaNum("setup_repeats", repeats);
  }
  if (spans != nullptr) {
    const double appends = std::max(ops, 1.0);
    const auto& kinds = net.msgs_by_kind;
    report_->Layer("common.executor_tasks_per_op",
                   static_cast<double>(tasks1 - tasks0) / appends, "count");
    // Geo replication traffic exists only because of appends, but the
    // pipeline hands it off through executor tasks, so it is attributed to
    // appends by kind rather than by op.
    report_->Layer("net.msgs_per_append",
                   (net.msgs_by_op[static_cast<size_t>(OpKind::kAppend)] +
                    kinds[static_cast<size_t>(MsgKind::kGeo)]) /
                       appends,
                   "count");
    report_->Layer("net.msgs_per_read", 0, "count");
    report_->Layer("net.bytes_per_op", net.bytes / appends, "B");
    FillNetLayer(net, report_);
    // Window deltas of the datacenters' stats.
    auto d = [&](uint64_t Datacenter::Stats::*field) {
      return static_cast<double>(stats1.*field - stats0.*field);
    };
    using S = Datacenter::Stats;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    report_->Layer("chariots.records_per_batch",
                   ratio(d(&S::batcher_records_in), d(&S::batches_flushed)),
                   "count");
    report_->Layer("chariots.remote_apply_p50_ms", remote_apply_ms.Pct(50),
                   "ms");
    report_->Layer("chariots.remote_apply_p99_ms", remote_apply_ms.Pct(99),
                   "ms");
    report_->Layer("chariots.sender_records_per_msg",
                   ratio(d(&S::records_sent), d(&S::batches_sent)), "count");
    report_->Layer("chariots.refused_frac",
                   ratio(d(&S::appends_refused), attempted), "fraction");
    report_->Layer("chariots.sender_rewinds", d(&S::sender_rewinds), "count");
    report_->Layer("chariots.filter_dup_frac",
                   ratio(d(&S::filter_duplicates),
                         d(&S::filter_forwarded) + d(&S::filter_duplicates)),
                   "fraction");
    // Only the file-store workload times the commit wait; ChariotsClient
    // hides it inside Append.
    report_->Layer("chariots.commit_wait_p50_us", commit_wait_us.Pct(50), "us");
    report_->Layer("chariots.commit_wait_p99_us", commit_wait_us.Pct(99), "us");
    report_->Count("chariots.commit_wait_p50_us", commit_wait_us.size());
    report_->Count("chariots.remote_apply_p50_ms", remote_apply_ms.size());
    FillFlstoreLayerAbsent(report_);
    // Every record is stored at both datacenters (one maintainer each), so
    // storage ratios are per stored record. Memory-only stores never reach
    // the engine and read 0.
    FillStorageLayer(io, ops * kDcs, ops * kDcs * kBodyBytes, window_s, kDcs,
                     report_);
  }
  if (emit_e2e || spans != nullptr) {
    window_.ReportHost(report_);
    report_->MetaNum("wan_one_way_delay_ms", kWanDelayNs / 1e6);
    report_->MetaNum("record_bytes", kBodyBytes);
    report_->MetaStr("store_mode",
                     file_store_ ? "buffered (page cache, no fdatasync)"
                                 : "memory_only");
    report_->MetaStr("io_engine",
                     file_store_ ? chariots::storage::IoEngineFromEnv()->name()
                                 : "unused (memory-only store)");
    const ChariotsConfig defaults;
    report_->MetaStr("flush_policy",
                     "batcher flush at " +
                         std::to_string(defaults.batcher_flush_records) +
                         " records or " +
                         std::to_string(defaults.batcher_flush_nanos / 1000) +
                         " us");
    report_->MetaStr("load", file_store_
                                 ? "closed loop, one TryAppend session per DC"
                                 : "closed loop, one ChariotsClient session "
                                   "per DC");
  }
  topo.reset();
  return cpu_us_per_op;
}

}  // namespace

void RunGeo(const Options& opts, bool file_store, Report* report) {
  GeoBench bench(opts, file_store, report);
  RunWithTracing(opts, report, [&](double seconds, SpanLog* spans, bool e2e) {
    return bench.RunPhase(seconds, spans, e2e);
  });
}

}  // namespace e2e
