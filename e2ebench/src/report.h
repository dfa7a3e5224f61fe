// Result collection for the end-to-end benchmark: latency samples, the
// per-run report (metrics with units, run metadata, correctness verdict)
// and its JSON rendering.
#ifndef CHARIOTS_E2EBENCH_REPORT_H_
#define CHARIOTS_E2EBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

/// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

/// Process CPU time (user + system, all threads) in nanoseconds.
int64_t ProcessCpuNs();

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// A bag of latency samples with nearest-rank percentiles over all of them.
class Samples {
 public:
  void Add(double x) { v_.push_back(x); }
  size_t size() const { return v_.size(); }
  /// Nearest-rank percentile, `p` in [0, 100]; 0 if empty.
  double Pct(double p) const;

 private:
  std::vector<double> v_;
};

/// Host-wide CPU time from /proc/stat, in clock ticks.
struct HostCpu {
  uint64_t total = 0;
  uint64_t iowait = 0;
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();

class Report;

/// The measured part of a run, cut into one-second slices. One thread
/// polls it at (or soon after) each slice edge, sampling the process CPU
/// time and the host's CPU accounting there.
///
/// The end-to-end figures cover the quiet slices only: those in which the
/// hypervisor stole at most kQuietSteal of the host's CPU time, or, when
/// fewer than half the slices are that quiet, the half with the least
/// steal. Stolen time is the host taking CPU from this machine; an op that
/// crosses a burst of it waits milliseconds whatever the program does (see
/// README.md). Steal is measured apart from the program, so the choice
/// does not look at the latencies it keeps.
class RunWindow {
 public:
  static constexpr int64_t kSliceNs = 1'000'000'000;
  static constexpr double kQuietSteal = 0.01;

  void Set(int64_t start_ns, double seconds);
  int64_t start() const { return edges_.front(); }
  int64_t end() const { return edges_.back(); }
  double seconds() const { return static_cast<double>(end() - start()) / 1e9; }
  bool Contains(int64_t t) const { return t >= start() && t < end(); }

  /// The first slice edge not yet sampled (INT64_MAX once all are).
  int64_t next_edge() const;
  /// Samples the edges `now` has passed; call from one thread.
  void Poll(int64_t now);

  /// Chooses the quiet slices; call once every edge has been polled.
  void SelectQuiet();
  /// Whether `t` lies in a quiet slice.
  bool Quiet(int64_t t) const;
  double quiet_seconds() const;
  /// Process CPU microseconds per op over the quiet slices, `ops` being
  /// the ops that started in them.
  double CpuUsPerOp(uint64_t ops) const;
  double OpsPerSec(uint64_t ops) const { return ops / quiet_seconds(); }
  /// Host contention as run metadata: the steal and iowait shares of all
  /// CPU time over the window and over the quiet slices, the slice counts,
  /// the 1-minute load average, and whether the quiet slices' steal share
  /// exceeds kContendedSteal (the run is then not fit for comparison; see
  /// README.md).
  void ReportHost(Report* report) const;

  static constexpr double kContendedSteal = 0.05;

 private:
  /// Steal share of the host's CPU time in slice `i`.
  double Steal(size_t i) const;

  std::vector<int64_t> edges_{0};
  size_t polled_ = 0;  ///< edges sampled so far
  std::vector<int64_t> cpu_ns_;  ///< per sampled edge
  std::vector<HostCpu> host_;    ///< per sampled edge
  std::vector<bool> quiet_;      ///< per slice
};

/// Options every workload receives from the command line.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for stores and span dumps (inside the checkout).
  std::string out_dir;
};

class Report {
 public:
  /// End-to-end metric (reported with --trace 0).
  void E2E(const std::string& name, double value, const std::string& unit) {
    e2e_[name] = {value, unit};
  }
  /// Per-layer metric (reported with --trace 1).
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer_[name] = {value, unit};
  }
  /// Run metadata; `json` is an already-rendered JSON value.
  void Meta(const std::string& key, const std::string& json) {
    meta_[key] = json;
  }
  void MetaNum(const std::string& key, double value);
  void MetaStr(const std::string& key, const std::string& value);
  /// Sample count behind a percentile metric.
  void Count(const std::string& metric, size_t n) { counts_[metric] = n; }
  /// The end-to-end percentiles of one latency, NAME_p50_UNIT and
  /// NAME_p90_UNIT, with their sample count. p99 and p99.9 go into the
  /// metadata as NAME_tail_UNIT, ungated: on a shared host they follow the
  /// hypervisor's CPU steal more than the program (see README.md).
  void Latency(const std::string& name, const Samples& s,
               const std::string& unit);

  /// A correctness check failed: the run is not correct and `what` is kept
  /// (first few) for the log. Safe to call from load threads.
  void Fail(const std::string& what);
  bool correct() const { return correct_; }

  void AddAttempted(uint64_t n) { attempted_ += n; }
  void AddFailed(uint64_t n) { failed_ += n; }

  /// Human-readable lines: every metric with its unit, metadata, errors.
  std::string RenderText(bool trace) const;
  /// Full report (metadata, both metric sets, sample counts) as JSON.
  std::string RenderFullJson() const;
  /// The one-line result: correct, attempted, failed and the metric set of
  /// this mode.
  std::string RenderResultLine(bool trace) const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  static std::string RenderMetrics(const std::map<std::string, Metric>& m);

  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  std::map<std::string, std::string> meta_;
  std::map<std::string, size_t> counts_;
  std::mutex fail_mu_;  ///< guards errors_ and correct_ against load threads
  std::vector<std::string> errors_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

std::string JsonNumber(double x);
std::string JsonString(const std::string& s);

/// Deterministic record body of `size` bytes for (seed, stream, seq): the
/// first 16 bytes spell stream, seq and seed, the rest is seeded noise, so
/// every body in a run is distinct and can be regenerated for checking.
std::string MakeBody(uint64_t seed, uint64_t stream, uint64_t seq,
                     size_t size);

/// splitmix64 step: the benchmark's only PRNG.
uint64_t SplitMix(uint64_t* state);

/// Median of a few values (used for repeated set-up timings).
double Median(std::vector<double> v);

}  // namespace e2e

#endif  // CHARIOTS_E2EBENCH_REPORT_H_
