#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

namespace e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<int64_t>(tv.tv_usec) * 1'000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Samples::Pct(double p) const {
  if (v_.empty()) return 0;
  std::vector<double> v = v_;
  size_t rank =
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  size_t idx = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return v[idx];
}

HostCpu ReadHostCpu() {
  HostCpu out;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  // cpu  user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) out.total += x;
    out.iowait = v[4];
    out.steal = v[7];
  }
  std::fclose(f);
  return out;
}

void RunWindow::Set(int64_t start_ns, double seconds) {
  const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  edges_.clear();
  for (int64_t t = start_ns; t < end_ns; t += kSliceNs) edges_.push_back(t);
  edges_.push_back(end_ns);
  polled_ = 0;
  cpu_ns_.clear();
  host_.clear();
  quiet_.assign(edges_.size() - 1, true);
}

int64_t RunWindow::next_edge() const {
  return polled_ < edges_.size() ? edges_[polled_]
                                 : std::numeric_limits<int64_t>::max();
}

void RunWindow::Poll(int64_t now) {
  while (polled_ < edges_.size() && now >= edges_[polled_]) {
    cpu_ns_.push_back(ProcessCpuNs());
    host_.push_back(ReadHostCpu());
    ++polled_;
  }
}

double RunWindow::Steal(size_t i) const {
  if (i + 1 >= host_.size() || host_[i + 1].total <= host_[i].total) return 0;
  return static_cast<double>(host_[i + 1].steal - host_[i].steal) /
         static_cast<double>(host_[i + 1].total - host_[i].total);
}

void RunWindow::SelectQuiet() {
  const size_t n = quiet_.size();
  size_t quiet = 0;
  for (size_t i = 0; i < n; ++i) {
    quiet_[i] = Steal(i) <= kQuietSteal;
    quiet += quiet_[i];
  }
  if (2 * quiet >= n) return;
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return Steal(a) < Steal(b); });
  for (size_t k = 0; k < n; ++k) quiet_[order[k]] = 2 * k < n;
}

bool RunWindow::Quiet(int64_t t) const {
  if (!Contains(t)) return false;
  return quiet_[static_cast<size_t>((t - start()) / kSliceNs)];
}

double RunWindow::quiet_seconds() const {
  double s = 0;
  for (size_t i = 0; i < quiet_.size(); ++i) {
    if (quiet_[i]) s += static_cast<double>(edges_[i + 1] - edges_[i]) / 1e9;
  }
  return s;
}

double RunWindow::CpuUsPerOp(uint64_t ops) const {
  if (polled_ < edges_.size() || ops == 0) return 0;
  int64_t cpu = 0;
  for (size_t i = 0; i < quiet_.size(); ++i) {
    if (quiet_[i]) cpu += cpu_ns_[i + 1] - cpu_ns_[i];
  }
  return static_cast<double>(cpu) / 1e3 / static_cast<double>(ops);
}

void RunWindow::ReportHost(Report* report) const {
  // Shares of all CPU time, over the whole window and over the quiet slices.
  auto shares = [&](bool quiet_only, double* steal, double* iowait) {
    uint64_t total = 0, st = 0, io = 0;
    for (size_t i = 0; i + 1 < host_.size(); ++i) {
      if (quiet_only && !quiet_[i]) continue;
      total += host_[i + 1].total - host_[i].total;
      st += host_[i + 1].steal - host_[i].steal;
      io += host_[i + 1].iowait - host_[i].iowait;
    }
    *steal = total > 0 ? static_cast<double>(st) / total : 0;
    *iowait = total > 0 ? static_cast<double>(io) / total : 0;
  };
  double steal = 0, iowait = 0, quiet_steal = 0, quiet_iowait = 0;
  shares(false, &steal, &iowait);
  shares(true, &quiet_steal, &quiet_iowait);
  size_t quiet = 0;
  for (bool q : quiet_) quiet += q;
  double load[1] = {0};
  getloadavg(load, 1);
  report->MetaNum("host_steal_frac", steal);
  report->MetaNum("host_iowait_frac", iowait);
  report->MetaNum("host_quiet_steal_frac", quiet_steal);
  report->MetaNum("host_quiet_iowait_frac", quiet_iowait);
  report->MetaNum("slices", static_cast<double>(quiet_.size()));
  report->MetaNum("quiet_slices", static_cast<double>(quiet));
  report->MetaNum("host_loadavg_1m", load[0]);
  report->Meta("host_contended",
               quiet_steal > kContendedSteal ? "true" : "false");
}

void Report::Latency(const std::string& name, const Samples& s,
                     const std::string& unit) {
  for (int p : {50, 90}) {
    const std::string metric = name + "_p" + std::to_string(p) + "_" + unit;
    E2E(metric, s.Pct(p), unit);
    Count(metric, s.size());
  }
  Meta(name + "_tail_" + unit, "{\"p99\": " + JsonNumber(s.Pct(99)) +
                                   ", \"p99.9\": " + JsonNumber(s.Pct(99.9)) +
                                   "}");
}

std::string JsonNumber(double x) {
  if (!std::isfinite(x)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), x);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void Report::MetaNum(const std::string& key, double value) {
  meta_[key] = JsonNumber(value);
}

void Report::MetaStr(const std::string& key, const std::string& value) {
  meta_[key] = JsonString(value);
}

void Report::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(fail_mu_);
  correct_ = false;
  if (errors_.size() < 20) errors_.push_back(what);
}

std::string Report::RenderMetrics(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

std::string Report::RenderText(bool trace) const {
  std::ostringstream out;
  const auto& metrics = trace ? layer_ : e2e_;
  out << (trace ? "per-layer metrics (traced run):\n"
                : "end-to-end metrics (untraced run):\n");
  for (const auto& [name, metric] : metrics) {
    out << "  " << name << " = " << JsonNumber(metric.value) << " "
        << metric.unit;
    auto it = counts_.find(name);
    if (it != counts_.end()) out << "  (n=" << it->second << ")";
    out << "\n";
  }
  out << "attempted=" << attempted_ << " failed=" << failed_
      << " correct=" << (correct_ ? "true" : "false") << "\n";
  for (const std::string& e : errors_) out << "  CHECK FAILED: " << e << "\n";
  return out.str();
}

std::string Report::RenderFullJson() const {
  std::string out = "{\"meta\": {";
  bool first = true;
  for (const auto& [key, json] : meta_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(key) + ": " + json;
  }
  out += "}, \"sample_counts\": {";
  first = true;
  for (const auto& [key, n] : counts_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(key) + ": " + std::to_string(n);
  }
  out += "}, \"end_to_end\": " + RenderMetrics(e2e_) +
         ", \"per_layer\": " + RenderMetrics(layer_) + ", \"errors\": [";
  for (size_t i = 0; i < errors_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(errors_[i]);
  }
  out += "], \"correct\": " + std::string(correct_ ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + "}";
  return out;
}

std::string Report::RenderResultLine(bool trace) const {
  return std::string("{\"correct\": ") + (correct_ ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) +
         ", \"metrics\": " + RenderMetrics(trace ? layer_ : e2e_) + "}";
}

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string MakeBody(uint64_t seed, uint64_t stream, uint64_t seq,
                     size_t size) {
  std::string body(size, '\0');
  uint64_t head[2] = {(stream << 40) ^ seq, seed};
  std::memcpy(body.data(), head, std::min(size, sizeof(head)));
  uint64_t state = seed ^ (stream * 0x632be59bd9b4e019ull) ^
                   (seq * 0x8cb92ba72f3d8dd7ull);
  for (size_t off = sizeof(head); off < size; off += 8) {
    uint64_t word = SplitMix(&state);
    std::memcpy(body.data() + off, &word, std::min<size_t>(8, size - off));
  }
  return body;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace e2e
