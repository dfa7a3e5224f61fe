// chariots_e2e: end-to-end benchmark of the Chariots libraries.
//
//   chariots_e2e --workload NAME --seed N --seconds S --trace 0|1
//                [--out-dir DIR]
//
// Prints every metric with its unit, then, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// gives the end-to-end metrics, --trace 1 the per-layer ones (plus a span
// dump under DIR/spans). Exits 1 when a correctness check fails.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/executor.h"
#include "workloads.h"

namespace e2e {

namespace {
/// Spans one traced phase can hold; later ones are counted as dropped.
constexpr size_t kSpanCapacity = 1 << 19;
}  // namespace

void FillNetLayer(const TracingTransport::Stats& net, Report* report) {
  report->Layer("net.delivery_wait_p50_us", net.delivery_wait_us.Pct(50), "us");
  report->Layer("net.delivery_wait_p99_us", net.delivery_wait_us.Pct(99), "us");
  report->Count("net.delivery_wait_p50_us", net.delivery_wait_us.size());
  for (MsgKind kind : {MsgKind::kAppend, MsgKind::kRead, MsgKind::kInv,
                       MsgKind::kVal, MsgKind::kGeo}) {
    const auto& s = net.handler_us[static_cast<size_t>(kind)];
    const std::string name =
        std::string("net.handler_") + MsgKindName(kind) + "_p50_us";
    report->Layer(name, s.Pct(50), "us");
    report->Count(name, s.size());
  }
  for (MsgKind kind : {MsgKind::kAppend, MsgKind::kRead, MsgKind::kInv}) {
    const auto& s = net.rpc_rtt_us[static_cast<size_t>(kind)];
    const std::string name =
        std::string("net.rpc_rtt_") + MsgKindName(kind) + "_p50_us";
    report->Layer(name, s.Pct(50), "us");
    report->Count(name, s.size());
  }
}

void FillFlstoreLayerAbsent(Report* report) {
  for (const char* name : {"flstore.inv_round_p50_us",
                           "flstore.inv_round_p99_us"}) {
    report->Layer(name, 0, "us");
  }
  for (const char* name : {"flstore.read_cache_hit_frac",
                           "flstore.read_share_max"}) {
    report->Layer(name, 0, "fraction");
  }
  report->Layer("flstore.retries_per_op", 0, "count");
}

void FillGeoLayerAbsent(Report* report) {
  report->Layer("chariots.records_per_batch", 0, "count");
  report->Layer("chariots.commit_wait_p50_us", 0, "us");
  report->Layer("chariots.commit_wait_p99_us", 0, "us");
  report->Layer("chariots.remote_apply_p50_ms", 0, "ms");
  report->Layer("chariots.remote_apply_p99_ms", 0, "ms");
  report->Layer("chariots.sender_records_per_msg", 0, "count");
  report->Layer("chariots.refused_frac", 0, "fraction");
  report->Layer("chariots.sender_rewinds", 0, "count");
  report->Layer("chariots.filter_dup_frac", 0, "fraction");
}

void FillStorageLayer(const TracingIoEngine::Stats& io, double records,
                      double user_bytes, double window_s, double stores,
                      Report* report) {
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  report->Layer("storage.appendv_per_record", ratio(io.appendv, records),
                "count");
  report->Layer("storage.fsyncs_per_record", ratio(io.syncs, records),
                "count");
  report->Layer("storage.appendv_p50_us", io.appendv_us.Pct(50), "us");
  report->Layer("storage.appendv_p99_us", io.appendv_us.Pct(99), "us");
  report->Layer("storage.bytes_per_user_byte", ratio(io.bytes, user_bytes),
                "ratio");
  report->Layer("storage.busy_frac", ratio(io.busy_ns / 1e9, window_s * stores),
                "fraction");
  report->Count("storage.appendv_p50_us", io.appendv_us.size());
}

void RunWithTracing(const Options& opts, Report* report, const PhaseFn& phase) {
  if (!opts.trace) {
    phase(opts.seconds, nullptr, /*emit_e2e=*/true);
    return;
  }
  const double reference_cpu =
      phase(std::max(1.0, opts.seconds / 2), nullptr, /*emit_e2e=*/false);
  auto spans = std::make_unique<SpanLog>(kSpanCapacity);
  const double traced_cpu = phase(opts.seconds, spans.get(), false);
  report->Layer("bench.trace_overhead_frac",
                reference_cpu > 0 ? traced_cpu / reference_cpu - 1 : 0,
                "fraction");
  report->Layer("common.runtime_threads_peak",
                static_cast<double>(chariots::RuntimeThreadPeak()), "count");

  std::string self = "{";
  for (const auto& [name, st] : spans->SelfTimes()) {
    if (self.size() > 1) self += ", ";
    self += JsonString(name) + ": {\"count\": " + std::to_string(st.count) +
            ", \"mean_us\": " + JsonNumber(st.total_us) +
            ", \"self_us\": " + JsonNumber(st.self_us) + "}";
  }
  report->Meta("span_self_times", self + "}");
  report->MetaNum("spans_recorded", static_cast<double>(spans->size()));
  report->MetaNum("spans_dropped",
                  static_cast<double>(spans->dropped()));
  const std::string dir = opts.out_dir + "/spans";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + opts.workload + ".jsonl";
  if (spans->WriteJsonl(path)) report->MetaStr("span_dump", path);
}

}  // namespace e2e

namespace {

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: chariots_e2e --workload geo_closed|"
               "geo_closed_filestore|flstore_mixed --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opts;
  opts.out_dir = ".bench_out";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing flag value");
      return argv[++i];
    };
    const std::string flag = argv[i];
    if (flag == "--workload") {
      opts.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value() != "0";
    } else if (flag == "--out-dir") {
      opts.out_dir = value();
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (opts.seconds <= 0) Usage("--seconds must be positive");
  std::filesystem::create_directories(opts.out_dir);

  e2e::Report report;
  report.MetaStr("workload", opts.workload);
  report.MetaNum("seed", static_cast<double>(opts.seed));
  report.MetaNum("run_seconds", opts.seconds);
  report.MetaNum("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  report.Meta("modeled", "false");
  report.Meta("traced", opts.trace ? "true" : "false");
  if (opts.workload == "geo_closed") {
    e2e::RunGeo(opts, /*file_store=*/false, &report);
  } else if (opts.workload == "geo_closed_filestore") {
    e2e::RunGeo(opts, /*file_store=*/true, &report);
  } else if (opts.workload == "flstore_mixed") {
    e2e::RunFlstoreMixed(opts, &report);
  } else {
    Usage(("unknown workload " + opts.workload).c_str());
  }

  const std::string full = report.RenderFullJson();
  const std::string report_path = opts.out_dir + "/" + opts.workload +
                                  (opts.trace ? "-trace" : "") + ".json";
  if (FILE* f = std::fopen(report_path.c_str(), "w")) {
    std::fputs(full.c_str(), f);
    std::fputs("\n", f);
    std::fclose(f);
  }
  std::fputs(report.RenderText(opts.trace).c_str(), stdout);
  std::printf("meta: %s\n", full.c_str());
  std::printf("%s\n", report.RenderResultLine(opts.trace).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
