// The benchmark's workloads and the helpers they share.
#ifndef CHARIOTS_E2EBENCH_WORKLOADS_H_
#define CHARIOTS_E2EBENCH_WORKLOADS_H_

#include <functional>

#include "report.h"
#include "tracing.h"

namespace e2e {

/// geo_closed (file_store = false) and geo_closed_filestore
/// (file_store = true).
void RunGeo(const Options& opts, bool file_store, Report* report);

/// flstore_mixed.
void RunFlstoreMixed(const Options& opts, Report* report);

/// One measured phase of a workload: runs `seconds` of load on a fresh
/// topology, traced into `spans` when it is set, and writes end-to-end
/// metrics when `emit_e2e`. Returns the phase's CPU microseconds per op.
using PhaseFn =
    std::function<double(double seconds, SpanLog* spans, bool emit_e2e)>;

/// Untraced: one phase with end-to-end metrics. Traced: an untraced
/// reference phase of half the length, then the traced phase; reports the
/// tracing overhead, the runtime thread peak and the span self times, and
/// writes the span dump.
void RunWithTracing(const Options& opts, Report* report, const PhaseFn& phase);

/// Transport-level per-layer metrics shared by every workload.
void FillNetLayer(const TracingTransport::Stats& net, Report* report);

/// Per-layer metrics of layers a workload does not run, reported as 0 so
/// every workload emits the same metric set.
void FillFlstoreLayerAbsent(Report* report);
void FillGeoLayerAbsent(Report* report);

/// Storage-layer metrics from the engine decorator, per stored record.
void FillStorageLayer(const TracingIoEngine::Stats& io, double records,
                      double user_bytes, double window_s, double stores,
                      Report* report);

}  // namespace e2e

#endif  // CHARIOTS_E2EBENCH_WORKLOADS_H_
