// Shared observability plumbing for the sweep benches (--trace/--metrics/
// --trace-summary/--telemetry/--alerts; see docs/observability.md).
//
// A bench that supports export derives the sinks it wants from its flags
// (CaptureWantsFor), runs each replication under one obs::Capture, keeps
// the moved-out obs::Captured in its per-replication result, and hands
// every capture to ExportCaptures after the sweep. Captures are
// flattened in [config][replication] index order — the same merge order
// RunSweep guarantees for results — so exports are byte-identical at any
// --threads.
#ifndef WIMPY_BENCH_OBS_BENCH_UTIL_H_
#define WIMPY_BENCH_OBS_BENCH_UTIL_H_

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_args.h"
#include "obs/capture.h"
#include "obs/critical_path.h"
#include "obs/export.h"

namespace wimpy::bench {

// The sinks a bench's flags ask for. Benches that attribute energy to
// spans pass `energy`: --trace-summary then turns on the attributor and
// the tracer its roll-up reads. Benches with the online telemetry plane
// pass `telemetry`: --telemetry/--alerts then turn it on. Other benches
// ignore those flags.
inline obs::CaptureWants CaptureWantsFor(const BenchArgs& args,
                                         bool energy = false,
                                         bool telemetry = false) {
  obs::CaptureWants wants;
  wants.energy = energy && !args.trace_summary_path.empty();
  wants.trace = !args.trace_path.empty() || wants.energy;
  wants.metrics = !args.metrics_path.empty();
  wants.telemetry = telemetry && args.WantTelemetry();
  return wants;
}

// Mean attributed millijoules per request in a replication's ledger:
// the sum of span-attributed joules divided by the number of distinct
// traces (requests) that accrued any. The same per-trace roll-up the
// --trace-summary CSV writes, collapsed to one number so the web bench
// tables can print it as a column.
inline double MeanRequestMillijoules(const obs::EnergyLedger& ledger) {
  double joules = 0;
  std::vector<std::uint64_t> traces;
  traces.reserve(ledger.rows.size());
  for (const obs::SpanEnergyRow& row : ledger.rows) {
    joules += row.joules;
    traces.push_back(row.trace_id);
  }
  std::sort(traces.begin(), traces.end());
  traces.erase(std::unique(traces.begin(), traces.end()), traces.end());
  if (traces.empty()) return 0;
  return 1000 * joules / static_cast<double>(traces.size());
}

// Moves every replication's `obs` capture out of a sweep, in
// [config][replication] order.
template <typename Sweep>
std::vector<obs::Captured> SweepCaptures(Sweep& sweep) {
  std::vector<obs::Captured> captures;
  for (auto& per_config : sweep) {
    for (auto& rep : per_config) captures.push_back(std::move(rep.obs));
  }
  return captures;
}

// Prints "<What> written to <path>", or the failure on stderr.
inline void ReportExport(const Status& st, const char* what,
                         const std::string& path, const char* note = "") {
  if (st.ok()) {
    std::printf("%s written to %s%s\n", what, path.c_str(), note);
  } else {
    std::fprintf(stderr, "%c%s export failed: %s\n",
                 std::tolower(static_cast<unsigned char>(what[0])), what + 1,
                 st.message().c_str());
  }
}

// Writes the exports `wants` enabled: the --trace-summary per-trace
// roll-up (critical-path latency + attributed joules, and the --slo-ms
// line), the trace, the metrics, then the telemetry rollups and alerts.
inline void ExportCaptures(const BenchArgs& args,
                           const obs::CaptureWants& wants,
                           std::vector<obs::Captured> captures) {
  std::vector<obs::TraceLog> logs;
  std::vector<obs::MetricsSeries> series;
  std::vector<obs::EnergyLedger> ledgers;
  std::vector<obs::TelemetrySeries> telemetry;
  std::vector<obs::AlertLog> alerts;
  for (obs::Captured& c : captures) {
    if (wants.trace) logs.push_back(std::move(c.trace));
    if (wants.metrics) series.push_back(std::move(c.metrics));
    if (wants.energy) ledgers.push_back(std::move(c.ledger));
    if (wants.telemetry) {
      telemetry.push_back(std::move(c.telemetry));
      alerts.push_back(std::move(c.alerts));
    }
  }
  if (wants.energy) {
    const Duration slo = Milliseconds(args.slo_ms);
    ReportExport(obs::WriteTraceSummaryCsv(logs, ledgers,
                                           args.trace_summary_path, slo),
                 "Trace summary", args.trace_summary_path);
    if (slo > 0.0) {
      // The --slo-ms roll-up, re-derived from exports alone so it can be
      // cross-checked against any live report (docs/openloop.md).
      const obs::SloSummary s = obs::SummarizeSloGoodput(logs, ledgers, slo);
      std::printf(
          "SLO %.3g ms: %lld/%lld sampled window traces under bound, "
          "slo_goodput_per_joule=%.6g (window %.6g J)\n",
          args.slo_ms, static_cast<long long>(s.under_slo),
          static_cast<long long>(s.window_traces), s.slo_goodput_per_joule,
          s.window_joules);
    }
  }
  if (!args.trace_path.empty()) {
    ReportExport(obs::WriteChromeTrace(logs, args.trace_path), "Trace",
                 args.trace_path, " (load at ui.perfetto.dev)");
  }
  if (!args.metrics_path.empty()) {
    ReportExport(obs::WriteMetricsCsv(series, args.metrics_path), "Metrics",
                 args.metrics_path);
  }
  if (wants.telemetry && !args.telemetry_path.empty()) {
    ReportExport(obs::WriteTelemetryCsv(telemetry, args.telemetry_path),
                 "Telemetry", args.telemetry_path);
  }
  if (wants.telemetry && !args.alerts_path.empty()) {
    ReportExport(obs::WriteAlertsCsv(alerts, args.alerts_path), "Alerts",
                 args.alerts_path);
  }
}

}  // namespace wimpy::bench

#endif  // WIMPY_BENCH_OBS_BENCH_UTIL_H_
