// One observability-sink bundle (docs/observability.md).
//
// `Sinks` is what a caller hands an experiment: four borrowed sinks, each
// null when off, plus the trace sampling rate. The web, kv and shard
// experiment configs derive from it, so every layer reads one contract:
//
//   * `tracer`    — request/query trees, one root in `trace_sample_every`
//                   (a deterministic round-robin counter outside the
//                   random streams, so tracing never perturbs the run);
//   * `metrics`   — per-node, per-link and per-layer probes sampled every
//                   simulated second of the measurement run, plus one
//                   final sample after the queue drains;
//   * `telemetry` — the online plane (docs/telemetry.md): per-node probes,
//                   the SLO stream, alert rules and NodeHealth. One
//                   Telemetry per measure call;
//   * `energy`    — span-energy attribution over the observed tier, with
//                   the measurement window marked.
//
// `RunSinks` is the run side, owned by one testbed: it binds the bundle
// to the testbed's scheduler and holds, once for every experiment, the
// sampling counter, the NodeHealth wiring, the window marks, the sampling
// clocks and the teardown that severs the sinks from dying components.
// The caller side — one owning capture per replication — is obs/capture.h.
#ifndef WIMPY_OBS_SINKS_H_
#define WIMPY_OBS_SINKS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/random.h"
#include "common/units.h"
#include "load/openloop.h"
#include "obs/context.h"

namespace wimpy::obs {

class EnergyAttributor;
class MetricsRegistry;
class NodeHealth;
struct NodeHealthConfig;
class Telemetry;
class Tracer;

struct Sinks {
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  Telemetry* telemetry = nullptr;
  EnergyAttributor* energy = nullptr;
  int trace_sample_every = 64;
};

class RunSinks : public Sinks {
 public:
  RunSinks(const Sinks& sinks, sim::Scheduler* sched);
  // Testbed teardown: detaches the metrics registry (its probes read the
  // testbed) and settles the energy attributor while the scheduler and
  // nodes still exist. Declare the RunSinks after the components it
  // observes so it is destroyed first.
  ~RunSinks();

  RunSinks(const RunSinks&) = delete;
  RunSinks& operator=(const RunSinks&) = delete;

  // A root trace handle on `track` with a fresh trace id; null when
  // tracing is off.
  TraceHandle NewTrace(std::int32_t track);
  // 1-in-`trace_sample_every` root traces: the Nth call gets a root on
  // track N, every other call a null handle.
  TraceHandle StartTrace();

  // NodeHealth over `nodes` nodes named `<prefix><i>`, each scored from
  // its `.cpu_busy` / `.power_w` telemetry probes, the open-loop
  // `gate.queue_depth` and `slo.shed` inputs, and `lag` when non-empty.
  // Scores land in `metrics` as `health.node<i>` columns and on the trace
  // as kHealth instants. No-op without telemetry.
  void WatchHealth(int nodes, const std::string& prefix,
                   const NodeHealthConfig& config,
                   const std::string& lag = {});

  // Open-loop telemetry: the recorder's SLO stream into `slo.*` and a
  // `gate.queue_depth` probe. No-op without telemetry.
  void StreamOpenLoop(load::OpenLoopRecorder& recorder,
                      const load::AdmissionGate<Rng>& gate);
  // The default alert rules over that stream: SLO burn rate (10% budget,
  // 2 s / 8 s windows), p99 latency over `slo`, and a shed-rate spike.
  // Installed only when `slo > 0`.
  void AddDefaultSloRules(Duration slo);

  // Sampling clocks. Telemetry ticks once per slide (open-loop runs);
  // metrics sample now and then every simulated second.
  void StartTelemetry();
  void StartMetrics();

  // Measurement-window marks, called from the window's ScheduleAt
  // callbacks: a `measure_start` / `measure_end` trace instant at the
  // instant the report's stats reset, and the energy window. The end mark
  // first stops both sampling clocks so the event queue can drain.
  void BeginWindow();
  void EndWindow();
  void StopClocks();

  // One metrics sample after the run drains: cumulative counters and
  // merged stats then match the report exactly.
  void SampleFinal();

 private:
  sim::Scheduler* sched_;
  std::uint64_t trace_counter_ = 0;
  std::unique_ptr<NodeHealth> health_;
};

}  // namespace wimpy::obs

#endif  // WIMPY_OBS_SINKS_H_
