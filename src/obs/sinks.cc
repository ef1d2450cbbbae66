#include "obs/sinks.h"

#include <algorithm>

#include "obs/capture.h"

namespace wimpy::obs {

RunSinks::RunSinks(const Sinks& sinks, sim::Scheduler* sched)
    : Sinks(sinks), sched_(sched) {
  trace_sample_every = std::max(1, trace_sample_every);
}

RunSinks::~RunSinks() {
  if (metrics != nullptr) metrics->Detach();
  if (energy != nullptr) energy->Detach();
}

TraceHandle RunSinks::NewTrace(std::int32_t track) {
  if (tracer == nullptr) return {};
  TraceHandle handle;
  handle.tracer = tracer;
  handle.sched = sched_;
  handle.track = track;
  handle.ctx.trace_id = tracer->NewTraceId();
  return handle;
}

TraceHandle RunSinks::StartTrace() {
  const std::uint64_t n = trace_counter_++;
  if (n % static_cast<std::uint64_t>(trace_sample_every) != 0) return {};
  return NewTrace(static_cast<std::int32_t>(n & 0x7fffffff));
}

void RunSinks::WatchHealth(int nodes, const std::string& prefix,
                           const NodeHealthConfig& config,
                           const std::string& lag) {
  if (telemetry == nullptr) return;
  health_ = std::make_unique<NodeHealth>(telemetry, config);
  for (int i = 0; i < nodes; ++i) {
    const std::string node = prefix + std::to_string(i);
    NodeHealthInputs inputs;
    inputs.utilization = node + ".cpu_busy";
    inputs.power = node + ".power_w";
    inputs.queue_depth = "gate.queue_depth";
    inputs.shed = "slo.shed";
    inputs.lag = lag;
    health_->AddNode(i, std::move(inputs));
  }
  if (metrics != nullptr) health_->PublishMetrics(metrics, "health");
  if (tracer != nullptr) health_->EmitTraceInstants(tracer);
}

void RunSinks::StreamOpenLoop(load::OpenLoopRecorder& recorder,
                              const load::AdmissionGate<Rng>& gate) {
  if (telemetry == nullptr) return;
  recorder.set_stream(SloStreamInto(telemetry, "slo"));
  telemetry->AddProbe("gate.queue_depth", [&gate] {
    return static_cast<double>(gate.queue_depth());
  });
}

void RunSinks::AddDefaultSloRules(Duration slo) {
  if (telemetry == nullptr || slo <= 0.0) return;
  BurnRateRule burn;
  burn.name = "slo_burn";
  burn.good_metric = "slo.good";
  burn.total_metric = "slo.offered";
  burn.slo_target = 0.9;      // 10% error budget
  burn.burn_threshold = 1.0;  // burning faster than budget
  burn.short_window = Seconds(2);
  burn.long_window = Seconds(8);
  telemetry->AddBurnRateRule(burn);
  ThresholdRule p99;
  p99.name = "latency_p99_high";
  p99.metric = "slo.latency";
  p99.agg = Agg::kP99;
  p99.threshold = slo;
  p99.window = Seconds(2);
  telemetry->AddThresholdRule(p99);
  ThresholdRule sheds;
  sheds.name = "shed_spike";
  sheds.metric = "slo.shed";
  sheds.agg = Agg::kRate;
  sheds.threshold = 1.0;  // sheds/s
  sheds.window = Seconds(2);
  telemetry->AddThresholdRule(sheds);
}

void RunSinks::StartTelemetry() {
  if (telemetry != nullptr) telemetry->Start(sched_, tracer);
}

void RunSinks::StartMetrics() {
  if (metrics != nullptr) metrics->Start(sched_, Seconds(1));
}

void RunSinks::BeginWindow() {
  if (tracer != nullptr) {
    tracer->InstantAt(sched_->now(), "measure_start", Category::kApp, 0);
  }
  if (energy != nullptr) energy->BeginWindow();
}

void RunSinks::EndWindow() {
  StopClocks();
  if (tracer != nullptr) {
    tracer->InstantAt(sched_->now(), "measure_end", Category::kApp, 0);
  }
  if (energy != nullptr) energy->EndWindow();
}

void RunSinks::StopClocks() {
  if (metrics != nullptr) metrics->Stop();
  if (telemetry != nullptr) telemetry->Stop();
}

void RunSinks::SampleFinal() {
  if (metrics != nullptr) metrics->SampleNow();
}

Capture::Capture(const TraceMetricsWants& wants) {
  if (wants.trace) sinks_.tracer = &tracer_;
  if (wants.metrics) sinks_.metrics = &metrics_;
}

Capture::Capture(const CaptureWants& wants)
    : Capture(static_cast<const TraceMetricsWants&>(wants)) {
  if (wants.telemetry) sinks_.telemetry = &telemetry_;
  if (wants.energy) sinks_.energy = &energy_;
}

void Capture::AttachTo(Sinks& target) const {
  target.tracer = sinks_.tracer;
  target.metrics = sinks_.metrics;
  target.telemetry = sinks_.telemetry;
  target.energy = sinks_.energy;
}

Captured Capture::Take() {
  Captured out;
  if (sinks_.tracer != nullptr) out.trace = tracer_.TakeLog();
  if (sinks_.metrics != nullptr) out.metrics = metrics_.TakeSeries();
  if (sinks_.telemetry != nullptr) {
    out.telemetry = telemetry_.TakeSeries();
    out.alerts = telemetry_.TakeAlerts();
  }
  if (sinks_.energy != nullptr) out.ledger = energy_.TakeLedger();
  return out;
}

}  // namespace wimpy::obs
