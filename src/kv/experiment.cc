#include "kv/experiment.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "hw/profiles.h"
#include "obs/energy.h"
#include "obs/telemetry.h"
#include "shard/ring.h"
#include "sim/process.h"

namespace wimpy::kv {

namespace {

// The store tier's consistent-hash map (shard/ring.h): keys hash to
// shards, shards to owner chains over store indices. Replaces the old
// flat `position % n` partitioning — routing is now the same ketama map
// the sharded scale-out experiment uses, so node churn there and
// failover here agree on who owns what.
shard::RingConfig StoreRingConfig(const KvExperimentConfig& config) {
  shard::RingConfig ring;
  ring.replication = config.replication;
  return ring;
}

struct KvTestbed {
  explicit KvTestbed(const KvExperimentConfig& config)
      : fabric(&sched),
        clstr(&sched, &fabric),
        rng(config.seed),
        ring(StoreRingConfig(config)) {
    fabric.SetGroupLink("client-room", "store-room", Gbps(10),
                        Milliseconds(0.02));
    auto store_nodes = clstr.AddNodes(config.node_profile,
                                      config.node_count, "kv-store",
                                      "store-room");
    auto client_nodes = clstr.AddNodes(hw::DellR620Profile(),
                                       config.client_machines, "client",
                                       "client-room");
    for (auto* node : store_nodes) {
      stores.push_back(std::make_unique<KvNode>(node, &fabric,
                                                config.store, rng.Next()));
      ring.AddNode(static_cast<int>(stores.size()) - 1);
    }
    for (auto* node : client_nodes) client_ids.push_back(node->id());

    tracer = config.tracer;
    metrics = config.metrics;
    energy = config.energy;
    trace_sample_every = std::max(1, config.trace_sample_every);
    if (energy != nullptr) {
      // Only the store tier is observed, mirroring the report's
      // CumulativeJoules({"kv-store"}) scope.
      for (auto& store : stores) store->node().ObserveEnergy(energy);
    }
    if (metrics != nullptr) {
      // Probe registration order is fixed (store tier, then links), so
      // exported column order is deterministic.
      for (std::size_t i = 0; i < stores.size(); ++i) {
        stores[i]->node().PublishMetrics(metrics,
                                         "kv" + std::to_string(i));
      }
      fabric.PublishMetrics(metrics, "net");
    }
    telemetry = config.telemetry;
    if (telemetry != nullptr) {
      for (std::size_t i = 0; i < stores.size(); ++i) {
        stores[i]->node().PublishTelemetry(telemetry,
                                           "kv" + std::to_string(i));
      }
      obs::NodeHealthConfig health_config;
      health_config.power_cap_w = config.node_profile.power.busy +
                                  config.node_profile.power.constant_adapter;
      health = std::make_unique<obs::NodeHealth>(telemetry, health_config);
      for (std::size_t i = 0; i < stores.size(); ++i) {
        const std::string node = "kv" + std::to_string(i);
        obs::NodeHealthInputs inputs;
        inputs.utilization = node + ".cpu_busy";
        inputs.power = node + ".power_w";
        inputs.queue_depth = "gate.queue_depth";
        inputs.shed = "slo.shed";
        health->AddNode(static_cast<int>(i), std::move(inputs));
      }
      // Health lands in the standard metrics CSV (new `health.node<i>`
      // columns after the raw probes) and on the trace as kHealth
      // instants, so both exports carry the composite next to its inputs.
      if (metrics != nullptr) health->PublishMetrics(metrics, "health");
      if (tracer != nullptr) health->EmitTraceInstants(tracer);
    }
  }

  // The attributor outlives the testbed: settle it while the scheduler
  // and nodes still exist.
  ~KvTestbed() {
    if (energy != nullptr) energy->Detach();
  }

  // 1-in-N query trace sampling, mirroring the web testbed: a sampled
  // query gets a root trace handle (fresh trace id, its own track); the
  // counter is part of the testbed, not the random streams, so tracing
  // on/off never changes simulated behaviour.
  obs::TraceHandle StartTrace() {
    const std::uint64_t query = query_counter_++;
    if (tracer == nullptr ||
        query % static_cast<std::uint64_t>(trace_sample_every) != 0) {
      return {};
    }
    obs::TraceHandle handle;
    handle.tracer = tracer;
    handle.sched = &sched;
    handle.track = static_cast<std::int32_t>(query & 0x7fffffff);
    handle.ctx.trace_id = tracer->NewTraceId();
    return handle;
  }

  sim::Scheduler sched;
  net::Fabric fabric;
  cluster::Cluster clstr;
  Rng rng;
  shard::Ring ring;  // over store indices, not fabric node ids
  std::vector<std::unique_ptr<KvNode>> stores;
  std::vector<int> client_ids;
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::EnergyAttributor* energy = nullptr;
  obs::Telemetry* telemetry = nullptr;
  std::unique_ptr<obs::NodeHealth> health;
  int trace_sample_every = 64;
  std::uint64_t query_counter_ = 0;
};

struct KvWindow {
  SimTime start = 0;
  SimTime end = 0;
  std::int64_t done = 0;
  std::int64_t failed = 0;
  OnlineStats latency;
  PercentileTracker percentiles;
};

// Ring routing with failover: keys hash to a shard, the shard's
// preference list orders every store from its ring position, and the
// first healthy entry serves the request (FAWN's consistent-hashing
// failover, now on a real ketama map). Returns the preference index, or
// -1 when every store is down. Allocation-free: the preference list is a
// precomputed flat table.
int RouteToHealthy(KvTestbed& tb, const std::vector<int>& pref) {
  for (std::size_t i = 0; i < pref.size(); ++i) {
    if (!tb.stores[static_cast<std::size_t>(pref[i])]->failed()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

using KvGate = load::AdmissionGate<Rng>;

sim::Process OneQuery(KvTestbed& tb, const KvExperimentConfig& config,
                      KvWindow& window, load::OpenLoopRecorder& recorder,
                      KvGate& gate, SimTime intended, Rng rng) {
  const SimTime started = tb.sched.now();
  const int shard = tb.ring.ShardOf(rng.Next());
  const std::vector<int>& pref = tb.ring.Preference(shard);
  const int serving = RouteToHealthy(tb, pref);
  KvNode* store =
      serving < 0
          ? nullptr
          : tb.stores[static_cast<std::size_t>(pref[serving])].get();
  // Root span of the query's trace tree (arg = serving node, -1 when
  // routing found no healthy node); begins exactly at `started`, so the
  // trace re-derives the report's latency and in-window query count.
  obs::CausalSpan query_span(tb.StartTrace(), "query",
                             obs::Category::kRequest,
                             store != nullptr ? store->node().id() : -1);
  if (store == nullptr) query_span.Instant("route_failed");
  const int client =
      tb.client_ids[rng.NextBelow(tb.client_ids.size())];
  const Bytes value = DrawnBytes(
      rng.LogNormalMeanStd(
          static_cast<double>(config.store.value_size_mean),
          static_cast<double>(config.store.value_size_stddev)),
      64);
  bool ok = store != nullptr;
  if (ok && rng.Bernoulli(config.get_fraction)) {
    obs::CausalSpan op(query_span.handle(), "get", obs::Category::kRequest,
                       store->node().id());
    obs::ScopedResidency res(tb.energy, store->node().id(), op.handle(),
                             "get");
    co_await store->Get(client, value, op.handle());
  } else if (ok) {
    {
      obs::CausalSpan op(query_span.handle(), "put",
                         obs::Category::kRequest, store->node().id());
      obs::ScopedResidency res(tb.energy, store->node().id(), op.handle(),
                               "put");
      co_await store->Put(client, value, op.handle());
    }
    // Chain replication down the preference list: the healthy successors
    // after the serving store.
    int upstream = store->node().id();
    int replicated = 1;
    for (std::size_t i = static_cast<std::size_t>(serving) + 1;
         i < pref.size() && replicated < config.replication; ++i) {
      KvNode* replica = tb.stores[static_cast<std::size_t>(pref[i])].get();
      if (replica->failed()) continue;
      {
        obs::CausalSpan op(query_span.handle(), "replicate",
                           obs::Category::kRequest, replica->node().id());
        obs::ScopedResidency res(tb.energy, replica->node().id(),
                                 op.handle(), "replicate");
        co_await replica->ApplyReplicatedWrite(upstream, value,
                                               op.handle());
      }
      upstream = replica->node().id();
      ++replicated;
    }
  }
  const SimTime finished = tb.sched.now();
  if (started >= window.start && started < window.end) {
    if (ok) {
      ++window.done;
      window.latency.Add(finished - started);
      window.percentiles.Add(finished - started);
    } else {
      ++window.failed;
    }
  }
  // Honest accounting: windowed by intended arrival, latency from it too.
  recorder.OnComplete(intended, started, finished, ok);
  // A completion frees a dispatch slot; the queue head (if any) inherits
  // it and still measures from its own intended arrival.
  if (auto next = gate.OnComplete()) {
    sim::Spawn(tb.sched, OneQuery(tb, config, window, recorder, gate,
                                  next->intended, std::move(next->payload)));
  }
}

sim::Process Arrivals(KvTestbed& tb, const KvExperimentConfig& config,
                      KvWindow& window, load::OpenLoopRecorder& recorder,
                      KvGate& gate, double qps, Rng rng) {
  load::ArrivalConfig shape = config.openloop.arrival;
  shape.rate = qps;
  load::ArrivalProcess arrivals(shape);
  while (tb.sched.now() < window.end) {
    co_await sim::Delay(tb.sched, arrivals.NextGap(rng));
    if (tb.sched.now() >= window.end) break;
    const SimTime intended = tb.sched.now();
    Rng child = rng.Fork();
    switch (gate.Admit()) {
      case load::Admission::kDispatch:
        sim::Spawn(tb.sched, OneQuery(tb, config, window, recorder, gate,
                                      intended, std::move(child)));
        break;
      case load::Admission::kQueue:
        gate.Enqueue(intended, std::move(child));
        break;
      case load::Admission::kShed:
        recorder.OnShed(intended);
        break;
    }
  }
}

// Per-measure telemetry wiring: the recorder's SLO stream, the gate's
// queue-depth probe, and the default alert rules (SLO-gated, so a run
// without an SLO bound installs none). Rule thresholds are pure
// functions of the config — alert instants stay deterministic.
void WireTelemetry(KvTestbed& tb, const KvExperimentConfig& config,
                   load::OpenLoopRecorder& recorder, KvGate& gate) {
  obs::Telemetry* telemetry = tb.telemetry;
  if (telemetry == nullptr) return;
  recorder.set_stream(obs::SloStreamInto(telemetry, "slo"));
  telemetry->AddProbe("gate.queue_depth", [&gate] {
    return static_cast<double>(gate.queue_depth());
  });
  if (config.openloop.slo > 0.0) {
    obs::BurnRateRule burn;
    burn.name = "slo_burn";
    burn.good_metric = "slo.good";
    burn.total_metric = "slo.offered";
    burn.slo_target = 0.9;       // 10% error budget
    burn.burn_threshold = 1.0;   // burning faster than budget
    burn.short_window = Seconds(2);
    burn.long_window = Seconds(8);
    telemetry->AddBurnRateRule(burn);
    obs::ThresholdRule p99;
    p99.name = "latency_p99_high";
    p99.metric = "slo.latency";
    p99.agg = obs::Agg::kP99;
    p99.threshold = config.openloop.slo;
    p99.window = Seconds(2);
    telemetry->AddThresholdRule(p99);
    obs::ThresholdRule sheds;
    sheds.name = "shed_spike";
    sheds.metric = "slo.shed";
    sheds.agg = obs::Agg::kRate;
    sheds.threshold = 1.0;  // sheds/s
    sheds.window = Seconds(2);
    telemetry->AddThresholdRule(sheds);
  }
  telemetry->Start(&tb.sched, tb.tracer);
}

void FillOpenLoopFields(const load::OpenLoopRecorder& recorder, Joules spent,
                        KvReport* report) {
  report->p99_intended_latency =
      recorder.intended_percentiles().empty()
          ? 0.0
          : recorder.intended_percentiles().Percentile(0.99);
  report->shed = recorder.shed();
  report->slo_good_fraction = recorder.SloGoodFraction();
  report->slo_goodput_per_joule = recorder.SloGoodputPerJoule(spent);
}

}  // namespace

KvReport KvExperiment::Measure(double target_qps, Duration measure) {
  KvTestbed tb(config_);
  KvWindow window;
  window.start = Seconds(2);
  window.end = window.start + measure;

  Joules epoch = 0;
  tb.sched.ScheduleAt(window.start, [&] {
    epoch = tb.clstr.CumulativeJoules({"kv-store"});
    // Window marks at the same instant the report's energy epoch is
    // captured: the ledger's window subtotal equals `spent` below.
    if (tb.tracer != nullptr) {
      tb.tracer->InstantAt(tb.sched.now(), "measure_start",
                           obs::Category::kApp, 0);
    }
    if (tb.energy != nullptr) tb.energy->BeginWindow();
  });
  Joules spent = 0;
  tb.sched.ScheduleAt(window.end, [&] {
    spent = tb.clstr.CumulativeJoules({"kv-store"}) - epoch;
    if (tb.metrics != nullptr) tb.metrics->Stop();
    if (tb.telemetry != nullptr) tb.telemetry->Stop();
    if (tb.tracer != nullptr) {
      tb.tracer->InstantAt(tb.sched.now(), "measure_end",
                           obs::Category::kApp, 0);
    }
    if (tb.energy != nullptr) tb.energy->EndWindow();
  });

  load::OpenLoopRecorder recorder(window.start, window.end,
                                  config_.openloop.slo);
  KvGate gate(config_.openloop);
  WireTelemetry(tb, config_, recorder, gate);
  if (tb.metrics != nullptr) tb.metrics->Start(&tb.sched, Seconds(1));
  sim::Spawn(tb.sched, Arrivals(tb, config_, window, recorder, gate,
                                target_qps, tb.rng.Fork()));
  tb.sched.Run();
  // Final sample after the queue drains: cumulative counters now match
  // the report exactly. Then detach: the registry outlives this
  // function-local testbed, so its probes must not.
  if (tb.metrics != nullptr) {
    tb.metrics->SampleNow();
    tb.metrics->Detach();
  }

  KvReport report;
  report.target_qps = target_qps;
  report.achieved_qps = static_cast<double>(window.done) / measure;
  report.mean_latency = window.latency.mean();
  // Explicit empty() check: Percentile() on an empty tracker is NaN by
  // design, and this field feeds bench tables/JSON.
  report.p99_latency =
      window.percentiles.empty() ? 0.0 : window.percentiles.Percentile(0.99);
  report.error_rate =
      window.done + window.failed == 0
          ? 0.0
          : static_cast<double>(window.failed) /
                static_cast<double>(window.done + window.failed);
  report.store_power = spent / measure;
  report.queries_per_joule =
      spent > 0 ? static_cast<double>(window.done) / spent : 0;
  report.executed_events = tb.sched.executed_events();
  FillOpenLoopFields(recorder, spent, &report);
  return report;
}

KvReport KvExperiment::MeasureWithFailover(double target_qps,
                                           int failed_nodes,
                                           Duration measure) {
  KvTestbed tb(config_);
  KvWindow window;
  window.start = Seconds(2);
  window.end = window.start + measure;

  const int to_fail = std::min<int>(
      failed_nodes, static_cast<int>(tb.stores.size()) - 1);
  tb.sched.ScheduleAt(window.start + measure / 2, [&tb, to_fail] {
    for (int i = 0; i < to_fail; ++i) tb.stores[i]->set_failed(true);
    if (tb.tracer != nullptr) {
      tb.tracer->InstantAt(tb.sched.now(), "nodes_failed",
                           obs::Category::kNet, /*track=*/0, to_fail);
    }
  });

  Joules epoch = 0;
  tb.sched.ScheduleAt(window.start, [&] {
    epoch = tb.clstr.CumulativeJoules({"kv-store"});
    if (tb.tracer != nullptr) {
      tb.tracer->InstantAt(tb.sched.now(), "measure_start",
                           obs::Category::kApp, 0);
    }
    if (tb.energy != nullptr) tb.energy->BeginWindow();
  });
  Joules spent = 0;
  tb.sched.ScheduleAt(window.end, [&] {
    spent = tb.clstr.CumulativeJoules({"kv-store"}) - epoch;
    if (tb.metrics != nullptr) tb.metrics->Stop();
    if (tb.telemetry != nullptr) tb.telemetry->Stop();
    if (tb.tracer != nullptr) {
      tb.tracer->InstantAt(tb.sched.now(), "measure_end",
                           obs::Category::kApp, 0);
    }
    if (tb.energy != nullptr) tb.energy->EndWindow();
  });

  load::OpenLoopRecorder recorder(window.start, window.end,
                                  config_.openloop.slo);
  KvGate gate(config_.openloop);
  WireTelemetry(tb, config_, recorder, gate);
  if (tb.metrics != nullptr) tb.metrics->Start(&tb.sched, Seconds(1));
  sim::Spawn(tb.sched, Arrivals(tb, config_, window, recorder, gate,
                                target_qps, tb.rng.Fork()));
  tb.sched.Run();
  if (tb.metrics != nullptr) {
    tb.metrics->SampleNow();
    tb.metrics->Detach();
  }

  KvReport report;
  report.target_qps = target_qps;
  report.achieved_qps = static_cast<double>(window.done) / measure;
  report.error_rate =
      window.done + window.failed == 0
          ? 0.0
          : static_cast<double>(window.failed) /
                static_cast<double>(window.done + window.failed);
  report.mean_latency = window.latency.mean();
  report.p99_latency =
      window.percentiles.empty() ? 0.0 : window.percentiles.Percentile(0.99);
  report.store_power = spent / measure;
  report.queries_per_joule =
      spent > 0 ? static_cast<double>(window.done) / spent : 0;
  report.executed_events = tb.sched.executed_events();
  FillOpenLoopFields(recorder, spent, &report);
  return report;
}

KvReport KvExperiment::FindPeak(double start_qps, double max_qps) {
  KvReport best;
  Duration baseline_latency = 0;
  for (double qps = start_qps; qps <= max_qps; qps *= 2.0) {
    const KvReport report = Measure(qps, Seconds(10));
    if (baseline_latency == 0) baseline_latency = report.mean_latency;
    // Knee detection: stop once the system can no longer keep up or the
    // latency has blown out by an order of magnitude.
    if (report.achieved_qps < 0.85 * qps ||
        report.mean_latency > 10 * baseline_latency) {
      break;
    }
    best = report;
  }
  return best;
}

}  // namespace wimpy::kv
