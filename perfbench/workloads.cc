#include "workloads.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/random.h"
#include "common/units.h"
#include "core/experiments.h"
#include "mapreduce/testbed.h"
#include "obs/energy.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "shard/experiment.h"
#include "sim/replication.h"
#include "web/service.h"
#include "web/workload.h"

namespace perfbench {

using namespace wimpy;

double Digest::Get(const std::string& name) const {
  for (const auto& [key, value] : fields) {
    if (key == name) return value;
  }
  return 0.0;
}

std::string Digest::Json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    char value[64];
    if (std::isfinite(fields[i].second)) {
      std::snprintf(value, sizeof(value), "%.17g", fields[i].second);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    out += (i == 0 ? "\"" : ", \"") + fields[i].first + "\": " + value;
  }
  return out + "}";
}

namespace {

// Root seed of a workload's (or an MR cell's) simulation, derived from
// --seed the way sim::RunSweep derives replication 0 of a config.
std::uint64_t CellSeed(std::uint64_t seed, int index) {
  Rng root(sim::ReplicationSeed(seed, index, 0));
  return root.Next();
}

// --- web_closed_100k ----------------------------------------------------
// bench_scale_macro's geometry: per 10k connections in the window, 24 web
// servers, 11 caches and 8 client machines; 2 s warm-up, 10 s window.

constexpr double kWebWindowSeconds = 10.0;

Digest WebDigest(const web::LevelReport& r) {
  Digest d;
  d.Add("sim.events", static_cast<double>(r.executed_events));
  d.Add("web.served_per_s", r.achieved_rps);
  d.Add("web.error_rate", r.error_rate);
  d.Add("web.cache_delay_ms", 1000 * r.cache_delay.mean());
  d.Add("web.db_delay_ms", 1000 * r.db_delay.mean());
  d.Add("web.mean_response_ms", 1000 * r.mean_response);
  d.Add("web.middle_tier_w", r.middle_tier_power);
  return d;
}

void MakeWeb(std::uint64_t seed, bool smoke, Workload* w) {
  const int connections = smoke ? 10000 : 100000;
  const int scale = connections / 10000;
  web::WebTestbedConfig cfg = web::EdisonWebTestbed(24 * scale, 11 * scale);
  cfg.client_machines = 8 * scale;
  cfg.seed = CellSeed(seed, 0);
  const double concurrency = connections / kWebWindowSeconds;
  w->replicate = [cfg, concurrency] {
    web::WebExperiment exp(cfg);
    return WebDigest(exp.MeasureClosedLoop(web::HeavyMix(), concurrency, 2,
                                           Seconds(2),
                                           Seconds(kWebWindowSeconds)));
  };
  w->setup = [cfg, concurrency] {
    web::WebExperiment exp(cfg);
    return WebDigest(exp.MeasureClosedLoop(web::HeavyMix(), concurrency, 2,
                                           Seconds(0), Seconds(0.001)));
  };
  w->probes.ring_members = cfg.cache_servers;
  w->probes.ring_replication = 1;
}

// --- kv_shard_churn -----------------------------------------------------
// 36 Edison stores on 6 racks (oversubscription 4), chain replication
// R=2, 80% writes, MMPP open-loop load through a bounded client gate with
// a 50 ms SLO, one node joining at the window midpoint, every sink on.

constexpr double kKvWindowSeconds = 10.0;

Digest KvDigest(const shard::ShardReport& r) {
  Digest d;
  d.Add("sim.events", static_cast<double>(r.executed_events));
  d.Add("kv.goodput_qps", r.goodput_qps);
  d.Add("kv.achieved_qps", r.achieved_qps);
  d.Add("kv.error_rate", r.error_rate);
  d.Add("kv.p99_intended_ms", 1000 * r.p99_intended_latency);
  d.Add("kv.slo_good_fraction", r.slo_good_fraction);
  d.Add("kv.queries_per_joule", r.queries_per_joule);
  d.Add("kv.shed", static_cast<double>(r.shed));
  d.Add("shard.migration_shards",
        static_cast<double>(r.migration.shards_moved));
  d.Add("net.max_uplink_busy", r.max_rack_uplink_busy);
  return d;
}

// One Measure call; `sinks` attaches a tracer, metrics registry,
// telemetry plane and energy attributor for the call's lifetime.
Digest RunShard(const shard::ShardExperimentConfig& base, bool sinks,
                double qps, double window_s) {
  shard::ShardExperimentConfig cfg = base;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::Telemetry telemetry;
  obs::EnergyAttributor energy;
  if (sinks) {
    cfg.tracer = &tracer;
    cfg.metrics = &metrics;
    cfg.telemetry = &telemetry;
    cfg.energy = &energy;
  }
  shard::ShardExperiment exp(std::move(cfg));
  return KvDigest(exp.Measure(qps, Seconds(window_s)));
}

void MakeKv(std::uint64_t seed, bool smoke, Workload* w) {
  shard::ShardExperimentConfig cfg;
  cfg.racks = smoke ? 3 : 6;
  cfg.nodes_per_rack = smoke ? 4 : 6;
  cfg.rack_oversubscription = 4.0;
  cfg.ring.replication = 2;
  cfg.get_fraction = 0.2;
  cfg.churn = shard::Churn::kJoin;
  cfg.openloop.arrival.model = load::ArrivalModel::kMmpp;
  cfg.openloop.arrival.cycle = Seconds(0.05);
  cfg.openloop.max_outstanding = 1024;
  cfg.openloop.queue_limit = 4096;
  cfg.openloop.slo = Milliseconds(50);
  cfg.seed = CellSeed(seed, 1);
  const double qps = smoke ? 6000.0 : 24000.0;
  const double window = smoke ? 2.0 : kKvWindowSeconds;
  w->replicate = [cfg, qps, window] {
    return RunShard(cfg, true, qps, window);
  };
  w->replicate_without_sinks = [cfg, qps, window] {
    return RunShard(cfg, false, qps, window);
  };
  // Measure's warm-up is fixed at 2 s, so "no simulated work" is a
  // token 1 qps offered load with a 1 ms window.
  w->setup = [cfg] { return RunShard(cfg, true, 1.0, 0.001); };
  w->probes.ring_members = cfg.ring_nodes();
  w->probes.ring_replication = cfg.ring.replication;
  w->probes.hierarchical_fabric = true;
}

// --- the Table 8 MapReduce ladder --------------------------------------

std::uint64_t Fnv1a(std::uint64_t h, double v) {
  unsigned char bytes[sizeof(double)];
  std::memcpy(bytes, &v, sizeof(double));
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Digest MrDigest(const std::vector<mapreduce::MrRunResult>& results) {
  double runtime = 0, joules = 0;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& r : results) {
    runtime += r.job.elapsed;
    joules += r.slave_joules;
    h = Fnv1a(h, r.job.elapsed);
    h = Fnv1a(h, r.slave_joules);
    h = Fnv1a(h, static_cast<double>(r.job.map_output_bytes));
  }
  Digest d;
  d.Add("mr.cells", static_cast<double>(results.size()));
  d.Add("mr.sim_runtime_s", runtime);
  d.Add("mr.slave_joules", joules);
  // 53 bits of the per-cell hash, so the value is exact as a double.
  d.Add("mr.cells_hash", static_cast<double>(h >> 11));
  return d;
}

mapreduce::MrClusterConfig MrConfig(bool edison, int slaves,
                                    std::uint64_t seed) {
  mapreduce::MrClusterConfig cfg = edison ? mapreduce::EdisonMrCluster(slaves)
                                          : mapreduce::DellMrCluster(slaves);
  cfg.seed = seed;
  return cfg;
}

}  // namespace

bool MakeWorkload(const std::string& name, std::uint64_t seed, bool smoke,
                  Workload* out) {
  *out = Workload{};
  out->name = name;
  if (name == "web_closed_100k") {
    MakeWeb(seed, smoke, out);
  } else if (name == "kv_shard_churn") {
    MakeKv(seed, smoke, out);
  } else {
    return false;
  }
  return true;
}

MrLadder::MrLadder(std::uint64_t seed, bool smoke) : seed_(seed) {
  if (smoke) {
    cells_.push_back({core::PaperJob::kLogCount2, true, 4});
    return;
  }
  for (core::PaperJob job : core::AllPaperJobs()) {
    for (int n : {35, 17, 8, 4}) cells_.push_back({job, true, n});
    for (int n : {2, 1}) cells_.push_back({job, false, n});
  }
}

Digest MrLadder::Run(
    std::vector<std::pair<std::string, double>>* call_seconds) const {
  std::vector<mapreduce::MrRunResult> results;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const Cell& cell = cells_[c];
    // Cell c gets the root seed sim::RunSweep gives replication 0 of
    // config c, so Run and Sweep simulate the same thing.
    const std::uint64_t cell_seed = CellSeed(seed_, static_cast<int>(c));
    const auto t0 = std::chrono::steady_clock::now();
    results.push_back(core::RunPaperJob(
        cell.job, MrConfig(cell.edison, cell.slaves, cell_seed)));
    call_seconds->emplace_back(
        core::PaperJobName(cell.job),
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  return MrDigest(results);
}

Digest MrLadder::Sweep(int threads) const {
  const sim::SweepPlan plan{1, threads, seed_};
  const auto sweep =
      sim::RunSweep(cells_, plan, [](const Cell& cell, Rng& root) {
        return core::RunPaperJob(
            cell.job, MrConfig(cell.edison, cell.slaves, root.Next()));
      });
  std::vector<mapreduce::MrRunResult> results;
  for (const auto& reps : sweep) results.push_back(reps[0]);
  return MrDigest(results);
}

std::vector<std::string> MrLadder::JobNames() {
  std::vector<std::string> names;
  for (core::PaperJob job : core::AllPaperJobs()) {
    names.emplace_back(core::PaperJobName(job));
  }
  return names;
}

}  // namespace perfbench
