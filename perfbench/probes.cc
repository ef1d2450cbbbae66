#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>

#include "cluster/cluster.h"
#include "common/random.h"
#include "common/units.h"
#include "hw/profiles.h"
#include "kv/store.h"
#include "load/arrival.h"
#include "net/fabric.h"
#include "net/tcp.h"
#include "net/topology.h"
#include "shard/ring.h"
#include "sim/fair_share.h"
#include "sim/process.h"
#include "sim/scheduler.h"
#include "web/backend.h"
#include "web/service.h"
#include "web/web_server.h"
#include "web/workload.h"

namespace perfbench {

using namespace wimpy;

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

using Clock = std::chrono::steady_clock;

// Keeps a value observable so the optimizer cannot drop the work that
// produced it.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// Median host nanoseconds per operation of `batch`, which performs `ops`
// operations per call. Runs at least 5 batches and keeps going for up to
// ~0.1 s, so fast layers get many samples and slow ones stay cheap.
template <typename Batch>
double NsPerOp(double ops, Batch&& batch) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < 5 ||
         (samples.size() < 200 &&
          Clock::now() - start < std::chrono::milliseconds(100))) {
    const Clock::time_point t0 = Clock::now();
    batch();
    samples.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        ops);
  }
  return Median(samples);
}

// --- shard ---------------------------------------------------------------

shard::RingConfig RingGeometry(const ProbeGeometry& g) {
  shard::RingConfig cfg;
  cfg.replication = g.ring_replication;
  return cfg;
}

double RingBuildNs(const ProbeGeometry& g) {
  return NsPerOp(1, [&] {
    shard::Ring ring(RingGeometry(g));
    for (int i = 0; i < g.ring_members; ++i) ring.AddNode(i);
    Keep(ring);
  });
}

double RingLookupNs(const ProbeGeometry& g, std::uint64_t seed) {
  shard::Ring ring(RingGeometry(g));
  for (int i = 0; i < g.ring_members; ++i) ring.AddNode(i);
  constexpr int kLookups = 100000;
  Rng rng(seed);
  std::vector<std::uint64_t> keys(kLookups);
  for (auto& k : keys) k = rng.Next();
  return NsPerOp(kLookups, [&] {
    std::int64_t acc = 0;
    for (std::uint64_t k : keys) acc += ring.Preference(ring.ShardOf(k))[0];
    Keep(acc);
  });
}

// --- sim -----------------------------------------------------------------

// ScheduleAfter + Run over 100k distinct delays: 1 µs-50 ms (inside the
// timing wheel's horizon: web/kv serving) or 0.5-500 s (beyond it: the
// MapReduce ladder's seconds-to-minutes events).
double ScheduleRunNs(bool long_delays) {
  constexpr int kEvents = 100000;
  const double scale = long_delays ? 1e-2 : 1e-6;
  const double base = long_delays ? 0.5 : 0.0;
  return NsPerOp(kEvents, [&] {
    sim::Scheduler sched;
    int fired = 0;
    for (int i = 0; i < kEvents; ++i) {
      sched.ScheduleAfter(base + scale * (1 + (i * 7919) % 50000),
                          [&fired] { ++fired; });
    }
    sched.Run();
    Keep(fired);
  });
}

sim::Process ServeJob(sim::FairShareServer& server, double demand) {
  co_await server.Serve(demand);
}

double FairShareNs() {
  constexpr int kJobs = 10000;
  return NsPerOp(kJobs, [&] {
    sim::Scheduler sched;
    sim::FairShareServer server(&sched, 1000.0, 1.0);
    for (int i = 0; i < kJobs; ++i) {
      sim::Spawn(sched, ServeJob(server, 1.0 + (i % 13)));
    }
    sched.Run();
    Keep(server.total_work_served());
  });
}

// --- net -----------------------------------------------------------------

// A small testbed whose scheduler persists across probe batches: each
// batch spawns `ops` staggered operations and drains the scheduler.
struct Bed {
  sim::Scheduler sched;
  net::Fabric fabric{&sched};
  cluster::Cluster clstr{&sched, &fabric};
};

// Web-room shape: Edison servers and Dell clients behind one 1 Gbps link.
void BuildFlat(Bed* bed, std::vector<int>* servers, std::vector<int>* clients) {
  bed->fabric.SetGroupLink("client-room", "edison-room", Gbps(1),
                           Milliseconds(0.05));
  for (auto* n : bed->clstr.AddNodes(hw::EdisonProfile(), 8, "servers",
                                     "edison-room")) {
    servers->push_back(n->id());
  }
  for (auto* n : bed->clstr.AddNodes(hw::DellR620Profile(), 4, "clients",
                                     "client-room")) {
    clients->push_back(n->id());
  }
}

// kv shape: 6 racks x 6 Edison stores, oversubscription 4, clients on
// the core switch.
std::unique_ptr<net::HierarchicalTopology> BuildHierarchical(
    Bed* bed, std::vector<int>* servers, std::vector<int>* clients) {
  net::HierarchicalTopologyConfig cfg;
  cfg.racks = 6;
  cfg.nodes_per_rack = 6;
  cfg.node_bandwidth = hw::EdisonProfile().nic.bandwidth;
  cfg.rack_oversubscription = 4.0;
  auto topo = std::make_unique<net::HierarchicalTopology>(&bed->fabric, cfg);
  topo->AttachToCore("client-room", Gbps(10), Milliseconds(0.02));
  for (int r = 0; r < cfg.racks; ++r) {
    for (auto* n : bed->clstr.AddNodes(hw::EdisonProfile(), cfg.nodes_per_rack,
                                       "servers", topo->RackGroup(r))) {
      servers->push_back(n->id());
    }
  }
  for (auto* n : bed->clstr.AddNodes(hw::DellR620Profile(), 4, "clients",
                                     "client-room")) {
    clients->push_back(n->id());
  }
  return topo;
}

sim::Process TransferAfter(Bed& bed, Duration delay, int src, int dst) {
  co_await sim::Delay(bed.sched, delay);
  co_await bed.fabric.Transfer(src, dst, KB(30));
}

double TransferNs(bool hierarchical, std::uint64_t seed) {
  Bed bed;
  std::vector<int> servers, clients;
  std::unique_ptr<net::HierarchicalTopology> topo;
  if (hierarchical) {
    topo = BuildHierarchical(&bed, &servers, &clients);
  } else {
    BuildFlat(&bed, &servers, &clients);
  }
  std::vector<int> all = servers;
  all.insert(all.end(), clients.begin(), clients.end());
  Rng rng(seed);
  constexpr int kTransfers = 1000;
  return NsPerOp(kTransfers, [&] {
    for (int i = 0; i < kTransfers; ++i) {
      // Distinct endpoints: dst is src shifted by 1..n-1 places.
      const std::size_t src = rng.NextBelow(all.size());
      const std::size_t dst =
          (src + 1 + rng.NextBelow(all.size() - 1)) % all.size();
      sim::Spawn(bed.sched, TransferAfter(bed, Microseconds(20) * i, all[src],
                                          all[dst]));
    }
    bed.sched.Run();
  });
}

sim::Process TcpCycle(Bed& bed, Duration delay, net::TcpHost& client,
                      net::TcpHost& server, int* ok) {
  co_await sim::Delay(bed.sched, delay);
  net::TcpConnection conn(&client, &server);
  const net::ConnectResult r = co_await conn.Connect();
  if (!r.status.ok()) co_return;
  co_await conn.Exchange(KB(1), KB(30));
  conn.Close();
  ++*ok;
}

double TcpCycleNs() {
  Bed bed;
  std::vector<int> servers, clients;
  BuildFlat(&bed, &servers, &clients);
  net::TcpHost client(&bed.fabric, clients[0], net::TcpConfig{});
  net::TcpHost server(&bed.fabric, servers[0], web::EdisonWebConfig().tcp);
  constexpr int kCycles = 1000;
  int ok = 0;
  return NsPerOp(kCycles, [&] {
    for (int i = 0; i < kCycles; ++i) {
      sim::Spawn(bed.sched, TcpCycle(bed, Microseconds(200) * i, client,
                                     server, &ok));
    }
    bed.sched.Run();
    Keep(ok);
  });
}

// --- web -----------------------------------------------------------------

sim::Process CallAfter(sim::Scheduler& sched, Duration delay,
                       web::WebServer& server, int client,
                       web::RequestSpec spec, int* ok) {
  co_await sim::Delay(sched, delay);
  const web::CallResult r = co_await server.ServeCall(client, spec);
  if (r.ok) ++*ok;
}

// One web server, one cache and one database (the unit-test testbed).
double ServeCallNs(std::uint64_t seed) {
  Bed bed;
  auto* web_node = bed.clstr.AddNodes(hw::EdisonProfile(), 1, "web",
                                      "edison-room")[0];
  auto* cache_node = bed.clstr.AddNodes(hw::EdisonProfile(), 1, "cache",
                                        "edison-room")[0];
  auto* db_node = bed.clstr.AddNodes(hw::DellR620Profile(), 1, "db",
                                     "dell-room")[0];
  auto* client_node = bed.clstr.AddNodes(hw::DellR620Profile(), 1, "client",
                                         "client-room")[0];
  bed.fabric.SetGroupLink("edison-room", "dell-room", Gbps(1),
                          Milliseconds(0.02));
  bed.fabric.SetGroupLink("client-room", "edison-room", Gbps(1),
                          Milliseconds(0.05));
  web::CacheServer cache(cache_node, &bed.fabric, web::BackendCosts{});
  web::DatabaseServer db(db_node, &bed.fabric, web::BackendCosts{}, seed);
  web::WebServer server(web_node, &bed.fabric, {&cache}, {&db},
                        web::EdisonWebConfig(), seed + 1);
  const web::WorkloadMix mix = web::HeavyMix();
  Rng rng(seed + 2);
  constexpr int kCalls = 1000;
  int ok = 0;
  return NsPerOp(kCalls, [&] {
    // 5 ms apart: below one Edison server's knee, so calls are served,
    // not refused.
    for (int i = 0; i < kCalls; ++i) {
      sim::Spawn(bed.sched, CallAfter(bed.sched, Milliseconds(5) * i, server,
                                      client_node->id(), mix.Sample(rng),
                                      &ok));
    }
    bed.sched.Run();
    Keep(ok);
  });
}

// --- kv ------------------------------------------------------------------

sim::Process KvOpAfter(sim::Scheduler& sched, Duration delay, kv::KvNode& store,
                       int client, bool put) {
  co_await sim::Delay(sched, delay);
  if (put) {
    co_await store.Put(client, KB(1));
  } else {
    co_await store.Get(client, KB(1));
  }
}

double KvOpNs(bool put, std::uint64_t seed) {
  Bed bed;
  std::vector<int> servers, clients;
  BuildFlat(&bed, &servers, &clients);
  kv::KvNode store(bed.clstr.NodesInRole("servers")[0], &bed.fabric,
                   kv::KvConfig{}, seed);
  constexpr int kOps = 1000;
  return NsPerOp(kOps, [&] {
    for (int i = 0; i < kOps; ++i) {
      sim::Spawn(bed.sched, KvOpAfter(bed.sched, Milliseconds(2) * i, store,
                                      clients[0], put));
    }
    bed.sched.Run();
    Keep(store.gets() + store.puts());
  });
}

// --- load ----------------------------------------------------------------

double ArrivalNs(std::uint64_t seed) {
  load::ArrivalConfig cfg;
  cfg.model = load::ArrivalModel::kMmpp;
  cfg.rate = 24000.0;
  load::ArrivalProcess arrivals(cfg);
  Rng rng(seed);
  constexpr int kDraws = 100000;
  return NsPerOp(kDraws, [&] {
    double sum = 0;
    for (int i = 0; i < kDraws; ++i) sum += arrivals.NextGap(rng);
    Keep(sum);
  });
}

}  // namespace

std::vector<Metric> RunLayerProbes(const ProbeGeometry& g, std::uint64_t seed,
                                   SpanLog* spans) {
  std::vector<Metric> out;
  auto probe = [&](const char* name, const char* unit, auto&& fn) {
    SpanLog::Scope span(spans, std::string("probe/") + name, "probe");
    out.push_back({name, fn(), unit});
  };
  probe("shard.ring_build_us", "us", [&] { return RingBuildNs(g) / 1000; });
  probe("shard.lookup_ns", "ns", [&] { return RingLookupNs(g, seed); });
  probe("sim.schedule_run_ns", "ns", [] { return ScheduleRunNs(false); });
  probe("sim.schedule_run_long_ns", "ns",
        [] { return ScheduleRunNs(true); });
  probe("sim.fair_share_ns", "ns", [] { return FairShareNs(); });
  probe("net.transfer_ns", "ns",
        [&] { return TransferNs(g.hierarchical_fabric, seed); });
  probe("net.tcp_cycle_ns", "ns", [] { return TcpCycleNs(); });
  probe("web.serve_call_ns", "ns", [&] { return ServeCallNs(seed); });
  probe("kv.get_ns", "ns", [&] { return KvOpNs(false, seed); });
  probe("kv.put_ns", "ns", [&] { return KvOpNs(true, seed); });
  probe("load.arrival_ns", "ns", [&] { return ArrivalNs(seed); });
  return out;
}

}  // namespace perfbench
