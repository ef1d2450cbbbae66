// Per-span energy attribution (obs/energy.h) and the trace-derivation
// goldens the tentpole promises: the ledger conserves the node integral
// exactly (rows + unattributed == total), concurrent residents split an
// interval's joules equally, Table 7's delay decomposition is
// re-derivable from the causal trace alone, and the KV bench's
// queries-per-joule falls out of the trace + ledger.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "hw/profiles.h"
#include "hw/server_node.h"
#include "kv/experiment.h"
#include "obs/critical_path.h"
#include "obs/energy.h"
#include "obs/tracer.h"
#include "sim/process.h"
#include "sim/scheduler.h"
#include "web/service.h"
#include "web/workload.h"

namespace wimpy::obs {
namespace {

TraceHandle RootHandle(Tracer& tracer, sim::Scheduler& sched) {
  TraceHandle h;
  h.tracer = &tracer;
  h.sched = &sched;
  h.track = 0;
  h.ctx.trace_id = tracer.NewTraceId();
  return h;
}

sim::Process SpannedCompute(hw::ServerNode& node, Tracer& tracer,
                            EnergyAttributor& energy) {
  sim::Scheduler& sched = node.scheduler();
  for (int i = 0; i < 3; ++i) {
    {
      CausalSpan span(RootHandle(tracer, sched), "work", Category::kApp, i);
      ScopedResidency res(&energy, node.id(), span.handle(), "work");
      co_await node.Compute(node.cpu().spec().dmips_per_thread * 0.5);
    }
    co_await sim::Delay(sched, 0.25);
  }
}

TEST(EnergyAttributorTest, LedgerConservesTheNodeIntegral) {
  sim::Scheduler sched;
  hw::ServerNode node(&sched, hw::EdisonProfile(), 0);
  Tracer tracer;
  EnergyAttributor energy;
  node.ObserveEnergy(&energy);
  EXPECT_TRUE(energy.observing(0));
  EXPECT_FALSE(energy.observing(1));
  sim::Spawn(sched, SpannedCompute(node, tracer, energy));
  sched.Run();

  EnergyLedger ledger = energy.TakeLedger();
  ASSERT_EQ(ledger.rows.size(), 3u);
  Joules attributed = 0;
  for (const SpanEnergyRow& row : ledger.rows) {
    EXPECT_GT(row.joules, 0.0);
    EXPECT_EQ(row.node_id, 0);
    EXPECT_EQ(std::string_view(row.name), "work");
    attributed += row.joules;
  }
  const Joules total = node.power().CumulativeJoules();
  EXPECT_GT(ledger.unattributed_joules, 0.0);  // idle gaps between spans
  EXPECT_NEAR(ledger.total_joules, total, total * 1e-12);
  EXPECT_NEAR(attributed + ledger.unattributed_joules, total,
              total * 1e-12);

  // TakeLedger zeroes the accumulators but keeps the subscription.
  EXPECT_EQ(energy.TakeLedger().rows.size(), 0u);
  EXPECT_TRUE(energy.observing(0));
}

TEST(EnergyAttributorTest, ConcurrentResidentsSplitEqually) {
  sim::Scheduler sched;
  // Idle node: power is a known constant, so attribution is analytic.
  hw::ServerNode node(&sched, hw::EdisonProfile(), 0);
  const Watts p = hw::EdisonProfile().power.idle;
  Tracer tracer;
  EnergyAttributor energy;
  node.ObserveEnergy(&energy);

  TraceHandle a = RootHandle(tracer, sched);
  a.ctx.span_id = tracer.NewSpanId();
  TraceHandle b = RootHandle(tracer, sched);
  b.ctx.span_id = tracer.NewSpanId();
  sched.ScheduleAt(1.0, [&] { energy.SpanEnter(0, a, "a"); });
  sched.ScheduleAt(2.0, [&] { energy.BeginWindow(); });
  sched.ScheduleAt(3.0, [&] { energy.SpanEnter(0, b, "b"); });
  sched.ScheduleAt(5.0, [&] { energy.SpanLeave(0, a); });
  sched.ScheduleAt(7.0, [&] { energy.SpanLeave(0, b); });
  sched.ScheduleAt(8.0, [&] { energy.EndWindow(); });
  sched.ScheduleAt(10.0, [] {});
  sched.Run();

  EnergyLedger ledger = energy.TakeLedger();
  ASSERT_EQ(ledger.rows.size(), 2u);
  // a: alone on [1,3], half of [3,5]. b: half of [3,5], alone on [5,7].
  EXPECT_NEAR(ledger.rows[0].joules, 3.0 * p, p * 1e-9);
  EXPECT_NEAR(ledger.rows[1].joules, 3.0 * p, p * 1e-9);
  // Idle accrues outside any residency: [0,1] + [7,10].
  EXPECT_NEAR(ledger.unattributed_joules, 4.0 * p, p * 1e-9);
  EXPECT_NEAR(ledger.total_joules, 10.0 * p, p * 1e-9);
  EXPECT_NEAR(ledger.window_joules, 6.0 * p, p * 1e-9);

  // Unobserved nodes and null handles are silent no-ops.
  energy.SpanEnter(42, a, "a");
  energy.SpanEnter(0, TraceHandle{}, "null");
  EXPECT_EQ(energy.TakeLedger().rows.size(), 0u);
}

// The listener ObserveNode hands out holds the node's state itself. Once
// the attributor detaches it must do nothing — not re-create the node,
// not accrue into the ledger — and once the attributor is destroyed it
// must still reach no freed state (the ASan build runs this too).
TEST(EnergyAttributorTest, ListenerFiredAfterDetachIsANoOp) {
  sim::Scheduler sched;
  std::function<void(SimTime, Watts)> listener;
  {
    EnergyAttributor energy;
    listener = energy.ObserveNode(&sched, 3, 2.0);
    EXPECT_TRUE(energy.observing(3));
    sched.ScheduleAt(1.0, [&] { listener(sched.now(), 4.0); });
    sched.ScheduleAt(3.0, [] {});
    sched.Run();
    energy.Detach();
    EXPECT_FALSE(energy.observing(3));
    EXPECT_EQ(energy.node_count(), 0u);

    listener(5.0, 8.0);
    listener(7.0, 1.0);
    EXPECT_FALSE(energy.observing(3));
    const EnergyLedger ledger = energy.TakeLedger();
    // 2 W on [0, 1] and 4 W on [1, 3], settled by Detach at t = 3.
    EXPECT_DOUBLE_EQ(ledger.total_joules, 10.0);
    EXPECT_DOUBLE_EQ(ledger.unattributed_joules, 10.0);
  }
  listener(9.0, 2.0);  // the attributor is gone
}

sim::Process ResidencyUnder(sim::Scheduler& sched, EnergyAttributor* energy,
                           const TraceHandle& handle) {
  ScopedResidency res(energy, 0, handle, "work");
  co_await sim::Delay(sched, 1.0);
}

// A residency with a null attributor or a null handle is off: the ledger
// reads exactly what it reads with no residency at all.
TEST(ScopedResidencyTest, OffResidencyLeavesTheLedgerAlone) {
  Tracer tracer;
  auto ledger_with = [&](bool attributor_on, bool handle_on) {
    sim::Scheduler sched;
    hw::ServerNode node(&sched, hw::EdisonProfile(), 0);
    EnergyAttributor energy;
    node.ObserveEnergy(&energy);
    TraceHandle handle;
    if (handle_on) {
      handle = RootHandle(tracer, sched);
      handle.ctx.span_id = tracer.NewSpanId();
    }
    sim::Spawn(sched, ResidencyUnder(sched, attributor_on ? &energy : nullptr,
                                     handle));
    sched.Run();
    return energy.TakeLedger();
  };

  const EnergyLedger on = ledger_with(true, true);
  ASSERT_EQ(on.rows.size(), 1u);
  EXPECT_GT(on.rows[0].joules, 0.0);

  const EnergyLedger none = ledger_with(true, false);
  const EnergyLedger no_attributor = ledger_with(false, true);
  for (const EnergyLedger* off : {&none, &no_attributor}) {
    EXPECT_TRUE(off->rows.empty());
    EXPECT_EQ(off->total_joules, on.total_joules);
    EXPECT_EQ(off->unattributed_joules, on.total_joules);
    EXPECT_EQ(off->window_joules, 0.0);
  }
}

// Does the tree carry an instant `name` nested under span `span_id`?
bool HasInstant(const TraceTree& tree, std::uint64_t span_id,
                std::string_view name) {
  for (const InstantRecord& inst : tree.instants) {
    if (inst.parent_id == span_id && std::string_view(inst.name) == name) {
      return true;
    }
  }
  return false;
}

// The tentpole's web golden: with every request sampled, the report's
// Table 7 columns (per-request db/cache/total delay over the measurement
// window) must be re-derivable from the exported span tree alone.
TEST(TraceDerivationTest, Table7DecompositionMatchesReport) {
  web::WebTestbedConfig cfg = web::EdisonWebTestbed(2, 1);
  cfg.seed = 424242;
  Tracer tracer;
  EnergyAttributor energy;
  cfg.tracer = &tracer;
  cfg.trace_sample_every = 1;
  cfg.energy = &energy;
  web::WebExperiment exp(std::move(cfg));
  const web::OpenLoopReport report =
      exp.MeasureOpenLoop(web::HeavyMix(), 150.0, Seconds(4));

  TraceLog log = tracer.TakeLog();
  SimTime measure_start = -1;
  for (const TraceEvent& e : log.events) {
    if (std::string_view(e.name) == "measure_start") measure_start = e.time;
  }
  ASSERT_GE(measure_start, 0.0) << "window mark missing from trace";

  // Replay the server-side stats windowing: each OnlineStats add happens
  // at the corresponding span's end, and ResetStats fires at the
  // measure_start mark — so spans ending from the mark on are exactly
  // the report's samples. 500 replies never add to total_delay.
  OnlineStats db;
  OnlineStats cache;
  OnlineStats total;
  for (const TraceTree& tree : BuildTraceTrees(log)) {
    for (const SpanRecord& s : tree.spans) {
      if (!s.complete || s.end < measure_start) continue;
      const std::string_view name(s.name);
      if (name == "db") {
        db.Add(s.end - s.begin);
      } else if (name == "cache") {
        cache.Add(s.end - s.begin);
      } else if (name == "serve" &&
                 !HasInstant(tree, s.span_id, "http_500")) {
        total.Add(s.end - s.begin);
      }
    }
  }
  ASSERT_GT(total.count(), 100u);
  EXPECT_EQ(db.count(), report.db_delay.count());
  EXPECT_EQ(cache.count(), report.cache_delay.count());
  EXPECT_EQ(total.count(), report.total_delay.count());
  // Means agree to fp noise (the report merges per-server accumulators
  // in a different order than the flat trace scan).
  EXPECT_NEAR(db.mean(), report.db_delay.mean(),
              report.db_delay.mean() * 1e-9);
  EXPECT_NEAR(cache.mean(), report.cache_delay.mean(),
              report.cache_delay.mean() * 1e-9);
  EXPECT_NEAR(total.mean(), report.total_delay.mean(),
              report.total_delay.mean() * 1e-9);

  // The energy ledger saw the same simulation: spans carry positive
  // joules and conservation holds across the whole web+cache+db tier.
  EnergyLedger ledger = energy.TakeLedger();
  ASSERT_FALSE(ledger.rows.empty());
  Joules attributed = 0;
  for (const SpanEnergyRow& row : ledger.rows) {
    EXPECT_GT(row.joules, 0.0);
    attributed += row.joules;
  }
  EXPECT_NEAR(attributed + ledger.unattributed_joules, ledger.total_joules,
              ledger.total_joules * 1e-9);
  EXPECT_GT(ledger.window_joules, 0.0);
  EXPECT_LT(ledger.window_joules, ledger.total_joules);
}

// The tentpole's KV golden: queries-per-joule re-derived from the causal
// trace (in-window ok query count) and the ledger's window subtotal must
// match the report's quotient.
TEST(TraceDerivationTest, KvQueriesPerJouleMatchesReport) {
  kv::KvExperimentConfig config;
  config.node_profile = hw::EdisonProfile();
  config.node_count = 4;
  config.seed = 77;
  Tracer tracer;
  EnergyAttributor energy;
  config.tracer = &tracer;
  config.trace_sample_every = 1;
  config.energy = &energy;
  kv::KvExperiment exp(std::move(config));
  const Duration measure = Seconds(4);
  const kv::KvReport report = exp.Measure(800.0, measure);

  TraceLog log = tracer.TakeLog();
  EnergyLedger ledger = energy.TakeLedger();
  SimTime measure_start = -1;
  SimTime measure_end = -1;
  for (const TraceEvent& e : log.events) {
    const std::string_view name(e.name);
    if (name == "measure_start") measure_start = e.time;
    if (name == "measure_end") measure_end = e.time;
  }
  ASSERT_GE(measure_start, 0.0);
  ASSERT_GT(measure_end, measure_start);

  std::size_t done = 0;
  OnlineStats latency;
  for (const TraceTree& tree : BuildTraceTrees(log)) {
    const SpanRecord& root = tree.spans[tree.root];
    if (std::string_view(root.name) != "query") continue;
    if (root.begin < measure_start || root.begin >= measure_end) continue;
    if (HasInstant(tree, root.span_id, "route_failed")) continue;
    ++done;
    latency.Add(root.end - root.begin);
  }
  ASSERT_GT(done, 100u);
  EXPECT_EQ(static_cast<double>(done), report.achieved_qps * measure);
  EXPECT_NEAR(latency.mean(), report.mean_latency,
              report.mean_latency * 1e-9);

  // queries / store-tier window joules: the ledger's window subtotal is
  // the same integral the report differences out of CumulativeJoules
  // (summation order differs, hence the relative tolerance).
  ASSERT_GT(ledger.window_joules, 0.0);
  const double derived_qpj =
      static_cast<double>(done) / ledger.window_joules;
  EXPECT_NEAR(derived_qpj, report.queries_per_joule,
              report.queries_per_joule * 1e-6);
}

// The open-loop satellite's golden (docs/openloop.md): with every query
// sampled, slo_goodput_per_joule must be re-derivable from the trace +
// ledger exports alone — both by hand (scan the trees) and through
// SummarizeSloGoodput, the helper the --trace-summary roll-up prints.
TEST(TraceDerivationTest, SloGoodputPerJouleMatchesReport) {
  const Duration slo = Milliseconds(8);  // bisects the Edison KV latency
  kv::KvExperimentConfig config;
  config.node_profile = hw::EdisonProfile();
  config.node_count = 4;
  config.seed = 77;
  config.openloop.slo = slo;  // default gate stays unbounded: no sheds
  Tracer tracer;
  EnergyAttributor energy;
  config.tracer = &tracer;
  config.trace_sample_every = 1;
  config.energy = &energy;
  kv::KvExperiment exp(std::move(config));
  const kv::KvReport report = exp.Measure(800.0, Seconds(4));

  const std::vector<TraceLog> logs = {tracer.TakeLog()};
  const std::vector<EnergyLedger> ledgers = {energy.TakeLedger()};
  SimTime measure_start = -1;
  SimTime measure_end = -1;
  for (const TraceEvent& e : logs[0].events) {
    const std::string_view name(e.name);
    if (name == "measure_start") measure_start = e.time;
    if (name == "measure_end") measure_end = e.time;
  }
  ASSERT_GE(measure_start, 0.0);
  ASSERT_GT(measure_end, measure_start);

  // Hand derivation. With the unbounded gate every query dispatches at
  // its intended arrival, so the root span's begin IS the intended time
  // and its extent IS the honest latency the recorder scored.
  std::int64_t offered = 0, under = 0, failed = 0;
  for (const TraceTree& tree : BuildTraceTrees(logs[0])) {
    const SpanRecord& root = tree.spans[tree.root];
    if (root.begin < measure_start || root.begin >= measure_end) continue;
    ++offered;
    if (HasInstant(tree, root.span_id, "route_failed")) {
      ++failed;
      continue;
    }
    if (tree.complete && root.end - root.begin <= slo) ++under;
  }
  // The steady 4-node ring routes everything; a failure here would break
  // the recorder/trace equivalence this test pins.
  ASSERT_EQ(failed, 0);
  ASSERT_GT(offered, 100);
  // The SLO genuinely bisects the distribution — both sides populated.
  EXPECT_GT(under, 0);
  EXPECT_LT(under, offered);

  EXPECT_NEAR(report.slo_good_fraction,
              static_cast<double>(under) / static_cast<double>(offered),
              1e-12);
  ASSERT_GT(ledgers[0].window_joules, 0.0);
  const double derived =
      static_cast<double>(under) / ledgers[0].window_joules;
  EXPECT_NEAR(derived, report.slo_goodput_per_joule,
              report.slo_goodput_per_joule * 1e-6);

  // The packaged helper agrees with the hand derivation exactly.
  const SloSummary s = SummarizeSloGoodput(logs, ledgers, slo);
  EXPECT_EQ(s.window_traces, offered);
  EXPECT_EQ(s.under_slo, under);
  EXPECT_NEAR(s.window_joules, ledgers[0].window_joules, 1e-12);
  EXPECT_NEAR(s.slo_goodput_per_joule, report.slo_goodput_per_joule,
              report.slo_goodput_per_joule * 1e-6);
}

}  // namespace
}  // namespace wimpy::obs
