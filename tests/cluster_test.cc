#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include "hw/profiles.h"
#include "obs/metrics.h"
#include "sim/process.h"

namespace wimpy::cluster {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : fabric_(&sched_), cluster_(&sched_, &fabric_) {}

  sim::Scheduler sched_;
  net::Fabric fabric_;
  Cluster cluster_;
};

TEST_F(ClusterTest, AddNodesAssignsRolesAndIds) {
  auto web = cluster_.AddNodes(hw::EdisonProfile(), 24, "web-server",
                               "edison-room");
  auto cache = cluster_.AddNodes(hw::EdisonProfile(), 11, "cache-server",
                                 "edison-room");
  EXPECT_EQ(web.size(), 24u);
  EXPECT_EQ(cache.size(), 11u);
  EXPECT_EQ(cluster_.size(), 35u);
  EXPECT_EQ(cluster_.NodesInRole("web-server").size(), 24u);
  EXPECT_EQ(cluster_.NodesInRole("nonexistent").size(), 0u);
  EXPECT_EQ(web[0]->id(), 0);
  EXPECT_EQ(cache[0]->id(), 24);
  EXPECT_EQ(cluster_.node(24), cache[0]);
  EXPECT_EQ(cluster_.node(999), nullptr);
  EXPECT_EQ(fabric_.GroupOf(0), "edison-room");
}

TEST_F(ClusterTest, IdleClusterPowerMatchesTable3) {
  cluster_.AddNodes(hw::EdisonProfile(), 35, "all", "edison-room");
  EXPECT_NEAR(cluster_.TotalWatts(), 49.0, 0.01);  // 35 x 1.40 W
}

TEST_F(ClusterTest, RoleScopedEnergyAccounting) {
  cluster_.AddNodes(hw::EdisonProfile(), 2, "workers", "edison-room");
  cluster_.AddNodes(hw::DellR620Profile(), 1, "master", "dell-room");
  sched_.ScheduleAt(10.0, [] {});
  sched_.Run();
  // Worker-only joules exclude the Dell master — the paper's MapReduce
  // energy accounting does exactly this.
  EXPECT_NEAR(cluster_.CumulativeJoules({"workers"}), 2 * 1.40 * 10, 1e-6);
  EXPECT_NEAR(cluster_.CumulativeJoules(), (2 * 1.40 + 52.0) * 10, 1e-6);
}

sim::Process BurnCpu(hw::ServerNode* node, double seconds) {
  co_await node->Compute(node->cpu().spec().dmips_per_thread * seconds);
}

TEST_F(ClusterTest, MeanUtilisationAcrossRole) {
  auto nodes = cluster_.AddNodes(hw::EdisonProfile(), 4, "w", "edison-room");
  // Load one of four nodes on one of two cores: mean CPU busy = 1/8.
  sim::Spawn(sched_, BurnCpu(nodes[0], 10.0));
  sched_.Run(1.0);
  EXPECT_NEAR(cluster_.MeanCpuBusy("w"), 0.125, 1e-9);
  sched_.Run();
}

// The psutil-style role timeline (Figures 12-17): role probes plus a
// workload gauge, sampled on the registry's 1 Hz clock.
TEST_F(ClusterTest, RoleMetricsRecordTimeline) {
  auto nodes = cluster_.AddNodes(hw::EdisonProfile(), 1, "w", "edison-room");
  obs::MetricsRegistry timeline;
  cluster_.PublishRoleMetrics(&timeline, "w");
  double progress = 0;
  timeline.AddGauge("progress", [&] { return progress; });
  timeline.Start(&sched_, 1.0);
  sim::Spawn(sched_, BurnCpu(nodes[0], 5.0));  // busy [0, 5] on one core
  sched_.ScheduleAt(3.0, [&] { progress = 50.0; });
  // A running registry keeps the event queue non-empty forever; bound
  // the run and then stop it.
  sched_.Run(/*until=*/10.5);
  timeline.Stop();
  sched_.Run();
  const obs::MetricsSeries& series = timeline.series();
  ASSERT_EQ(series.names,
            (std::vector<std::string>{"w.cpu_pct", "w.memory_pct",
                                      "w.power_w", "progress"}));
  ASSERT_GE(series.row_count(), 10u);
  EXPECT_EQ(series.times[0], 0.0);
  // One of two cores busy, then idle after completion.
  EXPECT_NEAR(series.row(2)[kRoleCpuPct], 50.0, 1e-6);
  EXPECT_NEAR(series.row(7)[kRoleCpuPct], 0.0, 1e-6);
  EXPECT_GT(series.row(2)[kRolePowerW], 1.40);
  EXPECT_NEAR(series.row(8)[kRolePowerW], 1.40, 1e-9);
  EXPECT_EQ(series.row(2)[kRoleColumns], 0.0);  // "progress"
  EXPECT_EQ(series.row(4)[kRoleColumns], 50.0);
}

TEST_F(ClusterTest, RoleTimelineStopCancelsFutureSamples) {
  cluster_.AddNodes(hw::EdisonProfile(), 1, "w", "edison-room");
  obs::MetricsRegistry timeline;
  cluster_.PublishRoleMetrics(&timeline, "w");
  timeline.Start(&sched_, 1.0);
  sched_.ScheduleAt(3.5, [&] { timeline.Stop(); });
  sched_.ScheduleAt(10.0, [] {});
  sched_.Run();
  EXPECT_EQ(timeline.series().row_count(), 4u);  // t = 0, 1, 2, 3
}

}  // namespace
}  // namespace wimpy::cluster
