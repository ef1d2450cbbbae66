// Parameterised scalability and determinism properties of the MapReduce
// stack — including a regression sweep for the reducer-slot deadlock that
// once froze mid-sized clusters (reducers starving maps of containers).
#include <gtest/gtest.h>

#include "mapreduce/jobs.h"
#include "mapreduce/testbed.h"

namespace wimpy::mapreduce {
namespace {

JobSpec ScaledWordCount(const MrClusterConfig& config) {
  JobSpec spec = WordCountJob(config);
  spec.input_files = 30;
  spec.input_bytes = MB(120);
  spec.reducers = TotalVcores(config);  // stress reducer-slot pressure
  spec.reduce_slowstart = 0.3;          // early reducers, worst case
  return spec;
}

class MrScaleProperty : public ::testing::TestWithParam<int> {};

TEST_P(MrScaleProperty, JobCompletesAtEveryClusterSize) {
  const int slaves = GetParam();
  MrTestbed testbed(EdisonMrCluster(slaves));
  JobSpec spec = ScaledWordCount(testbed.config());
  LoadInputFor(spec, &testbed);
  // Bound the event budget: a scheduling deadlock would otherwise hang
  // the suite in the allocator's polling loop.
  const MrRunResult result = testbed.RunJob(spec);
  EXPECT_GT(result.job.elapsed, 0);
  EXPECT_LT(result.job.elapsed, 50000.0);
  EXPECT_EQ(result.job.map_tasks, 30);
  EXPECT_GT(result.slave_joules, 0);
}

TEST_P(MrScaleProperty, MoreSlavesNeverSlower) {
  const int slaves = GetParam();
  if (slaves < 4) return;  // compare each size against its half
  auto run = [](int n) {
    MrTestbed testbed(EdisonMrCluster(n));
    JobSpec spec = ScaledWordCount(testbed.config());
    LoadInputFor(spec, &testbed);
    return testbed.RunJob(spec).job.elapsed;
  };
  const Duration full = run(slaves);
  const Duration half = run(slaves / 2);
  EXPECT_LE(full, half * 1.10);  // 10% tolerance for placement noise
}

INSTANTIATE_TEST_SUITE_P(Sizes, MrScaleProperty,
                         ::testing::Values(2, 4, 8, 17, 35));

TEST(MrDeterminismTest, SameSeedSameResult) {
  auto run = [] {
    MrTestbed testbed(EdisonMrCluster(8));
    JobSpec spec = ScaledWordCount(testbed.config());
    LoadInputFor(spec, &testbed);
    return testbed.RunJob(spec);
  };
  const MrRunResult a = run();
  const MrRunResult b = run();
  EXPECT_EQ(a.job.elapsed, b.job.elapsed);
  EXPECT_EQ(a.slave_joules, b.slave_joules);
  EXPECT_EQ(a.job.data_local_fraction, b.job.data_local_fraction);
  ASSERT_EQ(a.timeline.row_count(), b.timeline.row_count());
}

TEST(MrDeterminismTest, DifferentSeedDifferentPlacement) {
  auto run = [](std::uint64_t seed) {
    MrClusterConfig config = EdisonMrCluster(8);
    config.seed = seed;
    MrTestbed testbed(config);
    JobSpec spec = ScaledWordCount(testbed.config());
    LoadInputFor(spec, &testbed);
    return testbed.RunJob(spec).job.elapsed;
  };
  // Not a strict requirement, but across several seeds at least one run
  // should differ (placement cursor starts at a random node).
  const Duration base = run(1);
  bool any_different = false;
  for (std::uint64_t seed = 2; seed <= 5; ++seed) {
    any_different = any_different || run(seed) != base;
  }
  EXPECT_TRUE(any_different);
}

TEST(MrStragglerTest, ThrottledNodeStretchesTheJobSublinearly) {
  auto run = [](int throttled) {
    MrClusterConfig config = EdisonMrCluster(8);
    config.throttled_slaves = throttled;
    config.throttle_factor = 0.5;
    MrTestbed testbed(config);
    JobSpec spec = ScaledWordCount(testbed.config());
    LoadInputFor(spec, &testbed);
    return testbed.RunJob(spec).job.elapsed;
  };
  const Duration healthy = run(0);
  const Duration one_slow = run(1);
  const Duration half_slow = run(4);
  // Without speculative execution, one-wave phases (one reducer per
  // vcore) are gated by the slowest node: a single 50%-speed node caps
  // the stretch at ~2x regardless of how many more are throttled. Real
  // Hadoop counters exactly this with speculative re-execution.
  EXPECT_GT(one_slow, healthy * 1.05);
  EXPECT_LT(one_slow, healthy * 2.2);
  EXPECT_GE(half_slow, one_slow * 0.98);
  EXPECT_LT(half_slow, healthy * 2.4);
}

TEST(MrSpeculationTest, DuplicatesRescueMapStragglers) {
  auto run = [](bool speculative, int* attempts) {
    MrClusterConfig config = EdisonMrCluster(8);
    config.throttled_slaves = 1;
    config.throttle_factor = 0.25;  // a severely degraded card
    MrTestbed testbed(config);
    JobSpec spec = ScaledWordCount(testbed.config());
    spec.reducers = 4;  // keep the reduce phase off the critical path
    spec.speculative_execution = speculative;
    LoadInputFor(spec, &testbed);
    const MrRunResult result = testbed.RunJob(spec);
    if (attempts != nullptr) {
      // attempts is reported per-job; surface via map task count delta is
      // not visible in MrRunResult, so only check runtime here.
    }
    return result.job.elapsed;
  };
  const Duration without = run(false, nullptr);
  const Duration with = run(true, nullptr);
  // Speculation cuts the straggler tail materially.
  EXPECT_LT(with, without * 0.9);
}

TEST(MrSpeculationTest, NoOpOnHomogeneousCluster) {
  auto run = [](bool speculative) {
    MrTestbed testbed(EdisonMrCluster(8));
    JobSpec spec = ScaledWordCount(testbed.config());
    spec.speculative_execution = speculative;
    LoadInputFor(spec, &testbed);
    return testbed.RunJob(spec).job.elapsed;
  };
  const Duration off = run(false);
  const Duration on = run(true);
  // With no stragglers, speculation changes nothing meaningful.
  EXPECT_NEAR(on, off, off * 0.1);
}

TEST(MrReducerPressureTest, ReducersCannotStarveMaps) {
  // The historical deadlock shape: reducers == total slots, slowstart
  // early, many maps outstanding.
  MrTestbed testbed(EdisonMrCluster(17));
  JobSpec spec = WordCountJob(testbed.config());
  spec.input_files = 60;
  spec.input_bytes = MB(240);
  spec.reducers = TotalVcores(testbed.config());
  spec.reduce_slowstart = 0.1;
  spec.reduce_container_mem = MB(300);
  LoadInputFor(spec, &testbed);
  const MrRunResult result = testbed.RunJob(spec);
  EXPECT_GT(result.job.elapsed, 0);
  EXPECT_LT(result.job.elapsed, 100000.0);
}

}  // namespace
}  // namespace wimpy::mapreduce
