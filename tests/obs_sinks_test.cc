// obs::RunSinks trace sampling: one root trace in `trace_sample_every` by
// a counter outside the random streams, and nothing without a tracer;
// obs::Capture creates exactly the sinks it is asked for.
#include "obs/sinks.h"

#include <gtest/gtest.h>

#include "obs/capture.h"
#include "obs/tracer.h"
#include "sim/scheduler.h"

namespace wimpy::obs {
namespace {

TEST(RunSinksTest, SamplesOneTraceInNByCounter) {
  sim::Scheduler sched;
  Tracer tracer;
  Sinks sinks;
  sinks.tracer = &tracer;
  sinks.trace_sample_every = 4;
  RunSinks run(sinks, &sched);
  for (int i = 0; i < 12; ++i) {
    const TraceHandle handle = run.StartTrace();
    if (i % 4 == 0) {
      ASSERT_TRUE(handle) << i;
      EXPECT_EQ(handle.tracer, &tracer);
      EXPECT_EQ(handle.sched, &sched);
      EXPECT_EQ(handle.track, i);  // the counter value names the track
      EXPECT_EQ(handle.ctx.trace_id, static_cast<std::uint64_t>(i / 4 + 1));
    } else {
      EXPECT_FALSE(handle) << i;
    }
  }
}

TEST(RunSinksTest, NonPositiveRateSamplesEveryCall) {
  sim::Scheduler sched;
  Tracer tracer;
  Sinks sinks;
  sinks.tracer = &tracer;
  sinks.trace_sample_every = 0;
  RunSinks run(sinks, &sched);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(run.StartTrace()) << i;
}

TEST(RunSinksTest, NullTracerGivesNullHandles) {
  sim::Scheduler sched;
  Sinks sinks;
  sinks.trace_sample_every = 1;
  RunSinks run(sinks, &sched);
  for (int i = 0; i < 3; ++i) {
    const TraceHandle handle = run.StartTrace();
    EXPECT_FALSE(handle);
    EXPECT_EQ(handle.sched, nullptr);
  }
  EXPECT_FALSE(run.NewTrace(0));
}

TEST(CaptureTest, TraceMetricsWantsLeaveTheOnlinePlaneOff) {
  TraceMetricsWants wants;
  wants.trace = true;
  wants.metrics = true;
  Capture capture(wants);
  EXPECT_NE(capture.sinks().tracer, nullptr);
  EXPECT_NE(capture.sinks().metrics, nullptr);
  EXPECT_EQ(capture.sinks().telemetry, nullptr);
  EXPECT_EQ(capture.sinks().energy, nullptr);
}

TEST(CaptureTest, CaptureWantsCreateOnlyTheAskedSinks) {
  CaptureWants wants;
  wants.metrics = true;
  wants.energy = true;
  Capture capture(wants);
  Sinks target;
  target.trace_sample_every = 8;
  capture.AttachTo(target);
  EXPECT_EQ(target.tracer, nullptr);
  EXPECT_NE(target.metrics, nullptr);
  EXPECT_EQ(target.telemetry, nullptr);
  EXPECT_NE(target.energy, nullptr);
  EXPECT_EQ(target.trace_sample_every, 8);  // the rate is the target's
}

}  // namespace
}  // namespace wimpy::obs
