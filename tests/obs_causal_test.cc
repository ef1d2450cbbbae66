// Causal-tracing contract tests (docs/observability.md): trace/span id
// allocation, CausalSpan propagation and the null no-op path, traced vs
// untraced fabric transfers, name interning, open-track bookkeeping,
// span-tree reconstruction, the critical-path walk's tie-breaks, Perfetto
// flow-event rendering, and the --trace-summary CSV.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hw/profiles.h"
#include "hw/server_node.h"
#include "net/fabric.h"
#include "obs/critical_path.h"
#include "obs/energy.h"
#include "obs/export.h"
#include "obs/tracer.h"
#include "sim/process.h"
#include "sim/scheduler.h"

namespace wimpy::obs {
namespace {

TEST(CausalIdTest, IdsStartAtOneAndNeverRepeat) {
  Tracer tracer;
  EXPECT_EQ(tracer.NewTraceId(), 1u);
  EXPECT_EQ(tracer.NewTraceId(), 2u);
  EXPECT_EQ(tracer.NewSpanId(), 1u);
  EXPECT_EQ(tracer.NewSpanId(), 2u);
  // Trace and span counters are independent streams.
  EXPECT_EQ(tracer.NewTraceId(), 3u);
}

TEST(CausalIdTest, InternDeduplicatesWithStablePointers) {
  Tracer tracer;
  const std::string dynamic = std::string("word") + "count";
  const char* a = tracer.Intern(dynamic);
  const char* b = tracer.Intern("wordcount");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "wordcount");
  const char* c = tracer.Intern("terasort");
  EXPECT_NE(a, c);
  // Interned names survive TakeLog (detached logs keep name pointers).
  tracer.InstantAt(0.0, a, Category::kApp, 0);
  TraceLog log = tracer.TakeLog();
  EXPECT_STREQ(log.events[0].name, "wordcount");
  EXPECT_EQ(tracer.Intern("wordcount"), a);
}

TEST(CausalIdTest, InternedNamesOutliveTheTracer) {
  // The sweep idiom: the per-replication tracer dies at replication end,
  // the detached log is exported from main afterwards. The log holds a
  // keepalive reference to the intern arena, so dynamic names stay valid.
  TraceLog log;
  {
    Tracer tracer;
    const std::string dynamic = std::string("tera") + "sort";
    tracer.InstantAt(0.0, tracer.Intern(dynamic), Category::kApp, 0);
    log = tracer.TakeLog();
  }
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_STREQ(log.events[0].name, "terasort");
}

sim::Process NestedSpans(sim::Scheduler& sched, Tracer& tracer) {
  TraceHandle root;
  root.tracer = &tracer;
  root.sched = &sched;
  root.track = 7;
  root.ctx.trace_id = tracer.NewTraceId();
  CausalSpan outer(root, "outer", Category::kRequest);
  co_await sim::Delay(sched, 1.0);
  {
    CausalSpan inner(outer.handle(), "inner", Category::kRequest, 42);
    inner.Instant("tick", 5);
    co_await sim::Delay(sched, 2.0);
  }
  co_await sim::Delay(sched, 0.5);
}

TEST(CausalSpanTest, PropagatesIdentityThroughHandles) {
  sim::Scheduler sched;
  Tracer tracer;
  sim::Spawn(sched, NestedSpans(sched, tracer));
  sched.Run();

  // outer B, inner B, tick i, inner E, outer E.
  ASSERT_EQ(tracer.size(), 5u);
  const auto& ev = tracer.events();
  EXPECT_EQ(ev[0].phase, 'B');
  EXPECT_EQ(std::string_view(ev[0].name), "outer");
  EXPECT_EQ(ev[0].trace_id, 1u);
  EXPECT_EQ(ev[0].parent_id, 0u);
  const std::uint64_t outer_id = ev[0].span_id;
  EXPECT_NE(outer_id, 0u);

  EXPECT_EQ(ev[1].phase, 'B');
  EXPECT_EQ(std::string_view(ev[1].name), "inner");
  EXPECT_EQ(ev[1].time, 1.0);
  EXPECT_EQ(ev[1].trace_id, 1u);
  EXPECT_EQ(ev[1].parent_id, outer_id);
  EXPECT_EQ(ev[1].arg, 42);
  const std::uint64_t inner_id = ev[1].span_id;
  EXPECT_NE(inner_id, outer_id);

  // Instants carry the trace and the enclosing span as parent.
  EXPECT_EQ(ev[2].phase, 'i');
  EXPECT_EQ(ev[2].trace_id, 1u);
  EXPECT_EQ(ev[2].parent_id, inner_id);
  EXPECT_EQ(ev[2].span_id, 0u);

  EXPECT_EQ(ev[3].phase, 'E');
  EXPECT_EQ(ev[3].time, 3.0);
  EXPECT_EQ(ev[3].span_id, inner_id);
  EXPECT_EQ(ev[4].phase, 'E');
  EXPECT_EQ(ev[4].time, 3.5);
  EXPECT_EQ(ev[4].span_id, outer_id);

  // The inherited track rides along on every event.
  for (const TraceEvent& e : ev) EXPECT_EQ(e.track, 7);
  EXPECT_EQ(tracer.open_tracks(), 0u);
}

TEST(CausalSpanTest, NullHandleIsCompleteNoOp) {
  sim::Scheduler sched;
  Tracer tracer;
  {
    CausalSpan noop(TraceHandle{}, "x", Category::kApp);
    noop.Instant("y");
    CausalSpan child(noop.handle(), "z", Category::kApp);
    EXPECT_FALSE(static_cast<bool>(child.handle()));
  }
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(CausalSpanTest, OffSpanHandsOutTheSharedNullHandle) {
  sim::Scheduler sched;
  // Everything but the tracer set: the span is still off, and its handle
  // is the shared all-zero one, not a copy of the parent.
  TraceHandle parent;
  parent.sched = &sched;
  parent.track = 9;
  parent.ctx = TraceContext{5, 6, 7};
  CausalSpan off(parent, "off", Category::kRequest, 3);
  EXPECT_EQ(&off.handle(), &kNullTraceHandle);
  EXPECT_EQ(off.handle().sched, nullptr);
  EXPECT_EQ(off.handle().track, 0);
  EXPECT_EQ(off.handle().ctx.trace_id, 0u);
  EXPECT_EQ(off.handle().ctx.span_id, 0u);
  EXPECT_EQ(off.handle().ctx.parent_id, 0u);
  off.Instant("ignored", 1);

  // Children of an off span are off too, whatever their track.
  CausalSpan child(off.handle(), "child", Category::kRequest);
  CausalSpan cross(off.handle(), 4, "cross", Category::kTask);
  EXPECT_EQ(&child.handle(), &kNullTraceHandle);
  EXPECT_EQ(&cross.handle(), &kNullTraceHandle);
  const CausalSpan unset;
  EXPECT_EQ(&unset.handle(), &kNullTraceHandle);
}

TEST(CausalSpanTest, OnSpanTakesFreshIdUnderItsParent) {
  sim::Scheduler sched;
  Tracer tracer;
  TraceHandle root;
  root.tracer = &tracer;
  root.sched = &sched;
  root.track = 3;
  root.ctx.trace_id = tracer.NewTraceId();
  root.ctx.span_id = tracer.NewSpanId();  // as if under an enclosing span
  {
    CausalSpan span(root, "span", Category::kRequest, 11);
    const TraceHandle& h = span.handle();
    EXPECT_EQ(h.tracer, &tracer);
    EXPECT_EQ(h.sched, &sched);
    EXPECT_EQ(h.track, 3);
    EXPECT_EQ(h.ctx.trace_id, root.ctx.trace_id);
    EXPECT_EQ(h.ctx.parent_id, root.ctx.span_id);
    EXPECT_NE(h.ctx.span_id, root.ctx.span_id);
    EXPECT_NE(h.ctx.span_id, 0u);
    // The handle lives as long as the span, at one address.
    EXPECT_EQ(&span.handle(), &h);

    CausalSpan child(h, 8, "child", Category::kNet);
    EXPECT_EQ(child.handle().track, 8);
    EXPECT_EQ(child.handle().ctx.parent_id, h.ctx.span_id);
    EXPECT_GT(child.handle().ctx.span_id, h.ctx.span_id);
  }
  // Two begins, two ends; the tracks balance back to zero.
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.open_tracks(), 0u);
}

// Two hosts in two rooms, for the traced-transfer tests below.
struct TwoRooms {
  TwoRooms()
      : fabric(&sched),
        a(&sched, hw::EdisonProfile(), 0),
        b(&sched, hw::EdisonProfile(), 1) {
    fabric.AddNode(&a, "room-a");
    fabric.AddNode(&b, "room-b");
    fabric.SetGroupLink("room-a", "room-b", Gbps(1), Milliseconds(0.05));
  }
  sim::Scheduler sched;
  net::Fabric fabric;
  hw::ServerNode a;
  hw::ServerNode b;
};

sim::Process RequestReply(net::Fabric& fabric, TraceHandle trace,
                          SimTime* done) {
  co_await fabric.Transfer(0, 1, 200, trace, "req_xfer");
  co_await fabric.Transfer(1, 0, KB(8), trace, "reply_xfer");
  *done = fabric.scheduler().now();
}

TEST(TracedTransferTest, TracedTransferEmitsNetSpansUntracedNone) {
  TwoRooms untraced;
  SimTime untraced_done = -1;
  sim::Spawn(untraced.sched,
             RequestReply(untraced.fabric, TraceHandle{}, &untraced_done));
  untraced.sched.Run();

  TwoRooms traced;
  Tracer tracer;
  TraceHandle root;
  root.tracer = &tracer;
  root.sched = &traced.sched;
  root.track = 2;
  root.ctx.trace_id = tracer.NewTraceId();
  root.ctx.span_id = tracer.NewSpanId();
  SimTime traced_done = -1;
  sim::Spawn(traced.sched, RequestReply(traced.fabric, root, &traced_done));
  traced.sched.Run();

  // Tracing changes nothing simulated: same completion, same events.
  EXPECT_GT(untraced_done, 0.0);
  EXPECT_EQ(traced_done, untraced_done);
  EXPECT_EQ(traced.sched.executed_events(),
            untraced.sched.executed_events());

  // req_xfer B/E, then reply_xfer B/E: kNet spans under the root span,
  // arg = bytes, ending when the last byte lands.
  const auto& ev = tracer.events();
  ASSERT_EQ(ev.size(), 4u);
  const char* names[] = {"req_xfer", "req_xfer", "reply_xfer", "reply_xfer"};
  const char phases[] = {'B', 'E', 'B', 'E'};
  const std::int64_t args[] = {200, 200, KB(8), KB(8)};
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(std::string_view(ev[i].name), names[i]);
    EXPECT_EQ(ev[i].phase, phases[i]);
    EXPECT_EQ(ev[i].category, Category::kNet);
    EXPECT_EQ(ev[i].arg, args[i]);
    EXPECT_EQ(ev[i].track, 2);
    EXPECT_EQ(ev[i].trace_id, root.ctx.trace_id);
    EXPECT_EQ(ev[i].parent_id, root.ctx.span_id);
  }
  EXPECT_EQ(ev[0].span_id, ev[1].span_id);
  EXPECT_EQ(ev[2].span_id, ev[3].span_id);
  EXPECT_NE(ev[0].span_id, ev[2].span_id);
  EXPECT_EQ(ev[0].time, 0.0);
  EXPECT_EQ(ev[1].time, ev[2].time);
  EXPECT_EQ(ev[3].time, traced_done);
  EXPECT_EQ(tracer.open_tracks(), 0u);
}

TEST(TracerTest, BalancedTracksAreErasedFromOpenSet) {
  Tracer tracer;
  for (int track = 0; track < 100; ++track) {
    tracer.BeginSpanAt(0.1 * track, "s", Category::kApp, track);
    tracer.EndSpanAt(0.1 * track + 0.05, "s", Category::kApp, track);
  }
  // Every track balanced back to zero: the map must not retain 100
  // dead entries (the long-run growth bug this pins).
  EXPECT_EQ(tracer.open_tracks(), 0u);
  tracer.BeginSpanAt(11.0, "open", Category::kApp, 3);
  EXPECT_EQ(tracer.open_tracks(), 1u);
  EXPECT_EQ(tracer.open_spans(3), 1);
}

// Emits one complete causal span into `t`.
void Span(Tracer& t, const char* name, SimTime b, SimTime e,
          std::uint64_t trace, std::uint64_t span, std::uint64_t parent,
          std::int32_t track = 0) {
  t.BeginSpanAt(b, name, Category::kRequest, track,
                TraceContext{trace, span, parent});
  t.EndSpanAt(e, name, Category::kRequest, track,
              TraceContext{trace, span, parent});
}

TEST(TraceTreeTest, RebuildsNestingAndFlagsIncompleteSpans) {
  Tracer tracer;
  tracer.BeginSpanAt(0.0, "root", Category::kRequest, 0,
                     TraceContext{9, 1, 0});
  Span(tracer, "child", 1.0, 2.0, 9, 2, 1);
  // Engine-style non-causal events are ignored by the tree builder.
  tracer.InstantAt(1.5, "engine", Category::kEngine, 0);
  // The root's end is missing: horizon (max log time) closes it.
  tracer.InstantAt(4.0, "late", Category::kApp, 0, TraceContext{9, 0, 1});
  TraceLog log = tracer.TakeLog();

  const std::vector<TraceTree> trees = BuildTraceTrees(log);
  ASSERT_EQ(trees.size(), 1u);
  const TraceTree& tree = trees[0];
  EXPECT_EQ(tree.trace_id, 9u);
  EXPECT_FALSE(tree.complete);
  ASSERT_EQ(tree.spans.size(), 2u);
  const SpanRecord& root = tree.spans[tree.root];
  EXPECT_EQ(std::string_view(root.name), "root");
  EXPECT_FALSE(root.complete);
  EXPECT_EQ(root.end, 4.0);  // closed at the log horizon
  ASSERT_EQ(root.children.size(), 1u);
  const SpanRecord& child = tree.spans[root.children[0]];
  EXPECT_EQ(std::string_view(child.name), "child");
  EXPECT_TRUE(child.complete);
  ASSERT_EQ(tree.instants.size(), 1u);
  EXPECT_EQ(std::string_view(tree.instants[0].name), "late");
  EXPECT_EQ(tree.instants[0].parent_id, 1u);
}

TEST(CriticalPathTest, SequentialChildrenDecompose) {
  Tracer tracer;
  tracer.BeginSpanAt(0.0, "root", Category::kRequest, 0,
                     TraceContext{1, 1, 0});
  Span(tracer, "a", 1.0, 4.0, 1, 2, 1);
  Span(tracer, "b", 5.0, 9.0, 1, 3, 1);
  tracer.EndSpanAt(10.0, "root", Category::kRequest, 0,
                   TraceContext{1, 1, 0});
  TraceLog log = tracer.TakeLog();

  const std::vector<TraceTree> trees = BuildTraceTrees(log);
  ASSERT_EQ(trees.size(), 1u);
  const std::vector<PathSegment> path = CriticalPath(trees[0]);
  // Segments tile [root.begin, root.end] contiguously in forward order.
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front().begin, 0.0);
  EXPECT_EQ(path.back().end, 10.0);
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(path[i].begin, path[i - 1].end);
  }

  const auto decomp = DecomposeCriticalPath(trees[0]);
  // Root self time: [0,1] + [4,5] + [9,10].
  EXPECT_DOUBLE_EQ(decomp.at("root"), 3.0);
  EXPECT_DOUBLE_EQ(decomp.at("a"), 3.0);
  EXPECT_DOUBLE_EQ(decomp.at("b"), 4.0);
}

TEST(CriticalPathTest, OverlappingChildrenChargeTheLaterFinisher) {
  Tracer tracer;
  tracer.BeginSpanAt(0.0, "root", Category::kRequest, 0,
                     TraceContext{1, 1, 0});
  Span(tracer, "a", 1.0, 6.0, 1, 2, 1);
  Span(tracer, "b", 4.0, 9.0, 1, 3, 1);
  tracer.EndSpanAt(10.0, "root", Category::kRequest, 0,
                   TraceContext{1, 1, 0});
  TraceLog log = tracer.TakeLog();

  const std::vector<TraceTree> trees = BuildTraceTrees(log);
  ASSERT_EQ(trees.size(), 1u);
  const auto decomp = DecomposeCriticalPath(trees[0]);
  // Backward from 10: root waits on b until 9, b owns (4,9]; the walk
  // resumes at b.begin=4 where a (still running) owns (1,4]; root keeps
  // [0,1] and [9,10].
  EXPECT_DOUBLE_EQ(decomp.at("root"), 2.0);
  EXPECT_DOUBLE_EQ(decomp.at("b"), 5.0);
  EXPECT_DOUBLE_EQ(decomp.at("a"), 3.0);
}

std::size_t CountOccurrences(const std::string& doc,
                             const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = doc.find(needle); pos != std::string::npos;
       pos = doc.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(FlowEventTest, CrossTrackChildrenGetFlowArrows) {
  Tracer tracer;
  tracer.BeginSpanAt(0.0, "job", Category::kApp, 0, TraceContext{1, 1, 0});
  // Same-track child: no flow arrow.
  Span(tracer, "local", 0.5, 0.8, 1, 2, 1, /*track=*/0);
  // Cross-track child: flow start on the parent's track, finish (bound
  // to the enclosing slice) on the child's, both at the child's begin.
  Span(tracer, "attempt", 1.0, 3.0, 1, 3, 1, /*track=*/5);
  tracer.EndSpanAt(4.0, "job", Category::kApp, 0, TraceContext{1, 1, 0});
  TraceLog log = tracer.TakeLog();

  const std::string doc = RenderChromeTrace({log});
  EXPECT_EQ(CountOccurrences(doc, "\"ph\":\"s\""), 1u);
  EXPECT_EQ(CountOccurrences(doc, "\"ph\":\"f\""), 1u);
  EXPECT_EQ(CountOccurrences(doc, "\"id\":\"p0.s3\""), 2u);
  EXPECT_NE(doc.find("\"ph\":\"s\",\"ts\":1000000,\"pid\":0,\"tid\":0"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"ph\":\"f\",\"ts\":1000000,\"pid\":0,\"tid\":5,"
                     "\"bp\":\"e\""),
            std::string::npos)
      << doc;
  // Causal ids ride in the args of the span events themselves.
  EXPECT_NE(doc.find("\"trace\":1,\"span\":3,\"parent\":1"),
            std::string::npos);
}

TEST(TraceSummaryTest, CsvJoinsTreesWithLedgerJoules) {
  Tracer tracer;
  tracer.BeginSpanAt(0.5, "query", Category::kRequest, 0,
                     TraceContext{1, 1, 0});
  Span(tracer, "get", 0.75, 1.0, 1, 2, 1);
  tracer.EndSpanAt(1.5, "query", Category::kRequest, 0,
                   TraceContext{1, 1, 0});
  Span(tracer, "query", 2.0, 2.25, 2, 3, 0);
  TraceLog log = tracer.TakeLog();

  EnergyLedger ledger;
  ledger.rows.push_back(SpanEnergyRow{1, 1, "query", 0, 0.5});
  ledger.rows.push_back(SpanEnergyRow{1, 2, "get", 0, 0.25});
  ledger.rows.push_back(SpanEnergyRow{2, 3, "query", 0, 0.125});

  const std::string csv = RenderTraceSummaryCsv({log}, {ledger});
  const std::string expected =
      "series,trace_id,root,begin_s,latency_s,spans,complete,joules\n"
      "0,1,query,0.5,1,2,1,0.75\n"
      "0,2,query,2,0.25,1,1,0.125\n";
  EXPECT_EQ(csv, expected);

  // No ledger: the joules column degrades to 0 instead of misaligning.
  const std::string no_energy = RenderTraceSummaryCsv({log}, {});
  EXPECT_NE(no_energy.find("0,1,query,0.5,1,2,1,0\n"), std::string::npos);
}

}  // namespace
}  // namespace wimpy::obs
