// perfbench: runs one workload for a time budget and streams one
// JSON record per line on stdout (run.py parses, checks and summarises
// them; see NOTES.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-file PATH] [--smoke] [--doctor-digest]
//
// Records, in order:
//   {"kind": "context", ...}                       build facts
//   {"kind": "setup", "seconds": s, "digest": {...}}   one per set-up call
//   {"kind": "rep", "sinks": b, "seconds": s, "digest": {...}}
//   {"kind": "mr_ladder" | "mr_sweep", ...}   traced run: the MR probe
//   {"kind": "metric", "name": n, "value": v, "unit": u}   traced run
//   {"kind": "end", "wall_s": s, "setup_s": s, "peak_rss_mib": m}
// An experiment call that throws is reported as {"kind": ..., "error": msg}.
//
// Untraced (--trace 0) runs do the timed work only. Traced runs repeat it
// with host-time spans around every call, then run the layer probes and
// write the spans to --trace-file.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "probes.h"
#include "ring_count.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Flags {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
  bool smoke = false;
  bool doctor_digest = false;
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH] [--smoke] "
               "[--doctor-digest]\n");
  std::exit(2);
}

Flags Parse(int argc, char** argv) {
  Flags f;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      f.workload = next();
      have_workload = true;
    } else if (arg == "--seed") {
      f.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      f.seconds = std::atof(next().c_str());
    } else if (arg == "--trace") {
      f.trace = next() != "0";
    } else if (arg == "--trace-file") {
      f.trace_file = next();
    } else if (arg == "--smoke") {
      f.smoke = true;
    } else if (arg == "--doctor-digest") {
      f.doctor_digest = true;
    } else {
      Usage();
    }
  }
  if (!have_workload || f.seconds <= 0) Usage();
  return f;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

void Emit(const std::string& record) {
  std::fputs(record.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

// Peak resident set of this process (VmHWM), in MiB; 0 if unavailable.
double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// One timed experiment call. Emits its record and returns the elapsed host
// seconds (negative if the call threw).
template <typename Call>
double Timed(const char* kind, const std::string& extra, Call&& call,
             Digest* digest_out = nullptr) {
  const Clock::time_point t0 = Clock::now();
  try {
    Digest d = call();
    const double s = Since(t0);
    char head[128];
    std::snprintf(head, sizeof(head), "{\"kind\": \"%s\"%s, \"seconds\": %.9f",
                  kind, extra.c_str(), s);
    Emit(std::string(head) + ", \"digest\": " + d.Json() + "}");
    if (digest_out != nullptr) *digest_out = std::move(d);
    return s;
  } catch (const std::exception& e) {
    Emit(std::string("{\"kind\": \"") + kind + "\"" + extra +
         ", \"error\": " + Quoted(e.what()) + "}");
    return -1.0;
  }
}

struct Timings {
  std::vector<double> setup;
  std::vector<double> with_sinks;
  std::vector<double> without_sinks;  // kv traced run only
  std::uint64_t ring_builds = 0;      // during the first replication
  Digest first;                       // first replication's digest
};

void RunSetups(Workload& w, const Flags& flags, SpanLog* spans, Timings* t) {
  SpanLog::Scope phase(spans, "setup", "phase");
  // Several set-up calls, up to a quarter of the budget (at least one,
  // at most 31).
  double total = 0;
  for (int i = 0; i < 31 && (i == 0 || total < flags.seconds / 4); ++i) {
    SpanLog::Scope call(spans, "setup_call", "setup");
    const double s = Timed("setup", "", w.setup);
    if (s < 0) break;
    t->setup.push_back(s);
    total += s;
  }
}

void RunReplications(Workload& w, const Flags& flags, SpanLog* spans,
                     Timings* t) {
  SpanLog::Scope phase(spans, "replications", "phase");
  // The kv traced run alternates sinks on/off for obs.sinks_share.
  const bool alternate = flags.trace && w.replicate_without_sinks != nullptr;
  const int min_reps = alternate ? 4 : 2;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < min_reps || Since(start) < flags.seconds; ++i) {
    const bool sinks = !alternate || i % 2 == 0;
    SpanLog::Scope rep(spans, sinks ? "replication" : "replication_no_sinks",
                       "replication");
    const std::uint64_t rings_before = RingBuilds();
    Digest d;
    const double s = Timed(
        "rep", sinks ? ", \"sinks\": true" : ", \"sinks\": false",
        [&] {
          Digest out = sinks ? w.replicate() : w.replicate_without_sinks();
          // Self-test hook: a doctored digest must count as a failure.
          if (flags.doctor_digest && i == 1 && !out.fields.empty()) {
            out.fields[0].second += 1;
          }
          return out;
        },
        &d);
    if (s < 0) break;
    if (i == 0) {
      t->ring_builds = RingBuilds() - rings_before;
      t->first = std::move(d);
    }
    (sinks ? t->with_sinks : t->without_sinks).push_back(s);
  }
}

std::vector<Metric> TracedMetrics(const Workload& w, const Flags& flags,
                                  SpanLog* spans, const Timings& t,
                                  int nproc) {
  std::vector<Metric> m;
  const Digest& d = t.first;

  // The Table 8 MapReduce ladder: host time per paper job, and the
  // sweep's thread scaling. All three passes must give one digest.
  const MrLadder ladder(flags.seed, flags.smoke);
  std::vector<std::pair<std::string, double>> calls;
  Digest mr;
  double speedup = 0;
  {
    SpanLog::Scope span(spans, "probe/mr.ladder", "probe");
    Timed("mr_ladder", "", [&] { return ladder.Run(&calls); }, &mr);
    const double s1 = Timed("mr_sweep", ", \"threads\": 1",
                            [&] { return ladder.Sweep(1); });
    const double sn =
        Timed("mr_sweep", ", \"threads\": " + std::to_string(nproc),
              [&] { return ladder.Sweep(nproc); });
    if (s1 > 0 && sn > 0) speedup = s1 / sn;
  }

  for (Metric& p : RunLayerProbes(w.probes, flags.seed, spans)) {
    m.push_back(std::move(p));
  }

  const double wall = Median(t.with_sinks);
  const double setup = Median(t.setup);
  const double events = d.Get("sim.events");
  m.push_back(
      {"shard.ring_builds", static_cast<double>(t.ring_builds), "count"});
  m.push_back({"sim.events", events, "count"});
  m.push_back({"sim.host_ns_per_event",
               events > 0 ? 1e9 * (wall - setup) / events : 0.0, "ns"});
  m.push_back({"sim.sweep_speedup", speedup, "x"});
  m.push_back({"web.served_per_s", d.Get("web.served_per_s"), "1/sim_s"});
  m.push_back({"web.error_rate", d.Get("web.error_rate"), "ratio"});
  m.push_back({"web.cache_delay_ms", d.Get("web.cache_delay_ms"), "sim_ms"});
  m.push_back({"web.db_delay_ms", d.Get("web.db_delay_ms"), "sim_ms"});
  m.push_back({"kv.goodput_qps", d.Get("kv.goodput_qps"), "1/sim_s"});
  m.push_back({"kv.p99_intended_ms", d.Get("kv.p99_intended_ms"), "sim_ms"});
  m.push_back(
      {"kv.slo_good_fraction", d.Get("kv.slo_good_fraction"), "ratio"});
  m.push_back({"kv.queries_per_joule", d.Get("kv.queries_per_joule"), "1/J"});
  m.push_back({"shard.migration_shards", d.Get("shard.migration_shards"),
               "count"});
  m.push_back({"net.max_uplink_busy", d.Get("net.max_uplink_busy"), "ratio"});
  double sinks_share = 0;
  if (!t.without_sinks.empty() && wall > 0) {
    sinks_share = (wall - Median(t.without_sinks)) / wall;
  }
  m.push_back({"obs.sinks_share", sinks_share, "ratio"});
  for (const std::string& job : MrLadder::JobNames()) {
    double ms = 0;  // 0 for a job the (smoke) ladder skips
    for (const auto& [name, seconds] : calls) {
      if (name == job) ms += 1000 * seconds;
    }
    m.push_back({"mr." + job + ".host_ms", ms, "ms"});
  }
  m.push_back({"mr.sim_runtime_s", mr.Get("mr.sim_runtime_s"), "sim_s"});
  return m;
}

int Main(int argc, char** argv) {
  const Flags flags = Parse(argc, argv);
  Workload w;
  if (!MakeWorkload(flags.workload, flags.seed, flags.smoke, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 flags.workload.c_str());
    return 2;
  }
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  Emit("{\"kind\": \"context\", \"build_type\": " + Quoted(build_type) +
       ", \"ndebug\": " + (ndebug ? "true" : "false") +
       ", \"compiler\": " + Quoted(__VERSION__) +
       ", \"nproc\": " + std::to_string(nproc) + "}");

  SpanLog spans(flags.trace);
  const Clock::time_point start = Clock::now();
  Timings t;
  std::vector<Metric> metrics;
  double peak_rss = 0;
  {
    SpanLog::Scope run(&spans, "run/" + w.name, "run");
    RunSetups(w, flags, &spans, &t);
    RunReplications(w, flags, &spans, &t);
    // Before the traced run's probes add their own testbeds.
    peak_rss = PeakRssMib();
    if (flags.trace) metrics = TracedMetrics(w, flags, &spans, t, nproc);
  }
  if (flags.trace) {
    metrics.push_back({"obs.trace_overhead_pct",
                       100 * spans.overhead_seconds() / Since(start), "%"});
    for (const Metric& m : metrics) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", m.value);
      Emit("{\"kind\": \"metric\", \"name\": " + Quoted(m.name) +
           ", \"value\": " + value + ", \"unit\": " + Quoted(m.unit) + "}");
    }
    if (!flags.trace_file.empty()) {
      const std::string other = "{\"workload\": " + Quoted(w.name) +
                                ", \"seed\": " + std::to_string(flags.seed) +
                                ", \"build_type\": " + Quoted(build_type) +
                                ", \"nproc\": " + std::to_string(nproc) + "}";
      if (!spans.WriteChromeTrace(flags.trace_file, other)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     flags.trace_file.c_str());
        return 1;
      }
    }
  }
  char end[160];
  std::snprintf(end, sizeof(end),
                "{\"kind\": \"end\", \"wall_s\": %.9f, \"setup_s\": %.9f, "
                "\"peak_rss_mib\": %.6f}",
                Median(t.with_sinks), Median(t.setup), peak_rss);
  Emit(end);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
