// Cluster power-down strategies from the paper's related work (§2):
//
//   * Covering Set (CS, Leverich & Kozyrakis; Lang & Patel): keep a small
//     replica-covering subset of nodes powered and run the batch work on
//     it, powering the rest off;
//   * All-In Strategy (AIS, Lang & Patel): run the job on the whole
//     cluster as fast as possible, then power everything off.
//
// The paper contrasts these software proportionality techniques with its
// hardware route (micro servers). This module evaluates both strategies on
// simulated clusters using real MapReduce runs at the corresponding
// cluster sizes, charging powered-off nodes nothing and counting
// transition costs.
#ifndef WIMPY_CORE_POWERDOWN_H_
#define WIMPY_CORE_POWERDOWN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiments.h"
#include "obs/capture.h"

namespace wimpy::core {

struct PowerDownCosts {
  // Wake-on-LAN + boot + daemon start, per node.
  Duration wake_time = Seconds(90);
  // Power drawn during wake/shutdown transitions (near busy).
  double transition_power_factor = 0.9;  // of busy power
  Duration shutdown_time = Seconds(30);
};

struct StrategyOutcome {
  std::string strategy;
  int active_nodes = 0;
  Duration makespan = 0;        // job time + transitions
  Joules cluster_joules = 0;    // active nodes + transition energy
  double work_done_per_joule = 0;  // input MB / joules (0 if no input)
  // Observability capture for this strategy's MapReduce run (trace and
  // metrics, as PowerDownOptions asks). Each strategy runs its own
  // testbed, so each outcome keeps its own log.
  obs::Captured obs;
};

struct PowerDownOptions {
  // Seed applied to every strategy's cluster config; 0 keeps the
  // config's built-in default, preserving existing golden outputs.
  std::uint64_t seed = 0;
  obs::TraceMetricsWants capture;
};

// Evaluates one batch job arriving at an idle, fully powered-down cluster
// of `total_nodes`:
//   * AIS wakes everything, runs at full width, shuts down;
//   * CS wakes only `covering_nodes` (>= replication factor's worth of
//     data coverage), runs narrow, shuts down.
// Both are compared to "always-on": the full cluster powered the whole
// `horizon` with the job run at full width.
std::vector<StrategyOutcome> EvaluatePowerDown(
    PaperJob job, bool edison_cluster, int total_nodes, int covering_nodes,
    Duration horizon = Hours(1), PowerDownCosts costs = {},
    PowerDownOptions options = {});

}  // namespace wimpy::core

#endif  // WIMPY_CORE_POWERDOWN_H_
