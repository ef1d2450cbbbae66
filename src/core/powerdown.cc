#include "core/powerdown.h"

#include <algorithm>

namespace wimpy::core {

namespace {

// Energy of `nodes` nodes idling for `time`.
Joules IdleEnergy(const hw::HardwareProfile& profile, int nodes,
                  Duration time) {
  return profile.power.idle * nodes * std::max(0.0, time);
}

Joules TransitionEnergy(const hw::HardwareProfile& profile, int nodes,
                        const PowerDownCosts& costs) {
  return profile.power.busy * costs.transition_power_factor * nodes *
         (costs.wake_time + costs.shutdown_time);
}

}  // namespace

std::vector<StrategyOutcome> EvaluatePowerDown(PaperJob job,
                                               bool edison_cluster,
                                               int total_nodes,
                                               int covering_nodes,
                                               Duration horizon,
                                               PowerDownCosts costs,
                                               PowerDownOptions options) {
  covering_nodes = std::clamp(covering_nodes, 1, total_nodes);
  auto config_for = [&](int nodes) {
    return edison_cluster ? mapreduce::EdisonMrCluster(nodes)
                          : mapreduce::DellMrCluster(nodes);
  };
  // Runs one strategy's job with per-run observability sinks (a fresh
  // testbed registers fresh probes, so the registry must not be shared
  // across strategy runs).
  auto run_strategy = [&](int nodes, StrategyOutcome* outcome) {
    mapreduce::MrClusterConfig config = config_for(nodes);
    if (options.seed != 0) config.seed = options.seed;
    obs::Capture capture(options.capture);
    config.tracer = capture.sinks().tracer;
    config.metrics = capture.sinks().metrics;
    const auto run = RunPaperJob(job, std::move(config));
    outcome->obs = capture.Take();
    return run;
  };
  const hw::HardwareProfile profile =
      config_for(total_nodes).slave_profile;
  const Bytes input =
      SpecFor(job, config_for(total_nodes)).input_bytes;

  std::vector<StrategyOutcome> outcomes;

  // Always-on baseline: full-width run, every node powered all horizon.
  {
    StrategyOutcome outcome;
    const auto run = run_strategy(total_nodes, &outcome);
    outcome.strategy = "always-on";
    outcome.active_nodes = total_nodes;
    outcome.makespan = run.job.elapsed;
    outcome.cluster_joules =
        run.slave_joules +
        IdleEnergy(profile, total_nodes, horizon - run.job.elapsed);
    if (input > 0) {
      outcome.work_done_per_joule =
          static_cast<double>(input) / 1e6 / outcome.cluster_joules;
    }
    outcomes.push_back(outcome);
  }

  // All-In Strategy: wake all, sprint, shut down; zero power otherwise.
  {
    StrategyOutcome outcome;
    const auto run = run_strategy(total_nodes, &outcome);
    outcome.strategy = "all-in (AIS)";
    outcome.active_nodes = total_nodes;
    outcome.makespan =
        costs.wake_time + run.job.elapsed + costs.shutdown_time;
    outcome.cluster_joules =
        run.slave_joules + TransitionEnergy(profile, total_nodes, costs);
    if (input > 0) {
      outcome.work_done_per_joule =
          static_cast<double>(input) / 1e6 / outcome.cluster_joules;
    }
    outcomes.push_back(outcome);
  }

  // Covering Set: wake the covering subset only.
  {
    StrategyOutcome outcome;
    const auto run = run_strategy(covering_nodes, &outcome);
    outcome.strategy = "covering-set (CS)";
    outcome.active_nodes = covering_nodes;
    outcome.makespan =
        costs.wake_time + run.job.elapsed + costs.shutdown_time;
    outcome.cluster_joules =
        run.slave_joules +
        TransitionEnergy(profile, covering_nodes, costs);
    if (input > 0) {
      outcome.work_done_per_joule =
          static_cast<double>(input) / 1e6 / outcome.cluster_joules;
    }
    outcomes.push_back(outcome);
  }

  return outcomes;
}

}  // namespace wimpy::core
