// The benchmark's workloads, driven through the library's public
// experiment entry points (web::WebExperiment, shard::ShardExperiment),
// and the Table 8 MapReduce ladder (core::RunPaperJob) that the traced
// runs time as a probe. See NOTES.md for why each one was chosen.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.h"

namespace perfbench {

// Simulated outputs of one experiment call, in a fixed order. Every value is
// a pure function of the workload and the seed, so two calls with the
// same seed must give identical digests (checked by run.py). Field names
// that are also per-layer metric names (e.g. "sim.events") are reported
// as those metrics.
struct Digest {
  std::vector<std::pair<std::string, double>> fields;

  void Add(std::string name, double value) {
    fields.emplace_back(std::move(name), value);
  }
  // 0 when absent.
  double Get(const std::string& name) const;
  // {"name": value, ...} with every digit (%.17g).
  std::string Json() const;
};

// Probe geometry: what shape each layer probe takes on this workload.
struct ProbeGeometry {
  int ring_members = 110;  // the web tier's cache ring
  int ring_replication = 1;
  bool hierarchical_fabric = false;  // kv's rack/agg/core fabric
};

struct Workload {
  std::string name;
  // One timed replication: the whole experiment call (set-up included).
  std::function<Digest()> replicate;
  // The same experiment call with (almost) no simulated work: what it costs
  // to build the testbed.
  std::function<Digest()> setup;
  // kv only: the replication with every observability sink off (same
  // digest; wall difference = obs.sinks_share). Null elsewhere.
  std::function<Digest()> replicate_without_sinks;
  ProbeGeometry probes;
};

// `smoke` shrinks every geometry (web 10k, 12-node shard tier) for the
// self-test. Returns false on an unknown name.
bool MakeWorkload(const std::string& name, std::uint64_t seed, bool smoke,
                  Workload* out);

// Table 8: the six paper jobs on 35/17/8/4 Edison and 2/1 Dell slaves, one
// core::RunPaperJob call per cell (one cell when `smoke`). Its digest is
// the same through Run and through Sweep at any thread count.
class MrLadder {
 public:
  MrLadder(std::uint64_t seed, bool smoke);

  // Runs the cells in order; appends (paper job, host seconds) per call.
  Digest Run(std::vector<std::pair<std::string, double>>* call_seconds) const;
  // The same cells through sim::RunSweep on `threads` workers.
  Digest Sweep(int threads) const;

  // The six paper jobs' names, in Table 8 order.
  static std::vector<std::string> JobNames();

 private:
  struct Cell {
    wimpy::core::PaperJob job;
    bool edison;
    int slaves;
  };
  std::uint64_t seed_;
  std::vector<Cell> cells_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
