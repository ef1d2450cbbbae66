// Layer probes: host time of one call into each module's public entry
// points, at the geometry the workload uses (see NOTES.md for the
// metric -> layer -> end-to-end metric table).
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Median of `values` (mean of the middle two for an even count); 0 when
// empty.
double Median(std::vector<double> values);

// Runs every layer probe at `geometry`, each inside its own span.
std::vector<Metric> RunLayerProbes(const ProbeGeometry& geometry,
                                   std::uint64_t seed, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
