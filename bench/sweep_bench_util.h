// The timed replication sweep every sweep bench runs: sim::RunSweep under
// a host-clock stopwatch, the footer line that reports it, and the
// mean±CI of one result field across replications (docs/parallel.md).
#ifndef WIMPY_BENCH_SWEEP_BENCH_UTIL_H_
#define WIMPY_BENCH_SWEEP_BENCH_UTIL_H_

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/summary.h"
#include "sim/replication.h"

namespace wimpy::bench {

// A sweep's [config][replication] results and the host seconds it took.
template <typename Results>
struct Timed {
  Results results;
  double seconds = 0;
};

template <typename Config, typename Fn>
auto TimedSweep(const std::vector<Config>& cells, const sim::SweepPlan& plan,
                Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  auto results = sim::RunSweep(cells, plan, std::forward<Fn>(fn));
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  return Timed<decltype(results)>{std::move(results), elapsed.count()};
}

// Summarizes one double field of a cell's replications.
template <typename Result>
MetricSummary Over(const std::vector<Result>& reps, double Result::*member) {
  return SummarizeOver(reps, [member](const Result& r) { return r.*member; });
}

// The line that closes every sweep bench's report: the only stdout line
// that varies from run to run.
inline void PrintSweepFooter(std::size_t configs, const sim::SweepPlan& plan,
                             double seconds) {
  std::printf(
      "\nSweep: %zu configs x %d replication(s) on %d thread(s) in %.2fs.\n",
      configs, plan.replications, plan.threads, seconds);
}

}  // namespace wimpy::bench

#endif  // WIMPY_BENCH_SWEEP_BENCH_UTIL_H_
