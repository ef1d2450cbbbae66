// Run any of the paper's MapReduce jobs on a cluster you choose, and get
// the per-second telemetry timeline the paper plots in Figures 12-17.
//
// Usage:  ./build/examples/mapreduce_cluster [job] [platform] [slaves]
//   job:      wordcount|wordcount2|logcount|logcount2|pi|terasort
//   platform: edison|dell
//   slaves:   number of slave nodes (default 8 edison / 2 dell)
#include <cstdio>
#include <cstring>
#include <span>
#include <string>

#include "cluster/cluster.h"
#include "core/experiments.h"

namespace {

using namespace wimpy;

core::PaperJob ParseJob(const std::string& name) {
  for (core::PaperJob job : core::AllPaperJobs()) {
    if (core::PaperJobName(job) == name) return job;
  }
  std::fprintf(stderr, "unknown job '%s', using wordcount2\n",
               name.c_str());
  return core::PaperJob::kWordCount2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string job_name = argc > 1 ? argv[1] : "wordcount2";
  const std::string platform = argc > 2 ? argv[2] : "edison";
  const bool edison = platform != "dell";
  const int slaves =
      argc > 3 ? std::atoi(argv[3]) : (edison ? 8 : 2);

  const core::PaperJob job = ParseJob(job_name);
  const auto config = edison ? mapreduce::EdisonMrCluster(slaves)
                             : mapreduce::DellMrCluster(slaves);
  std::printf("Running %s on %d %s slave(s)...\n", job_name.c_str(), slaves,
              edison ? "Edison" : "Dell R620");
  const mapreduce::MrRunResult result = core::RunPaperJob(job, config);

  std::printf(
      "\nfinished in %.0f s; slave energy %.0f J (mean %.1f W); %d map / "
      "%d reduce tasks; %.0f%% data-local; %.3f MB input per joule\n\n",
      result.job.elapsed, result.slave_joules, result.mean_slave_power,
      result.job.map_tasks, result.job.reduce_tasks,
      100 * result.job.data_local_fraction, result.work_done_per_joule);

  std::printf("%8s %8s %8s %10s %8s %8s\n", "t(s)", "CPU%", "Mem%",
              "Power(W)", "Map%", "Reduce%");
  const obs::MetricsSeries& timeline = result.timeline;
  const std::size_t stride =
      std::max<std::size_t>(1, timeline.row_count() / 30);
  for (std::size_t i = 0; i < timeline.row_count(); i += stride) {
    const std::span<const double> s = timeline.row(i);
    std::printf("%8.0f %8.1f %8.1f %10.1f %8.1f %8.1f\n", timeline.times[i],
                s[cluster::kRoleCpuPct], s[cluster::kRoleMemoryPct],
                s[cluster::kRolePowerW], s[mapreduce::kTimelineMapPct],
                s[mapreduce::kTimelineReducePct]);
  }
  return 0;
}
