// Reproduces paper Figures 4 & 7 (plus Table 6): web-service throughput,
// response delay and cluster power versus httperf concurrency under the
// lightest workload (0% image queries, 93% cache hit ratio), across the
// scale ladder of 3/6/12/24 Edison and 1/2 Dell web servers.
//
// Supports multi-seed sweeps: --replications=N runs every
// (concurrency, scale) cell N times with independent seeds on --threads
// workers and reports mean±95% CI (docs/parallel.md).
#include <cstdio>

#include "common/bench_args.h"
#include "common/table.h"
#include "web_bench_util.h"

using namespace wimpy;

int main(int argc, char** argv) {
  const bool want_omission = bench::PeelOmissionFlag(&argc, argv);
  const BenchArgs args = ParseBenchArgs(argc, argv);

  TextTable config("Table 6: Cluster configuration and scale factor");
  config.SetHeader({"Cluster size", "Full", "1/2", "1/4", "1/8"});
  config.AddRow({"# Edison web servers", "24", "12", "6", "3"});
  config.AddRow({"# Edison cache servers", "11", "6", "3", "2"});
  config.AddRow({"# Dell web servers", "2", "1", "N/A", "N/A"});
  config.AddRow({"# Dell cache servers", "1", "1", "N/A", "N/A"});
  config.Print();
  std::printf("\n");

  std::vector<bench::WebScale> scales = bench::EdisonScales();
  for (const auto& s : bench::DellScales()) scales.push_back(s);
  const std::vector<double> levels = bench::ConcurrencyLevels();

  // Row-major (concurrency, scale) grid, matching the table iteration.
  std::vector<bench::WebCell> cells;
  std::vector<std::string> labels;
  for (const auto& scale : scales) labels.push_back(scale.label);
  for (double conc : levels) {
    for (const auto& scale : scales) {
      cells.push_back({scale, conc, web::LightMix()});
    }
  }
  const bench::WebGrid grid = bench::RunWebGrid(cells, args);

  bench::PrintLadderTables(
      grid, scales, levels,
      "Figure 4: requests/sec vs concurrency (0% image, 93% cache) + "
      "cluster power",
      "Figure 7: mean response delay (ms) vs concurrency", "fig4_throughput",
      "fig7_delay");
  if (want_omission) {
    std::printf("\n");
    bench::PrintOmissionTable(
        "Omission annotation: call p99 from dispatch / from connection "
        "arrival (ms)",
        labels, levels, grid.sweep, 0);
    bench::PrintOmissionNote();
  }

  std::printf(
      "\nPaper shapes to check: peak rps of 24 Edison ~= 2 Dell; rps\n"
      "scales linearly down the Edison ladder; Edison errors appear\n"
      "beyond 1024 concurrency while Dell survives to 2048 with reduced\n"
      "throughput; Edison cluster power ~56-58 W vs Dell 170-200 W ->\n"
      "~3.5x work-done-per-joule at peak; Edison delay ~5x Dell's at low\n"
      "concurrency but Dell's delay explodes past its knee.\n");
  bench::ExportCaptures(args, grid.wants, bench::SweepCaptures(grid.sweep));
  bench::PrintSweepFooter(cells.size(), grid.plan, grid.seconds);
  return 0;
}
