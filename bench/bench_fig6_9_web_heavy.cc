// Reproduces paper Figures 6 & 9: the heaviest fair workload (20% image
// queries, 93% cache hit ratio — the fraction that half-fills an Edison
// NIC so neither room uplink biases the comparison) across the full scale
// ladder, with cluster power.
//
// Supports multi-seed sweeps: --replications=N runs every
// (concurrency, scale) cell N times with independent seeds on --threads
// workers and reports mean±95% CI (docs/parallel.md).
#include <cstdio>

#include "common/bench_args.h"
#include "web_bench_util.h"

using namespace wimpy;

int main(int argc, char** argv) {
  const bool want_omission = bench::PeelOmissionFlag(&argc, argv);
  const BenchArgs args = ParseBenchArgs(argc, argv);

  std::vector<bench::WebScale> scales = bench::EdisonScales();
  for (const auto& s : bench::DellScales()) scales.push_back(s);
  const std::vector<double> levels = bench::ConcurrencyLevels();

  // Row-major (concurrency, scale) grid, matching the table iteration.
  std::vector<bench::WebCell> cells;
  std::vector<std::string> labels;
  for (const auto& scale : scales) labels.push_back(scale.label);
  for (double conc : levels) {
    for (const auto& scale : scales) {
      cells.push_back({scale, conc, web::HeavyMix()});
    }
  }
  const bench::WebGrid grid = bench::RunWebGrid(cells, args);

  const bench::LadderPeaks peaks = bench::PrintLadderTables(
      grid, scales, levels,
      "Figure 6: requests/sec vs concurrency (20% image, 93% cache) + "
      "cluster power",
      "Figure 9: mean response delay (ms) vs concurrency", "fig6_throughput",
      "fig9_delay");
  if (want_omission) {
    std::printf("\n");
    bench::PrintOmissionTable(
        "Omission annotation: call p99 from dispatch / from connection "
        "arrival (ms)",
        labels, levels, grid.sweep, 0);
    bench::PrintOmissionNote();
  }

  if (peaks.edison.power > 0 && peaks.dell.power > 0 && peaks.dell.rps > 0) {
    const double edison_eff = peaks.edison.rps / peaks.edison.power;
    const double dell_eff = peaks.dell.rps / peaks.dell.power;
    std::printf(
        "\nWork-done-per-joule at peak: Edison %.1f req/J vs Dell %.1f "
        "req/J -> %.2fx (paper: ~3.5x).\n",
        edison_eff, dell_eff, edison_eff / dell_eff);
  }
  std::printf(
      "Paper shapes: overall rps is ~85%% of the lightest workload's; the\n"
      "half Edison cluster can no longer survive 1024 concurrency; Edison\n"
      "drops from slightly ahead of Dell to slightly behind, but the\n"
      "3.5x energy-efficiency edge persists.\n");
  bench::ExportCaptures(args, grid.wants, bench::SweepCaptures(grid.sweep));
  bench::PrintSweepFooter(cells.size(), grid.plan, grid.seconds);
  return 0;
}
