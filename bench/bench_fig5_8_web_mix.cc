// Reproduces paper Figures 5 & 8: throughput and delay on the full
// clusters (24 Edison / 2 Dell web servers) when the workload is heavier —
// cache hit ratio lowered to 77% / 60%, or image queries raised to
// 6% / 10%.
//
// Supports multi-seed sweeps: --replications=N runs every
// (platform, concurrency, mix) cell N times with independent seeds on
// --threads workers and reports mean±95% CI (docs/parallel.md).
#include <cstdio>

#include "common/bench_args.h"
#include "common/table.h"
#include "web_bench_util.h"

using namespace wimpy;

int main(int argc, char** argv) {
  const bool want_omission = bench::PeelOmissionFlag(&argc, argv);
  const BenchArgs args = ParseBenchArgs(argc, argv);

  const std::vector<std::string> labels = {"cache=77%", "cache=60%",
                                           "img=6%", "img=10%"};
  const std::vector<web::WorkloadMix> mixes = {
      web::MixWithCacheRatio(0.77), web::MixWithCacheRatio(0.60),
      web::MixWithImagePercent(0.06), web::MixWithImagePercent(0.10)};
  const std::vector<bench::WebScale> scales = {bench::EdisonScales().back(),
                                               bench::DellScales().back()};
  const std::vector<double> levels = bench::ConcurrencyLevels();

  // Grid in print order: platform, then concurrency, then mix.
  std::vector<bench::WebCell> cells;
  for (const auto& scale : scales) {
    for (double conc : levels) {
      for (const auto& mix : mixes) cells.push_back({scale, conc, mix});
    }
  }
  const bench::WebGrid grid = bench::RunWebGrid(cells, args);

  std::size_t cell_idx = 0;
  for (const auto& scale : scales) {
    const std::size_t scale_base = cell_idx;
    TextTable rps(std::string("Figure 5: requests/sec — ") + scale.label +
                  " web servers");
    TextTable delay(std::string("Figure 8: mean delay (ms) — ") +
                    scale.label + " web servers");
    std::vector<std::string> header{"Concurrency"};
    header.insert(header.end(), labels.begin(), labels.end());
    delay.SetHeader(header);
    // Per-request attributed energy columns (one per mix) ride along
    // when the energy ledger is being filled (--trace-summary).
    if (grid.wants.energy) {
      for (const auto& label : labels) header.push_back(label + " mJ/req");
    }
    rps.SetHeader(header);

    for (double conc : levels) {
      std::vector<std::string> rps_row{TextTable::Num(conc, 0)};
      std::vector<std::string> delay_row{TextTable::Num(conc, 0)};
      std::vector<std::string> mj_cells;
      for (std::size_t i = 0; i < mixes.size(); ++i) {
        const auto& reps = grid.sweep[cell_idx++];
        rps_row.push_back(bench::RpsCell(reps));
        delay_row.push_back(bench::DelayCell(reps));
        if (grid.wants.energy) {
          mj_cells.push_back(TextTable::Num(
              bench::Over(reps, &bench::WebCellResult::mj_per_req).mean, 2));
        }
      }
      for (auto& c : mj_cells) rps_row.push_back(std::move(c));
      rps.AddRow(rps_row);
      delay.AddRow(delay_row);
    }
    rps.Print();
    std::printf("\n");
    delay.Print();
    std::printf("\n");

    if (want_omission) {
      bench::PrintOmissionTable(
          std::string("Omission annotation — ") + scale.label +
              ": call p99 from dispatch / from connection arrival (ms)",
          labels, levels, grid.sweep, scale_base);
      std::printf("\n");
    }
  }
  if (want_omission) bench::PrintOmissionNote();

  std::printf(
      "Paper shapes: peak throughput at 512 concurrency changes little\n"
      "across these mixes, but the 1024-concurrency point drops sharply\n"
      "as image share rises, and delays roughly double even at low\n"
      "concurrency when images are in the mix.\n");
  bench::ExportCaptures(args, grid.wants, bench::SweepCaptures(grid.sweep));
  bench::PrintSweepFooter(cells.size(), grid.plan, grid.seconds);
  return 0;
}
