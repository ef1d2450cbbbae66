// Reproduces paper Figures 5 & 8: throughput and delay on the full
// clusters (24 Edison / 2 Dell web servers) when the workload is heavier —
// cache hit ratio lowered to 77% / 60%, or image queries raised to
// 6% / 10%.
//
// Supports multi-seed sweeps: --replications=N runs every
// (platform, concurrency, mix) cell N times with independent seeds on
// --threads workers and reports mean±95% CI (docs/parallel.md).
#include <chrono>
#include <cstdio>

#include "common/bench_args.h"
#include "common/summary.h"
#include "common/table.h"
#include "obs_bench_util.h"
#include "sim/replication.h"
#include "web_bench_util.h"

namespace {

using namespace wimpy;
using bench::WebScale;

struct Cell {
  WebScale scale;
  double concurrency = 0;
  web::WorkloadMix mix;
};

struct CellResult {
  double rps = 0;
  double error_rate = 0;
  double delay_ms = 0;
  double mj_per_req = 0;  // attributed, from the energy ledger
  double disp_p99_ms = 0;      // p99, service start -> completion
  double intended_p99_ms = 0;  // p99, connection intended -> completion
  obs::Captured obs;
};

CellResult RunCell(const Cell& cell, Rng& root,
                   const obs::CaptureWants& wants) {
  web::WebTestbedConfig cfg =
      cell.scale.edison
          ? web::EdisonWebTestbed(cell.scale.web_servers,
                                  cell.scale.cache_servers)
          : web::DellWebTestbed(cell.scale.web_servers,
                                cell.scale.cache_servers);
  cfg.seed = root.Next();
  obs::Capture capture(wants);
  capture.AttachTo(cfg);
  web::WebExperiment exp(std::move(cfg));
  const web::LevelReport r = exp.MeasureClosedLoop(
      cell.mix, cell.concurrency,
      web::WebExperiment::TunedCallsPerConnection(cell.concurrency),
      bench::WarmupWindow(), bench::MeasureWindowFor(cell.concurrency));
  CellResult res;
  res.rps = r.achieved_rps;
  res.error_rate = r.error_rate;
  res.delay_ms = 1000 * r.mean_response;
  res.disp_p99_ms = 1000 * r.p99_dispatch;
  res.intended_p99_ms = 1000 * r.p99_conn_intended;
  res.obs = capture.Take();
  res.mj_per_req = bench::MeanRequestMillijoules(res.obs.ledger);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bool want_omission = bench::PeelOmissionFlag(&argc, argv);
  const BenchArgs args = ParseBenchArgs(argc, argv);
  const int threads = ResolvedThreads(args);

  struct MixCase {
    std::string label;
    web::WorkloadMix mix;
  };
  const std::vector<MixCase> cases = {
      {"cache=77%", web::MixWithCacheRatio(0.77)},
      {"cache=60%", web::MixWithCacheRatio(0.60)},
      {"img=6%", web::MixWithImagePercent(0.06)},
      {"img=10%", web::MixWithImagePercent(0.10)},
  };
  const std::vector<WebScale> scales = {bench::EdisonScales().back(),
                                        bench::DellScales().back()};
  const std::vector<double> levels = bench::ConcurrencyLevels();

  // Grid in print order: platform, then concurrency, then mix.
  std::vector<Cell> cells;
  for (const auto& scale : scales) {
    for (double conc : levels) {
      for (const auto& c : cases) cells.push_back({scale, conc, c.mix});
    }
  }

  const sim::SweepPlan plan{args.replications, threads, args.seed};
  const obs::CaptureWants wants =
      bench::CaptureWantsFor(args, /*energy=*/true);
  const auto t0 = std::chrono::steady_clock::now();
  auto sweep =
      sim::RunSweep(cells, plan, [&](const Cell& cell, Rng& root) {
        return RunCell(cell, root, wants);
      });
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  int cell_idx = 0;
  for (const auto& scale : scales) {
    const int scale_base = cell_idx;
    TextTable rps(std::string("Figure 5: requests/sec — ") + scale.label +
                  " web servers");
    TextTable delay(std::string("Figure 8: mean delay (ms) — ") +
                    scale.label + " web servers");
    std::vector<std::string> header{"Concurrency"};
    for (const auto& c : cases) header.push_back(c.label);
    delay.SetHeader(header);
    // Per-request attributed energy columns (one per mix) ride along
    // when the energy ledger is being filled (--trace-summary).
    if (wants.energy) {
      for (const auto& c : cases) header.push_back(c.label + " mJ/req");
    }
    rps.SetHeader(header);

    for (double conc : levels) {
      std::vector<std::string> rps_row{TextTable::Num(conc, 0)};
      std::vector<std::string> delay_row{TextTable::Num(conc, 0)};
      std::vector<std::string> mj_cells;
      for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto& reps = sweep[cell_idx++];
        const MetricSummary rate =
            SummarizeOver(reps, [](const CellResult& r) { return r.rps; });
        const MetricSummary errors = SummarizeOver(
            reps, [](const CellResult& r) { return r.error_rate; });
        const MetricSummary delay_ms = SummarizeOver(
            reps, [](const CellResult& r) { return r.delay_ms; });
        std::string cell = FormatMeanCI(rate, 0);
        if (errors.mean > 0.01) {
          cell += " (err " + TextTable::Num(100 * errors.mean, 0) + "%)";
        }
        rps_row.push_back(cell);
        delay_row.push_back(FormatMeanCI(delay_ms, 1));
        if (wants.energy) {
          const MetricSummary mj = SummarizeOver(
              reps, [](const CellResult& r) { return r.mj_per_req; });
          mj_cells.push_back(TextTable::Num(mj.mean, 2));
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
      TextTable omission(
          std::string("Omission annotation — ") + scale.label +
          ": call p99 from dispatch / from connection arrival (ms)");
      std::vector<std::string> oh{"Concurrency"};
      for (const auto& c : cases) oh.push_back(c.label);
      omission.SetHeader(oh);
      int idx = scale_base;
      for (double conc : levels) {
        std::vector<std::string> row{TextTable::Num(conc, 0)};
        for (std::size_t i = 0; i < cases.size(); ++i) {
          const auto& reps = sweep[idx++];
          const MetricSummary d = SummarizeOver(
              reps, [](const CellResult& r) { return r.disp_p99_ms; });
          const MetricSummary in = SummarizeOver(
              reps, [](const CellResult& r) { return r.intended_p99_ms; });
          row.push_back(bench::FormatOmissionCell(d.mean, in.mean));
        }
        omission.AddRow(row);
      }
      omission.Print();
      std::printf("\n");
    }
  }
  if (want_omission) bench::PrintOmissionNote();

  std::printf(
      "Paper shapes: peak throughput at 512 concurrency changes little\n"
      "across these mixes, but the 1024-concurrency point drops sharply\n"
      "as image share rises, and delays roughly double even at low\n"
      "concurrency when images are in the mix.\n");
  bench::ExportCaptures(args, wants, bench::SweepCaptures(sweep));
  std::printf(
      "\nSweep: %zu configs x %d replication(s) on %d thread(s) in %.2fs.\n",
      cells.size(), plan.replications, threads, sweep_seconds);
  return 0;
}
