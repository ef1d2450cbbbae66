// Reproduces paper Figures 4 & 7 (plus Table 6): web-service throughput,
// response delay and cluster power versus httperf concurrency under the
// lightest workload (0% image queries, 93% cache hit ratio), across the
// scale ladder of 3/6/12/24 Edison and 1/2 Dell web servers.
//
// Supports multi-seed sweeps: --replications=N runs every
// (concurrency, scale) cell N times with independent seeds on --threads
// workers and reports mean±95% CI (docs/parallel.md).
#include <chrono>
#include <cstdio>

#include "common/bench_args.h"
#include "common/csv.h"
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
};

struct CellResult {
  double rps = 0;
  double error_rate = 0;
  double delay_ms = 0;
  double power = 0;
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
      web::LightMix(), cell.concurrency,
      web::WebExperiment::TunedCallsPerConnection(cell.concurrency),
      bench::WarmupWindow(), bench::MeasureWindowFor(cell.concurrency));
  CellResult res;
  res.rps = r.achieved_rps;
  res.error_rate = r.error_rate;
  res.delay_ms = 1000 * r.mean_response;
  res.power = r.middle_tier_power;
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

  TextTable config("Table 6: Cluster configuration and scale factor");
  config.SetHeader({"Cluster size", "Full", "1/2", "1/4", "1/8"});
  config.AddRow({"# Edison web servers", "24", "12", "6", "3"});
  config.AddRow({"# Edison cache servers", "11", "6", "3", "2"});
  config.AddRow({"# Dell web servers", "2", "1", "N/A", "N/A"});
  config.AddRow({"# Dell cache servers", "1", "1", "N/A", "N/A"});
  config.Print();
  std::printf("\n");

  std::vector<WebScale> scales = bench::EdisonScales();
  for (const auto& s : bench::DellScales()) scales.push_back(s);
  const std::vector<double> levels = bench::ConcurrencyLevels();

  // Row-major (concurrency, scale) grid, matching the table iteration.
  std::vector<Cell> cells;
  for (double conc : levels) {
    for (const auto& scale : scales) cells.push_back({scale, conc});
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

  TextTable rps("Figure 4: requests/sec vs concurrency (0% image, 93% "
                "cache) + cluster power");
  TextTable delay("Figure 7: mean response delay (ms) vs concurrency");
  std::vector<std::string> header{"Concurrency"};
  for (const auto& s : scales) header.push_back(s.label);
  header.push_back("Edison power (24)");
  header.push_back("Dell power (2)");
  // Per-request attributed energy columns ride along when the energy
  // ledger is being filled (--trace-summary).
  const std::size_t base_columns = header.size();
  if (wants.energy) {
    header.push_back("Edison mJ/req (24)");
    header.push_back("Dell mJ/req (2)");
  }
  rps.SetHeader(header);
  delay.SetHeader(std::vector<std::string>(
      header.begin(), header.begin() + (base_columns - 2)));

  int cell_idx = 0;
  for (double conc : levels) {
    std::vector<std::string> rps_row{TextTable::Num(conc, 0)};
    std::vector<std::string> delay_row{TextTable::Num(conc, 0)};
    double edison_power = 0, dell_power = 0;
    double edison_mj = 0, dell_mj = 0;
    for (const auto& scale : scales) {
      const auto& reps = sweep[cell_idx++];
      const MetricSummary rate =
          SummarizeOver(reps, [](const CellResult& r) { return r.rps; });
      const MetricSummary errors =
          SummarizeOver(reps, [](const CellResult& r) { return r.error_rate; });
      const MetricSummary delay_ms =
          SummarizeOver(reps, [](const CellResult& r) { return r.delay_ms; });
      const MetricSummary power =
          SummarizeOver(reps, [](const CellResult& r) { return r.power; });
      std::string cell = FormatMeanCI(rate, 0);
      if (errors.mean > 0.01) {
        cell += " (err " + TextTable::Num(100 * errors.mean, 0) + "%)";
      }
      rps_row.push_back(cell);
      delay_row.push_back(FormatMeanCI(delay_ms, 1));
      if (scale.label == "24 Edison") edison_power = power.mean;
      if (scale.label == "2 Dell") dell_power = power.mean;
      if (wants.energy) {
        const MetricSummary mj = SummarizeOver(
            reps, [](const CellResult& r) { return r.mj_per_req; });
        if (scale.label == "24 Edison") edison_mj = mj.mean;
        if (scale.label == "2 Dell") dell_mj = mj.mean;
      }
    }
    rps_row.push_back(TextTable::Num(edison_power, 1) + " W");
    rps_row.push_back(TextTable::Num(dell_power, 1) + " W");
    if (wants.energy) {
      rps_row.push_back(TextTable::Num(edison_mj, 2));
      rps_row.push_back(TextTable::Num(dell_mj, 2));
    }
    rps.AddRow(rps_row);
    delay.AddRow(delay_row);
  }
  rps.Print();
  MaybeExportCsv(rps, "fig4_throughput");
  std::printf("\n");
  delay.Print();
  MaybeExportCsv(delay, "fig7_delay");

  if (want_omission) {
    TextTable omission(
        "Omission annotation: call p99 from dispatch / from connection "
        "arrival (ms)");
    std::vector<std::string> oh{"Concurrency"};
    for (const auto& s : scales) oh.push_back(s.label);
    omission.SetHeader(oh);
    int idx = 0;
    for (double conc : levels) {
      std::vector<std::string> row{TextTable::Num(conc, 0)};
      for (std::size_t s = 0; s < scales.size(); ++s) {
        const auto& reps = sweep[idx++];
        const MetricSummary d = SummarizeOver(
            reps, [](const CellResult& r) { return r.disp_p99_ms; });
        const MetricSummary in = SummarizeOver(
            reps, [](const CellResult& r) { return r.intended_p99_ms; });
        row.push_back(bench::FormatOmissionCell(d.mean, in.mean));
      }
      omission.AddRow(row);
    }
    std::printf("\n");
    omission.Print();
    bench::PrintOmissionNote();
  }

  std::printf(
      "\nPaper shapes to check: peak rps of 24 Edison ~= 2 Dell; rps\n"
      "scales linearly down the Edison ladder; Edison errors appear\n"
      "beyond 1024 concurrency while Dell survives to 2048 with reduced\n"
      "throughput; Edison cluster power ~56-58 W vs Dell 170-200 W ->\n"
      "~3.5x work-done-per-joule at peak; Edison delay ~5x Dell's at low\n"
      "concurrency but Dell's delay explodes past its knee.\n");
  bench::ExportCaptures(args, wants, bench::SweepCaptures(sweep));
  std::printf(
      "\nSweep: %zu configs x %d replication(s) on %d thread(s) in %.2fs.\n",
      cells.size(), plan.replications, threads, sweep_seconds);
  return 0;
}
