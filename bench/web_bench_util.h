// Shared helpers for the web-service bench binaries (Figures 4-11,
// Table 7): the paper's scale ladder and concurrency levels, and the
// closed-loop grid Figures 4-9 sweep with its table printers.
#ifndef WIMPY_BENCH_WEB_BENCH_UTIL_H_
#define WIMPY_BENCH_WEB_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "common/bench_args.h"
#include "common/csv.h"
#include "common/summary.h"
#include "common/table.h"
#include "obs_bench_util.h"
#include "sweep_bench_util.h"
#include "web/service.h"

namespace wimpy::bench {

// Table 6 scale ladder.
struct WebScale {
  std::string label;
  bool edison;
  int web_servers;
  int cache_servers;
};

inline std::vector<WebScale> EdisonScales() {
  return {{"3 Edison", true, 3, 2},
          {"6 Edison", true, 6, 3},
          {"12 Edison", true, 12, 6},
          {"24 Edison", true, 24, 11}};
}

inline std::vector<WebScale> DellScales() {
  return {{"1 Dell", false, 1, 1}, {"2 Dell", false, 2, 1}};
}

// The paper's httperf x-axis.
inline std::vector<double> ConcurrencyLevels() {
  return {8, 16, 32, 64, 128, 256, 512, 1024, 2048};
}

// The testbed a rung of the ladder stands for.
inline web::WebTestbedConfig TestbedFor(const WebScale& scale) {
  return scale.edison
             ? web::EdisonWebTestbed(scale.web_servers, scale.cache_servers)
             : web::DellWebTestbed(scale.web_servers, scale.cache_servers);
}

// Measurement windows: short by default so the whole bench suite stays
// fast; set WIMPY_FULL=1 for paper-length (3 minute) runs.
inline Duration MeasureWindow() {
  const char* full = std::getenv("WIMPY_FULL");
  return (full != nullptr && full[0] == '1') ? Seconds(180) : Seconds(8);
}
inline Duration WarmupWindow() {
  const char* full = std::getenv("WIMPY_FULL");
  return (full != nullptr && full[0] == '1') ? Seconds(20) : Seconds(2);
}

// High-concurrency levels need windows longer than TIME_WAIT (30 s) for
// connection-churn port exhaustion — the Dell cluster's failure mode — to
// reach steady state; short windows would understate it.
inline Duration MeasureWindowFor(double concurrency) {
  const Duration base = MeasureWindow();
  if (concurrency >= 1024 && base < Seconds(45)) return Seconds(45);
  return base;
}

// -- The closed-loop grid of Figures 4-9 -------------------------------
//
// One cell is one httperf closed loop: a scale, a concurrency and a
// workload mix. Each bench lists its cells in print order. RunSweep seeds
// every cell from its index, so that order is part of the output.
struct WebCell {
  WebScale scale;
  double concurrency = 0;
  web::WorkloadMix mix;
};

struct WebCellResult {
  double rps = 0;
  double error_rate = 0;
  double delay_ms = 0;
  double power = 0;
  double mj_per_req = 0;       // attributed, from the energy ledger
  double disp_p99_ms = 0;      // p99, service start -> completion
  double intended_p99_ms = 0;  // p99, connection intended -> completion
  obs::Captured obs;
};

using WebSweep = std::vector<std::vector<WebCellResult>>;

// A finished grid: its plan, the sinks its flags asked for (energy on, so
// --trace-summary adds the mJ/req columns), and the timed sweep.
struct WebGrid {
  sim::SweepPlan plan;
  obs::CaptureWants wants;
  WebSweep sweep;
  double seconds = 0;
};

inline WebGrid RunWebGrid(const std::vector<WebCell>& cells,
                          const BenchArgs& args) {
  const sim::SweepPlan plan{args.replications, ResolvedThreads(args),
                            args.seed};
  const obs::CaptureWants wants = CaptureWantsFor(args, /*energy=*/true);
  auto [sweep, seconds] =
      TimedSweep(cells, plan, [&](const WebCell& cell, Rng& root) {
        web::WebTestbedConfig cfg = TestbedFor(cell.scale);
        cfg.seed = root.Next();
        obs::Capture capture(wants);
        capture.AttachTo(cfg);
        web::WebExperiment exp(std::move(cfg));
        const web::LevelReport r = exp.MeasureClosedLoop(
            cell.mix, cell.concurrency,
            web::WebExperiment::TunedCallsPerConnection(cell.concurrency),
            WarmupWindow(), MeasureWindowFor(cell.concurrency));
        WebCellResult res;
        res.rps = r.achieved_rps;
        res.error_rate = r.error_rate;
        res.delay_ms = 1000 * r.mean_response;
        res.power = r.middle_tier_power;
        res.disp_p99_ms = 1000 * r.p99_dispatch;
        res.intended_p99_ms = 1000 * r.p99_conn_intended;
        res.obs = capture.Take();
        res.mj_per_req = MeanRequestMillijoules(res.obs.ledger);
        return res;
      });
  return {plan, wants, std::move(sweep), seconds};
}

// Mean rps with its CI, flagged with the error rate past 1% errors.
inline std::string RpsCell(const std::vector<WebCellResult>& reps) {
  std::string cell = FormatMeanCI(Over(reps, &WebCellResult::rps), 0);
  const double errors = Over(reps, &WebCellResult::error_rate).mean;
  if (errors > 0.01) {
    cell.append(" (err ").append(TextTable::Num(100 * errors, 0)).append("%)");
  }
  return cell;
}

inline std::string DelayCell(const std::vector<WebCellResult>& reps) {
  return FormatMeanCI(Over(reps, &WebCellResult::delay_ms), 1);
}

// The error-free peak rps of one platform's full cluster, and its power.
struct PeakPoint {
  double rps = 0;
  double power = 0;
};
struct LadderPeaks {
  PeakPoint edison;  // 24 Edison
  PeakPoint dell;    // 2 Dell
};

// Prints the Figure 4/7 or 6/9 pair for a (concurrency, scale) row-major
// grid: rps with the full clusters' power (and their mJ/req when the
// energy ledger is on), then mean delay, each exported under its CSV name.
inline LadderPeaks PrintLadderTables(const WebGrid& grid,
                                     const std::vector<WebScale>& scales,
                                     const std::vector<double>& levels,
                                     const std::string& rps_title,
                                     const std::string& delay_title,
                                     const char* rps_csv,
                                     const char* delay_csv) {
  TextTable rps(rps_title);
  TextTable delay(delay_title);
  std::vector<std::string> header{"Concurrency"};
  for (const WebScale& s : scales) header.push_back(s.label);
  delay.SetHeader(header);
  header.push_back("Edison power (24)");
  header.push_back("Dell power (2)");
  if (grid.wants.energy) {
    header.push_back("Edison mJ/req (24)");
    header.push_back("Dell mJ/req (2)");
  }
  rps.SetHeader(header);

  LadderPeaks peaks;
  std::size_t idx = 0;
  for (double conc : levels) {
    std::vector<std::string> rps_row{TextTable::Num(conc, 0)};
    std::vector<std::string> delay_row{TextTable::Num(conc, 0)};
    double edison_power = 0, dell_power = 0;
    double edison_mj = 0, dell_mj = 0;
    for (const WebScale& scale : scales) {
      const std::vector<WebCellResult>& reps = grid.sweep[idx++];
      rps_row.push_back(RpsCell(reps));
      delay_row.push_back(DelayCell(reps));
      const bool edison = scale.label == "24 Edison";
      if (!edison && scale.label != "2 Dell") continue;
      const double power = Over(reps, &WebCellResult::power).mean;
      (edison ? edison_power : dell_power) = power;
      if (grid.wants.energy) {
        (edison ? edison_mj : dell_mj) =
            Over(reps, &WebCellResult::mj_per_req).mean;
      }
      const double rate = Over(reps, &WebCellResult::rps).mean;
      PeakPoint& peak = edison ? peaks.edison : peaks.dell;
      if (Over(reps, &WebCellResult::error_rate).mean <= 0.01 &&
          rate > peak.rps) {
        peak = {rate, power};
      }
    }
    rps_row.push_back(TextTable::Num(edison_power, 1) + " W");
    rps_row.push_back(TextTable::Num(dell_power, 1) + " W");
    if (grid.wants.energy) {
      rps_row.push_back(TextTable::Num(edison_mj, 2));
      rps_row.push_back(TextTable::Num(dell_mj, 2));
    }
    rps.AddRow(rps_row);
    delay.AddRow(delay_row);
  }
  rps.Print();
  MaybeExportCsv(rps, rps_csv);
  std::printf("\n");
  delay.Print();
  MaybeExportCsv(delay, delay_csv);
  return peaks;
}

// -- Coordinated-omission annotation (docs/openloop.md) ----------------
//
// The closed-loop Figure 4-9 benches can append tables comparing the
// same completed calls' p99 measured two ways: from service start
// (dispatch) and from the connection's intended Poisson arrival. The
// flag is peeled from argv before ParseBenchArgs — which exits(2) on
// anything it does not recognise — so the shared sweep flags keep
// working and default output stays byte-identical.
inline bool PeelOmissionFlag(int* argc, char** argv) {
  bool found = false;
  int w = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::string_view(argv[i]) == "--omission") {
      found = true;
      continue;
    }
    argv[w++] = argv[i];
  }
  *argc = w;
  return found;
}

// One row per concurrency level and one "dispatch / intended" p99 cell
// per column, read from the sweep in order from cell `first`.
inline void PrintOmissionTable(const std::string& title,
                               const std::vector<std::string>& columns,
                               const std::vector<double>& levels,
                               const WebSweep& sweep, std::size_t first) {
  TextTable table(title);
  std::vector<std::string> header{"Concurrency"};
  header.insert(header.end(), columns.begin(), columns.end());
  table.SetHeader(header);
  for (double conc : levels) {
    std::vector<std::string> row{TextTable::Num(conc, 0)};
    for (std::size_t i = 0; i < columns.size(); ++i) {
      const std::vector<WebCellResult>& reps = sweep[first++];
      row.push_back(
          TextTable::Num(Over(reps, &WebCellResult::disp_p99_ms).mean, 1) +
          " / " +
          TextTable::Num(Over(reps, &WebCellResult::intended_p99_ms).mean, 1));
    }
    table.AddRow(row);
  }
  table.Print();
}

inline void PrintOmissionNote() {
  std::printf(
      "Cells: p99 (ms) of the same completed calls measured from service\n"
      "start / from the connection's intended arrival. A growing gap is\n"
      "coordinated omission — the closed-loop driver stops offering load\n"
      "while it waits, so dispatch-relative tails understate what an\n"
      "open-loop client would see (bench_slo_openloop, docs/openloop.md).\n");
}

}  // namespace wimpy::bench

#endif  // WIMPY_BENCH_WEB_BENCH_UTIL_H_
