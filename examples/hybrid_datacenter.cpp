// The paper's §7 vision, executable: plan a hybrid datacenter that serves
// a latency-SLO-bound web share on brawny nodes and everything else on
// micro servers, then compare TCO and power against the pure fleets.
//
// Usage: ./build/examples/hybrid_datacenter [web_rps] [slo_ms] [mr_gb_day]
#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "core/hybrid.h"
#include "hw/profiles.h"

int main(int argc, char** argv) {
  using namespace wimpy;

  core::WorkloadTarget target;
  target.web_rps = argc > 1 ? std::atof(argv[1]) : 12000;
  target.web_latency_slo =
      Milliseconds(argc > 2 ? std::atof(argv[2]) : 40);
  target.mr_mb_per_day = (argc > 3 ? std::atof(argv[3]) : 800) * 1000.0;

  std::printf(
      "Calibrating node capabilities with probe simulations...\n");
  const core::NodeCapability wimpy_cap =
      core::CalibrateNode(hw::EdisonProfile());
  const core::NodeCapability brawny_cap =
      core::CalibrateNode(hw::DellR620Profile());
  std::printf(
      "  edison: %.0f rps/node (%.1f ms), %.2f MR MB/s/node\n"
      "  dell  : %.0f rps/node (%.1f ms), %.2f MR MB/s/node\n\n",
      wimpy_cap.web_rps_per_node, 1000 * wimpy_cap.web_latency,
      wimpy_cap.mr_mbps_per_node, brawny_cap.web_rps_per_node,
      1000 * brawny_cap.web_latency, brawny_cap.mr_mbps_per_node);

  const auto plans = core::PlanFleet(target, wimpy_cap, brawny_cap);

  char title[160];
  std::snprintf(title, sizeof(title),
                "Fleet plans for %.0f rps (SLO %.0f ms on 30%% of "
                "traffic) + %.0f GB/day MapReduce",
                target.web_rps, 1000 * target.web_latency_slo,
                target.mr_mb_per_day / 1000);
  TextTable table(title);
  table.SetHeader({"Plan", "SLO tier", "Web tier", "Batch tier",
                   "Mean power", "3-yr TCO", "Note"});
  for (const auto& plan : plans) {
    if (!plan.feasible) {
      table.AddRow({plan.name, "-", "-", "-", "-", "-", plan.note});
      continue;
    }
    auto tier = [](int n, const std::string& profile) {
      return std::to_string(n) + " x " + profile;
    };
    table.AddRow({plan.name, tier(plan.latency_nodes, plan.latency_profile),
                  tier(plan.web_nodes, plan.web_profile),
                  tier(plan.batch_nodes, plan.batch_profile),
                  TextTable::Num(plan.mean_power, 0) + " W",
                  std::string("$").append(TextTable::Num(plan.tco_3yr_usd, 0)),
                  ""});
  }
  table.Print();

  std::printf(
      "\nThe hybrid keeps the brawny tier only where the SLO demands it —\n"
      "\"achieving both high performance and low power consumption\" (§7).\n");
  return 0;
}
