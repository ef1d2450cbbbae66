// Reproduces paper §6: the TCO notations (Table 9) and the 3-year
// total-cost-of-ownership comparison (Table 10) between the 35-node Edison
// cluster and the 2-3 node Dell cluster.
#include <cstdio>
#include <string>

#include "common/csv.h"
#include "common/table.h"
#include "core/tco.h"
#include "hw/profiles.h"

int main() {
  using namespace wimpy;
  using core::Compare;
  using core::TcoComparison;
  auto usd = [](double value, int decimals) {
    return std::string("$").append(TextTable::Num(value, decimals));
  };

  const auto edison_params = core::TcoParamsFor(hw::EdisonProfile());
  const auto dell_params = core::TcoParamsFor(hw::DellR620Profile());

  TextTable notations("Table 9: TCO notations and values");
  notations.SetHeader({"Notation", "Description", "Value"});
  notations.AddRow({"Cs,Edison", "Cost of 1 Edison node",
                    usd(edison_params.unit_cost_usd, 0)});
  notations.AddRow({"Cs,Dell", "Cost of 1 Dell server",
                    usd(dell_params.unit_cost_usd, 0)});
  notations.AddRow({"Ceph", "Cost of electricity", "$0.10/kWh"});
  notations.AddRow({"Ts", "Server lifetime", "3 years"});
  notations.AddRow({"Pp,Dell", "Peak power of 1 Dell",
                    TextTable::Num(dell_params.peak_power, 0) + "W"});
  notations.AddRow({"Pp,Edison", "Peak power of 1 Edison",
                    TextTable::Num(edison_params.peak_power, 2) + "W"});
  notations.AddRow({"Pi,Dell", "Idle power of 1 Dell",
                    TextTable::Num(dell_params.idle_power, 0) + "W"});
  notations.AddRow({"Pi,Edison", "Idle power of 1 Edison",
                    TextTable::Num(edison_params.idle_power, 2) + "W"});
  notations.Print();
  std::printf("\n");

  TextTable table("Table 10: 3-year TCO comparison");
  table.SetHeader({"Scenario", "Dell cluster", "Edison cluster",
                   "Savings", "Paper (Dell, Edison)"});
  const char* paper[] = {"($7948.7, $4329.5)", "($8236.8, $4346.1)",
                         "($5348.2, $4352.4)", "($5495.0, $4352.4)"};
  int i = 0;
  double max_savings = 0;
  for (const auto& scenario : core::PaperTable10Scenarios()) {
    const TcoComparison cmp = Compare(scenario);
    table.AddRow({cmp.name, usd(cmp.a_total_usd, 1), usd(cmp.b_total_usd, 1),
                  TextTable::Num(100 * cmp.savings_fraction, 1) + "%",
                  paper[i++]});
    max_savings = std::max(max_savings, cmp.savings_fraction);
  }
  table.Print();
  MaybeExportCsv(table, "table10");
  std::printf(
      "\nHeadline: building on Edison micro servers saves up to %.0f%% of "
      "total cost (paper: 47%%).\n",
      100 * max_savings);
  return 0;
}
