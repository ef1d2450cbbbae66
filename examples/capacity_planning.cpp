// Capacity planning & TCO for *your own* hardware: register a custom
// profile, compute how many such nodes replace a Dell R620, and compare
// 3-year TCO — the paper's §3.1/§6 methodology generalised.
//
// Build & run:  ./build/examples/capacity_planning
#include <cstdio>

#include "common/table.h"
#include "core/capacity.h"
#include "core/tco.h"
#include "hw/profiles.h"

int main() {
  using namespace wimpy;

  // A hypothetical next-generation micro server: 4 faster cores, 2 GB RAM,
  // gigabit NIC, still under 3 W.
  hw::HardwareProfile micro = hw::EdisonProfile();
  micro.name = "micro-ng";
  micro.cpu.cores = 4;
  micro.cpu.clock_hz = 1.0e9;
  micro.cpu.dmips_per_thread = 2200;
  micro.memory.total = GB(2);
  micro.memory.peak_bandwidth = GBps(6);
  micro.nic.bandwidth = Gbps(1);
  micro.nic.endpoint_latency = Milliseconds(0.2);
  micro.power.idle = 1.1;
  micro.power.busy = 2.9;
  micro.power.constant_adapter = 0;
  micro.unit_cost_usd = 95;
  hw::ProfileRegistry::Register(micro);

  const auto dell = hw::DellR620Profile();

  TextTable table("Replacement ratios vs Dell R620");
  table.SetHeader({"Profile", "CPU (nameplate)", "CPU (measured)", "RAM",
                   "NIC", "Nodes/Dell"});
  for (const std::string name : {"edison", "micro-ng", "raspberry-pi-2"}) {
    const auto profile = hw::ProfileRegistry::Get(name);
    if (!profile.ok()) continue;
    const auto r = core::ComputeReplacement(*profile, dell);
    table.AddRow({name, TextTable::Ratio(r.by_cpu_nameplate, 1),
                  TextTable::Ratio(r.by_cpu_measured, 1),
                  TextTable::Ratio(r.by_memory, 1),
                  TextTable::Ratio(r.by_nic, 1),
                  std::to_string(r.nodes_to_replace_one)});
  }
  table.Print();

  // TCO of a nameplate-equivalent fleet at 75% utilisation.
  TextTable tco("3-year TCO of a fleet replacing 3 Dell R620 (75% util)");
  tco.SetHeader({"Deployment", "Nodes", "TCO"});
  const auto dell_params = core::TcoParamsFor(dell);
  tco.AddRow({"Dell R620", "3",
              std::string("$").append(
                  TextTable::Num(core::TcoUsd(dell_params, 3, 0.75), 0))});
  for (const std::string name : {"edison", "micro-ng"}) {
    const auto profile = hw::ProfileRegistry::Get(name);
    const auto r = core::ComputeReplacement(*profile, dell);
    const int nodes = 3 * r.nodes_to_replace_one;
    const auto params = core::TcoParamsFor(*profile);
    tco.AddRow({name, std::to_string(nodes),
                std::string("$").append(
                    TextTable::Num(core::TcoUsd(params, nodes, 0.75), 0))});
  }
  tco.Print();
  return 0;
}
