// Cluster composition: owns server nodes, assigns them to named roles, and
// aggregates power like the paper's measurement rigs (DC supply for the
// Edison boxes, SNMP PDU for the Dell rack).
#ifndef WIMPY_CLUSTER_CLUSTER_H_
#define WIMPY_CLUSTER_CLUSTER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/profile.h"
#include "hw/server_node.h"
#include "net/fabric.h"
#include "sim/scheduler.h"

namespace wimpy::obs {
class MetricsRegistry;
}  // namespace wimpy::obs

namespace wimpy::cluster {

// Columns Cluster::PublishRoleMetrics appends to a registry, in order.
// Readers index a role's series with these; a registry that adds its own
// probes after the role's starts them at kRoleColumns.
enum RoleColumn : std::size_t {
  kRoleCpuPct,
  kRoleMemoryPct,
  kRolePowerW,
  kRoleColumns,
};

class Cluster {
 public:
  Cluster(sim::Scheduler* sched, net::Fabric* fabric);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Creates `count` nodes of `profile`, tags them with `role` (e.g.
  // "web-server", "cache-server", "mr-slave") and places them in
  // `fabric_group` (e.g. "edison-room"). Returns the new nodes.
  std::vector<hw::ServerNode*> AddNodes(const hw::HardwareProfile& profile,
                                        int count, const std::string& role,
                                        const std::string& fabric_group);

  // Nodes in a role, in creation order. Empty vector for unknown roles.
  const std::vector<hw::ServerNode*>& NodesInRole(
      const std::string& role) const;

  std::vector<hw::ServerNode*> AllNodes() const;
  std::size_t size() const { return nodes_.size(); }
  hw::ServerNode* node(int id) const;

  // --- PDU-style aggregate power/energy over a set of roles. -------------
  // Empty `roles` means all nodes.
  Watts TotalWatts(const std::vector<std::string>& roles = {}) const;
  Joules CumulativeJoules(const std::vector<std::string>& roles = {}) const;

  // Mean instantaneous CPU busy fraction across a role.
  double MeanCpuBusy(const std::string& role) const;
  // Mean memory used fraction across a role.
  double MeanMemoryUsed(const std::string& role) const;
  // Mean NIC busy fraction (busier direction) across a role.
  double MeanNicBusy(const std::string& role) const;
  // Mean storage-channel busy fraction across a role.
  double MeanStorageBusy(const std::string& role) const;

  // The paper's psutil view of a role (§5, Figures 12-17): gauges
  // `<role>.cpu_pct` and `<role>.memory_pct` (means across the role, in
  // percent) and `<role>.power_w` (the role's aggregate watts), in
  // RoleColumn order.
  void PublishRoleMetrics(obs::MetricsRegistry* registry,
                          const std::string& role);

  sim::Scheduler& scheduler() { return *sched_; }
  net::Fabric& fabric() { return *fabric_; }

 private:
  std::vector<hw::ServerNode*> SelectRoles(
      const std::vector<std::string>& roles) const;

  sim::Scheduler* sched_;
  net::Fabric* fabric_;
  int next_id_ = 0;
  std::vector<std::unique_ptr<hw::ServerNode>> nodes_;
  std::map<std::string, std::vector<hw::ServerNode*>> roles_;
};

}  // namespace wimpy::cluster

#endif  // WIMPY_CLUSTER_CLUSTER_H_
