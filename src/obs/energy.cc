#include "obs/energy.h"

#include <new>

#include "sim/frame_pool.h"
#include "sim/scheduler.h"

namespace wimpy::obs {

std::function<void(SimTime, Watts)> EnergyAttributor::ObserveNode(
    sim::Scheduler* sched, int node_id, Watts initial_watts) {
  sched_ = sched;
  std::shared_ptr<NodeState>& node = nodes_[node_id];
  if (node == nullptr) node = std::make_shared<NodeState>();
  node->owner = this;
  node->watts = initial_watts;
  node->last = sched->now();
  return [node](SimTime t, Watts w) {
    if (node->owner == nullptr) return;
    node->owner->Accrue(*node, t);
    node->watts = w;
  };
}

EnergyAttributor::~EnergyAttributor() {
  for (auto& [id, node] : nodes_) node->owner = nullptr;
}

void EnergyAttributor::Accrue(NodeState& node, SimTime now) {
  if (now <= node.last) {
    node.last = now;
    return;
  }
  const Joules joules = node.watts * (now - node.last);
  node.last = now;
  ledger_.total_joules += joules;
  if (in_window_) ledger_.window_joules += joules;
  if (node.resident_rows.empty()) {
    ledger_.unattributed_joules += joules;
    return;
  }
  const Joules share = joules / static_cast<double>(node.resident_rows.size());
  for (std::size_t idx : node.resident_rows) {
    ledger_.rows[idx].joules += share;
  }
}

void EnergyAttributor::AccrueAll() {
  if (sched_ == nullptr) return;
  const SimTime now = sched_->now();
  for (auto& [id, node] : nodes_) Accrue(*node, now);
}

void EnergyAttributor::SpanEnter(int node_id, const TraceHandle& handle,
                                 const char* name) {
  if (!handle) return;
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) return;
  NodeState& node = *it->second;
  Accrue(node, handle.sched->now());
  const auto key = std::make_pair(handle.ctx.span_id, node_id);
  auto [row_it, inserted] = row_index_.emplace(key, ledger_.rows.size());
  if (inserted) {
    ledger_.rows.push_back(SpanEnergyRow{handle.ctx.trace_id,
                                         handle.ctx.span_id, name, node_id, 0});
  }
  node.resident_rows.push_back(row_it->second);
}

void EnergyAttributor::SpanLeave(int node_id, const TraceHandle& handle) {
  if (!handle) return;
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) return;
  NodeState& node = *it->second;
  Accrue(node, handle.sched->now());
  auto row_it = row_index_.find(std::make_pair(handle.ctx.span_id, node_id));
  if (row_it == row_index_.end()) return;
  // Erase one occurrence (re-entrant residency enters more than once).
  for (auto r = node.resident_rows.rbegin(); r != node.resident_rows.rend();
       ++r) {
    if (*r == row_it->second) {
      node.resident_rows.erase(std::next(r).base());
      break;
    }
  }
}

void EnergyAttributor::BeginWindow() {
  AccrueAll();
  in_window_ = true;
}

void EnergyAttributor::EndWindow() {
  AccrueAll();
  in_window_ = false;
}

EnergyLedger EnergyAttributor::TakeLedger() {
  AccrueAll();
  EnergyLedger out = std::move(ledger_);
  ledger_ = EnergyLedger{};
  row_index_.clear();
  for (auto& [id, node] : nodes_) node->resident_rows.clear();
  return out;
}

void EnergyAttributor::Detach() {
  AccrueAll();
  for (auto& [id, node] : nodes_) node->owner = nullptr;
  nodes_.clear();
  sched_ = nullptr;
}

void ScopedResidency::Enter(EnergyAttributor* attributor, int node_id,
                            const TraceHandle& handle, const char* name) {
  state_ = ::new (sim::PoolAlloc(sizeof(State)))
      State{attributor, node_id, handle};
  attributor->SpanEnter(node_id, state_->handle, name);
}

void ScopedResidency::Leave() {
  state_->attributor->SpanLeave(state_->node_id, state_->handle);
  sim::PoolFree(state_, sizeof(State));
}

}  // namespace wimpy::obs
