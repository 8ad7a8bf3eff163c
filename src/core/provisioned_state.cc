#include "core/provisioned_state.h"

namespace owan::core {

ProvisionedState::ProvisionedState(optical::OpticalNetwork optical)
    : optical_(std::move(optical)),
      requested_(optical_.NumSites()),
      realized_(optical_.NumSites()) {}

int ProvisionedState::SyncTo(const Topology& target, SyncUndo* undo) {
  if (undo) {
    undo->prev_requested = requested_;
    undo->prev_realized = realized_;
    undo->prev_next_id = optical_.next_circuit_id();
    undo->released.clear();
    undo->provisioned.clear();
  }

  // Release first so freed wavelengths/regenerators can serve the additions.
  auto [to_add, to_remove] = target.Diff(requested_);
  for (const Link& l : to_remove) {
    auto key = Key(l.u, l.v);
    auto& circuits = link_circuits_[key];
    for (int i = 0; i < l.units && !circuits.empty(); ++i) {
      if (undo) undo->released.push_back(optical_.circuit(circuits.back()));
      optical_.ReleaseCircuit(circuits.back());
      circuits.pop_back();
      realized_.AddUnits(l.u, l.v, -1);
    }
    if (circuits.empty()) link_circuits_.erase(key);
  }

  int failed_units = 0;
  for (const Link& l : to_add) {
    for (int i = 0; i < l.units; ++i) {
      auto id = optical_.ProvisionCircuit(l.u, l.v);
      if (id) {
        link_circuits_[Key(l.u, l.v)].push_back(*id);
        realized_.AddUnits(l.u, l.v, 1);
        if (undo) undo->provisioned.push_back(*id);
      } else {
        ++failed_units;
      }
    }
  }
  requested_ = target;
  return failed_units;
}

void ProvisionedState::Rollback(const SyncUndo& undo) {
  // Undo provisions first (they came last), newest first, so wavelengths
  // freed here are available again when the released circuits are restored.
  for (auto it = undo.provisioned.rbegin(); it != undo.provisioned.rend();
       ++it) {
    const optical::Circuit& c = optical_.circuit(*it);
    auto key = Key(c.src, c.dst);
    auto& circuits = link_circuits_[key];
    // Provisions append, so within a key the newest id is at the back.
    circuits.pop_back();
    if (circuits.empty()) link_circuits_.erase(key);
    optical_.ReleaseCircuit(*it);
  }
  // Restore released circuits verbatim, newest release first, which rebuilds
  // each link's circuit vector in its original order.
  for (auto it = undo.released.rbegin(); it != undo.released.rend(); ++it) {
    optical_.RestoreCircuit(*it);
    link_circuits_[Key(it->src, it->dst)].push_back(it->id);
  }
  optical_.RewindCircuitIds(undo.prev_next_id);
  requested_ = undo.prev_requested;
  realized_ = undo.prev_realized;
}

net::Graph ProvisionedState::CapacityGraph() const {
  net::Graph g = realized_.ToGraph(optical_.wavelength_capacity());
  if (!optical_.qot().enabled) return g;
  // ToGraph adds edges in canonical link order, so edge i is Links()[i].
  const std::vector<Link> links = realized_.Links();
  for (size_t i = 0; i < links.size(); ++i) {
    g.edge(static_cast<net::EdgeId>(i)).capacity =
        RealizedCapacityGbps(links[i].u, links[i].v);
  }
  return g;
}

double ProvisionedState::RealizedCapacityGbps(net::NodeId u,
                                              net::NodeId v) const {
  if (!optical_.qot().enabled) {
    return realized_.Units(u, v) * optical_.wavelength_capacity();
  }
  auto it = link_circuits_.find(Key(u, v));
  if (it == link_circuits_.end()) return 0.0;
  double cap = 0.0;
  for (optical::CircuitId id : it->second) {
    cap += optical_.circuit(id).capacity_gbps;
  }
  return cap;
}

std::vector<optical::CircuitId> ProvisionedState::LinkCircuits(
    net::NodeId u, net::NodeId v) const {
  auto it = link_circuits_.find(Key(u, v));
  if (it == link_circuits_.end()) return {};
  return it->second;
}

}  // namespace owan::core
