#ifndef OWAN_CORE_PROVISIONED_STATE_H_
#define OWAN_CORE_PROVISIONED_STATE_H_

#include <map>
#include <utility>
#include <vector>

#include "core/topology.h"
#include "optical/optical_network.h"

namespace owan::core {

// A network-layer topology together with the optical circuits that realise
// it (Algorithm 3, step 1).
//
// The class owns its optical network. SyncTo releases circuits only for
// links losing units and provisions circuits only for links gaining units,
// which keeps one SA iteration proportional to the size of the move (4 link
// changes), not the size of the network. The annealing evaluator goes one
// step further: instead of cloning the whole state per candidate, it applies
// SyncTo in place with a SyncUndo record and rolls back rejected moves
// exactly (same circuit ids, wavelengths, and regen counters).
//
// `realized()` may fall short of the requested topology when wavelengths or
// regenerators run out (Algorithm 3, lines 13-14): the missing units simply
// do not appear in the realized capacity.
class ProvisionedState {
 public:
  // Everything one SyncTo changed, in application order. Rollback() replays
  // it backwards; the vectors are reusable scratch (SyncTo clears them).
  struct SyncUndo {
    Topology prev_requested;
    Topology prev_realized;
    optical::CircuitId prev_next_id = 0;
    // Circuits torn down, in release order. Each circuit's (src, dst) names
    // the link it implemented, so no separate key list is needed.
    std::vector<optical::Circuit> released;
    // Ids of circuits brought up, in provision order.
    std::vector<optical::CircuitId> provisioned;
  };

  explicit ProvisionedState(optical::OpticalNetwork optical);

  // Adjusts circuits so the realized topology approaches `target`.
  // Returns the number of units that could not be provisioned. When `undo`
  // is given, records everything needed for an exact Rollback.
  int SyncTo(const Topology& target, SyncUndo* undo = nullptr);

  // Exactly reverses the SyncTo that produced `undo`. Must be called before
  // any other mutation; afterwards the state (including the optical
  // network's internal counters) is bit-for-bit what it was before.
  void Rollback(const SyncUndo& undo);

  const Topology& requested() const { return requested_; }
  const Topology& realized() const { return realized_; }
  const optical::OpticalNetwork& optical() const { return optical_; }

  // Capacity graph of the realized topology (one edge per link). Legacy
  // mode: units * theta per link. QoT mode: the sum of the implementing
  // circuits' modulation-tier capacities, which vary with path quality.
  net::Graph CapacityGraph() const;

  // Deliverable rate on link (u, v): units * theta in legacy mode (kept as
  // a single multiply for bit-stable goldens), summed per-circuit tier
  // capacities under QoT.
  double RealizedCapacityGbps(net::NodeId u, net::NodeId v) const;

  // Circuits currently implementing link (u, v).
  std::vector<optical::CircuitId> LinkCircuits(net::NodeId u,
                                               net::NodeId v) const;

 private:
  static std::pair<net::NodeId, net::NodeId> Key(net::NodeId u,
                                                 net::NodeId v) {
    return u < v ? std::make_pair(u, v) : std::make_pair(v, u);
  }

  optical::OpticalNetwork optical_;
  Topology requested_;
  Topology realized_;
  std::map<std::pair<net::NodeId, net::NodeId>,
           std::vector<optical::CircuitId>>
      link_circuits_;
};

}  // namespace owan::core

#endif  // OWAN_CORE_PROVISIONED_STATE_H_
