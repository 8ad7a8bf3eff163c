#ifndef OWAN_SIM_PROGRESS_H_
#define OWAN_SIM_PROGRESS_H_

#include <algorithm>
#include <set>
#include <utility>

#include "core/topology.h"
#include "core/transfer.h"

namespace owan::sim {

// Canonical (min, max) site pair used for "did this path cross a
// reconfigured link" checks.
using LinkKey = std::pair<net::NodeId, net::NodeId>;

inline LinkKey MakeLinkKey(net::NodeId a, net::NodeId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

// Links whose unit counts differ between two topologies.
inline std::set<LinkKey> ChangedLinks(const core::Topology& a,
                                      const core::Topology& b) {
  std::set<LinkKey> changed;
  auto [add, remove] = a.Diff(b);
  for (const core::Link& l : add) changed.insert(MakeLinkKey(l.u, l.v));
  for (const core::Link& l : remove) changed.insert(MakeLinkKey(l.u, l.v));
  return changed;
}

// Outcome of progressing one transfer over one interval.
struct SlotProgress {
  double delivered = 0.0;       // gigabits credited (clamped to remaining)
  double full_delivered = 0.0;  // uninterrupted-slot delivery, unclamped
  double deadline_part = 0.0;   // deadline-usable delivery, unclamped
  double total_rate = 0.0;      // Gbps summed over paths
  double penalty_max = 0.0;     // worst reconfiguration penalty across paths
  bool finishes = false;
  double completed_at = 0.0;    // absolute seconds; valid when finishes
};

// The per-transfer progress arithmetic of the slot loop
// (service::ControllerService, which sim::RunSimulation runs):
// path-by-path delivery with the reconfiguration penalty on paths crossing
// a changed link, the megabit completion epsilon, and the within-slot
// finish time. Exact floating-point operation order matters here: the
// pinned simulator digests depend on it.
inline SlotProgress ProgressTransfer(const core::Request& r, double remaining,
                                     const core::TransferAllocation& alloc,
                                     const std::set<LinkKey>& changed,
                                     double now, double dur,
                                     double slot_seconds,
                                     double reconfig_penalty_s) {
  SlotProgress out;
  double delivered = 0.0;
  for (const core::PathAllocation& pa : alloc.paths) {
    // Paths crossing a reconfigured link lose the reconfig window.
    bool crosses_changed = false;
    for (size_t i = 0; i + 1 < pa.path.nodes.size(); ++i) {
      if (changed.count(MakeLinkKey(pa.path.nodes[i], pa.path.nodes[i + 1]))) {
        crosses_changed = true;
        break;
      }
    }
    const double penalty = crosses_changed ? reconfig_penalty_s : 0.0;
    const double eff = std::max(0.0, dur - penalty);
    out.penalty_max = std::max(out.penalty_max, penalty);
    delivered += pa.rate * eff;
    out.full_delivered += pa.rate * std::max(0.0, slot_seconds - penalty);
    out.total_rate += pa.rate;
    if (r.HasDeadline() && r.deadline > now) {
      const double usable = std::min(
          eff,
          std::max(0.0, r.deadline - now -
                            (crosses_changed ? reconfig_penalty_s : 0.0)));
      out.deadline_part += pa.rate * usable;
    }
  }

  out.delivered = std::min(delivered, remaining);

  // A transfer is complete once less than a megabit is outstanding; without
  // this epsilon the reconfiguration penalty can shave a geometrically
  // vanishing sliver forever.
  constexpr double kResidualEps = 1e-3;
  out.finishes =
      out.total_rate > 0.0 &&
      (remaining - out.delivered <= kResidualEps ||
       out.penalty_max + remaining / out.total_rate <= dur + 1e-9);
  if (out.finishes) {
    // Transmission starts after the reconfiguration window, so the penalty
    // shifts the finish time within the slot instead of spilling a sliver
    // into the next one.
    out.completed_at =
        now + std::min(dur, out.penalty_max + remaining / out.total_rate);
  }
  return out;
}

}  // namespace owan::sim

#endif  // OWAN_SIM_PROGRESS_H_
