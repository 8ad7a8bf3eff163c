// Ablations of the optical-layer design choices called out in DESIGN.md:
//   (1) regenerator balancing (inverse-remaining node weights, Fig. 5) vs
//       ignoring remaining counts;
//   (2) boolean reach vs QoT-graded capacity: what the hard-reach model
//       promises vs what distance-adaptive modulation actually delivers.
// Metric for (1): circuits packed before provisioning blocks. For (2):
// installed Gbps and routed throughput on the same plant geometry and
// demand set.
#include <cstdio>

#include "core/provisioned_state.h"
#include "core/routing.h"
#include "harness.h"
#include "optical/optical_network.h"

using namespace owan;

namespace {

// Packing fill: provision random circuits (with light churn) until 25
// consecutive requests block; returns how many circuits are live at that
// point — a direct measure of how well provisioning packs the plant.
int FillCapacity(optical::OpticalNetwork on, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<optical::CircuitId> live;
  const int n = on.NumSites();
  int consecutive_blocked = 0;
  while (consecutive_blocked < 25) {
    if (!live.empty() && rng.Chance(0.15)) {
      const size_t k = rng.Index(live.size());
      on.ReleaseCircuit(live[k]);
      live.erase(live.begin() + static_cast<long>(k));
      continue;
    }
    const int a = static_cast<int>(rng.Index(static_cast<size_t>(n)));
    int b = static_cast<int>(rng.Index(static_cast<size_t>(n)));
    if (b == a) b = (b + 1) % n;
    auto id = on.ProvisionCircuit(a, b);
    if (id) {
      live.push_back(*id);
      consecutive_blocked = 0;
    } else {
      ++consecutive_blocked;
    }
  }
  return static_cast<int>(live.size());
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitJsonFromArgs(argc, argv);
  bench::PrintHeader("Ablation — regenerator balancing (Fig. 5 weights)");
  {
    // Make regenerators the scarce resource: tight reach, few regens.
    topo::WanParams p;
    p.reach_km = 900.0;
    for (bool balance : {true, false}) {
      double total = 0.0;
      for (uint64_t seed = 1; seed <= 8; ++seed) {
        topo::Wan wan = topo::MakeIspBackbone(7, 40, p);
        wan.optical.set_balance_regens(balance);
        total += FillCapacity(wan.optical, seed);
      }
      std::printf("  %-12s circuits packed before blocking: %.1f\n",
                  balance ? "balanced" : "unbalanced", total / 8.0);
    }
  }

  bench::PrintHeader("Ablation — boolean reach vs QoT-graded capacity (ISP-40)");
  {
    // Same 40-site plant geometry and demand set under both physical-layer
    // models. The boolean model credits every wavelength with the full
    // line rate anywhere inside its hard reach; the QoT twin grades each
    // circuit by accumulated OSNR, so long links earn lower tiers (or none)
    // and the gap measures how much the boolean abstraction overstates
    // deliverable capacity.
    topo::WanParams boolean_reach;
    boolean_reach.wavelength_gbps = 200.0;
    boolean_reach.reach_km = 5000.0;  // ~ the QoT 50G feasibility edge
    topo::WanParams graded = boolean_reach;
    graded.qot.enabled = true;
    const char* names[] = {"boolean-reach", "qot-graded"};
    const topo::WanParams* params[] = {&boolean_reach, &graded};
    for (int mi = 0; mi < 2; ++mi) {
      double cap_sum = 0.0, tput_sum = 0.0;
      for (uint64_t seed = 1; seed <= 8; ++seed) {
        topo::Wan wan = topo::MakeIspBackbone(7, 40, *params[mi]);
        core::ProvisionedState st(wan.optical);
        st.SyncTo(wan.default_topology);
        double cap = 0.0;
        for (const core::Link& l : st.realized().Links()) {
          cap += st.RealizedCapacityGbps(l.u, l.v);
        }
        // A fixed elephant-flow mix, identical across both models.
        util::Rng rng(seed * 977 + 11);
        std::vector<core::TransferDemand> demands(64);
        const int n = wan.default_topology.NumSites();
        for (size_t i = 0; i < demands.size(); ++i) {
          core::TransferDemand& d = demands[i];
          d.id = static_cast<int>(i);
          d.src = static_cast<int>(rng.Index(static_cast<size_t>(n)));
          d.dst = static_cast<int>(rng.Index(static_cast<size_t>(n)));
          if (d.dst == d.src) d.dst = (d.dst + 1) % n;
          d.rate_cap = rng.Uniform(50.0, 400.0);
          d.remaining = d.rate_cap * 300.0;
        }
        const core::RoutingOutcome ro = core::AssignRoutesAndRates(
            st.CapacityGraph(), demands, core::RoutingOptions{});
        cap_sum += cap;
        tput_sum += ro.throughput;
      }
      std::printf(
          "  %-14s installed %8.0f Gbps   routed throughput %8.0f Gbps\n",
          names[mi], cap_sum / 8.0, tput_sum / 8.0);
      bench::JsonRecord("ablation_optical", std::string(names[mi]) + "@isp40",
                        {{"installed_gbps", cap_sum / 8.0},
                         {"routed_gbps", tput_sum / 8.0}});
    }
  }
  return 0;
}
