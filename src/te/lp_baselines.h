#ifndef OWAN_TE_LP_BASELINES_H_
#define OWAN_TE_LP_BASELINES_H_

#include <string>
#include <vector>

#include "core/te_scheme.h"
#include "lp/mcf.h"

namespace owan::te {

// Shared machinery for the network-layer-only LP baselines: builds the
// path-based MCF over the *fixed* topology and converts solutions into
// per-transfer allocations.
class LpTeBase : public core::TeScheme {
 public:
  // Demands -> commodities with the given per-transfer rate ceilings.
  static std::vector<lp::Commodity> ToCommodities(
      const std::vector<core::TransferDemand>& demands,
      const std::vector<double>& rate_caps);

  // Builds allocations (parallel to demands) from a solved MCF.
  static std::vector<core::TransferAllocation> Extract(
      const lp::McfBuilder& mcf, const lp::LpSolution& sol,
      const std::vector<core::TransferDemand>& demands);

  // Transfers sharing (src, dst) are interchangeable inside a rate LP, so
  // the baselines solve one commodity per distinct pair and split the
  // pair's path rates back over members proportionally to their targets.
  // This keeps the LP size bounded by the number of site pairs instead of
  // the number of transfers.
  struct Aggregated {
    std::vector<core::TransferDemand> pair_demands;
    std::vector<double> pair_targets;
    std::vector<std::vector<size_t>> members;   // per pair: demand indices
    std::vector<std::vector<double>> weights;   // per pair: member shares
  };
  static Aggregated Aggregate(const std::vector<core::TransferDemand>& demands,
                              const std::vector<double>& targets);
  static std::vector<core::TransferAllocation> Expand(
      const Aggregated& agg,
      const std::vector<core::TransferAllocation>& pair_allocs,
      const std::vector<core::TransferDemand>& demands);
};

// "MaxFlow" baseline (§5.1): per slot, maximize total throughput.
class MaxFlowTe : public LpTeBase {
 public:
  std::string name() const override { return "MaxFlow"; }
  core::TeOutput Compute(const core::TeInput& input) override;
};

// "MaxMinFract" baseline: maximize the minimum served fraction, then
// maximize throughput subject to that fraction.
class MaxMinFractTe : public LpTeBase {
 public:
  std::string name() const override { return "MaxMinFract"; }
  core::TeOutput Compute(const core::TeInput& input) override;
};

// "SWAN" baseline: approximate max-min fairness via iterative freezing,
// then throughput maximization (Hong et al., SIGCOMM'13).
class SwanTe : public LpTeBase {
 public:
  std::string name() const override { return "SWAN"; }
  core::TeOutput Compute(const core::TeInput& input) override;
};

// "Tempus" baseline for deadline traffic: spread each transfer evenly
// toward its deadline — maximize the minimum fraction of the
// deadline-feasible rate, then total bytes. (Per-slot approximation of the
// all-slots LP in Kandula et al., SIGCOMM'14; see DESIGN.md.)
class TempusTe : public LpTeBase {
 public:
  std::string name() const override { return "Tempus"; }
  core::TeOutput Compute(const core::TeInput& input) override;
};

}  // namespace owan::te

#endif  // OWAN_TE_LP_BASELINES_H_
