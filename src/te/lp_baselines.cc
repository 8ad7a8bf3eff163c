#include "te/lp_baselines.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "lp/simplex.h"

namespace owan::te {

namespace {
constexpr double kEps = 1e-7;
// SWAN's fairness-approximation rounds (each round is one LP solve; 4
// captures nearly all of the fairness at a quarter of the cost).
constexpr int kMaxFairnessRounds = 4;
// Candidate paths per site pair: the k shortest over the fixed topology.
constexpr int kPathsPerPair = 3;
}

std::vector<lp::Commodity> LpTeBase::ToCommodities(
    const std::vector<core::TransferDemand>& demands,
    const std::vector<double>& rate_caps) {
  std::vector<lp::Commodity> out;
  out.reserve(demands.size());
  for (size_t i = 0; i < demands.size(); ++i) {
    out.push_back(lp::Commodity{demands[i].src, demands[i].dst,
                                std::max(0.0, rate_caps[i])});
  }
  return out;
}

std::vector<core::TransferAllocation> LpTeBase::Extract(
    const lp::McfBuilder& mcf, const lp::LpSolution& sol,
    const std::vector<core::TransferDemand>& demands) {
  std::vector<core::TransferAllocation> allocs(demands.size());
  for (size_t i = 0; i < demands.size(); ++i) {
    allocs[i].id = demands[i].id;
    if (!sol.ok()) continue;
    const auto& paths = mcf.PathsFor(static_cast<int>(i));
    const std::vector<double> rates =
        mcf.PathRates(static_cast<int>(i), sol);
    for (size_t j = 0; j < paths.size(); ++j) {
      if (rates[j] > kEps) {
        allocs[i].paths.push_back(core::PathAllocation{paths[j], rates[j]});
      }
    }
  }
  return allocs;
}

LpTeBase::Aggregated LpTeBase::Aggregate(
    const std::vector<core::TransferDemand>& demands,
    const std::vector<double>& targets) {
  Aggregated agg;
  std::map<std::pair<net::NodeId, net::NodeId>, size_t> index;
  for (size_t i = 0; i < demands.size(); ++i) {
    const auto key = std::make_pair(demands[i].src, demands[i].dst);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, agg.pair_demands.size()).first;
      core::TransferDemand pd;
      pd.id = static_cast<int>(agg.pair_demands.size());
      pd.src = demands[i].src;
      pd.dst = demands[i].dst;
      agg.pair_demands.push_back(pd);
      agg.pair_targets.push_back(0.0);
      agg.members.emplace_back();
      agg.weights.emplace_back();
    }
    const size_t p = it->second;
    agg.pair_demands[p].rate_cap += demands[i].rate_cap;
    agg.pair_demands[p].remaining += demands[i].remaining;
    agg.pair_targets[p] += targets[i];
    agg.members[p].push_back(i);
    agg.weights[p].push_back(targets[i]);
  }
  // Normalize member weights within each pair (fall back to equal split
  // when every target is zero).
  for (size_t p = 0; p < agg.weights.size(); ++p) {
    double total = 0.0;
    for (double w : agg.weights[p]) total += w;
    for (double& w : agg.weights[p]) {
      w = total > kEps ? w / total
                       : 1.0 / static_cast<double>(agg.weights[p].size());
    }
  }
  return agg;
}

std::vector<core::TransferAllocation> LpTeBase::Expand(
    const Aggregated& agg,
    const std::vector<core::TransferAllocation>& pair_allocs,
    const std::vector<core::TransferDemand>& demands) {
  std::vector<core::TransferAllocation> out(demands.size());
  for (size_t i = 0; i < demands.size(); ++i) out[i].id = demands[i].id;
  for (size_t p = 0; p < agg.members.size(); ++p) {
    if (p >= pair_allocs.size()) break;
    for (size_t mi = 0; mi < agg.members[p].size(); ++mi) {
      const size_t di = agg.members[p][mi];
      const double w = agg.weights[p][mi];
      if (w <= kEps) continue;
      for (const core::PathAllocation& pa : pair_allocs[p].paths) {
        if (pa.rate * w > kEps) {
          out[di].paths.push_back(
              core::PathAllocation{pa.path, pa.rate * w});
        }
      }
    }
  }
  return out;
}

core::TeOutput MaxFlowTe::Compute(const core::TeInput& input) {
  core::TeOutput out;
  const net::Graph g =
      input.topology->ToGraph(input.optical->wavelength_capacity());
  std::vector<double> caps;
  caps.reserve(input.demands.size());
  for (const auto& d : input.demands) caps.push_back(d.rate_cap);
  const Aggregated agg = Aggregate(input.demands, caps);

  lp::McfBuilder mcf(g, ToCommodities(agg.pair_demands, agg.pair_targets),
                     kPathsPerPair);
  mcf.ObjectiveMaxThroughput();
  const lp::LpSolution sol = lp::Solve(mcf.lp());
  out.allocations =
      Expand(agg, Extract(mcf, sol, agg.pair_demands), input.demands);
  return out;
}

namespace {

// Shared two-phase solve used by MaxMinFract and Tempus: maximize the
// common fraction t of each transfer's `targets` rate, then re-solve for
// concrete path rates. With `cap_at_fraction` every transfer is held at
// exactly t (the paper's naive MaxMinFract, which wastes capacity whenever
// bottlenecks differ); without it the second phase maximizes throughput
// subject to everyone keeping fraction t (Tempus' byte-maximization step).
core::TeOutput MaxMinThenThroughput(
    const net::Graph& g, const std::vector<core::TransferDemand>& demands,
    const std::vector<double>& targets, bool cap_at_fraction) {
  core::TeOutput out;

  // Phase 1: maximize t with sum(rates_i) >= t * target_i.
  double t_star = 0.0;
  {
    lp::McfBuilder mcf(g, LpTeBase::ToCommodities(demands, targets),
                       kPathsPerPair);
    lp::LpProblem& p = mcf.lp();
    const int t_var = p.AddVariable(0.0, 1.0, 1.0);
    p.SetMaximize(true);
    for (int i = 0; i < mcf.NumCommodities(); ++i) {
      if (mcf.PathsFor(i).empty()) continue;
      const double target = targets[static_cast<size_t>(i)];
      if (target <= kEps) continue;
      std::vector<std::pair<int, double>> terms;
      for (size_t j = 0; j < mcf.PathsFor(i).size(); ++j) {
        terms.emplace_back(mcf.RateVar(i, static_cast<int>(j)), 1.0);
      }
      terms.emplace_back(t_var, -target);
      p.AddConstraint(std::move(terms), lp::Relation::kGe, 0.0);
    }
    const lp::LpSolution sol = lp::Solve(p);
    if (sol.ok()) t_star = sol.values[static_cast<size_t>(t_var)];
  }

  // Phase 2: throughput max subject to every transfer keeping fraction
  // t_star of its target (slightly relaxed for numerical headroom). Unless
  // the caller pins everyone to the fraction, transfers may exceed their
  // target up to their full per-slot demand — this is Tempus' "then
  // maximize total bytes" step.
  {
    std::vector<double> caps(demands.size());
    for (size_t i = 0; i < demands.size(); ++i) {
      caps[i] = cap_at_fraction ? targets[i]
                                : std::max(targets[i], demands[i].rate_cap);
    }
    lp::McfBuilder mcf(g, LpTeBase::ToCommodities(demands, caps),
                       kPathsPerPair);
    lp::LpProblem& p = mcf.lp();
    for (int i = 0; i < mcf.NumCommodities(); ++i) {
      if (mcf.PathsFor(i).empty()) continue;
      const double target = targets[static_cast<size_t>(i)];
      if (target <= kEps) continue;
      std::vector<std::pair<int, double>> terms;
      for (size_t j = 0; j < mcf.PathsFor(i).size(); ++j) {
        terms.emplace_back(mcf.RateVar(i, static_cast<int>(j)), 1.0);
      }
      auto ge_terms = terms;
      p.AddConstraint(std::move(ge_terms), lp::Relation::kGe,
                      0.999 * t_star * target);
      if (cap_at_fraction) {
        p.AddConstraint(std::move(terms), lp::Relation::kLe,
                        t_star * target + 1e-9);
      }
    }
    mcf.ObjectiveMaxThroughput();
    const lp::LpSolution sol = lp::Solve(p);
    out.allocations = LpTeBase::Extract(mcf, sol, demands);
  }
  return out;
}

}  // namespace

core::TeOutput MaxMinFractTe::Compute(const core::TeInput& input) {
  const net::Graph g =
      input.topology->ToGraph(input.optical->wavelength_capacity());
  std::vector<double> targets;
  targets.reserve(input.demands.size());
  for (const auto& d : input.demands) targets.push_back(d.rate_cap);
  const Aggregated agg = Aggregate(input.demands, targets);
  core::TeOutput pair_out =
      MaxMinThenThroughput(g, agg.pair_demands, agg.pair_targets,
                           /*cap_at_fraction=*/true);
  core::TeOutput out;
  out.allocations = Expand(agg, pair_out.allocations, input.demands);
  return out;
}

core::TeOutput TempusTe::Compute(const core::TeInput& input) {
  const net::Graph g =
      input.topology->ToGraph(input.optical->wavelength_capacity());
  // Tempus paces each transfer evenly across the slots remaining until its
  // deadline: the fraction target is remaining/(slots_left), so a transfer
  // far from its deadline asks for less now.
  std::vector<double> targets;
  targets.reserve(input.demands.size());
  for (const auto& d : input.demands) {
    if (d.deadline > 0.0) {
      const double time_left =
          std::max(d.deadline - input.now, input.slot_seconds);
      targets.push_back(
          std::min(d.rate_cap, d.remaining / time_left));
    } else {
      targets.push_back(d.rate_cap);
    }
  }
  const Aggregated agg = Aggregate(input.demands, targets);
  core::TeOutput pair_out =
      MaxMinThenThroughput(g, agg.pair_demands, agg.pair_targets,
                           /*cap_at_fraction=*/false);
  core::TeOutput out;
  out.allocations = Expand(agg, pair_out.allocations, input.demands);
  return out;
}

core::TeOutput SwanTe::Compute(const core::TeInput& input) {
  core::TeOutput out;
  const net::Graph g =
      input.topology->ToGraph(input.optical->wavelength_capacity());
  std::vector<double> orig_caps;
  orig_caps.reserve(input.demands.size());
  for (const auto& d : input.demands) orig_caps.push_back(d.rate_cap);
  const Aggregated agg = Aggregate(input.demands, orig_caps);
  const std::vector<core::TransferDemand>& demands = agg.pair_demands;
  const size_t n = demands.size();

  // Iterative max-min with freezing: repeatedly maximize the common
  // fraction t of unfrozen transfers; transfers that cannot grow past t
  // (every path crosses a saturated edge) freeze at t, and the rest
  // continue. A final pass maximizes throughput with the frozen shares as
  // lower bounds — SWAN's "max-min fair then high utilization" behaviour.
  std::vector<double> frozen_rate(n, -1.0);  // -1 = not frozen
  std::vector<double> caps(n);
  for (size_t i = 0; i < n; ++i) caps[i] = demands[i].rate_cap;

  for (int round = 0; round < kMaxFairnessRounds; ++round) {
    bool any_unfrozen = false;
    for (size_t i = 0; i < n; ++i) {
      if (frozen_rate[i] < 0.0 && caps[i] > kEps) any_unfrozen = true;
    }
    if (!any_unfrozen) break;

    lp::McfBuilder mcf(g, LpTeBase::ToCommodities(demands, caps),
                       kPathsPerPair);
    lp::LpProblem& p = mcf.lp();
    const int t_var = p.AddVariable(0.0, 1.0, 1.0);
    p.SetMaximize(true);
    for (size_t i = 0; i < n; ++i) {
      if (mcf.PathsFor(static_cast<int>(i)).empty() || caps[i] <= kEps) {
        continue;
      }
      std::vector<std::pair<int, double>> terms;
      for (size_t j = 0; j < mcf.PathsFor(static_cast<int>(i)).size(); ++j) {
        terms.emplace_back(
            mcf.RateVar(static_cast<int>(i), static_cast<int>(j)), 1.0);
      }
      if (frozen_rate[i] >= 0.0) {
        // Frozen transfers keep exactly their share.
        p.AddConstraint(std::move(terms), lp::Relation::kGe,
                        0.999 * frozen_rate[i]);
      } else {
        terms.emplace_back(t_var, -caps[i]);
        p.AddConstraint(std::move(terms), lp::Relation::kGe, 0.0);
      }
    }
    const lp::LpSolution sol = lp::Solve(p);
    if (!sol.ok()) break;
    const double t = sol.values[static_cast<size_t>(t_var)];
    if (t >= 1.0 - 1e-6) {
      // Everyone fully served.
      for (size_t i = 0; i < n; ++i) {
        if (frozen_rate[i] < 0.0) frozen_rate[i] = caps[i];
      }
      break;
    }

    // Saturated edges at this solution.
    std::vector<double> used(static_cast<size_t>(g.NumEdges()), 0.0);
    for (size_t i = 0; i < n; ++i) {
      const auto rates = mcf.PathRates(static_cast<int>(i), sol);
      const auto& paths = mcf.PathsFor(static_cast<int>(i));
      for (size_t j = 0; j < paths.size(); ++j) {
        for (net::EdgeId e : paths[j].edges) {
          used[static_cast<size_t>(e)] += rates[j];
        }
      }
    }
    auto edge_saturated = [&](net::EdgeId e) {
      return used[static_cast<size_t>(e)] >=
             g.edge(e).capacity * (1.0 - 1e-6) - kEps;
    };

    bool froze_any = false;
    for (size_t i = 0; i < n; ++i) {
      if (frozen_rate[i] >= 0.0 || caps[i] <= kEps) continue;
      const auto& paths = mcf.PathsFor(static_cast<int>(i));
      if (paths.empty()) continue;
      bool all_paths_blocked = true;
      for (const net::Path& path : paths) {
        bool blocked = false;
        for (net::EdgeId e : path.edges) {
          if (edge_saturated(e)) {
            blocked = true;
            break;
          }
        }
        if (!blocked) {
          all_paths_blocked = false;
          break;
        }
      }
      if (all_paths_blocked) {
        frozen_rate[i] = t * caps[i];
        froze_any = true;
      }
    }
    if (!froze_any) {
      // Avoid stalling: freeze everyone at the common fraction.
      for (size_t i = 0; i < n; ++i) {
        if (frozen_rate[i] < 0.0) frozen_rate[i] = t * caps[i];
      }
      break;
    }
  }

  // Final throughput maximization with fair shares as lower bounds.
  lp::McfBuilder mcf(g, LpTeBase::ToCommodities(demands, caps),
                     kPathsPerPair);
  lp::LpProblem& p = mcf.lp();
  for (size_t i = 0; i < n; ++i) {
    if (mcf.PathsFor(static_cast<int>(i)).empty()) continue;
    if (frozen_rate[i] <= kEps) continue;
    std::vector<std::pair<int, double>> terms;
    for (size_t j = 0; j < mcf.PathsFor(static_cast<int>(i)).size(); ++j) {
      terms.emplace_back(
          mcf.RateVar(static_cast<int>(i), static_cast<int>(j)), 1.0);
    }
    p.AddConstraint(std::move(terms), lp::Relation::kGe,
                    0.995 * frozen_rate[i]);
  }
  mcf.ObjectiveMaxThroughput();
  const lp::LpSolution sol = lp::Solve(p);
  out.allocations = Expand(agg, Extract(mcf, sol, demands), input.demands);
  return out;
}

}  // namespace owan::te
