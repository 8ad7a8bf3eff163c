#include "lp/mcf.h"

#include <utility>

namespace owan::lp {

McfBuilder::McfBuilder(const net::Graph& topo,
                       std::vector<Commodity> commodities, int k_paths)
    : topo_(topo), commodities_(std::move(commodities)) {
  const int nc = NumCommodities();
  paths_.resize(nc);
  rate_vars_.resize(nc);

  for (int i = 0; i < nc; ++i) {
    const Commodity& c = commodities_[i];
    if (c.src == c.dst || c.demand <= 0.0) continue;
    paths_[i] = net::KShortestPaths(topo_, c.src, c.dst, k_paths);
    rate_vars_[i].reserve(paths_[i].size());
    for (size_t j = 0; j < paths_[i].size(); ++j) {
      rate_vars_[i].push_back(lp_.AddVariable(0.0, kLpInf, 0.0));
    }
    // Demand row: a commodity never receives more rate than it can use
    // within the slot.
    std::vector<std::pair<int, double>> dterms;
    for (int v : rate_vars_[i]) dterms.emplace_back(v, 1.0);
    if (!dterms.empty()) {
      lp_.AddConstraint(std::move(dterms), Relation::kLe, c.demand);
    }
  }

  // Capacity rows, one per edge that any path crosses.
  std::vector<std::vector<std::pair<int, double>>> edge_terms(
      static_cast<size_t>(topo_.NumEdges()));
  for (int i = 0; i < nc; ++i) {
    for (size_t j = 0; j < paths_[i].size(); ++j) {
      for (net::EdgeId e : paths_[i][j].edges) {
        edge_terms[static_cast<size_t>(e)].emplace_back(rate_vars_[i][j], 1.0);
      }
    }
  }
  for (net::EdgeId e = 0; e < topo_.NumEdges(); ++e) {
    auto& terms = edge_terms[static_cast<size_t>(e)];
    if (terms.empty()) continue;
    lp_.AddConstraint(std::move(terms), Relation::kLe,
                      topo_.edge(e).capacity);
  }
}

double McfBuilder::TotalRate(int i, const LpSolution& sol) const {
  double total = 0.0;
  for (int v : rate_vars_[i]) total += sol.values[static_cast<size_t>(v)];
  return total;
}

std::vector<double> McfBuilder::PathRates(int i, const LpSolution& sol) const {
  std::vector<double> out;
  out.reserve(rate_vars_[i].size());
  for (int v : rate_vars_[i]) out.push_back(sol.values[static_cast<size_t>(v)]);
  return out;
}

void McfBuilder::ObjectiveMaxThroughput() {
  lp_.SetMaximize(true);
  for (int i = 0; i < NumCommodities(); ++i) {
    for (int v : rate_vars_[i]) lp_.SetObjectiveCoef(v, 1.0);
  }
}

}  // namespace owan::lp
