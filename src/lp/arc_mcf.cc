#include "lp/arc_mcf.h"

#include <utility>

namespace owan::lp {

ArcMcfResult ArcMcfMaxThroughput(const net::Graph& topo,
                                 const std::vector<Commodity>& commodities,
                                 const SimplexOptions& options) {
  const int num_nodes = topo.NumNodes();
  const int num_edges = topo.NumEdges();

  std::vector<const Commodity*> active;
  for (const Commodity& c : commodities) {
    if (c.demand <= 0.0 || c.src == c.dst) continue;
    if (c.src < 0 || c.src >= num_nodes || c.dst < 0 || c.dst >= num_nodes) {
      continue;
    }
    active.push_back(&c);
  }
  if (active.empty() || num_edges == 0) {
    return {LpStatus::kOptimal, 0.0};
  }

  LpProblem lp;
  lp.SetMaximize(true);

  // Flow variables: flow[i][e][0] carries u->v, flow[i][e][1] carries v->u.
  // No per-variable upper bound — the shared capacity row dominates any
  // single-arc bound, and leaving the bound open keeps the tableau small.
  const int num_comms = static_cast<int>(active.size());
  std::vector<int> flow(static_cast<size_t>(num_comms) *
                        static_cast<size_t>(num_edges) * 2);
  auto var = [&](int i, int e, int dir) -> int& {
    return flow[(static_cast<size_t>(i) * static_cast<size_t>(num_edges) +
                 static_cast<size_t>(e)) *
                    2 +
                static_cast<size_t>(dir)];
  };
  for (int i = 0; i < num_comms; ++i) {
    for (int e = 0; e < num_edges; ++e) {
      var(i, e, 0) = lp.AddVariable(0.0, kLpInf, 0.0);
      var(i, e, 1) = lp.AddVariable(0.0, kLpInf, 0.0);
    }
  }
  // Throughput variables, capped by demand; the objective maximizes their
  // sum.
  std::vector<int> rate(static_cast<size_t>(num_comms));
  for (int i = 0; i < num_comms; ++i) {
    rate[static_cast<size_t>(i)] = lp.AddVariable(0.0, active[i]->demand, 1.0);
  }

  // Conservation: at every node, inflow - outflow equals +rate at the
  // destination, -rate at the source, 0 elsewhere.
  for (int i = 0; i < num_comms; ++i) {
    for (int v = 0; v < num_nodes; ++v) {
      std::vector<std::pair<int, double>> terms;
      for (net::EdgeId e : topo.Incident(v)) {
        const net::Edge& ed = topo.edge(e);
        if (ed.u == ed.v) continue;  // self-loop carries nothing useful
        // dir 0 flows u->v: into `v` iff v == ed.v.
        if (v == ed.v) {
          terms.emplace_back(var(i, e, 0), 1.0);
          terms.emplace_back(var(i, e, 1), -1.0);
        } else {
          terms.emplace_back(var(i, e, 1), 1.0);
          terms.emplace_back(var(i, e, 0), -1.0);
        }
      }
      if (v == active[i]->dst) {
        terms.emplace_back(rate[static_cast<size_t>(i)], -1.0);
      } else if (v == active[i]->src) {
        terms.emplace_back(rate[static_cast<size_t>(i)], 1.0);
      }
      if (terms.empty()) continue;
      lp.AddConstraint(std::move(terms), Relation::kEq, 0.0);
    }
  }

  // Shared capacity: both directions of every commodity compete for the
  // undirected edge capacity.
  for (int e = 0; e < num_edges; ++e) {
    std::vector<std::pair<int, double>> terms;
    for (int i = 0; i < num_comms; ++i) {
      terms.emplace_back(var(i, e, 0), 1.0);
      terms.emplace_back(var(i, e, 1), 1.0);
    }
    lp.AddConstraint(std::move(terms), Relation::kLe, topo.edge(e).capacity);
  }

  const LpSolution sol = Solve(lp, options);
  return {sol.status, sol.status == LpStatus::kOptimal ? sol.objective : 0.0};
}

}  // namespace owan::lp
