#include "optical/regen_graph.h"

#include <algorithm>
#include <limits>
#include <optional>

namespace owan::optical {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Lexicographic combination: regen-balance weight dominates, fiber distance
// breaks ties. Node weights are <= 1 and distances are < 1e6 km, so 1e9
// keeps the two scales disjoint.
constexpr double kWeightScale = 1e9;

}  // namespace

RegenGraph::RegenGraph(const OpticalNetwork& on, net::NodeId src,
                       net::NodeId dst, bool balance)
    : src_(src), dst_(dst) {
  const int n = on.NumSites();
  node_weight_.assign(n, kInf);
  participates_.assign(n, false);

  for (net::NodeId v = 0; v < n; ++v) {
    if (v == src || v == dst) {
      participates_[v] = true;
      node_weight_[v] = 0.0;
    } else if (on.FreeRegens(v) > 0) {
      participates_[v] = true;
      node_weight_[v] =
          balance ? 1.0 / static_cast<double>(on.FreeRegens(v)) : 1.0;
    }
  }

  // Edge between participants whose shortest fiber distance is within the
  // effective reach: the hard eta in legacy mode, the QoT contiguous-fiber
  // bound when impairments are modeled (heuristic — RealizeSequence still
  // grades each concrete route's SNR). The peer lists come from the
  // network's fiber-route table, which circuit churn never invalidates.
  // Each edge u < v takes its length from u's tree, in (u, v) order.
  const auto for_each_edge = [&](const auto& visit) {
    for (net::NodeId u = 0; u < n; ++u) {
      if (!participates_[u]) continue;
      for (const ReachPeer& p : on.ReachPeers(u)) {
        if (p.site > u && participates_[p.site]) visit(u, p.site, p.km);
      }
    }
  };
  // Each edge becomes arcs u->v weighted by node_weight(v) and v->u
  // weighted by node_weight(u), fiber distance breaking ties. Counting
  // first and then filling in edge order leaves every node's arcs
  // ascending by target.
  std::vector<int>& begin = arcs_.begin;
  begin.assign(static_cast<size_t>(n) + 1, 0);
  for_each_edge([&](net::NodeId u, net::NodeId v, double) {
    ++begin[u + 1];
    ++begin[v + 1];
  });
  for (int v = 0; v < n; ++v) begin[v + 1] += begin[v];
  arcs_.head.resize(static_cast<size_t>(begin[n]));
  arcs_.weight.resize(arcs_.head.size());
  std::vector<int> fill(begin.begin(), begin.end() - 1);
  const auto add_arc = [&](net::NodeId from, net::NodeId to, double km) {
    const int a = fill[from]++;
    arcs_.head[a] = to;
    arcs_.weight[a] = node_weight_[to] * kWeightScale + km;
  };
  for_each_edge([&](net::NodeId u, net::NodeId v, double km) {
    add_arc(u, v, km);
    add_arc(v, u, km);
  });
}

bool RegenGraph::Adjacent(net::NodeId u, net::NodeId v) const {
  const auto first = arcs_.head.begin() + arcs_.begin[u];
  const auto last = arcs_.head.begin() + arcs_.begin[u + 1];
  return std::find(first, last, v) != last;
}

double RegenGraph::SequenceWeight(
    const std::vector<net::NodeId>& seq) const {
  double w = 0.0;
  for (size_t i = 1; i + 1 < seq.size(); ++i) w += node_weight_[seq[i]];
  return w;
}

std::vector<std::vector<net::NodeId>> RegenGraph::CandidateSequences(
    int k) const {
  std::vector<std::vector<net::NodeId>> out;
  if (src_ == dst_) return out;
  net::YenSearch search(arcs_, src_, dst_);
  while (static_cast<int>(out.size()) < k) {
    const std::optional<net::YenSearch::Route> route = search.Next();
    if (!route) break;
    out.emplace_back(route->nodes.begin(), route->nodes.end());
  }
  return out;
}

}  // namespace owan::optical
