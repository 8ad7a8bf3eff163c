#include "optical/regen_graph.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>

#include "net/shortest_path.h"

namespace owan::optical {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Lexicographic combination: regen-balance weight dominates, fiber distance
// breaks ties. Node weights are <= 1 and distances are < 1e6 km, so 1e9
// keeps the two scales disjoint.
constexpr double kWeightScale = 1e9;

// Minimal directed graph used for the transformed graph of Fig. 5(b).
struct DiGraph {
  explicit DiGraph(int n) : adj(n) {}
  // adj[u] = list of (v, arc_weight)
  std::vector<std::vector<std::pair<int, double>>> adj;

  int NumNodes() const { return static_cast<int>(adj.size()); }
};

struct DiPath {
  std::vector<int> nodes;
  double cost = 0.0;
};

// Dijkstra over the directed transformed graph with banned nodes/arcs
// (for Yen's spur computation).
DiPath DirectedShortest(const DiGraph& g, int src, int dst,
                        const std::vector<bool>& banned_node,
                        const std::set<std::pair<int, int>>& banned_arc) {
  const int n = g.NumNodes();
  std::vector<double> dist(n, kInf);
  std::vector<int> parent(n, -1);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[src] = 0.0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    if (u == dst) break;
    for (const auto& [v, w] : g.adj[u]) {
      if (banned_node[v]) continue;
      if (banned_arc.count({u, v})) continue;
      const double nd = d + w;
      if (nd < dist[v]) {
        dist[v] = nd;
        parent[v] = u;
        pq.emplace(nd, v);
      }
    }
  }
  DiPath p;
  if (dist[dst] == kInf) return p;
  p.cost = dist[dst];
  for (int cur = dst; cur != -1; cur = parent[cur]) p.nodes.push_back(cur);
  std::reverse(p.nodes.begin(), p.nodes.end());
  return p;
}

// Yen's k-shortest loopless paths on the directed graph.
std::vector<DiPath> DirectedKShortest(const DiGraph& g, int src, int dst,
                                      int k) {
  std::vector<DiPath> result;
  std::vector<bool> no_ban(g.NumNodes(), false);
  DiPath first = DirectedShortest(g, src, dst, no_ban, {});
  if (first.nodes.empty()) return result;
  result.push_back(std::move(first));

  auto cmp = [](const DiPath& a, const DiPath& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.nodes < b.nodes;
  };
  std::set<DiPath, decltype(cmp)> candidates(cmp);
  std::set<std::vector<int>> known;
  known.insert(result[0].nodes);

  while (static_cast<int>(result.size()) < k) {
    const DiPath& prev = result.back();
    for (size_t i = 0; i + 1 < prev.nodes.size(); ++i) {
      const int spur = prev.nodes[i];
      std::set<std::pair<int, int>> banned_arc;
      for (const DiPath& p : result) {
        if (p.nodes.size() > i + 1 &&
            std::equal(prev.nodes.begin(),
                       prev.nodes.begin() + static_cast<long>(i) + 1,
                       p.nodes.begin())) {
          banned_arc.insert({p.nodes[i], p.nodes[i + 1]});
        }
      }
      std::vector<bool> banned_node(g.NumNodes(), false);
      for (size_t j = 0; j < i; ++j) banned_node[prev.nodes[j]] = true;

      DiPath spur_path =
          DirectedShortest(g, spur, dst, banned_node, banned_arc);
      if (spur_path.nodes.empty()) continue;

      DiPath total;
      total.nodes.assign(prev.nodes.begin(),
                         prev.nodes.begin() + static_cast<long>(i));
      total.nodes.insert(total.nodes.end(), spur_path.nodes.begin(),
                         spur_path.nodes.end());
      // Recompute cost over arcs.
      total.cost = 0.0;
      bool valid = true;
      for (size_t j = 0; j + 1 < total.nodes.size(); ++j) {
        const int u = total.nodes[j];
        const int v = total.nodes[j + 1];
        double w = kInf;
        for (const auto& [to, aw] : g.adj[u]) {
          if (to == v) {
            w = aw;
            break;
          }
        }
        if (w == kInf) {
          valid = false;
          break;
        }
        total.cost += w;
      }
      if (valid && !known.count(total.nodes)) {
        known.insert(total.nodes);
        candidates.insert(std::move(total));
      }
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

}  // namespace

RegenGraph::RegenGraph(const OpticalNetwork& on, net::NodeId src,
                       net::NodeId dst, bool balance)
    : src_(src), dst_(dst), graph_(on.NumSites()) {
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
  for (net::NodeId u = 0; u < n; ++u) {
    if (!participates_[u]) continue;
    for (const ReachPeer& p : on.ReachPeers(u)) {
      if (p.site > u && participates_[p.site]) graph_.AddEdge(u, p.site, p.km);
    }
  }
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

  // Transformed graph (Fig. 5b): each undirected regen edge (u,v) becomes
  // arcs u->v weighted by node_weight(v) and v->u weighted by
  // node_weight(u); fiber distance breaks ties lexicographically.
  DiGraph tg(graph_.NumNodes());
  for (const net::Edge& e : graph_.edges()) {
    tg.adj[e.u].emplace_back(e.v,
                             node_weight_[e.v] * kWeightScale + e.weight);
    tg.adj[e.v].emplace_back(e.u,
                             node_weight_[e.u] * kWeightScale + e.weight);
  }

  for (DiPath& p : DirectedKShortest(tg, src_, dst_, k)) {
    out.emplace_back(p.nodes.begin(), p.nodes.end());
  }
  return out;
}

}  // namespace owan::optical
