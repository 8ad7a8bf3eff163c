#include "optical/regen_graph.h"

#include <algorithm>
#include <functional>
#include <limits>

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
  arc_begin_.assign(static_cast<size_t>(n) + 1, 0);
  for_each_edge([&](net::NodeId u, net::NodeId v, double) {
    ++arc_begin_[u + 1];
    ++arc_begin_[v + 1];
  });
  for (int v = 0; v < n; ++v) arc_begin_[v + 1] += arc_begin_[v];
  arc_to_.resize(static_cast<size_t>(arc_begin_[n]));
  arc_weight_.resize(arc_to_.size());
  std::vector<int> fill(arc_begin_.begin(), arc_begin_.end() - 1);
  const auto add_arc = [&](net::NodeId from, net::NodeId to, double km) {
    const int a = fill[from]++;
    arc_to_[a] = to;
    arc_weight_[a] = node_weight_[to] * kWeightScale + km;
  };
  for_each_edge([&](net::NodeId u, net::NodeId v, double km) {
    add_arc(u, v, km);
    add_arc(v, u, km);
  });
}

double RegenGraph::ArcWeight(net::NodeId from, net::NodeId to) const {
  for (int a = arc_begin_[from]; a < arc_begin_[from + 1]; ++a) {
    if (arc_to_[a] == to) return arc_weight_[a];
  }
  return kInf;
}

bool RegenGraph::Adjacent(net::NodeId u, net::NodeId v) const {
  return ArcWeight(u, v) != kInf;
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
  Search search(*this);
  while (static_cast<int>(out.size()) < k) {
    const std::vector<net::NodeId>* seq = search.Next();
    if (seq == nullptr) break;
    out.push_back(*seq);
  }
  return out;
}

RegenGraph::Search::Search(const RegenGraph& g)
    : g_(g), done_(g.src_ == g.dst_) {
  const size_t n = g.node_weight_.size();
  stamp_.assign(n, 0);
  banned_.assign(n, 0);
  dist_.resize(n);
  parent_.resize(n);
}

bool RegenGraph::Search::Shortest(const std::vector<net::NodeId>& root,
                                  size_t spur, std::vector<net::NodeId>& out) {
  ++epoch_;
  for (size_t j = 0; j < spur; ++j) banned_[root[j]] = epoch_;
  const net::NodeId from = root[spur];
  const net::NodeId dst = g_.dst_;
  const auto dist = [&](net::NodeId v) {
    return stamp_[v] == epoch_ ? dist_[v] : kInf;
  };
  // Heap keys (distance, node) are all distinct, since a node is pushed
  // again only at a strictly smaller distance: the pop order, and with it
  // every tie-break, is that of any min-heap over the same keys.
  heap_.clear();
  stamp_[from] = epoch_;
  dist_[from] = 0.0;
  parent_[from] = net::kInvalidNode;
  heap_.emplace_back(0.0, from);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist_[u]) continue;
    if (u == dst) break;
    for (int a = g_.arc_begin_[u]; a < g_.arc_begin_[u + 1]; ++a) {
      const net::NodeId v = g_.arc_to_[a];
      if (banned_[v] == epoch_) continue;
      if (u == from && std::find(banned_hops_.begin(), banned_hops_.end(),
                                 v) != banned_hops_.end()) {
        continue;
      }
      const double nd = d + g_.arc_weight_[a];
      if (nd < dist(v)) {
        stamp_[v] = epoch_;
        dist_[v] = nd;
        parent_[v] = u;
        heap_.emplace_back(nd, v);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      }
    }
  }
  if (stamp_[dst] != epoch_) return false;
  out.clear();
  for (net::NodeId cur = dst; cur != net::kInvalidNode; cur = parent_[cur]) {
    out.push_back(cur);
  }
  std::reverse(out.begin(), out.end());
  return true;
}

double RegenGraph::Search::Cost(const std::vector<net::NodeId>& nodes) const {
  double cost = 0.0;
  for (size_t j = 0; j + 1 < nodes.size(); ++j) {
    cost += g_.ArcWeight(nodes[j], nodes[j + 1]);
  }
  return cost;
}

bool RegenGraph::Search::Known(const std::vector<net::NodeId>& nodes) const {
  const auto same = [&](const Path& p) { return p.nodes == nodes; };
  return std::any_of(found_.begin(), found_.end(), same) ||
         std::any_of(candidates_.begin(), candidates_.end(), same);
}

const std::vector<net::NodeId>* RegenGraph::Search::Next() {
  if (done_) return nullptr;
  if (found_.empty()) {
    Path first;
    if (!Shortest({g_.src_}, 0, first.nodes)) {
      done_ = true;
      return nullptr;
    }
    found_.push_back(std::move(first));
    return &found_.back().nodes;
  }

  // Spur off every node of the last path found. The root prefix's nodes
  // are banned, and so is every first hop out of the spur node that an
  // already found path with the same root takes; those are the only arcs
  // Yen's rule bans, since all of them leave the spur node.
  const std::vector<net::NodeId>& prev = found_.back().nodes;
  for (size_t i = 0; i + 1 < prev.size(); ++i) {
    banned_hops_.clear();
    for (const Path& p : found_) {
      if (p.nodes.size() > i + 1 &&
          std::equal(prev.begin(), prev.begin() + static_cast<long>(i) + 1,
                     p.nodes.begin())) {
        banned_hops_.push_back(p.nodes[i + 1]);
      }
    }
    if (!Shortest(prev, i, spur_)) continue;
    Path total;
    total.nodes.reserve(i + spur_.size());
    total.nodes.assign(prev.begin(), prev.begin() + static_cast<long>(i));
    total.nodes.insert(total.nodes.end(), spur_.begin(), spur_.end());
    if (Known(total.nodes)) continue;
    total.cost = Cost(total.nodes);
    candidates_.push_back(std::move(total));
  }
  if (candidates_.empty()) {
    done_ = true;
    return nullptr;
  }
  // Cheapest candidate; equal costs go to the lexicographically smaller
  // node sequence.
  const auto best = std::min_element(
      candidates_.begin(), candidates_.end(),
      [](const Path& a, const Path& b) {
        return a.cost != b.cost ? a.cost < b.cost : a.nodes < b.nodes;
      });
  found_.push_back(std::move(*best));
  if (best != candidates_.end() - 1) *best = std::move(candidates_.back());
  candidates_.pop_back();
  return &found_.back().nodes;
}

}  // namespace owan::optical
