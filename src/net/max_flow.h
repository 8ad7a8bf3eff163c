#ifndef OWAN_NET_MAX_FLOW_H_
#define OWAN_NET_MAX_FLOW_H_

#include <vector>

#include "net/graph.h"

namespace owan::net {

// Dinic's maximum-flow algorithm over a directed flow network.
//
// Used only as a reference oracle in tests (e.g. checking that the energy
// function never exceeds the min-cut between a source and sink); no
// production code path calls it.
class MaxFlow {
 public:
  explicit MaxFlow(int num_nodes);

  // Adds a directed arc u->v with the given capacity. Returns an arc id that
  // can be used to query flow afterwards.
  int AddArc(NodeId u, NodeId v, double capacity);

  // Adds both directions with the same capacity (an undirected link).
  void AddUndirected(NodeId u, NodeId v, double capacity);

  // Computes the max flow from s to t. Can be called repeatedly after adding
  // more arcs; flow accumulates.
  double Solve(NodeId s, NodeId t);

  // Flow currently routed on arc `arc_id` (as returned by AddArc).
  double FlowOn(int arc_id) const;

  int NumNodes() const { return static_cast<int>(adj_.size()); }

 private:
  struct Arc {
    NodeId to;
    double cap;     // residual capacity
    double orig;    // original capacity
    int rev;        // index of reverse arc in adj_[to]
  };

  bool Bfs(NodeId s, NodeId t);
  double Dfs(NodeId u, NodeId t, double pushed);

  std::vector<std::vector<Arc>> adj_;
  std::vector<std::pair<NodeId, int>> arc_index_;  // arc id -> (node, slot)
  std::vector<int> level_;
  std::vector<size_t> iter_;
};

// Min-cut capacity between s and t treating every edge of `g` as an
// undirected link with its `capacity` field.
double MinCut(const Graph& g, NodeId s, NodeId t);

}  // namespace owan::net

#endif  // OWAN_NET_MAX_FLOW_H_
