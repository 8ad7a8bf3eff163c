#ifndef OWAN_OPTICAL_REGEN_GRAPH_H_
#define OWAN_OPTICAL_REGEN_GRAPH_H_

#include <vector>

#include "net/graph.h"
#include "optical/optical_network.h"

namespace owan::optical {

// Regenerator-graph machinery (paper Fig. 5).
//
// Nodes are the circuit's source, destination, and every site that still has
// free regenerators. An edge connects two nodes whose shortest fiber
// distance is within the optical reach eta. Each node carries a weight equal
// to the inverse of its remaining regenerators (src/dst weigh 0) so the path
// search balances regenerator consumption across sites. The min-node-weight
// path problem is solved on a *transformed* directed graph where each
// undirected edge becomes two arcs weighted by the node they point at.
class RegenGraph {
 public:
  // Builds the regenerator graph for a circuit src -> dst over the current
  // resource state of `on`. With `balance` (the paper's design) node
  // weights are the inverse of remaining regenerators; without it every
  // regen site weighs the same and the search just minimizes regen count +
  // distance (the ablation baseline).
  RegenGraph(const OpticalNetwork& on, net::NodeId src, net::NodeId dst,
             bool balance = true);

  // The underlying undirected regen graph; node ids here are *site* ids
  // (only a subset of sites participate; non-participants are isolated).
  const net::Graph& graph() const { return graph_; }

  double NodeWeight(net::NodeId site) const { return node_weight_[site]; }
  bool Participates(net::NodeId site) const { return participates_[site]; }

  // Up to k site sequences from src to dst ordered by (total interior node
  // weight, then total fiber distance). Each sequence is directly usable as
  // a circuit's regeneration-site chain. Computed via shortest-path search
  // on the transformed directed graph.
  std::vector<std::vector<net::NodeId>> CandidateSequences(int k) const;

  // Total interior node weight of a site sequence.
  double SequenceWeight(const std::vector<net::NodeId>& seq) const;

 private:
  net::NodeId src_;
  net::NodeId dst_;
  net::Graph graph_;
  std::vector<double> node_weight_;
  std::vector<bool> participates_;
};

}  // namespace owan::optical

#endif  // OWAN_OPTICAL_REGEN_GRAPH_H_
