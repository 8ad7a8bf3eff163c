#ifndef OWAN_OPTICAL_REGEN_GRAPH_H_
#define OWAN_OPTICAL_REGEN_GRAPH_H_

#include <vector>

#include "net/graph.h"
#include "net/shortest_path.h"
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
// undirected edge becomes two arcs weighted by the node they point at; the
// graph is stored only in that transformed form, as a net::Csr.
class RegenGraph {
 public:
  // Builds the regenerator graph for a circuit src -> dst over the current
  // resource state of `on`. With `balance` (the paper's design) node
  // weights are the inverse of remaining regenerators; without it every
  // regen site weighs the same and the search just minimizes regen count +
  // distance (the ablation baseline).
  RegenGraph(const OpticalNetwork& on, net::NodeId src, net::NodeId dst,
             bool balance = true);

  double NodeWeight(net::NodeId site) const { return node_weight_[site]; }
  bool Participates(net::NodeId site) const { return participates_[site]; }
  // True when the regen graph has an edge between the two sites.
  bool Adjacent(net::NodeId u, net::NodeId v) const;

  // Up to k site sequences from src to dst ordered by (total interior node
  // weight, then total fiber distance): the first k routes of a
  // net::YenSearch over arcs(). Each sequence is directly usable as a
  // circuit's regeneration-site chain. None when src == dst.
  std::vector<std::vector<net::NodeId>> CandidateSequences(int k) const;

  // Total interior node weight of a site sequence.
  double SequenceWeight(const std::vector<net::NodeId>& seq) const;

  // The transformed graph (Fig. 5b): the arcs leaving a site ascend by
  // target site, each weighted node_weight(target) * scale + fiber km. The
  // arcs carry no edge ids.
  const net::Csr& arcs() const { return arcs_; }

 private:
  net::NodeId src_;
  net::NodeId dst_;
  std::vector<double> node_weight_;
  std::vector<bool> participates_;
  net::Csr arcs_;
};

}  // namespace owan::optical

#endif  // OWAN_OPTICAL_REGEN_GRAPH_H_
