#ifndef OWAN_OPTICAL_REGEN_GRAPH_H_
#define OWAN_OPTICAL_REGEN_GRAPH_H_

#include <cstdint>
#include <utility>
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
// undirected edge becomes two arcs weighted by the node they point at; the
// graph is stored only in that transformed form, as flat CSR arrays.
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
  // weight, then total fiber distance). Each sequence is directly usable as
  // a circuit's regeneration-site chain: the first k that Search yields.
  std::vector<std::vector<net::NodeId>> CandidateSequences(int k) const;

  // Total interior node weight of a site sequence.
  double SequenceWeight(const std::vector<net::NodeId>& seq) const;

  // Yen's k-shortest loopless paths over the transformed graph, one path
  // per Next(): the j-th call costs the spur searches of path j-1 only, so
  // a caller that stops early never pays for later candidates. Dijkstra
  // runs on buffers reused across every spur search of the walk.
  class Search {
   public:
    explicit Search(const RegenGraph& g);

    // The next site sequence, or nullptr once there is none. The pointee
    // stays valid until the following call.
    const std::vector<net::NodeId>* Next();

   private:
    struct Path {
      std::vector<net::NodeId> nodes;
      double cost = 0.0;
    };

    // Shortest path from root[spur] to the graph's dst that avoids
    // root[0 .. spur) and, on its first hop, the targets in banned_hops_.
    // Writes the node sequence (root[spur] .. dst) to `out`; false when
    // there is none.
    bool Shortest(const std::vector<net::NodeId>& root, size_t spur,
                  std::vector<net::NodeId>& out);
    // Left-to-right sum of the path's arc weights.
    double Cost(const std::vector<net::NodeId>& nodes) const;
    bool Known(const std::vector<net::NodeId>& nodes) const;

    const RegenGraph& g_;
    std::vector<Path> found_;       // yielded, in order
    std::vector<Path> candidates_;  // discovered, not yet yielded
    bool done_ = false;

    // Dijkstra state; entries are valid only where stamp_ == epoch_.
    uint32_t epoch_ = 0;
    std::vector<uint32_t> stamp_;
    std::vector<uint32_t> banned_;  // == epoch_: node banned this search
    std::vector<double> dist_;
    std::vector<net::NodeId> parent_;
    std::vector<std::pair<double, net::NodeId>> heap_;
    std::vector<net::NodeId> banned_hops_;
    std::vector<net::NodeId> spur_;  // the latest spur path
  };

 private:
  // Weight of the arc from -> to, or +inf if there is none.
  double ArcWeight(net::NodeId from, net::NodeId to) const;

  net::NodeId src_;
  net::NodeId dst_;
  std::vector<double> node_weight_;
  std::vector<bool> participates_;
  // Transformed graph (Fig. 5b) in CSR form: the arcs leaving node u are
  // [arc_begin_[u], arc_begin_[u + 1]), ascending by target site, each
  // weighted node_weight(target) * scale + fiber km.
  std::vector<int> arc_begin_;
  std::vector<net::NodeId> arc_to_;
  std::vector<double> arc_weight_;
};

}  // namespace owan::optical

#endif  // OWAN_OPTICAL_REGEN_GRAPH_H_
