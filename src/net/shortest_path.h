#ifndef OWAN_NET_SHORTEST_PATH_H_
#define OWAN_NET_SHORTEST_PATH_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/graph.h"

namespace owan::net {

inline constexpr double kInfDist = std::numeric_limits<double>::infinity();

// Directed arcs in compressed-sparse-row form: the arcs leaving node u are
// [begin[u], begin[u + 1]), arc a leading to head[a] with weight weight[a].
// edge[a] is the undirected edge the arc runs along; a graph whose callers
// want no edge ids may leave it empty (the regenerator graph does).
struct Csr {
  std::vector<int> begin;  // NumNodes() + 1 offsets; empty: no nodes
  std::vector<NodeId> head;
  std::vector<EdgeId> edge;
  std::vector<double> weight;

  int NumNodes() const {
    return begin.empty() ? 0 : static_cast<int>(begin.size()) - 1;
  }
};

// Dead-edge mask: edge e is dead where (*dead)[e] != 0.
using DeadMask = std::vector<char>;

// Both directions of every live edge of `g` (every edge when `dead` is
// nullptr): node u's arcs follow Incident(u). Searching these arcs is
// searching `g` with the dead edges skipped.
Csr ToCsr(const Graph& g, const DeadMask* dead = nullptr);

// Result of a single-source shortest-path computation.
struct SpTree {
  std::vector<double> dist;       // dist[n] == kInfDist if unreachable
  std::vector<NodeId> parent;     // parent node on shortest path, or -1
  std::vector<EdgeId> parent_edge;  // edge used to reach n, or -1

  bool Reachable(NodeId n) const { return dist[n] < kInfDist; }
  // Reconstruct the path from the tree root to `dst`; empty if unreachable.
  Path Extract(NodeId dst) const;
};

// Dijkstra by arc weight from `src`. Weights must be non-negative. The heap
// pops ascending (distance, node) and relaxes strictly, so ties go to the
// first arc, in CSR order, from the first-popped node.
SpTree Dijkstra(const Csr& csr, NodeId src);

// Breadth-first shortest path by hop count.
SpTree BfsTree(const Graph& g, NodeId src);

// Yen's k shortest loopless routes from src to dst over the arcs, one
// route per Next(): the j-th call costs the spur searches of route j - 1
// only, so a caller that stops early never pays for later routes. Every
// spur search runs on Dijkstra buffers reused across the whole walk.
//
// Routes come in ascending (length, node sequence) order, lengths summed
// left to right along the arcs; of two routes with the same node sequence
// (parallel edges) only the first found is kept. A spur search bans the
// root prefix's nodes and the spur node's outgoing arcs that already found
// routes with the same root take. On an undirected graph this is Yen's
// edge ban, parallel edges included, because a spur search never re-enters
// its source. src == dst yields the single-node route, then nothing.
class YenSearch {
 public:
  // A route's nodes, the arcs between them (arcs[i] leads nodes[i] to
  // nodes[i + 1]) and its length.
  struct Route {
    std::span<const NodeId> nodes;
    std::span<const int> arcs;
    double length = 0.0;
  };

  // `csr` must outlive the search.
  YenSearch(const Csr& csr, NodeId src, NodeId dst);

  // The next route, or nullopt once there is none. Its spans stay valid
  // until the following call.
  std::optional<Route> Next();

 private:
  // Per-node Dijkstra state; the other fields are valid only where
  // stamp == epoch_.
  struct NodeState {
    uint32_t stamp = 0;
    uint32_t banned = 0;  // == epoch_: root node, banned this search
    double dist = 0.0;
    NodeId parent = 0;
    int parent_arc = 0;
  };
  // Routes live back to back in nodes_ and arcs_ at one offset: a route of
  // `size` nodes holds nodes_[begin, begin + size) and arcs_[begin, begin +
  // size - 1), and arcs_[begin + size - 1] is unused.
  struct Stored {
    size_t begin = 0;
    size_t size = 0;
    double length = 0.0;
  };

  std::span<const NodeId> Nodes(const Stored& r) const {
    return {nodes_.data() + r.begin, r.size};
  }
  Route View(const Stored& r) const {
    return {Nodes(r), {arcs_.data() + r.begin, r.size - 1}, r.length};
  }
  // Shortest path from `from` to dst_ that avoids the `spur` root nodes
  // nodes_[root, root + spur) and, on its first hop, the arcs in
  // banned_arcs_. Appends the root prefix (those nodes and arcs_[root,
  // root + spur)) followed by the path to the pools as one route and
  // returns it; nullopt when there is no path.
  std::optional<Stored> Spur(NodeId from, size_t root, size_t spur);
  // Whether a found or candidate route has these nodes.
  bool Known(std::span<const NodeId> nodes) const;

  const Csr& csr_;
  NodeId src_;
  NodeId dst_;
  std::vector<NodeId> nodes_;
  std::vector<int> arcs_;
  std::vector<Stored> found_;       // yielded, in order
  std::vector<Stored> candidates_;  // discovered, not yet yielded
  bool done_ = false;

  uint32_t epoch_ = 0;
  std::vector<NodeState> state_;
  std::vector<std::pair<double, NodeId>> heap_;
  std::vector<int> banned_arcs_;
};

// Convenience: the single shortest (by weight) path src->dst, if any.
std::optional<Path> ShortestPath(const Graph& g, NodeId src, NodeId dst);

// The first k routes of a YenSearch from src to dst, as paths whose edges
// are the routes' arcs' edges. src == dst gives the single-node path.
std::vector<Path> KShortestPaths(const Graph& g, NodeId src, NodeId dst,
                                 int k);
std::vector<Path> KShortestPaths(const Csr& csr, NodeId src, NodeId dst,
                                 int k);

// Exact drop-in for KShortestPaths(g, src, dst, 2) on graphs whose edges
// all have weight 1 and no parallel edges (network-layer capacity graphs
// from Topology::ToGraph). Dijkstra's queue pops ascending (dist, node), so
// on such graphs its parent choices reduce to "lowest-id neighbor one hop
// level down" — which plain BFS level fields reproduce without a heap. The
// annealing evaluator's path cache re-derives fallback pairs through this
// on every structural move, so the constant factor matters.
std::vector<Path> TwoShortestPathsByHops(const Graph& g, NodeId src,
                                         NodeId dst);

// All loopless paths from src to dst with at most `max_hops` hops, sorted by
// hop count then weight. Exponential in general; intended for the small
// per-link path sets the energy function iterates over.
//
// When `truncated` is given it is set to true iff the enumeration stopped at
// `max_paths` before exhausting the search space — i.e. the result may be an
// incomplete (DFS-order, not rank-order) subset. Callers that cache path
// sets across graph edits need this: a complete set stays valid under edits
// that touch none of its links, a truncated one does not.
//
// The DFS is pruned by a reverse hop-BFS from dst (branches that cannot
// return to dst within the budget are skipped); the pruning is invisible in
// the output — the emitted path sequence, the cap behavior, and `truncated`
// match the exhaustive enumeration exactly. The output is a pure function
// of the neighbor sequences of nodes within max_hops - 1 hops of src, the
// bound truncated-set cache invalidation relies on.
std::vector<Path> PathsUpToHops(const Graph& g, NodeId src, NodeId dst,
                                int max_hops, size_t max_paths = 64,
                                bool* truncated = nullptr);

}  // namespace owan::net

#endif  // OWAN_NET_SHORTEST_PATH_H_
