#include "net/shortest_path.h"

#include <algorithm>
#include <climits>
#include <functional>
#include <queue>

namespace owan::net {

Path SpTree::Extract(NodeId dst) const {
  Path p;
  if (dst < 0 || dst >= static_cast<NodeId>(dist.size()) || !Reachable(dst)) {
    return p;
  }
  NodeId cur = dst;
  while (cur != -1) {
    p.nodes.push_back(cur);
    const EdgeId pe = parent_edge[cur];
    if (pe != kInvalidEdge) p.edges.push_back(pe);
    cur = parent[cur];
  }
  std::reverse(p.nodes.begin(), p.nodes.end());
  std::reverse(p.edges.begin(), p.edges.end());
  p.length = dist[dst];
  return p;
}

Csr ToCsr(const Graph& g, const DeadMask* dead) {
  const int n = g.NumNodes();
  Csr c;
  c.begin.assign(static_cast<size_t>(n) + 1, 0);
  const size_t arcs = 2 * static_cast<size_t>(g.NumEdges());
  c.head.reserve(arcs);
  c.edge.reserve(arcs);
  c.weight.reserve(arcs);
  for (NodeId u = 0; u < n; ++u) {
    for (EdgeId e : g.Incident(u)) {
      if (dead != nullptr && (*dead)[e]) continue;
      const Edge& edge = g.edge(e);
      c.head.push_back(edge.Other(u));
      c.edge.push_back(e);
      c.weight.push_back(edge.weight);
    }
    c.begin[static_cast<size_t>(u) + 1] = static_cast<int>(c.head.size());
  }
  return c;
}

SpTree Dijkstra(const Csr& csr, NodeId src) {
  const int n = csr.NumNodes();
  SpTree t;
  t.dist.assign(n, kInfDist);
  t.parent.assign(n, -1);
  t.parent_edge.assign(n, kInvalidEdge);
  if (src < 0 || src >= n) return t;
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  t.dist[src] = 0.0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > t.dist[u]) continue;
    for (int a = csr.begin[u]; a < csr.begin[u + 1]; ++a) {
      const NodeId v = csr.head[a];
      const double nd = d + csr.weight[a];
      if (nd < t.dist[v]) {
        t.dist[v] = nd;
        t.parent[v] = u;
        t.parent_edge[v] = csr.edge[a];
        pq.emplace(nd, v);
      }
    }
  }
  return t;
}

SpTree BfsTree(const Graph& g, NodeId src) {
  const int n = g.NumNodes();
  SpTree t;
  t.dist.assign(n, kInfDist);
  t.parent.assign(n, -1);
  t.parent_edge.assign(n, kInvalidEdge);
  if (src < 0 || src >= n) return t;
  // Cache invalidation bounds run this per changed link per candidate:
  // level-frontier sweep over the flat arc array, in FIFO-queue discovery
  // order.
  thread_local std::vector<NodeId> frontier;
  thread_local std::vector<NodeId> next;
  frontier.assign(1, src);
  t.dist[src] = 0.0;
  double d = 0.0;
  while (!frontier.empty()) {
    next.clear();
    d += 1.0;
    for (const NodeId u : frontier) {
      for (const Graph::Arc& a : g.Arcs(u)) {
        if (t.dist[a.to] == kInfDist) {
          t.dist[a.to] = d;
          t.parent[a.to] = u;
          t.parent_edge[a.to] = a.e;
          next.push_back(a.to);
        }
      }
    }
    frontier.swap(next);
  }
  return t;
}

YenSearch::YenSearch(const Csr& csr, NodeId src, NodeId dst)
    : csr_(csr),
      src_(src),
      dst_(dst),
      done_(src != dst && (src < 0 || dst < 0 || src >= csr.NumNodes() ||
                           dst >= csr.NumNodes())),
      state_(static_cast<size_t>(csr.NumNodes())) {}

std::optional<YenSearch::Stored> YenSearch::Spur(NodeId from, size_t root,
                                                size_t spur) {
  ++epoch_;
  for (size_t j = 0; j < spur; ++j) state_[nodes_[root + j]].banned = epoch_;
  const auto dist = [&](NodeId v) {
    return state_[v].stamp == epoch_ ? state_[v].dist : kInfDist;
  };
  // Heap keys (distance, node) are all distinct, since a node is pushed
  // again only at a strictly smaller distance: the pop order, and with it
  // every tie-break, is that of any min-heap over the same keys. Paths
  // into dst_ are final once it pops.
  heap_.clear();
  state_[from].stamp = epoch_;
  state_[from].dist = 0.0;
  heap_.emplace_back(0.0, from);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > state_[u].dist) continue;
    if (u == dst_) break;
    for (int a = csr_.begin[u], end = csr_.begin[u + 1]; a < end; ++a) {
      const NodeId v = csr_.head[a];
      if (state_[v].banned == epoch_) continue;
      if (u == from && std::find(banned_arcs_.begin(), banned_arcs_.end(),
                                 a) != banned_arcs_.end()) {
        continue;
      }
      const double nd = d + csr_.weight[a];
      if (nd < dist(v)) {
        NodeState& s = state_[v];
        s.stamp = epoch_;
        s.dist = nd;
        s.parent = u;
        s.parent_arc = a;
        heap_.emplace_back(nd, v);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      }
    }
  }
  if (state_[dst_].stamp != epoch_) return std::nullopt;

  // Route: the root prefix, then the spur path walked back from dst_.
  size_t size = spur + 1;
  for (NodeId v = dst_; v != from; v = state_[v].parent) ++size;
  const size_t begin = nodes_.size();
  nodes_.resize(begin + size);
  arcs_.resize(begin + size);
  std::copy_n(nodes_.begin() + static_cast<long>(root), spur,
              nodes_.begin() + static_cast<long>(begin));
  std::copy_n(arcs_.begin() + static_cast<long>(root), spur,
              arcs_.begin() + static_cast<long>(begin));
  size_t pos = begin + size - 1;
  nodes_[pos] = dst_;
  arcs_[pos] = -1;
  for (NodeId v = dst_; v != from; v = state_[v].parent) {
    --pos;
    nodes_[pos] = state_[v].parent;
    arcs_[pos] = state_[v].parent_arc;
  }
  Stored r{begin, size, 0.0};
  for (int a : View(r).arcs) r.length += csr_.weight[a];
  return r;
}

bool YenSearch::Known(std::span<const NodeId> nodes) const {
  const auto same = [&](const Stored& r) {
    return std::ranges::equal(Nodes(r), nodes);
  };
  return std::ranges::any_of(found_, same) ||
         std::ranges::any_of(candidates_, same);
}

std::optional<YenSearch::Route> YenSearch::Next() {
  if (done_) return std::nullopt;
  if (found_.empty()) {
    std::optional<Stored> first;
    if (src_ == dst_) {
      nodes_.push_back(src_);
      arcs_.push_back(-1);
      first = Stored{0, 1, 0.0};
    } else {
      first = Spur(src_, 0, 0);
    }
    if (!first) {
      done_ = true;
      return std::nullopt;
    }
    found_.push_back(*first);
    return View(*first);
  }

  // Spur off every node of the last route found but its last.
  const Stored prev = found_.back();
  for (size_t i = 0; i + 1 < prev.size; ++i) {
    banned_arcs_.clear();
    const auto root = Nodes(prev).first(i + 1);
    for (const Stored& r : found_) {
      if (r.size > i + 1 && std::ranges::equal(Nodes(r).first(i + 1), root)) {
        banned_arcs_.push_back(arcs_[r.begin + i]);
      }
    }
    const std::optional<Stored> total = Spur(root.back(), prev.begin, i);
    if (!total) continue;
    if (Known(Nodes(*total))) {
      nodes_.resize(total->begin);
      arcs_.resize(total->begin);
      continue;
    }
    candidates_.push_back(*total);
  }
  if (candidates_.empty()) {
    done_ = true;
    return std::nullopt;
  }
  // Shortest candidate; equal lengths go to the lexicographically smaller
  // node sequence. Node sequences are unique, so the order is total.
  const auto best = std::ranges::min_element(
      candidates_, [&](const Stored& a, const Stored& b) {
        if (a.length != b.length) return a.length < b.length;
        return std::ranges::lexicographical_compare(Nodes(a), Nodes(b));
      });
  found_.push_back(*best);
  *best = candidates_.back();
  candidates_.pop_back();
  return View(found_.back());
}

std::optional<Path> ShortestPath(const Graph& g, NodeId src, NodeId dst) {
  std::vector<Path> paths = KShortestPaths(g, src, dst, 1);
  if (paths.empty()) return std::nullopt;
  return std::move(paths.front());
}

std::vector<Path> KShortestPaths(const Graph& g, NodeId src, NodeId dst,
                                 int k) {
  return KShortestPaths(ToCsr(g), src, dst, k);
}

std::vector<Path> KShortestPaths(const Csr& csr, NodeId src, NodeId dst,
                                 int k) {
  std::vector<Path> out;
  if (k <= 0) return out;
  YenSearch search(csr, src, dst);
  while (static_cast<int>(out.size()) < k) {
    const std::optional<YenSearch::Route> r = search.Next();
    if (!r) break;
    Path& p = out.emplace_back();
    p.nodes.assign(r->nodes.begin(), r->nodes.end());
    p.edges.reserve(r->arcs.size());
    for (int a : r->arcs) p.edges.push_back(csr.edge[a]);
    p.length = r->length;
  }
  return out;
}

namespace {

// Hop levels from `src` under the Yen spur mask; dist[v] == -1 if not
// reached. Level fields are order-independent, so a plain frontier BFS
// matches what the filtered Dijkstra computes on unit-weight edges. Stops
// once the level containing `stop_at` completes: every node at distance
// <= dist[stop_at] is labeled by then, which is all the canonical
// backward walk ever queries. `max_level` additionally abandons the sweep
// once all of level max_level is labeled without reaching stop_at —
// callers pass it when a deeper stop_at could not matter anyway.
void HopLevels(const Graph& g, NodeId src, NodeId stop_at, EdgeId banned_edge,
               const std::vector<char>& banned_node, std::vector<int>& dist,
               int max_level = INT_MAX) {
  dist.assign(static_cast<size_t>(g.NumNodes()), -1);
  // Leaf routine on the evaluator's hottest path: keep the frontier
  // buffers per-thread instead of reallocating them per call.
  static thread_local std::vector<NodeId> frontier;
  static thread_local std::vector<NodeId> next;
  frontier.assign(1, src);
  dist[static_cast<size_t>(src)] = 0;
  int level = 0;
  while (!frontier.empty()) {
    next.clear();
    ++level;
    for (NodeId u : frontier) {
      // Frontier nodes are never banned (the source is a spur node, and
      // banned endpoints are filtered before enqueueing), so only the far
      // endpoint needs the mask check.
      for (const Graph::Arc& a : g.Arcs(u)) {
        if (a.e == banned_edge) continue;
        const NodeId v = a.to;
        if (banned_node[static_cast<size_t>(v)]) continue;
        if (dist[static_cast<size_t>(v)] == -1) {
          dist[static_cast<size_t>(v)] = level;
          next.push_back(v);
        }
      }
    }
    if (dist[static_cast<size_t>(stop_at)] != -1) return;
    if (level >= max_level) return;
    frontier.swap(next);
  }
}

// Canonical shortest path from the level field, replicating the filtered
// Dijkstra's tie-breaking: pops ascend (dist, node), and a node's dist is
// only ever set once on unit-weight edges, so parent[v] is the lowest-id
// masked neighbor one level down and parent_edge[v] is the first qualifying
// edge in that parent's incident list.
std::optional<Path> ExtractByLevels(const Graph& g, NodeId dst,
                                    EdgeId banned_edge,
                                    const std::vector<char>& banned_node,
                                    const std::vector<int>& dist) {
  const int d = dist[static_cast<size_t>(dst)];
  if (d < 0) return std::nullopt;
  Path p;
  p.nodes.assign(static_cast<size_t>(d) + 1, -1);
  p.edges.assign(static_cast<size_t>(d), kInvalidEdge);
  p.length = static_cast<double>(d);
  NodeId cur = dst;
  for (int lvl = d; lvl > 0; --lvl) {
    p.nodes[static_cast<size_t>(lvl)] = cur;
    NodeId parent = -1;
    // cur is on the canonical path and parents carry a dist label, so
    // neither is ever banned — only the candidate endpoint needs the check.
    for (const Graph::Arc& a : g.Arcs(cur)) {
      if (a.e == banned_edge) continue;
      const NodeId v = a.to;
      if (banned_node[static_cast<size_t>(v)]) continue;
      if (dist[static_cast<size_t>(v)] == lvl - 1 &&
          (parent == -1 || v < parent)) {
        parent = v;
      }
    }
    for (const Graph::Arc& a : g.Arcs(parent)) {
      if (a.e == banned_edge) continue;
      if (banned_node[static_cast<size_t>(a.to)]) continue;
      if (a.to == cur) {
        p.edges[static_cast<size_t>(lvl) - 1] = a.e;
        break;
      }
    }
    cur = parent;
  }
  p.nodes[0] = cur;
  return p;
}

}  // namespace

std::vector<Path> TwoShortestPathsByHops(const Graph& g, NodeId src,
                                         NodeId dst) {
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (g.edge(e).weight != 1.0) return KShortestPaths(g, src, dst, 2);
  }
  std::vector<Path> result;
  if (src < 0 || dst < 0 || src >= g.NumNodes() || dst >= g.NumNodes()) {
    return result;
  }
  if (src == dst) {
    Path p;
    p.nodes = {src};
    result.push_back(std::move(p));
    return result;
  }
  static thread_local std::vector<char> banned_node;
  static thread_local std::vector<int> dist;
  banned_node.assign(static_cast<size_t>(g.NumNodes()), 0);
  HopLevels(g, src, dst, kInvalidEdge, banned_node, dist);
  auto first = ExtractByLevels(g, dst, kInvalidEdge, banned_node, dist);
  if (!first) return result;
  result.push_back(*first);

  // Yen's single deviation round: candidates are ordered by (length, node
  // sequence) and spurs are visited root-first, so tracking the strictly
  // smallest candidate reproduces the candidate set's begin() — including
  // which parallel-edge variant survives on equal node sequences.
  const Path& prev = result.front();
  std::optional<Path> best;
  for (size_t i = 0; i + 1 < prev.nodes.size(); ++i) {
    const NodeId spur = prev.nodes[i];
    if (i > 0) banned_node[static_cast<size_t>(prev.nodes[i - 1])] = 1;
    const EdgeId banned_edge = prev.edges[i];
    // A candidate from this spur is i + spur-segment hops long; it can only
    // displace `best` at <= best->length total, so the spur BFS may stop at
    // that depth. Once even a 1-hop segment is too long, no later spur
    // (larger i, same bound) can produce a winner either.
    int cap = INT_MAX;
    if (best) {
      cap = static_cast<int>(best->length) - static_cast<int>(i);
      if (cap < 1) break;
    }
    HopLevels(g, spur, dst, banned_edge, banned_node, dist, cap);
    auto spur_path = ExtractByLevels(g, dst, banned_edge, banned_node, dist);
    if (!spur_path) continue;
    Path total;
    total.nodes.assign(prev.nodes.begin(),
                       prev.nodes.begin() + static_cast<long>(i));
    total.nodes.insert(total.nodes.end(), spur_path->nodes.begin(),
                       spur_path->nodes.end());
    if (total.nodes == prev.nodes) continue;  // Yen's known-path mask
    total.edges.assign(prev.edges.begin(),
                       prev.edges.begin() + static_cast<long>(i));
    total.edges.insert(total.edges.end(), spur_path->edges.begin(),
                       spur_path->edges.end());
    total.length = static_cast<double>(total.edges.size());
    const bool better =
        !best || total.length < best->length ||
        (total.length == best->length && total.nodes < best->nodes);
    if (better) best = std::move(total);
  }
  if (best) result.push_back(std::move(*best));
  return result;
}

namespace {

// `to_dst[v]` is the hop-BFS distance from v to dst (INT_MAX if farther
// than the budget): a lower bound on the remaining hops of ANY simple
// path v -> dst, so branches that cannot make it back within the budget
// are skipped. Pruned subtrees contain no emitted path, which keeps the
// discovery order — and therefore the output, the cap behavior, and the
// `truncated` flag — bit-identical to the unpruned enumeration.
void PathsDfs(const Graph& g, NodeId cur, NodeId dst, int max_hops,
              size_t max_paths, std::vector<NodeId>& nodes,
              std::vector<EdgeId>& edges, std::vector<bool>& visited,
              double length, const std::vector<int>& to_dst,
              std::vector<Path>& out) {
  if (out.size() >= max_paths) return;
  if (cur == dst) {
    Path p;
    p.nodes = nodes;
    p.edges = edges;
    p.length = length;
    out.push_back(std::move(p));
    return;
  }
  if (static_cast<int>(edges.size()) >= max_hops) return;
  const int remaining = max_hops - static_cast<int>(edges.size()) - 1;
  for (const Graph::Arc& a : g.Arcs(cur)) {
    const NodeId nxt = a.to;
    if (visited[nxt]) continue;
    if (to_dst[static_cast<size_t>(nxt)] > remaining) continue;
    visited[nxt] = true;
    nodes.push_back(nxt);
    edges.push_back(a.e);
    PathsDfs(g, nxt, dst, max_hops, max_paths, nodes, edges, visited,
             length + g.edge(a.e).weight, to_dst, out);
    edges.pop_back();
    nodes.pop_back();
    visited[nxt] = false;
  }
}

}  // namespace

std::vector<Path> PathsUpToHops(const Graph& g, NodeId src, NodeId dst,
                                int max_hops, size_t max_paths,
                                bool* truncated) {
  std::vector<Path> out;
  if (truncated) *truncated = false;
  if (src < 0 || dst < 0 || src >= g.NumNodes() || dst >= g.NumNodes()) {
    return out;
  }
  // Bounded reverse BFS from dst feeds the DFS prune. Pairs farther apart
  // than the hop budget — the common case on sparse plants, where the
  // caller falls back to the unbounded two-shortest set — exit here for
  // the cost of one BFS ball instead of exploring every simple walk.
  static thread_local std::vector<int> to_dst;
  static thread_local std::vector<NodeId> frontier;
  static thread_local std::vector<NodeId> next;
  to_dst.assign(static_cast<size_t>(g.NumNodes()), INT_MAX);
  to_dst[static_cast<size_t>(dst)] = 0;
  frontier.assign(1, dst);
  for (int level = 1; level <= max_hops && !frontier.empty(); ++level) {
    next.clear();
    for (NodeId u : frontier) {
      for (const Graph::Arc& a : g.Arcs(u)) {
        if (to_dst[static_cast<size_t>(a.to)] == INT_MAX) {
          to_dst[static_cast<size_t>(a.to)] = level;
          next.push_back(a.to);
        }
      }
    }
    frontier.swap(next);
  }
  if (to_dst[static_cast<size_t>(src)] > max_hops) return out;
  std::vector<bool> visited(g.NumNodes(), false);
  std::vector<NodeId> nodes{src};
  std::vector<EdgeId> edges;
  visited[src] = true;
  PathsDfs(g, src, dst, max_hops, max_paths, nodes, edges, visited, 0.0,
           to_dst, out);
  // Hitting the cap means the DFS may have abandoned unexplored branches;
  // the set is then a discovery-order sample rather than the full space.
  if (truncated) *truncated = out.size() >= max_paths;
  std::sort(out.begin(), out.end(), [](const Path& a, const Path& b) {
    if (a.HopCount() != b.HopCount()) return a.HopCount() < b.HopCount();
    if (a.length != b.length) return a.length < b.length;
    return a.nodes < b.nodes;
  });
  return out;
}

}  // namespace owan::net
