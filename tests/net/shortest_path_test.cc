#include "net/shortest_path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>

#include "util/rng.h"

namespace owan::net {
namespace {

Graph Square() {
  // 0-1, 0-2, 1-3, 2-3 square with unit weights.
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  return g;
}

TEST(DijkstraTest, DistancesOnSquare) {
  Graph g = Square();
  SpTree t = Dijkstra(ToCsr(g), 0);
  EXPECT_DOUBLE_EQ(t.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(t.dist[1], 1.0);
  EXPECT_DOUBLE_EQ(t.dist[2], 1.0);
  EXPECT_DOUBLE_EQ(t.dist[3], 2.0);
}

TEST(DijkstraTest, WeightedPreference) {
  Graph g(3);
  g.AddEdge(0, 1, 10.0);
  g.AddEdge(0, 2, 1.0);
  g.AddEdge(2, 1, 1.0);
  auto p = ShortestPath(g, 0, 1);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 2, 1}));
  EXPECT_DOUBLE_EQ(p->length, 2.0);
}

TEST(DijkstraTest, UnreachableIsInf) {
  Graph g(3);
  g.AddEdge(0, 1);
  SpTree t = Dijkstra(ToCsr(g), 0);
  EXPECT_FALSE(t.Reachable(2));
  EXPECT_TRUE(t.Extract(2).empty());
}

TEST(DijkstraTest, FilterExcludesEdges) {
  Graph g = Square();
  // Block 0-1: path to 1 must go around.
  const DeadMask dead = {1, 0, 0, 0};
  SpTree t = Dijkstra(ToCsr(g, &dead), 0);
  EXPECT_DOUBLE_EQ(t.dist[1], 3.0);
}

TEST(DijkstraTest, ExtractReturnsEdgeIds) {
  Graph g = Square();
  SpTree t = Dijkstra(ToCsr(g), 0);
  Path p = t.Extract(3);
  ASSERT_EQ(p.edges.size(), 2u);
  ASSERT_EQ(p.nodes.size(), 3u);
  // Edges must actually connect the node sequence.
  for (size_t i = 0; i < p.edges.size(); ++i) {
    const Edge& e = g.edge(p.edges[i]);
    EXPECT_TRUE((e.u == p.nodes[i] && e.v == p.nodes[i + 1]) ||
                (e.v == p.nodes[i] && e.u == p.nodes[i + 1]));
  }
}

TEST(BfsTest, CountsHops) {
  Graph g(4);
  g.AddEdge(0, 1, 100.0);  // heavy but direct
  g.AddEdge(0, 2, 1.0);
  g.AddEdge(2, 3, 1.0);
  g.AddEdge(3, 1, 1.0);
  SpTree t = BfsTree(g, 0);
  EXPECT_DOUBLE_EQ(t.dist[1], 1.0);  // BFS ignores weights
}

TEST(ShortestPathTest, TrivialSrcEqualsDst) {
  Graph g = Square();
  auto p = ShortestPath(g, 2, 2);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{2}));
  EXPECT_EQ(p->HopCount(), 0u);
}

TEST(KShortestTest, FindsBothSquarePaths) {
  Graph g = Square();
  auto paths = KShortestPaths(g, 0, 3, 5);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].HopCount(), 2u);
  EXPECT_EQ(paths[1].HopCount(), 2u);
  EXPECT_NE(paths[0].nodes, paths[1].nodes);
}

TEST(KShortestTest, OrderedByLength) {
  Graph g(4);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 2, 2.0);
  g.AddEdge(2, 3, 2.0);
  g.AddEdge(1, 3, 1.0);
  g.AddEdge(0, 3, 10.0);
  auto paths = KShortestPaths(g, 0, 3, 3);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_LE(paths[0].length, paths[1].length);
  EXPECT_LE(paths[1].length, paths[2].length);
  EXPECT_DOUBLE_EQ(paths[0].length, 2.0);
}

TEST(KShortestTest, PathsAreLoopless) {
  util::Rng rng(17);
  Graph g(8);
  for (int i = 0; i < 16; ++i) {
    const int u = static_cast<int>(rng.Index(8));
    const int v = static_cast<int>(rng.Index(8));
    if (u != v) g.AddEdge(u, v, rng.Uniform(1.0, 5.0));
  }
  auto paths = KShortestPaths(g, 0, 7, 10);
  for (const Path& p : paths) {
    std::set<NodeId> seen(p.nodes.begin(), p.nodes.end());
    EXPECT_EQ(seen.size(), p.nodes.size()) << ToString(p);
  }
}

TEST(KShortestTest, NoDuplicatePaths) {
  Graph g = Square();
  g.AddEdge(0, 3, 5.0);
  auto paths = KShortestPaths(g, 0, 3, 10);
  std::set<std::vector<NodeId>> unique;
  for (const Path& p : paths) unique.insert(p.nodes);
  EXPECT_EQ(unique.size(), paths.size());
}

TEST(KShortestTest, DisconnectedReturnsEmpty) {
  Graph g(3);
  g.AddEdge(0, 1);
  EXPECT_TRUE(KShortestPaths(g, 0, 2, 3).empty());
}

TEST(KShortestTest, RespectsK) {
  Graph g = Square();
  g.AddEdge(0, 3, 5.0);
  EXPECT_EQ(KShortestPaths(g, 0, 3, 1).size(), 1u);
  EXPECT_EQ(KShortestPaths(g, 0, 3, 2).size(), 2u);
}

TEST(PathsUpToHopsTest, EnumeratesAllSimplePaths) {
  Graph g = Square();
  auto paths = PathsUpToHops(g, 0, 3, 4);
  // Square: exactly two simple paths 0->3.
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].HopCount(), 2u);
}

TEST(PathsUpToHopsTest, HopLimitCutsLongPaths) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  EXPECT_TRUE(PathsUpToHops(g, 0, 4, 3).empty());
  EXPECT_EQ(PathsUpToHops(g, 0, 4, 4).size(), 1u);
}

TEST(PathsUpToHopsTest, SortedByHopsThenLength) {
  Graph g(4);
  g.AddEdge(0, 3, 9.0);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 3, 1.0);
  g.AddEdge(0, 2, 1.0);
  g.AddEdge(2, 3, 3.0);
  auto paths = PathsUpToHops(g, 0, 3, 3);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].HopCount(), 1u);  // direct even though heavier
  EXPECT_EQ(paths[1].HopCount(), 2u);
  EXPECT_LT(paths[1].length, paths[2].length);
}

TEST(PathsUpToHopsTest, MaxPathsCap) {
  // Complete-ish graph generates many paths; the cap must hold.
  Graph g(7);
  for (int u = 0; u < 7; ++u) {
    for (int v = u + 1; v < 7; ++v) g.AddEdge(u, v);
  }
  auto paths = PathsUpToHops(g, 0, 6, 5, 10);
  EXPECT_EQ(paths.size(), 10u);
}

// FNV-1a over the little-endian bytes of each value.
class Digest {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      acc_ = (acc_ ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ULL;
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double d) { U64(std::bit_cast<uint64_t>(d)); }
  uint64_t value() const { return acc_; }

 private:
  uint64_t acc_ = 14695981039346656037ULL;
};

void DigestPaths(const std::vector<Path>& paths, Digest& d) {
  d.U64(paths.size());
  for (const Path& p : paths) {
    d.U64(p.nodes.size());
    for (NodeId v : p.nodes) d.I64(v);
    for (EdgeId e : p.edges) d.I64(e);
    d.F64(p.length);
  }
}

void DigestTree(const SpTree& t, Digest& d) {
  for (size_t v = 0; v < t.dist.size(); ++v) {
    d.F64(t.dist[v]);
    d.I64(t.parent[v]);
    d.I64(t.parent_edge[v]);
  }
}

struct MaskedGraph {
  Graph g;
  DeadMask dead;
};

// 4-15 nodes and n to 3n edges between random distinct endpoints, so
// parallel edges are common; integer weights 1-4, so equal-length routes
// are common; about one edge in ten dead.
MaskedGraph RandomMultigraph(util::Rng& rng) {
  const int n = rng.UniformInt(4, 15);
  MaskedGraph m{Graph(n), {}};
  const int edges = n + rng.UniformInt(0, 2 * n);
  for (int i = 0; i < edges; ++i) {
    const int u = rng.UniformInt(0, n - 1);
    int v = rng.UniformInt(0, n - 2);
    if (v >= u) ++v;
    m.g.AddEdge(u, v, static_cast<double>(rng.UniformInt(1, 4)));
    m.dead.push_back(rng.UniformInt(0, 9) == 0 ? 1 : 0);
  }
  return m;
}

// Every tie-break of the search, pinned: k = 8 routes for every ordered
// pair with and without the dead edges, and every full Dijkstra tree with
// and without them. The value was taken from the std::set Yen with
// std::function edge filters that the search replaced.
TEST(YenSearchTest, MatchesGoldenOnRandomMultigraphs) {
  util::Rng rng(2026);
  Digest d;
  for (int trial = 0; trial < 200; ++trial) {
    const MaskedGraph m = RandomMultigraph(rng);
    const Csr all = ToCsr(m.g);
    const Csr live = ToCsr(m.g, &m.dead);
    for (NodeId s = 0; s < m.g.NumNodes(); ++s) {
      DigestTree(Dijkstra(all, s), d);
      DigestTree(Dijkstra(live, s), d);
      for (NodeId t = 0; t < m.g.NumNodes(); ++t) {
        DigestPaths(KShortestPaths(m.g, s, t, 8), d);
        DigestPaths(KShortestPaths(live, s, t, 8), d);
      }
    }
  }
  EXPECT_EQ(d.value(), 0xe2b30b67e9c436c0ULL)
      << std::hex << "digest 0x" << d.value();
}

// The search is lazy: however far it is driven, its first j routes are
// KShortestPaths(..., j), and each route runs along live arcs that join
// its nodes.
TEST(YenSearchTest, LazyRoutesArePrefixesOfKShortestPaths) {
  util::Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    const MaskedGraph m = RandomMultigraph(rng);
    const Csr csr = ToCsr(m.g, &m.dead);
    for (NodeId s = 0; s < m.g.NumNodes(); ++s) {
      for (NodeId t = 0; t < m.g.NumNodes(); ++t) {
        YenSearch search(csr, s, t);
        std::vector<Path> lazy;
        while (lazy.size() < 10) {
          const std::optional<YenSearch::Route> r = search.Next();
          if (!r) break;
          Path& p = lazy.emplace_back();
          p.nodes.assign(r->nodes.begin(), r->nodes.end());
          ASSERT_EQ(r->arcs.size() + 1, r->nodes.size());
          for (size_t i = 0; i < r->arcs.size(); ++i) {
            const int a = r->arcs[i];
            EXPECT_GE(a, csr.begin[r->nodes[i]]);
            EXPECT_LT(a, csr.begin[r->nodes[i] + 1]);
            EXPECT_EQ(csr.head[a], r->nodes[i + 1]);
            EXPECT_FALSE(m.dead[csr.edge[a]]);
            p.edges.push_back(csr.edge[a]);
          }
          p.length = r->length;
        }
        for (int j = 0; j <= 10; ++j) {
          const auto first_j = KShortestPaths(csr, s, t, j);
          ASSERT_EQ(first_j.size(), std::min<size_t>(j, lazy.size()));
          for (size_t i = 0; i < first_j.size(); ++i) {
            EXPECT_EQ(first_j[i].nodes, lazy[i].nodes) << s << "->" << t;
            EXPECT_EQ(first_j[i].edges, lazy[i].edges) << s << "->" << t;
            EXPECT_EQ(first_j[i].length, lazy[i].length) << s << "->" << t;
          }
        }
      }
    }
  }
}

// TwoShortestPathsByHops promises the exact output of KShortestPaths(k=2)
// on unit-weight simple graphs — including tie-breaking and edge ids, since
// the annealing evaluator substitutes it for the canonical fallback.
TEST(TwoShortestPathsByHopsTest, MatchesYenOnRandomUnitGraphs) {
  util::Rng rng(99);
  for (int trial = 0; trial < 120; ++trial) {
    const int n = 5 + rng.UniformInt(0, 20);
    Graph g(n);
    std::set<std::pair<int, int>> used;
    const int edges = n + rng.UniformInt(0, 2 * n);
    for (int i = 0; i < edges; ++i) {
      const int u = rng.UniformInt(0, n - 1);
      const int v = rng.UniformInt(0, n - 1);
      if (u == v) continue;
      if (!used.insert(std::minmax(u, v)).second) continue;
      g.AddEdge(u, v);
    }
    for (int q = 0; q < 8; ++q) {
      const NodeId s = rng.UniformInt(0, n - 1);
      const NodeId d = rng.UniformInt(0, n - 1);
      const auto fast = TwoShortestPathsByHops(g, s, d);
      const auto ref = KShortestPaths(g, s, d, 2);
      ASSERT_EQ(fast.size(), ref.size())
          << "trial " << trial << " " << s << "->" << d;
      for (size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(fast[i].nodes, ref[i].nodes)
            << "trial " << trial << " " << s << "->" << d << " path " << i;
        ASSERT_EQ(fast[i].edges, ref[i].edges);
        ASSERT_DOUBLE_EQ(fast[i].length, ref[i].length);
      }
    }
  }
}

TEST(TwoShortestPathsByHopsTest, NonUnitWeightsDeferToYen) {
  Graph g(4);
  g.AddEdge(0, 1, 5.0);
  g.AddEdge(0, 2, 1.0);
  g.AddEdge(2, 3, 1.0);
  g.AddEdge(3, 1, 1.0);
  const auto fast = TwoShortestPathsByHops(g, 0, 1);
  const auto ref = KShortestPaths(g, 0, 1, 2);
  ASSERT_EQ(fast.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(fast[i].nodes, ref[i].nodes);
    EXPECT_DOUBLE_EQ(fast[i].length, ref[i].length);
  }
  // Weighted: the 3-hop detour beats the direct edge.
  EXPECT_EQ(fast[0].nodes, (std::vector<NodeId>{0, 2, 3, 1}));
}

TEST(TwoShortestPathsByHopsTest, DisconnectedAndDegenerate) {
  Graph g(4);
  g.AddEdge(0, 1);
  EXPECT_TRUE(TwoShortestPathsByHops(g, 0, 3).empty());
  const auto self = TwoShortestPathsByHops(g, 2, 2);
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0].nodes, (std::vector<NodeId>{2}));
  const auto single = TwoShortestPathsByHops(g, 0, 1);
  ASSERT_EQ(single.size(), 1u);  // no second loopless path exists
  EXPECT_EQ(single[0].nodes, (std::vector<NodeId>{0, 1}));
}

}  // namespace
}  // namespace owan::net
