#include "core/routing.h"

#include <algorithm>
#include <climits>
#include <optional>

#include "net/shortest_path.h"

namespace owan::core {

namespace {
constexpr double kRateEps = 1e-9;

// Default PathSource: enumerates on first use, flat-indexed by src*n+dst.
// Replaces the old per-call std::map cache — the slot table is two vector
// allocations and O(1) lookups instead of a red-black tree rebuilt per
// evaluation.
class FreshPathSource : public PathSource {
 public:
  FreshPathSource(const net::Graph& topo, const RoutingOptions& options)
      : topo_(topo),
        options_(options),
        slot_(static_cast<size_t>(topo.NumNodes()) *
                  static_cast<size_t>(topo.NumNodes()),
              -1) {}

  const PairPaths& PathsFor(net::NodeId src, net::NodeId dst) override {
    const size_t idx = static_cast<size_t>(src) *
                           static_cast<size_t>(topo_.NumNodes()) +
                       static_cast<size_t>(dst);
    int32_t s = slot_[idx];
    if (s < 0) {
      entries_.push_back(EnumeratePairPaths(topo_, src, dst, options_));
      s = static_cast<int32_t>(entries_.size()) - 1;
      slot_[idx] = s;
    }
    return entries_[static_cast<size_t>(s)];
  }

 private:
  const net::Graph& topo_;
  const RoutingOptions& options_;
  std::vector<int32_t> slot_;
  std::vector<PairPaths> entries_;
};

uint64_t CanonicalPairKey(net::NodeId u, net::NodeId v) {
  const uint64_t a = static_cast<uint64_t>(static_cast<uint32_t>(u));
  const uint64_t b = static_cast<uint64_t>(static_cast<uint32_t>(v));
  return u < v ? (a << 32) | b : (b << 32) | a;
}

}  // namespace

PairPaths EnumeratePairPaths(const net::Graph& topo, net::NodeId src,
                             net::NodeId dst, const RoutingOptions& options) {
  PairPaths pp;
  pp.paths = net::PathsUpToHops(topo, src, dst, options.max_hops,
                                kMaxPathsPerPair, &pp.truncated);
  if (pp.paths.empty()) {
    pp.paths = net::KShortestPaths(topo, src, dst, 2);
    pp.fallback = true;
    pp.truncated = false;
  }
  return pp;
}

double AllocateRates(const net::Graph& topo,
                     const std::vector<TransferDemand>& demands,
                     const RoutingOptions& options, PathSource& paths,
                     RoutingScratch& s, const RepairHints* repair) {
  const size_t nd = demands.size();

  // Graph identical to the last run: its outputs are already the answer.
  if (repair != nullptr && repair->no_changes && s.run_valid) {
    return s.throughput;
  }

  if (!s.order_valid) {
    s.order = ScheduleOrder(demands, options.policy);
    s.order_valid = true;
  }

  // Prime the per-demand pair entries in two passes. Pass 1 forces every
  // entry into existence; a PathSource may create entries lazily and
  // invalidate earlier references while doing so. Pass 2 re-fetches the now
  // stable references and derives min_hop / longest_hops. longest_hops must
  // cover all fallback paths (pairs farther apart than max_hops route over
  // their unbounded k-shortest paths, which stretch the hop rounds).
  for (const TransferDemand& d : demands) {
    if (d.src == d.dst || d.src == net::kInvalidNode) continue;
    paths.PathsFor(d.src, d.dst);
  }
  s.pair.assign(nd, nullptr);
  s.min_hop.assign(nd, INT_MAX);
  int longest_hops = options.max_hops;
  for (size_t i = 0; i < nd; ++i) {
    const TransferDemand& d = demands[i];
    if (d.src == d.dst || d.src == net::kInvalidNode) continue;
    const PairPaths& pp = paths.PathsFor(d.src, d.dst);
    s.pair[i] = &pp;
    if (!pp.paths.empty()) {
      // PathsUpToHops output is sorted by hop count first, and the fallback
      // pair is length-sorted on a unit-weight round, so front() is minimal.
      s.min_hop[i] = static_cast<int>(pp.paths.front().HopCount());
      if (pp.fallback) {
        for (const net::Path& p : pp.paths) {
          longest_hops =
              std::max(longest_hops, static_cast<int>(p.HopCount()));
        }
      }
    }
  }

  double thr = 0.0;
  size_t nck = 0;        // checkpoints belonging to this run
  int start_round = 1;   // first hop round left to execute
  bool replayed = false;

  // ---- checkpoint restore (incremental route repair) ----
  //
  // Restores the deepest recorded stage no dirty demand had acted by, then
  // falls through to the ordinary round loop for the remaining rounds.
  // Re-executing a clean-only round from a restored state is exact, so the
  // result is bit-identical to a fresh run. Replay assumes the graph has at
  // most one edge per endpoint pair (true of Topology::ToGraph output); the
  // endpoint-keyed checkpoint rewrite would conflate parallel edges.
  const bool can_replay = repair != nullptr && !options.strict_priority &&
                          s.record_checkpoints && s.run_valid &&
                          s.ckpt_valid && !s.ckpts.empty();
  if (can_replay) {
    size_t keep = 0;  // number of checkpoints still valid for this run
    while (keep < s.ckpts.size() &&
           s.ckpts[keep].stage < repair->restart_round) {
      ++keep;
    }
    if (keep > 0) {
      if (!repair->edge_ids_stable) {
        // Edge ids changed (graph rebuild): rewrite each kept checkpoint's
        // residual vector into the new id space through canonical endpoint
        // pairs. Appeared edges start at full capacity; disappeared edges
        // drop (no clean-prefix grant ever touched either kind).
        s.edge_remap.clear();
        for (net::EdgeId e = 0; e < topo.NumEdges(); ++e) {
          const net::Edge& ed = topo.edge(e);
          s.edge_remap[CanonicalPairKey(ed.u, ed.v)] = e;
        }
        for (size_t i = 0; i < keep; ++i) {
          RoutingScratch::Checkpoint& c = s.ckpts[i];
          s.residual.resize(static_cast<size_t>(topo.NumEdges()));
          for (net::EdgeId e = 0; e < topo.NumEdges(); ++e) {
            s.residual[static_cast<size_t>(e)] = topo.edge(e).capacity;
          }
          const size_t old_edges =
              std::min(c.residual.size(), s.ckpt_edges.size());
          for (size_t oe = 0; oe < old_edges; ++oe) {
            const auto it = s.edge_remap.find(CanonicalPairKey(
                s.ckpt_edges[oe].first, s.ckpt_edges[oe].second));
            if (it != s.edge_remap.end()) {
              s.residual[static_cast<size_t>(it->second)] = c.residual[oe];
            }
          }
          c.residual = s.residual;
        }
      }
      // Changed edges carried no clean-prefix grants, so their fresh-run
      // residual at every kept stage is simply their new full capacity.
      for (size_t i = 0; i < keep; ++i) {
        for (net::EdgeId e : repair->changed_edges) {
          s.ckpts[i].residual[static_cast<size_t>(e)] = topo.edge(e).capacity;
        }
      }

      const RoutingScratch::Checkpoint& c = s.ckpts[keep - 1];
      s.residual = c.residual;
      s.unmet = c.unmet;
      s.rates = c.rates;
      thr = c.throughput;
      s.grants.resize(c.grant_count);
      start_round = c.stage + 1;
      nck = keep;
      replayed = true;
    }
  }

  if (!replayed) {
    s.residual.resize(static_cast<size_t>(topo.NumEdges()));
    for (net::EdgeId e = 0; e < topo.NumEdges(); ++e) {
      s.residual[static_cast<size_t>(e)] = topo.edge(e).capacity;
    }
    s.unmet.resize(nd);
    for (size_t i = 0; i < nd; ++i) {
      s.unmet[i] = std::max(0.0, demands[i].rate_cap);
    }
    s.rates.assign(nd, 0.0);
    s.grants.clear();
  }

  // Serves one transfer across all of its paths (shortest first).
  auto serve_fully = [&](size_t oi) {
    const PairPaths* pp = s.pair[oi];
    if (pp == nullptr) return;
    for (uint32_t pi = 0; pi < pp->paths.size(); ++pi) {
      if (s.unmet[oi] <= kRateEps) break;
      const net::Path& p = pp->paths[pi];
      double bottleneck = s.unmet[oi];
      for (net::EdgeId e : p.edges) {
        bottleneck = std::min(bottleneck, s.residual[static_cast<size_t>(e)]);
      }
      if (bottleneck <= kRateEps) continue;
      for (net::EdgeId e : p.edges) {
        s.residual[static_cast<size_t>(e)] -= bottleneck;
      }
      s.unmet[oi] -= bottleneck;
      s.rates[oi] += bottleneck;
      thr += bottleneck;
      s.grants.push_back(
          RoutingScratch::Grant{static_cast<uint32_t>(oi), pi, bottleneck});
    }
  };

  auto finish = [&]() {
    s.throughput = thr;
    s.run_valid = true;
    if (s.record_checkpoints && !options.strict_priority) {
      s.ckpts.resize(nck);
      s.ckpt_valid = true;
      s.ckpt_edges.resize(static_cast<size_t>(topo.NumEdges()));
      for (net::EdgeId e = 0; e < topo.NumEdges(); ++e) {
        const net::Edge& ed = topo.edge(e);
        s.ckpt_edges[static_cast<size_t>(e)] = {ed.u, ed.v};
      }
    } else {
      s.ckpt_valid = false;
    }
    return thr;
  };

  if (options.strict_priority) {
    for (size_t oi : s.order) serve_fully(oi);
    return finish();
  }

  auto record = [&](int stage) {
    if (!s.record_checkpoints) return;
    if (s.ckpts.size() <= nck) s.ckpts.emplace_back();
    RoutingScratch::Checkpoint& c = s.ckpts[nck++];
    c.stage = stage;
    c.residual = s.residual;
    c.unmet = s.unmet;
    c.rates = s.rates;
    c.throughput = thr;
    c.grant_count = s.grants.size();
  };

  if (!replayed) {
    // Starvation pre-pass (§3.2 t-hat guard): a transfer unscheduled for
    // t-hat slots claims capacity across ALL its path lengths before the
    // round-based allocation starts — otherwise transfers whose shortest
    // path is long lose every round-l to shorter-path traffic forever.
    for (size_t oi : s.order) {
      if (demands[oi].slots_waited < options.policy.starvation_slots) break;
      serve_fully(oi);
    }
    record(0);
  }

  s.cursor.assign(nd, 0);
  for (int hops = start_round; hops <= longest_hops; ++hops) {
    bool any_capacity = false;
    for (double r : s.residual) {
      if (r > kRateEps) {
        any_capacity = true;
        break;
      }
    }
    bool any_demand = false;
    for (double u : s.unmet) {
      if (u > kRateEps) {
        any_demand = true;
        break;
      }
    }
    if (!any_capacity || !any_demand) break;

    for (size_t oi : s.order) {
      if (s.unmet[oi] <= kRateEps) continue;
      const PairPaths* pp = s.pair[oi];
      if (pp == nullptr) continue;
      const std::vector<net::Path>& ps = pp->paths;
      // Paths are hop-sorted, so a cursor replaces the per-round scan over
      // the full path list: skip shorter rounds' paths, serve this round's.
      uint32_t& cur = s.cursor[oi];
      while (cur < ps.size() &&
             static_cast<int>(ps[cur].HopCount()) < hops) {
        ++cur;
      }
      while (cur < ps.size() &&
             static_cast<int>(ps[cur].HopCount()) == hops) {
        if (s.unmet[oi] <= kRateEps) break;
        const net::Path& p = ps[cur];
        double bottleneck = s.unmet[oi];
        for (net::EdgeId e : p.edges) {
          bottleneck =
              std::min(bottleneck, s.residual[static_cast<size_t>(e)]);
        }
        if (bottleneck <= kRateEps) {
          ++cur;
          continue;
        }
        for (net::EdgeId e : p.edges) {
          s.residual[static_cast<size_t>(e)] -= bottleneck;
        }
        s.unmet[oi] -= bottleneck;
        s.rates[oi] += bottleneck;
        thr += bottleneck;
        s.grants.push_back(
            RoutingScratch::Grant{static_cast<uint32_t>(oi), cur, bottleneck});
        ++cur;
      }
    }
    record(hops);
  }
  return finish();
}

RoutingOutcome MaterializeOutcome(const std::vector<TransferDemand>& demands,
                                  PathSource& paths, const RoutingScratch& s) {
  RoutingOutcome out;
  out.throughput = s.throughput;
  out.allocations.resize(demands.size());
  for (size_t i = 0; i < demands.size(); ++i) {
    out.allocations[i].id = demands[i].id;
  }
  for (const RoutingScratch::Grant& g : s.grants) {
    const TransferDemand& d = demands[g.demand];
    const PairPaths& pp = paths.PathsFor(d.src, d.dst);
    out.allocations[g.demand].paths.push_back(
        PathAllocation{pp.paths[g.path], g.rate});
  }
  return out;
}

RoutingOutcome AssignRoutesAndRates(const net::Graph& topo,
                                    const std::vector<TransferDemand>& demands,
                                    const RoutingOptions& options,
                                    PathSource* paths) {
  std::optional<FreshPathSource> fresh;
  if (paths == nullptr) {
    fresh.emplace(topo, options);
    paths = &*fresh;
  }
  RoutingScratch s;
  s.record_checkpoints = false;
  AllocateRates(topo, demands, options, *paths, s);
  return MaterializeOutcome(demands, *paths, s);
}

double ComputeThroughput(const net::Graph& topo,
                         const std::vector<TransferDemand>& demands,
                         const RoutingOptions& options) {
  FreshPathSource fresh(topo, options);
  RoutingScratch s;
  s.record_checkpoints = false;
  return AllocateRates(topo, demands, options, fresh, s);
}

}  // namespace owan::core
