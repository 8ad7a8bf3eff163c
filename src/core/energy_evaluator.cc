#include "core/energy_evaluator.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <stdexcept>

#include "net/shortest_path.h"

namespace owan::core {

namespace {
constexpr double kRateEps = 1e-9;

// Path-enumeration inputs that, when changed, make every cached entry
// meaningless (the cache must be dropped, not invalidated incrementally).
bool EnumerationOptionsDiffer(const RoutingOptions& a,
                              const RoutingOptions& b) {
  return a.max_hops != b.max_hops;
}
}  // namespace

bool EnergyEvaluator::test_skip_appeared_invalidation_ = false;

void EnergyEvaluator::TestOnlySkipAppearedInvalidation(bool skip) {
  test_skip_appeared_invalidation_ = skip;
}

void EnergyEvaluator::AttachMemo(MemoTable* table) { memo_ = table; }

MemoTable& EnergyEvaluator::Memo() {
  if (memo_ != nullptr) return *memo_;
  if (!own_memo_) own_memo_ = std::make_unique<MemoTable>();
  return *own_memo_;
}

const EnergyEvaluator::Eval& EnergyEvaluator::Reset(
    const optical::OpticalNetwork& blank_optical, const Topology& start,
    const std::vector<TransferDemand>& demands,
    const std::vector<size_t>& starved, const RoutingOptions& options,
    bool reuse_state) {
  const int n = blank_optical.NumSites();
  const double theta = blank_optical.wavelength_capacity();
  if (n != n_ || theta != theta_ ||
      EnumerationOptionsDiffer(options, options_) ||
      blank_optical.qot() != qot_) {
    n_ = n;
    theta_ = theta;
    qot_ = blank_optical.qot();
    ClearPathCache();
  }
  options_ = options;
  demands_ = &demands;
  starved_ = &starved;
  // Energies depend on the slot's demand set. An attached (shared) table is
  // GC'd once by its owner between slots, not per evaluator.
  if (memo_ == nullptr && own_memo_) own_memo_->BeginSlot();
  // New demand set: schedule order, grant log, and checkpoints are stale.
  scratch_.Invalidate();

  // An unchanged mutation stamp certifies the blank plant is the exact
  // snapshot the current provisioned state was derived from, so SyncTo can
  // diff the previous slot's state to `start` instead of re-provisioning a
  // fresh copy of the plant from scratch.
  const bool warm = reuse_state && state_.has_value() && !pending_ &&
                    blank_stamp_ != 0 &&
                    blank_stamp_ == blank_optical.state_stamp();
  if (!warm) {
    // Same derivation a fresh chain performs: copy the blank plant, then
    // provision the start topology against it.
    state_.emplace(blank_optical);
    blank_stamp_ = blank_optical.state_stamp();
  }
  state_->SyncTo(start);
  pending_ = false;
  routing_valid_ = false;

  last_ = Eval{};
  RunRouting(/*memoize=*/true);
  return last_;
}

const EnergyEvaluator::Eval& EnergyEvaluator::Apply(const Topology& target) {
  assert(!pending_ && "Apply without Accept/Reject of the previous candidate");
  ++stats_.evaluations;
  ++apply_gen_;
  last_ = Eval{};
  last_.failed_units = state_->SyncTo(target, &undo_);
  pending_ = true;
  routing_valid_ = false;

  // No memo under QoT (see the qot_ member comment): the realized unit
  // topology no longer determines energy, and a hit would skip the cache
  // sync that keeps edge capacities current.
  if (!qot_.enabled) {
    const Topology& realized = state_->realized();
    if (const MemoTable::Entry* m = Memo().Find(realized)) {
      ++stats_.memo_hits;
      last_.energy = m->energy;
      last_.starved_served = m->starved_served;
      last_.memo_hit = true;
      return last_;
    }
  }
  RunRouting(/*memoize=*/true);
  return last_;
}

void EnergyEvaluator::Accept() { pending_ = false; }

void EnergyEvaluator::Reject() {
  assert(pending_ && "Reject without a pending Apply");
  state_->Rollback(undo_);
  pending_ = false;
  routing_valid_ = false;
  // Undo this candidate's cache sync (if one ran — a memo hit skips it and
  // leaves the cache already at the base): the next sync then diffs the
  // base against the next candidate directly instead of walking through the
  // rejected topology and invalidating its neighborhood a second time.
  if (cache_undo_.valid && cache_undo_.apply_gen == apply_gen_) {
    RestoreCache();
  }
}

const RoutingOutcome& EnergyEvaluator::EnsureRouting() {
  if (routing_valid_) return last_routing_;
  // The grant log in scratch_ may already describe the current realized
  // topology (the common case: the best-so-far candidate was just
  // evaluated); then the outcome is a pure expansion of the log and no
  // allocator run is needed. After memo hits or rollbacks moved the state,
  // rerun first.
  if (!scratch_.run_valid || !(cache_topo_ == state_->realized())) {
    RunRouting(/*memoize=*/false);
  }
  last_routing_ = MaterializeOutcome(*demands_, *this, scratch_);
  routing_valid_ = true;
  return last_routing_;
}

RoutingOutcome EnergyEvaluator::TakeRouting() {
  EnsureRouting();
  routing_valid_ = false;
  return std::move(last_routing_);
}

void EnergyEvaluator::RunRouting(bool memoize) {
  RepairHints hints;
  bool use_hints = false;
  SyncCache(&hints, &use_hints);
  ++stats_.routing_runs;
  AllocateRates(graph_, *demands_, options_, *this, scratch_,
                use_hints ? &hints : nullptr);
  routing_valid_ = false;  // grant log is fresh; outcome not materialized
  last_.energy = scratch_.throughput;
  last_.starved_served = CountStarvedServed();
  if (memoize && !qot_.enabled) {
    const Topology& realized = state_->realized();
    Memo().Insert(realized, last_.energy, last_.starved_served);
  }
}

int EnergyEvaluator::CountStarvedServed() const {
  int served = 0;
  for (size_t i : *starved_) {
    if (scratch_.rates[i] > kRateEps) ++served;
  }
  return served;
}

void EnergyEvaluator::ClearPathCache() {
  cache_topo_ = Topology(n_);
  graph_ = cache_topo_.ToGraph(theta_);
  pair_edge_.assign(static_cast<size_t>(n_) * static_cast<size_t>(n_), -1);
  pair_slot_.assign(static_cast<size_t>(n_) * static_cast<size_t>(n_), -1);
  entries_.clear();
  last_invalidated_.clear();
  cache_undo_.valid = false;
  scratch_.Invalidate();
}

void EnergyEvaluator::SyncCache(RepairHints* hints, bool* hints_usable) {
  if (hints_usable != nullptr) *hints_usable = false;
  const Topology& realized = state_->realized();
  if (cache_topo_ == realized) {
    if (hints != nullptr && hints_usable != nullptr && scratch_.run_valid) {
      hints->no_changes = true;
      *hints_usable = true;
    }
    return;
  }

  // Record the undo for this sync; Reject applies it (see RestoreCache).
  cache_undo_.valid = true;
  cache_undo_.apply_gen = apply_gen_;
  cache_undo_.fill_gen = ++fill_gen_;
  cache_undo_.structural = false;
  cache_undo_.capacities.clear();
  cache_undo_.stashed.clear();

  auto [to_add, to_remove] = realized.Diff(cache_topo_);
  // A link whose unit count changed but stayed > 0 only moves edge capacity;
  // the enumeration (hop-bounded DFS over unit-weight edges) cannot see it.
  std::vector<std::pair<net::NodeId, net::NodeId>> appeared;
  std::vector<std::pair<net::NodeId, net::NodeId>> disappeared_links;
  std::vector<size_t> disappeared;       // canonical link indices
  std::vector<size_t> cap_changed;       // units changed, > 0 on both sides
  for (const Link& l : to_add) {
    if (cache_topo_.Units(l.u, l.v) == 0) {
      appeared.emplace_back(l.u, l.v);
    } else {
      cap_changed.push_back(LinkIdx(l.u, l.v));
    }
  }
  for (const Link& l : to_remove) {
    if (realized.Units(l.u, l.v) == 0) {
      disappeared.push_back(LinkIdx(l.u, l.v));
      disappeared_links.emplace_back(l.u, l.v);
    } else {
      cap_changed.push_back(LinkIdx(l.u, l.v));
    }
  }
  std::sort(cap_changed.begin(), cap_changed.end());
  cap_changed.erase(std::unique(cap_changed.begin(), cap_changed.end()),
                    cap_changed.end());

  // Route-repair dirty analysis, shared by both sync branches. A demand is
  // dirty when its path set changed (entry invalidated) or one of its
  // traversed links changed capacity; every other demand's grants replay
  // verbatim up to the round the first dirty demand can act in. Runs after
  // invalidation, against the changed canonical links and the appeared-link
  // reach trees (hop lower bounds for re-enumerated pairs).
  auto derive_hints =
      [&](const std::vector<size_t>& changed_canon,
          const std::vector<std::pair<net::SpTree, net::SpTree>>* new_reach)
      -> bool {
    if (!scratch_.run_valid || options_.strict_priority) return false;
    if (scratch_.min_hop.size() != demands_->size()) return false;
    int restart = INT_MAX;
    for (size_t i = 0; i < demands_->size(); ++i) {
      const TransferDemand& d = (*demands_)[i];
      if (d.src == d.dst || d.src == net::kInvalidNode) continue;
      const int32_t slot = pair_slot_[DirIdx(d.src, d.dst)];
      if (slot < 0) return false;  // scratch can't describe a full run
      const CacheEntry& e = entries_[static_cast<size_t>(slot)];
      bool dirty = !e.valid;
      if (!dirty) {
        for (size_t li : changed_canon) {
          if (std::binary_search(e.used_links.begin(), e.used_links.end(),
                                 static_cast<int32_t>(li))) {
            dirty = true;
            break;
          }
        }
      }
      if (!dirty) continue;
      // A dirty transfer already starved by policy acts in the stage-0
      // pre-pass, which no checkpoint precedes: full rerun.
      if (d.slots_waited >= options_.policy.starvation_slots) return false;
      // Earliest round the demand can act in, old run or new: its old
      // shortest hop count, improvable only by a path through an appeared
      // link — lower-bounded by the BFS reach via that link.
      int bound = scratch_.min_hop[i];
      if (new_reach != nullptr) {
        for (const auto& [du, dv] : *new_reach) {
          const double a = du.dist[d.src] + 1.0 + dv.dist[d.dst];
          const double b = dv.dist[d.src] + 1.0 + du.dist[d.dst];
          const double m = std::min(a, b);
          if (m < static_cast<double>(bound)) bound = static_cast<int>(m);
        }
      }
      restart = std::min(restart, bound);
    }
    hints->restart_round = std::max(1, restart);
    return true;
  };

  if (appeared.empty() && disappeared.empty()) {
    // SyncTo only touches circuits on diff links, so diff links are the
    // only ones whose summed QoT capacity can have moved; legacy stays the
    // exact units * theta (RealizedCapacityGbps computes both).
    for (const Link& l : to_add) {
      const int32_t e = pair_edge_[LinkIdx(l.u, l.v)];
      cache_undo_.capacities.emplace_back(e, graph_.edge(e).capacity);
      graph_.edge(e).capacity = state_->RealizedCapacityGbps(l.u, l.v);
    }
    for (const Link& l : to_remove) {
      const int32_t e = pair_edge_[LinkIdx(l.u, l.v)];
      cache_undo_.capacities.emplace_back(e, graph_.edge(e).capacity);
      graph_.edge(e).capacity = state_->RealizedCapacityGbps(l.u, l.v);
    }
    cache_undo_.topo = std::move(cache_topo_);
    cache_topo_ = realized;
    if (hints != nullptr && hints_usable != nullptr &&
        derive_hints(cap_changed, nullptr)) {
      hints->edge_ids_stable = true;
      for (size_t li : cap_changed) {
        hints->changed_edges.push_back(pair_edge_[li]);
      }
      *hints_usable = true;
    }
    return;
  }

  // Hop distances from the endpoints of each disappeared link on the OLD
  // graph (graph_ still reflects cache_topo_ here) — the survival bound for
  // fallback entries below needs distances in the graph the link existed in.
  std::vector<std::pair<net::SpTree, net::SpTree>> old_reach;
  old_reach.reserve(disappeared_links.size());
  for (const auto& [u, v] : disappeared_links) {
    old_reach.emplace_back(net::BfsTree(graph_, u), net::BfsTree(graph_, v));
  }

  // Structural change: rebuild the canonical graph (same edge-id assignment
  // as Topology::ToGraph gives a fresh evaluation), then prune the cache.
  // The pre-sync graph and edge map move into the undo (old_reach above was
  // the last reader of the old graph).
  ++stats_.graph_rebuilds;
  cache_undo_.structural = true;
  // Rotate graph storage: the stale undo graph (one sync old, about to be
  // overwritten) donates its allocations to the new canonical graph.
  net::Graph recycled = std::move(cache_undo_.graph);
  cache_undo_.graph = std::move(graph_);
  std::vector<int32_t> recycled_pe = std::move(cache_undo_.pair_edge);
  cache_undo_.pair_edge = std::move(pair_edge_);
  realized.ToGraphInto(recycled, theta_);
  graph_ = std::move(recycled);
  recycled_pe.assign(static_cast<size_t>(n_) * static_cast<size_t>(n_), -1);
  pair_edge_ = std::move(recycled_pe);
  for (net::EdgeId e = 0; e < graph_.NumEdges(); ++e) {
    const net::Edge& ed = graph_.edge(e);
    pair_edge_[LinkIdx(ed.u, ed.v)] = e;
  }
  if (qot_.enabled) {
    // Quality-graded capacities for the whole rebuilt graph (the undo holds
    // the entire pre-sync graph, so rollback stays exact).
    for (net::EdgeId e = 0; e < graph_.NumEdges(); ++e) {
      const net::Edge& ed = graph_.edge(e);
      graph_.edge(e).capacity = state_->RealizedCapacityGbps(ed.u, ed.v);
    }
  }

  std::sort(disappeared.begin(), disappeared.end());

  // Hop distances from the endpoints of each appeared link, on the NEW
  // graph: pair (s,d) can only gain a path within max_hops through new edge
  // (u,v) if min(d(s,u)+1+d(v,d), d(s,v)+1+d(u,d)) <= max_hops.
  std::vector<std::pair<net::SpTree, net::SpTree>> reach;
  reach.reserve(appeared.size());
  for (const auto& [u, v] : appeared) {
    reach.emplace_back(net::BfsTree(graph_, u), net::BfsTree(graph_, v));
  }

  last_invalidated_.clear();
  for (size_t slot = 0; slot < entries_.size(); ++slot) {
    CacheEntry& e = entries_[slot];
    if (!e.valid) continue;
    bool invalid = false;
    // A fallback set (the 2 shortest unbounded paths) depends on global
    // structure, but boundedly so: changing it requires opening or closing
    // some s-d path no longer than its longest member (len_last). A changed
    // link (p,q) admits such a path only if min(d(s,p)+1+d(q,d),
    // d(s,q)+1+d(p,d)) <= len_last, with BFS distances taken on the graph
    // the link exists in — NEW for appeared links, OLD for disappeared
    // ones. Entries holding fewer than two paths are invalidated by any
    // appeared link outright (a brand-new second path may have any
    // length). A truncated set is a discovery-order sample: a pure
    // function of the neighbor sequences of nodes within max_hops - 1
    // hops of the source (the DFS never iterates an incident list beyond
    // that ball), so it survives any move whose changed links have both
    // endpoints outside that ball — distances taken on the graph each
    // link exists in, like the fallback bound.
    if (e.pp.fallback) {
      const int len_last =
          e.pp.paths.empty() ? 0
                             : static_cast<int>(e.pp.paths.back().HopCount());
      if (!appeared.empty() && e.pp.paths.size() < 2) {
        invalid = true;
      }
      if (!invalid) {
        for (const auto& [du, dv] : reach) {
          const double a = du.dist[e.src] + 1.0 + dv.dist[e.dst];
          const double b = dv.dist[e.src] + 1.0 + du.dist[e.dst];
          if (std::min(a, b) <= static_cast<double>(len_last)) {
            invalid = true;
            break;
          }
        }
      }
      // Disappeared links are exact for fallback entries: the set is the
      // true 2-shortest (no hop bound), removal only shrinks the path
      // space, and the canonical graph has one edge per link — so the
      // stored selection changes iff a vanished link is on a stored path.
      if (!invalid) {
        for (size_t li : disappeared) {
          if (std::binary_search(e.used_links.begin(), e.used_links.end(),
                                 static_cast<int32_t>(li))) {
            invalid = true;
            break;
          }
        }
      }
    } else if (e.pp.truncated) {
      const double ball = static_cast<double>(options_.max_hops - 1);
      for (const auto& [du, dv] : reach) {
        if (std::min(du.dist[e.src], dv.dist[e.src]) <= ball) {
          invalid = true;
          break;
        }
      }
      if (!invalid) {
        for (const auto& [dp, dq] : old_reach) {
          if (std::min(dp.dist[e.src], dq.dist[e.src]) <= ball) {
            invalid = true;
            break;
          }
        }
      }
    } else {
      // Complete sets are canonical (sorted, all bounded-hop paths): they
      // change only if a traversed link vanished, or an appeared link put a
      // new path within the hop budget.
      for (size_t li : disappeared) {
        if (std::binary_search(e.used_links.begin(), e.used_links.end(),
                               static_cast<int32_t>(li))) {
          invalid = true;
          break;
        }
      }
      if (!invalid && !test_skip_appeared_invalidation_) {
        const int max_hops = options_.max_hops;
        for (const auto& [du, dv] : reach) {
          const double a = du.dist[e.src] + 1.0 + dv.dist[e.dst];
          const double b = dv.dist[e.src] + 1.0 + du.dist[e.dst];
          if (std::min(a, b) <= static_cast<double>(max_hops)) {
            invalid = true;
            break;
          }
        }
      }
    }
    if (invalid) {
      // The pre-sync value moves into the undo stash: if this candidate is
      // rejected, it is restored verbatim instead of being re-enumerated.
      cache_undo_.stashed.push_back({static_cast<int32_t>(slot),
                                     std::move(e.pp),
                                     std::move(e.used_links)});
      e.valid = false;
      e.pp = PairPaths{};
      e.used_links.clear();
      last_invalidated_.emplace_back(e.src, e.dst);
      continue;
    }
    // Survivors keep their node sequences; re-point edge ids at the rebuilt
    // graph (every traversed link still exists: complete and fallback
    // survivors passed the used-links test, and truncated survivors' whole
    // enumeration ball is untouched).
    for (net::Path& p : e.pp.paths) {
      for (size_t i = 0; i + 1 < p.nodes.size(); ++i) {
        p.edges[i] = pair_edge_[LinkIdx(p.nodes[i], p.nodes[i + 1])];
      }
    }
  }
  cache_undo_.topo = std::move(cache_topo_);
  cache_topo_ = realized;

  if (hints != nullptr && hints_usable != nullptr) {
    std::vector<size_t> changed_canon = disappeared;  // sorted above
    changed_canon.insert(changed_canon.end(), cap_changed.begin(),
                         cap_changed.end());
    std::sort(changed_canon.begin(), changed_canon.end());
    if (derive_hints(changed_canon, &reach)) {
      hints->edge_ids_stable = false;
      for (const auto& [u, v] : appeared) {
        hints->changed_edges.push_back(pair_edge_[LinkIdx(u, v)]);
      }
      for (size_t li : cap_changed) {
        hints->changed_edges.push_back(pair_edge_[li]);
      }
      *hints_usable = true;
    }
  }
}

const PairPaths& EnergyEvaluator::PathsFor(net::NodeId src, net::NodeId dst) {
  const size_t idx = DirIdx(src, dst);
  int32_t slot = pair_slot_[idx];
  if (slot < 0) {
    entries_.emplace_back();
    slot = static_cast<int32_t>(entries_.size()) - 1;
    pair_slot_[idx] = slot;
    entries_[static_cast<size_t>(slot)].src = src;
    entries_[static_cast<size_t>(slot)].dst = dst;
  }
  CacheEntry& e = entries_[static_cast<size_t>(slot)];
  if (!e.valid) {
    ++stats_.pairs_enumerated;
    e.pp = PairPaths{};
    e.pp.paths = net::PathsUpToHops(graph_, src, dst, options_.max_hops,
                                    kMaxPathsPerPair,
                                    &e.pp.truncated);
    if (e.pp.paths.empty()) {
      // Exactly the set EnumeratePairPaths's KShortestPaths(g, src, dst, 2)
      // fallback returns, via the hop-level specialization: fallback entries
      // re-derive on every structural move, so on sparse topologies (where
      // most pairs sit beyond max_hops) this is the hottest enumeration
      // path. The general Yen stays the fresh-evaluation reference the
      // differential tests compare against.
      e.pp.paths = net::TwoShortestPathsByHops(graph_, src, dst);
      e.pp.fallback = true;
      e.pp.truncated = false;
    }
    e.used_links.clear();
    for (const net::Path& p : e.pp.paths) {
      for (size_t i = 0; i + 1 < p.nodes.size(); ++i) {
        e.used_links.push_back(
            static_cast<int32_t>(LinkIdx(p.nodes[i], p.nodes[i + 1])));
      }
    }
    std::sort(e.used_links.begin(), e.used_links.end());
    e.used_links.erase(std::unique(e.used_links.begin(), e.used_links.end()),
                       e.used_links.end());
    e.valid = true;
    e.fill_gen = fill_gen_;
  } else {
    ++stats_.pairs_reused;
  }
  return e.pp;
}

void EnergyEvaluator::RestoreCache() {
  cache_undo_.valid = false;
  cache_topo_ = std::move(cache_undo_.topo);
  if (cache_undo_.structural) {
    graph_ = std::move(cache_undo_.graph);
    pair_edge_ = std::move(cache_undo_.pair_edge);
    for (CacheEntry& e : entries_) {
      if (!e.valid) continue;
      if (e.fill_gen == cache_undo_.fill_gen) {
        // Enumerated against the rejected candidate's graph: worthless for
        // the restored base.
        e.valid = false;
        e.pp = PairPaths{};
        e.used_links.clear();
        continue;
      }
      // Survivor of the rejected sync: its node sequences are valid for the
      // base too (the survival rules are symmetric); re-point the edge ids
      // at the restored graph.
      for (net::Path& p : e.pp.paths) {
        for (size_t i = 0; i + 1 < p.nodes.size(); ++i) {
          p.edges[i] = pair_edge_[LinkIdx(p.nodes[i], p.nodes[i + 1])];
        }
      }
    }
  } else {
    // Capacity-only sync: structure unchanged, so candidate-filled entries
    // are exact for the base as well — only the capacities roll back.
    for (const auto& [e, cap] : cache_undo_.capacities) {
      graph_.edge(e).capacity = cap;
    }
  }
  for (CacheUndo::Stashed& s : cache_undo_.stashed) {
    CacheEntry& e = entries_[static_cast<size_t>(s.slot)];
    e.pp = std::move(s.pp);
    e.used_links = std::move(s.used_links);
    e.valid = true;
    e.fill_gen = 0;
  }
  cache_undo_.stashed.clear();
  // The grant log describes the rejected candidate's allocator run; it must
  // not seed repair hints against the restored base.
  scratch_.run_valid = false;
}

const PairPaths* EnergyEvaluator::CachedPaths(net::NodeId src,
                                              net::NodeId dst) const {
  if (n_ == 0) return nullptr;
  const int32_t slot = pair_slot_[DirIdx(src, dst)];
  if (slot < 0) return nullptr;
  const CacheEntry& e = entries_[static_cast<size_t>(slot)];
  return e.valid ? &e.pp : nullptr;
}

void AnnealScratch::Reserve(int num_chains) {
  while (static_cast<int>(evals_.size()) < num_chains) {
    evals_.push_back(std::make_unique<EnergyEvaluator>());
    evals_.back()->AttachMemo(&memo_);
  }
  // Single-threaded fence point between slots: no chain is running here.
  memo_.BeginSlot();
}

}  // namespace owan::core
