#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <tuple>

#include "core/provisioned_state.h"
#include "core/routing.h"
#include "fault/invariant_checker.h"
#include "optical/regen_graph.h"
#include "service/admission.h"

namespace owan::perfbench {

const std::vector<MetricDef> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"decision_ms_p50", "ms"},
    {"decision_ms_p90", "ms"},
    {"peak_rss_mb", "MB"},
    {"completion_s_mean", "sim_s"},
    {"decisions_per_s", "1/s"},
    {"accept_frac", "ratio"},
};

const std::vector<MetricDef> kPerLayerMetrics = {
    {"te.compute_ms", "ms"},
    {"sim.self_ms", "ms"},
    {"core.anneal.self_ms", "ms"},
    {"core.chain_ms", "ms"},
    {"core.chain_ms_max", "ms"},
    {"core.anneal.iterations", "count"},
    {"core.anneal.accept_ratio", "ratio"},
    {"core.anneal.adopt_ratio", "ratio"},
    {"core.energy.memo_hit_ratio", "ratio"},
    {"core.energy.path_reuse_ratio", "ratio"},
    {"core.energy.routing_runs", "count"},
    {"core.energy.graph_rebuilds", "count"},
    {"core.routing_ms", "ms"},
    {"net.paths_us", "us"},
    {"optical.realize_cold_ms", "ms"},
    {"optical.realize_warm_ms", "ms"},
    {"optical.regen_us", "us"},
    {"optical.circuits", "count"},
    {"optical.failed_units", "count"},
    {"fault.check_ms", "ms"},
    {"fault.recompute_ms", "ms"},
    {"fault.events", "count"},
    {"update.execute_ms", "ms"},
    {"update.exec.retries", "count"},
    {"update.exec.aborts", "count"},
    {"service.self_ms", "ms"},
    {"service.drain_ms", "ms"},
    {"service.recompute_ratio", "ratio"},
    {"service.pending_enqueued", "count"},
    {"service.offer_us", "us"},
    {"topo.build_ms", "ms"},
    {"workload.generate_ms", "ms"},
    {"obs.trace_overhead_frac", "ratio"},
};

namespace {

constexpr double kNsPerMs = 1e6;

volatile double g_replay_sink = 0.0;

bool Is(const obs::TraceEvent& e, const char* cat, const char* name) {
  return !e.IsInstant() && std::strcmp(e.cat, cat) == 0 &&
         std::strcmp(e.name, name) == 0;
}

int64_t End(const obs::TraceEvent& e) { return e.ts_ns + e.dur_ns; }

bool Contains(const obs::TraceEvent& outer, const obs::TraceEvent& inner) {
  return inner.ts_ns >= outer.ts_ns && End(inner) <= End(outer);
}

struct SpanName {
  const char* cat;
  const char* name;
};

bool IsAny(const obs::TraceEvent& e, const std::vector<SpanName>& names) {
  for (const SpanName& n : names) {
    if (Is(e, n.cat, n.name)) return true;
  }
  return false;
}

double SumMs(const std::vector<obs::TraceEvent>& events, const char* cat,
             const char* name) {
  int64_t ns = 0;
  for (const obs::TraceEvent& e : events) {
    if (Is(e, cat, name)) ns += e.dur_ns;
  }
  return static_cast<double>(ns) / kNsPerMs;
}

// Sum over `parent` spans of their duration minus the union of the child
// spans they contain on the same thread.
double SelfMs(const std::vector<obs::TraceEvent>& events, SpanName parent,
              const std::vector<SpanName>& children) {
  int64_t ns = 0;
  for (const obs::TraceEvent& p : events) {
    if (!Is(p, parent.cat, parent.name)) continue;
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (const obs::TraceEvent& c : events) {
      if (&c != &p && c.tid == p.tid && IsAny(c, children) && Contains(p, c)) {
        covered.emplace_back(c.ts_ns, End(c));
      }
    }
    ns += p.dur_ns - UnionLengthNs(std::move(covered), p.ts_ns, End(p));
  }
  return static_cast<double>(ns) / kNsPerMs;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Mean duration of the named span, in `ns_per_unit` units per call.
double MeanPerCall(const std::vector<obs::TraceEvent>& events,
                   const char* name, double ns_per_unit) {
  int64_t ns = 0;
  int64_t n = 0;
  for (const obs::TraceEvent& e : events) {
    if (Is(e, "bench", name)) {
      ns += e.dur_ns;
      ++n;
    }
  }
  return n > 0 ? static_cast<double>(ns) / static_cast<double>(n) / ns_per_unit
               : 0.0;
}

}  // namespace

int64_t UnionLengthNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi) {
  for (auto& [b, e] : intervals) {
    b = std::max(b, lo);
    e = std::min(e, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_b = 0;
  int64_t cur_e = std::numeric_limits<int64_t>::min();
  for (const auto& [b, e] : intervals) {
    if (e <= b) continue;
    if (b > cur_e) {
      if (cur_e > cur_b) total += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_b) total += cur_e - cur_b;
  return total;
}

void AddRunSpanMetrics(const std::vector<obs::TraceEvent>& events,
                       MetricValues& out) {
  out["te.compute_ms"] = SumMs(events, "bench", "te.compute");
  out["sim.self_ms"] =
      SelfMs(events, {"bench", "sim.run"},
             {{"bench", "te.compute"},
              {"fault", "recompute_topology"},
              {"update", "update.execute"}});
  out["service.self_ms"] =
      SelfMs(events, {"bench", "service.step"}, {{"bench", "te.compute"}});
  out["service.drain_ms"] =
      SelfMs(events, {"bench", "service.drain"}, {{"bench", "te.compute"}});
  out["fault.recompute_ms"] = SumMs(events, "fault", "recompute_topology");
  out["update.execute_ms"] = SumMs(events, "update", "update.execute");

  // Chains run on the caller and on pool workers; each belongs to the
  // anneal span whose interval contains it. Anneal self time is what no
  // chain covers (set-up, adoption guard, chain pick).
  int64_t chain_ns = 0;
  int64_t chain_max_ns = 0;
  int64_t anneal_self_ns = 0;
  for (const obs::TraceEvent& c : events) {
    if (Is(c, "core", "anneal.chain")) chain_ns += c.dur_ns;
  }
  for (const obs::TraceEvent& a : events) {
    if (!Is(a, "core", "anneal")) continue;
    std::vector<std::pair<int64_t, int64_t>> chains;
    int64_t longest = 0;
    for (const obs::TraceEvent& c : events) {
      if (Is(c, "core", "anneal.chain") && Contains(a, c)) {
        chains.emplace_back(c.ts_ns, End(c));
        longest = std::max(longest, c.dur_ns);
      }
    }
    chain_max_ns += longest;
    anneal_self_ns +=
        a.dur_ns - UnionLengthNs(std::move(chains), a.ts_ns, End(a));
  }
  out["core.chain_ms"] = static_cast<double>(chain_ns) / kNsPerMs;
  out["core.chain_ms_max"] = static_cast<double>(chain_max_ns) / kNsPerMs;
  out["core.anneal.self_ms"] = static_cast<double>(anneal_self_ns) / kNsPerMs;
}

void AddCounterMetrics(const obs::MetricsSnapshot& before,
                       const obs::MetricsSnapshot& after, MetricValues& out) {
  auto delta = [&](const char* name) {
    int64_t b = 0;
    int64_t a = 0;
    for (const obs::CounterSnapshot& c : before.counters) {
      if (c.name == name) b = c.value;
    }
    for (const obs::CounterSnapshot& c : after.counters) {
      if (c.name == name) a = c.value;
    }
    return static_cast<double>(a - b);
  };
  const double iterations = delta("anneal.iterations");
  out["core.anneal.iterations"] = iterations;
  out["core.anneal.accept_ratio"] = Ratio(delta("anneal.accepted"), iterations);
  out["core.anneal.adopt_ratio"] =
      Ratio(delta("anneal.adoptions"), delta("anneal.runs"));
  out["core.energy.memo_hit_ratio"] =
      Ratio(delta("energy.memo_hits"), delta("energy.evaluations"));
  const double reused = delta("energy.pairs_reused");
  out["core.energy.path_reuse_ratio"] =
      Ratio(reused, reused + delta("energy.pairs_enumerated"));
  out["core.energy.routing_runs"] = delta("energy.routing_runs");
  out["core.energy.graph_rebuilds"] = delta("energy.graph_rebuilds");
  out["update.exec.retries"] = delta("update.exec.retries");
  out["update.exec.aborts"] = delta("update.exec.aborts");
}

void AddSetupSpanMetrics(const std::vector<obs::TraceEvent>& events,
                         MetricValues& out) {
  std::vector<double> topo;
  std::vector<double> inputs;
  for (const obs::TraceEvent& e : events) {
    if (Is(e, "bench", "topo.build")) topo.push_back(e.dur_ns / kNsPerMs);
    if (Is(e, "bench", "workload.generate")) {
      inputs.push_back(e.dur_ns / kNsPerMs);
    }
  }
  out["topo.build_ms"] = topo.empty() ? 0.0 : Percentile(topo, 50.0);
  out["workload.generate_ms"] = inputs.empty() ? 0.0 : Percentile(inputs, 50.0);
}

void RunReplays(const std::vector<DecisionCapture>& decisions,
                const OfferReplay& offers, MetricValues& out) {
  // The program's own provisioning bound (optical_network.cc kMaxSequences).
  constexpr int kRegenSequences = 8;
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Start(1);
  double circuits = 0.0;
  double failed_units = 0.0;
  double sink = 0.0;
  std::set<std::tuple<const optical::OpticalNetwork*, net::NodeId, net::NodeId>>
      regen_done;
  for (const DecisionCapture& d : decisions) {
    core::ProvisionedState state(*d.plant);
    {
      obs::Span span("bench", "replay.realize_cold");
      failed_units += state.SyncTo(d.adopted);
    }
    for (const core::Link& l : state.realized().Links()) {
      circuits += static_cast<double>(state.LinkCircuits(l.u, l.v).size());
    }
    const net::Graph graph = state.CapacityGraph();
    state.SyncTo(core::Topology(d.adopted.NumSites()));
    {
      obs::Span span("bench", "replay.realize_warm");
      state.SyncTo(d.adopted);
    }

    core::RoutingOptions routing;
    routing.policy.now = d.now;
    {
      obs::Span span("bench", "replay.routing");
      sink += core::AssignRoutesAndRates(graph, d.demands, routing).throughput;
    }
    std::set<std::pair<net::NodeId, net::NodeId>> pairs;
    for (const core::TransferDemand& t : d.demands) pairs.emplace(t.src, t.dst);
    for (const auto& [src, dst] : pairs) {
      obs::Span span("bench", "replay.paths");
      sink += static_cast<double>(
          core::EnumeratePairPaths(graph, src, dst, routing).paths.size());
    }
    for (const core::Link& l : d.adopted.Links()) {
      if (!regen_done.emplace(d.plant.get(), l.u, l.v).second) continue;
      obs::Span span("bench", "replay.regen");
      const optical::RegenGraph rg(*d.plant, l.u, l.v,
                                   d.plant->balance_regens());
      sink += static_cast<double>(rg.CandidateSequences(kRegenSequences).size());
    }
    {
      obs::Span span("bench", "replay.check");
      sink += static_cast<double>(
          fault::InvariantChecker::CheckSlot(d.adopted, *d.plant, d.demands,
                                             d.allocations)
              .size());
    }
  }

  if (!offers.requests.empty()) {
    const double slot_seconds = offers.slot_seconds;
    service::AdmissionOptions options;
    options.slot_seconds = slot_seconds;
    service::AdmissionController ledger(offers.ledger_topology, options);
    int64_t slot = std::numeric_limits<int64_t>::min();
    for (const core::Request& r : offers.requests) {
      const int64_t s = static_cast<int64_t>(std::floor(r.arrival / slot_seconds));
      if (s != slot) {
        ledger.GarbageCollect(r.arrival);
        slot = s;
      }
      obs::Span span("bench", "replay.offer");
      sink += static_cast<double>(ledger.Offer(r, r.arrival));
    }
  }
  tracer.Stop();
  const std::vector<obs::TraceEvent> events = tracer.Events();
  tracer.Clear();

  out["optical.realize_cold_ms"] =
      MeanPerCall(events, "replay.realize_cold", kNsPerMs);
  out["optical.realize_warm_ms"] =
      MeanPerCall(events, "replay.realize_warm", kNsPerMs);
  out["core.routing_ms"] = MeanPerCall(events, "replay.routing", kNsPerMs);
  out["net.paths_us"] = MeanPerCall(events, "replay.paths", 1e3);
  out["optical.regen_us"] = MeanPerCall(events, "replay.regen", 1e3);
  out["fault.check_ms"] = MeanPerCall(events, "replay.check", kNsPerMs);
  out["service.offer_us"] = MeanPerCall(events, "replay.offer", 1e3);
  out["optical.circuits"] = circuits;
  out["optical.failed_units"] = failed_units;
  // Keeps the replayed results observable so no call can be elided.
  g_replay_sink = sink;
}

}  // namespace owan::perfbench
