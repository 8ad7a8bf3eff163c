// Google-benchmark microbenchmarks for the hot primitives: one annealing
// step (provision + route), the energy function, circuit provisioning, the
// regenerator graph, Yen's k-shortest paths, and the simplex solver. These
// bound the controller's per-slot latency (the paper reports ~320 ms of
// annealing is enough — see bench_fig10d).
#include <benchmark/benchmark.h>

#include "core/annealing.h"
#include "core/provisioned_state.h"
#include "core/routing.h"
#include "lp/mcf.h"
#include "lp/simplex.h"
#include "net/shortest_path.h"
#include "optical/regen_graph.h"
#include "topo/topologies.h"
#include "util/rng.h"
#include "workload/workload.h"

using namespace owan;

namespace {

std::vector<core::TransferDemand> DemandsFor(const topo::Wan& wan, int n) {
  util::Rng rng(5);
  std::vector<core::TransferDemand> out;
  for (int i = 0; i < n; ++i) {
    core::TransferDemand d;
    d.id = i;
    d.src = static_cast<int>(rng.Index(
        static_cast<size_t>(wan.optical.NumSites())));
    do {
      d.dst = static_cast<int>(rng.Index(
          static_cast<size_t>(wan.optical.NumSites())));
    } while (d.dst == d.src);
    d.rate_cap = rng.Uniform(1.0, 50.0);
    d.remaining = d.rate_cap * 300.0;
    out.push_back(d);
  }
  return out;
}

void BM_EnergyEvaluation(benchmark::State& state) {
  topo::Wan wan = topo::MakeInterDc();
  auto demands = DemandsFor(wan, static_cast<int>(state.range(0)));
  core::ProvisionedState ps(wan.optical);
  ps.SyncTo(wan.default_topology);
  const net::Graph g = ps.CapacityGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComputeThroughput(g, demands, {}));
  }
}
BENCHMARK(BM_EnergyEvaluation)->Arg(16)->Arg(64)->Arg(128);

void BM_AnnealingIteration(benchmark::State& state) {
  topo::Wan wan = topo::MakeInterDc();
  auto demands = DemandsFor(wan, 64);
  util::Rng rng(7);
  core::AnnealOptions opt;
  opt.max_iterations = static_cast<int>(state.range(0));
  opt.epsilon_ratio = 1e-12;  // let the iteration cap bind
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComputeNetworkState(
        wan.default_topology, wan.optical, demands, opt, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AnnealingIteration)->Arg(10)->Arg(50)->Arg(200);

void BM_CircuitProvisioning(benchmark::State& state) {
  topo::Wan wan = topo::MakeIspBackbone();
  util::Rng rng(9);
  for (auto _ : state) {
    optical::OpticalNetwork on = wan.optical;
    const int a = static_cast<int>(rng.Index(40));
    int b = static_cast<int>(rng.Index(40));
    if (b == a) b = (b + 1) % 40;
    benchmark::DoNotOptimize(on.ProvisionCircuit(a, b));
  }
}
BENCHMARK(BM_CircuitProvisioning);

void BM_RegenGraphBuild(benchmark::State& state) {
  topo::Wan wan = topo::MakeIspBackbone();
  for (auto _ : state) {
    optical::RegenGraph rg(wan.optical, 0, 39);
    benchmark::DoNotOptimize(rg.CandidateSequences(4));
  }
}
BENCHMARK(BM_RegenGraphBuild);

// What ProvisionCircuit pays for its regenerator graph: the build plus
// CandidateSequences(k) for every ordered site pair of isp100, on a warmed
// fiber-route table. Items are site pairs.
void BM_RegenCandidates(benchmark::State& state) {
  const topo::Wan wan = topo::MakeByName("isp100");
  const optical::OpticalNetwork& on = wan.optical;
  const int n = on.NumSites();
  const int k = static_cast<int>(state.range(0));
  for (net::NodeId u = 0; u < n; ++u) on.ReachPeers(u);
  for (auto _ : state) {
    for (net::NodeId u = 0; u < n; ++u) {
      for (net::NodeId v = 0; v < n; ++v) {
        if (u == v) continue;
        const optical::RegenGraph rg(on, u, v, on.balance_regens());
        benchmark::DoNotOptimize(rg.CandidateSequences(k));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * n * (n - 1));
}
BENCHMARK(BM_RegenCandidates)->Arg(1)->Arg(8);

void BM_YenKShortest(benchmark::State& state) {
  topo::Wan wan = topo::MakeIspBackbone();
  const net::Graph g = wan.default_topology.ToGraph(100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::KShortestPaths(g, 0, g.NumNodes() - 1,
                            static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_YenKShortest)->Arg(1)->Arg(4)->Arg(16);

void BM_SimplexMcf(benchmark::State& state) {
  topo::Wan wan = topo::MakeIspBackbone();
  const net::Graph g = wan.default_topology.ToGraph(100.0);
  auto demands = DemandsFor(wan, static_cast<int>(state.range(0)));
  std::vector<lp::Commodity> commodities;
  for (const auto& d : demands) {
    commodities.push_back(lp::Commodity{d.src, d.dst, d.rate_cap});
  }
  for (auto _ : state) {
    lp::McfBuilder mcf(g, commodities, 3);
    mcf.ObjectiveMaxThroughput();
    benchmark::DoNotOptimize(lp::Solve(mcf.lp()));
  }
}
BENCHMARK(BM_SimplexMcf)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
