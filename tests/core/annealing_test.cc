#include "core/annealing.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "topo/topologies.h"

namespace owan::core {
namespace {

TransferDemand Demand(int id, int src, int dst, double rate) {
  TransferDemand d;
  d.id = id;
  d.src = src;
  d.dst = dst;
  d.rate_cap = rate;
  d.remaining = rate * 300.0;
  return d;
}

// ---- ComputeNeighbor (Algorithm 2) ----

TEST(NeighborTest, PreservesPortCountsProperty) {
  topo::Wan wan = topo::MakeInternet2();
  Topology t = wan.default_topology;
  util::Rng rng(3);
  for (int iter = 0; iter < 200; ++iter) {
    auto nb = ComputeNeighbor(t, rng);
    ASSERT_TRUE(nb.has_value());
    for (int v = 0; v < t.NumSites(); ++v) {
      EXPECT_EQ(nb->PortsUsed(v), t.PortsUsed(v))
          << "port count changed at site " << v << " iter " << iter;
    }
    EXPECT_EQ(nb->TotalUnits(), t.TotalUnits());
    t = std::move(*nb);
  }
}

TEST(NeighborTest, ChangesAtMostFourLinks) {
  topo::Wan wan = topo::MakeInternet2();
  util::Rng rng(5);
  for (int iter = 0; iter < 100; ++iter) {
    auto nb = ComputeNeighbor(wan.default_topology, rng);
    ASSERT_TRUE(nb.has_value());
    const int d = wan.default_topology.DistanceTo(*nb);
    EXPECT_GE(d, 1);
    EXPECT_LE(d, 4);
  }
}

TEST(NeighborTest, NoSelfLoopsEver) {
  topo::Wan wan = topo::MakeInternet2();
  Topology t = wan.default_topology;
  util::Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    auto nb = ComputeNeighbor(t, rng);
    ASSERT_TRUE(nb.has_value());
    for (const Link& l : nb->Links()) {
      EXPECT_NE(l.u, l.v);
      EXPECT_GT(l.units, 0);
    }
    t = std::move(*nb);
  }
}

TEST(NeighborTest, SingleLinkHasNoNeighbor) {
  Topology t(4);
  t.AddUnits(0, 1, 3);
  util::Rng rng(1);
  EXPECT_FALSE(ComputeNeighbor(t, rng).has_value());
}

TEST(NeighborTest, TwoParallelStylePairsWork) {
  Topology t(4);
  t.AddUnits(0, 1, 1);
  t.AddUnits(2, 3, 1);
  util::Rng rng(2);
  auto nb = ComputeNeighbor(t, rng);
  ASSERT_TRUE(nb.has_value());
  // Result pairs 0/1 with 2/3 in some orientation.
  EXPECT_EQ(nb->TotalUnits(), 2);
  EXPECT_EQ(nb->PortsUsed(0), 1);
  EXPECT_EQ(nb->PortsUsed(3), 1);
}

// ---- ComputeNetworkState (Algorithm 1) ----

TEST(AnnealTest, FindsPlanCForMotivatingExample) {
  // Fig. 3: F0 = R0->R1 and F1 = R2->R3, 20 rate units each. The square
  // topology tops out at 20 total; Plan C (R0-R1 x2, R2-R3 x2) reaches 40.
  topo::Wan wan = topo::MakeMotivatingExample();
  std::vector<TransferDemand> demands = {Demand(0, 0, 1, 20.0),
                                         Demand(1, 2, 3, 20.0)};
  AnnealOptions opt;
  opt.max_iterations = 300;
  util::Rng rng(11);
  AnnealResult res = ComputeNetworkState(wan.default_topology, wan.optical,
                                         demands, opt, rng);
  EXPECT_NEAR(res.best_energy, 40.0, 1e-9);
  EXPECT_EQ(res.best_topology.Units(0, 1), 2);
  EXPECT_EQ(res.best_topology.Units(2, 3), 2);
}

TEST(AnnealTest, EnergyNeverBelowStart) {
  topo::Wan wan = topo::MakeInternet2();
  std::vector<TransferDemand> demands = {
      Demand(0, 0, 8, 30.0), Demand(1, 1, 5, 30.0), Demand(2, 3, 7, 30.0)};
  AnnealOptions opt;
  opt.max_iterations = 150;
  util::Rng rng(13);

  // Start energy = throughput on the default topology.
  ProvisionedState start(wan.optical);
  start.SyncTo(wan.default_topology);
  const double start_energy =
      ComputeThroughput(start.CapacityGraph(), demands, opt.routing);

  AnnealResult res = ComputeNetworkState(wan.default_topology, wan.optical,
                                         demands, opt, rng);
  EXPECT_GE(res.best_energy, start_energy - 1e-9);
}

TEST(AnnealTest, BestStateMatchesReportedEnergy) {
  topo::Wan wan = topo::MakeInternet2();
  std::vector<TransferDemand> demands = {Demand(0, 0, 8, 50.0),
                                         Demand(1, 2, 6, 50.0)};
  AnnealOptions opt;
  opt.max_iterations = 100;
  util::Rng rng(17);
  AnnealResult res = ComputeNetworkState(wan.default_topology, wan.optical,
                                         demands, opt, rng);
  ASSERT_TRUE(res.state.has_value());
  const double replay = ComputeThroughput(res.state->CapacityGraph(),
                                          demands, opt.routing);
  EXPECT_NEAR(replay, res.best_energy, 1e-9);
  EXPECT_NEAR(res.routing.throughput, res.best_energy, 1e-9);
}

TEST(AnnealTest, ResultTopologyPreservesPorts) {
  topo::Wan wan = topo::MakeInternet2();
  std::vector<TransferDemand> demands = {Demand(0, 0, 8, 40.0)};
  AnnealOptions opt;
  opt.max_iterations = 120;
  util::Rng rng(19);
  AnnealResult res = ComputeNetworkState(wan.default_topology, wan.optical,
                                         demands, opt, rng);
  for (int v = 0; v < wan.default_topology.NumSites(); ++v) {
    EXPECT_EQ(res.best_topology.PortsUsed(v),
              wan.default_topology.PortsUsed(v));
  }
}

TEST(AnnealTest, ZeroIterationsReturnsStart) {
  topo::Wan wan = topo::MakeInternet2();
  std::vector<TransferDemand> demands = {Demand(0, 0, 8, 40.0)};
  AnnealOptions opt;
  opt.max_iterations = 0;
  util::Rng rng(23);
  AnnealResult res = ComputeNetworkState(wan.default_topology, wan.optical,
                                         demands, opt, rng);
  EXPECT_TRUE(res.best_topology == wan.default_topology);
  EXPECT_EQ(res.iterations, 0);
}

TEST(AnnealTest, NoDemandsIsStable) {
  topo::Wan wan = topo::MakeInternet2();
  AnnealOptions opt;
  opt.max_iterations = 50;
  util::Rng rng(29);
  AnnealResult res = ComputeNetworkState(wan.default_topology, wan.optical,
                                         {}, opt, rng);
  EXPECT_DOUBLE_EQ(res.best_energy, 0.0);
}

TEST(AnnealTest, WarmStartKeepsChangesIncremental) {
  topo::Wan wan = topo::MakeInternet2();
  std::vector<TransferDemand> demands = {Demand(0, 0, 8, 20.0),
                                         Demand(1, 4, 6, 20.0)};
  AnnealOptions warm;
  warm.max_iterations = 150;
  AnnealOptions cold = warm;
  cold.warm_start = false;

  util::Rng rng1(31), rng2(31);
  AnnealResult rw = ComputeNetworkState(wan.default_topology, wan.optical,
                                        demands, warm, rng1);
  AnnealResult rc = ComputeNetworkState(wan.default_topology, wan.optical,
                                        demands, cold, rng2);
  // The warm start ends near the current topology; the cold start wanders.
  EXPECT_LE(rw.circuit_changes, rc.circuit_changes);
}

TEST(AnnealTest, MoreIterationsNeverHurtEnergy) {
  topo::Wan wan = topo::MakeInternet2();
  std::vector<TransferDemand> demands = {
      Demand(0, 0, 8, 40.0), Demand(1, 1, 7, 40.0), Demand(2, 2, 5, 40.0)};
  double prev = -1.0;
  for (int iters : {10, 100, 400}) {
    AnnealOptions opt;
    opt.max_iterations = iters;
    opt.epsilon_ratio = 1e-9;  // let the iteration cap bind
    util::Rng rng(37);         // same seed: prefix property of the search
    AnnealResult res = ComputeNetworkState(wan.default_topology, wan.optical,
                                           demands, opt, rng);
    EXPECT_GE(res.best_energy, prev - 1e-9) << "iters=" << iters;
    prev = res.best_energy;
  }
}

TEST(AnnealTest, RejectsTopologyPlantSiteCountMismatch) {
  topo::Wan wan = topo::MakeInternet2();
  Topology wrong(4);
  wrong.AddUnits(0, 1, 1);
  AnnealOptions opt;
  opt.max_iterations = 10;
  util::Rng rng(43);
  EXPECT_THROW(ComputeNetworkState(wrong, wan.optical, {}, opt, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace owan::core
