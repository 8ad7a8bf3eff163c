#include "core/provisioned_state.h"

#include <gtest/gtest.h>

#include <string>

#include "core/annealing.h"
#include "topo/topologies.h"
#include "util/rng.h"

namespace owan::core {
namespace {

TEST(ProvisionedStateTest, EmptyStart) {
  topo::Wan wan = topo::MakeInternet2();
  ProvisionedState s(wan.optical);
  EXPECT_EQ(s.realized().TotalUnits(), 0);
  EXPECT_EQ(s.optical().NumCircuits(), 0);
}

TEST(ProvisionedStateTest, SyncProvisionsDefaultTopology) {
  topo::Wan wan = topo::MakeInternet2();
  ProvisionedState s(wan.optical);
  const int failed = s.SyncTo(wan.default_topology);
  EXPECT_EQ(failed, 0);
  EXPECT_TRUE(s.realized() == wan.default_topology);
  EXPECT_EQ(s.optical().NumCircuits(), wan.default_topology.TotalUnits());
  EXPECT_TRUE(s.optical().CheckInvariants());
}

TEST(ProvisionedStateTest, IncrementalSyncOnlyTouchesDiff) {
  topo::Wan wan = topo::MakeInternet2();
  ProvisionedState s(wan.optical);
  s.SyncTo(wan.default_topology);

  // Move one unit: SEA-SLC + WAS-NYC -> SEA-WAS + SLC-NYC.
  Topology target = wan.default_topology;
  const int sea = wan.SiteByName("SEA"), slc = wan.SiteByName("SLC");
  const int was = wan.SiteByName("WAS"), nyc = wan.SiteByName("NYC");
  target.AddUnits(sea, slc, -1);
  target.AddUnits(was, nyc, -1);
  target.AddUnits(sea, was, 1);
  target.AddUnits(slc, nyc, 1);

  const auto before = s.LinkCircuits(wan.SiteByName("KAN"),
                                     wan.SiteByName("CHI"));
  const int failed = s.SyncTo(target);
  EXPECT_EQ(failed, 0);
  EXPECT_TRUE(s.realized() == target);
  // Untouched links keep the exact same circuit ids.
  EXPECT_EQ(s.LinkCircuits(wan.SiteByName("KAN"), wan.SiteByName("CHI")),
            before);
  EXPECT_TRUE(s.optical().CheckInvariants());
}

TEST(ProvisionedStateTest, SyncBackRestores) {
  topo::Wan wan = topo::MakeInternet2();
  ProvisionedState s(wan.optical);
  s.SyncTo(wan.default_topology);
  Topology target = wan.default_topology;
  target.AddUnits(wan.SiteByName("SEA"), wan.SiteByName("SLC"), -1);
  target.AddUnits(wan.SiteByName("WAS"), wan.SiteByName("NYC"), -1);
  target.AddUnits(wan.SiteByName("SEA"), wan.SiteByName("WAS"), 1);
  target.AddUnits(wan.SiteByName("SLC"), wan.SiteByName("NYC"), 1);
  s.SyncTo(target);
  const int failed = s.SyncTo(wan.default_topology);
  EXPECT_EQ(failed, 0);
  EXPECT_TRUE(s.realized() == wan.default_topology);
}

TEST(ProvisionedStateTest, InfeasibleUnitsReported) {
  // Tiny plant: one fiber with one wavelength cannot host two units.
  std::vector<optical::SiteInfo> sites = {{"A", 2, 0}, {"B", 2, 0}};
  optical::OpticalNetwork on(std::move(sites), 1000.0, 10.0);
  on.AddFiber(0, 1, 100.0, 1);
  ProvisionedState s(on);
  Topology t(2);
  t.AddUnits(0, 1, 2);
  const int failed = s.SyncTo(t);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(s.realized().Units(0, 1), 1);
  // The capacity graph reflects the realizable capacity only.
  net::Graph g = s.CapacityGraph();
  EXPECT_DOUBLE_EQ(g.TotalCapacity(), 10.0);
}

TEST(ProvisionedStateTest, CopyIsIndependent) {
  topo::Wan wan = topo::MakeInternet2();
  ProvisionedState a(wan.optical);
  a.SyncTo(wan.default_topology);
  ProvisionedState b = a;
  Topology t2(wan.default_topology.NumSites());  // empty
  b.SyncTo(t2);
  EXPECT_EQ(b.optical().NumCircuits(), 0);
  EXPECT_EQ(a.optical().NumCircuits(), wan.default_topology.TotalUnits());
  EXPECT_TRUE(a.optical().CheckInvariants());
}

TEST(ProvisionedStateTest, CapacityGraphMatchesRealized) {
  topo::Wan wan = topo::MakeInternet2();
  ProvisionedState s(wan.optical);
  s.SyncTo(wan.default_topology);
  net::Graph g = s.CapacityGraph();
  EXPECT_EQ(g.NumEdges(), s.realized().NumLinks());
  EXPECT_DOUBLE_EQ(
      g.TotalCapacity(),
      s.realized().TotalUnits() * wan.optical.wavelength_capacity());
}

// Full observable footprint of the optical layer: circuit ids with their
// exact realisation, plus the id counter. Rollback must restore all of it.
std::string OpticalSnapshot(const ProvisionedState& s) {
  std::string out;
  for (const auto& [id, c] : s.optical().circuits()) {
    out += optical::ToString(c);
    out += '\n';
  }
  out += "next=" + std::to_string(s.optical().next_circuit_id());
  return out;
}

TEST(ProvisionedStateTest, RollbackRestoresExactState) {
  topo::Wan wan = topo::MakeInternet2();
  ProvisionedState s(wan.optical);
  s.SyncTo(wan.default_topology);
  const std::string before = OpticalSnapshot(s);

  Topology target = wan.default_topology;
  target.AddUnits(wan.SiteByName("SEA"), wan.SiteByName("SLC"), -1);
  target.AddUnits(wan.SiteByName("WAS"), wan.SiteByName("NYC"), -1);
  target.AddUnits(wan.SiteByName("SEA"), wan.SiteByName("WAS"), 1);
  target.AddUnits(wan.SiteByName("SLC"), wan.SiteByName("NYC"), 1);

  ProvisionedState::SyncUndo undo;
  s.SyncTo(target, &undo);
  EXPECT_TRUE(s.realized() == target);
  s.Rollback(undo);

  EXPECT_TRUE(s.realized() == wan.default_topology);
  EXPECT_EQ(OpticalSnapshot(s), before);
  EXPECT_TRUE(s.optical().CheckInvariants());
}

TEST(ProvisionedStateTest, RollbackThenRedoIsDeterministic) {
  // After a rollback, re-running the same move must provision the exact
  // same circuits — ids included — as a never-rolled-back run, or the
  // incremental evaluator would diverge from the copy-everything pattern.
  topo::Wan wan = topo::MakeInternet2();
  Topology target = wan.default_topology;
  target.AddUnits(wan.SiteByName("SEA"), wan.SiteByName("SLC"), -1);
  target.AddUnits(wan.SiteByName("SEA"), wan.SiteByName("HOU"), 1);
  target.AddUnits(wan.SiteByName("CHI"), wan.SiteByName("KAN"), -1);
  target.AddUnits(wan.SiteByName("CHI"), wan.SiteByName("NYC"), 1);

  ProvisionedState reference(wan.optical);
  reference.SyncTo(wan.default_topology);
  reference.SyncTo(target);

  ProvisionedState s(wan.optical);
  s.SyncTo(wan.default_topology);
  ProvisionedState::SyncUndo undo;
  s.SyncTo(target, &undo);
  s.Rollback(undo);
  s.SyncTo(target);

  EXPECT_TRUE(s.realized() == reference.realized());
  EXPECT_EQ(OpticalSnapshot(s), OpticalSnapshot(reference));
}

TEST(ProvisionedStateTest, RepeatedApplyRollbackLeavesNoTrace) {
  topo::Wan wan = topo::MakeInternet2();
  ProvisionedState s(wan.optical);
  s.SyncTo(wan.default_topology);
  const std::string before = OpticalSnapshot(s);

  util::Rng rng(55);
  ProvisionedState::SyncUndo undo;  // reused scratch, as in the evaluator
  for (int i = 0; i < 25; ++i) {
    const auto nb = ComputeNeighbor(wan.default_topology, rng);
    ASSERT_TRUE(nb.has_value());
    s.SyncTo(*nb, &undo);
    s.Rollback(undo);
  }
  EXPECT_TRUE(s.realized() == wan.default_topology);
  EXPECT_EQ(OpticalSnapshot(s), before);
  EXPECT_TRUE(s.optical().CheckInvariants());
}

}  // namespace
}  // namespace owan::core
