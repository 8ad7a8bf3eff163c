#include "optical/optical_network.h"

#include <gtest/gtest.h>

namespace owan::optical {
namespace {

// Line of four sites: A - B - C - D with 800 km fibers, reach 1000 km, so
// any circuit longer than one hop needs regenerators at interior sites.
OpticalNetwork MakeLine(int regens_b = 2, int regens_c = 2,
                        int wavelengths = 4) {
  std::vector<SiteInfo> sites = {{"A", 2, 0},
                                 {"B", 2, regens_b},
                                 {"C", 2, regens_c},
                                 {"D", 2, 0}};
  OpticalNetwork on(std::move(sites), 1000.0, 10.0);
  on.AddFiber(0, 1, 800.0, wavelengths);
  on.AddFiber(1, 2, 800.0, wavelengths);
  on.AddFiber(2, 3, 800.0, wavelengths);
  return on;
}

TEST(OpticalNetworkTest, ConstructionValidation) {
  std::vector<SiteInfo> sites = {{"A", 1, 0}, {"B", 1, 0}};
  EXPECT_THROW(OpticalNetwork(sites, -1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(OpticalNetwork(sites, 100.0, 0.0), std::invalid_argument);
  OpticalNetwork on(sites, 100.0, 10.0);
  EXPECT_THROW(on.AddFiber(0, 1, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(on.AddFiber(0, 1, 10.0, 0), std::invalid_argument);
}

TEST(OpticalNetworkTest, SingleHopCircuit) {
  OpticalNetwork on = MakeLine();
  auto id = on.ProvisionCircuit(0, 1);
  ASSERT_TRUE(id);
  const Circuit& c = on.circuit(*id);
  EXPECT_EQ(c.src, 0);
  EXPECT_EQ(c.dst, 1);
  EXPECT_TRUE(c.regen_sites.empty());
  EXPECT_EQ(c.segments.size(), 1u);
  EXPECT_TRUE(on.CheckInvariants());
}

TEST(OpticalNetworkTest, LongCircuitUsesRegenerators) {
  OpticalNetwork on = MakeLine();
  auto id = on.ProvisionCircuit(0, 3);
  ASSERT_TRUE(id);
  const Circuit& c = on.circuit(*id);
  // 2400 km total with 1000 km reach: regens at B and C.
  EXPECT_EQ(c.regen_sites.size(), 2u);
  EXPECT_EQ(c.segments.size(), 3u);
  EXPECT_EQ(on.FreeRegens(1), 1);
  EXPECT_EQ(on.FreeRegens(2), 1);
  EXPECT_TRUE(on.CheckInvariants());
}

TEST(OpticalNetworkTest, SegmentsRespectReach) {
  OpticalNetwork on = MakeLine();
  auto id = on.ProvisionCircuit(0, 3);
  ASSERT_TRUE(id);
  for (const Segment& s : on.circuit(*id).segments) {
    EXPECT_LE(s.length_km, on.reach_km());
  }
}

TEST(OpticalNetworkTest, NoRegensNoLongCircuit) {
  OpticalNetwork on = MakeLine(/*regens_b=*/0, /*regens_c=*/0);
  EXPECT_FALSE(on.ProvisionCircuit(0, 3).has_value());
  // Single hop still fine.
  EXPECT_TRUE(on.ProvisionCircuit(0, 1).has_value());
}

TEST(OpticalNetworkTest, WavelengthExhaustion) {
  OpticalNetwork on = MakeLine(2, 2, /*wavelengths=*/2);
  EXPECT_TRUE(on.ProvisionCircuit(0, 1).has_value());
  EXPECT_TRUE(on.ProvisionCircuit(0, 1).has_value());
  // Fiber A-B now has no free wavelengths.
  EXPECT_EQ(on.FreeWavelengths(0), 0);
  EXPECT_FALSE(on.ProvisionCircuit(0, 1).has_value());
  EXPECT_TRUE(on.CheckInvariants());
}

TEST(OpticalNetworkTest, ReleaseFreesResources) {
  OpticalNetwork on = MakeLine();
  auto id = on.ProvisionCircuit(0, 3);
  ASSERT_TRUE(id);
  const int free_b = on.FreeRegens(1);
  on.ReleaseCircuit(*id);
  EXPECT_EQ(on.FreeRegens(1), free_b + 1);
  EXPECT_EQ(on.NumCircuits(), 0);
  EXPECT_EQ(on.FreeWavelengths(0), 4);
  EXPECT_TRUE(on.CheckInvariants());
  EXPECT_THROW(on.ReleaseCircuit(*id), std::invalid_argument);
}

TEST(OpticalNetworkTest, ReleaseThenReprovision) {
  OpticalNetwork on = MakeLine(1, 1, 1);
  auto a = on.ProvisionCircuit(0, 3);
  ASSERT_TRUE(a);
  EXPECT_FALSE(on.ProvisionCircuit(0, 3).has_value());  // resources gone
  on.ReleaseCircuit(*a);
  EXPECT_TRUE(on.ProvisionCircuit(0, 3).has_value());
}

TEST(OpticalNetworkTest, WavelengthContinuityWithinSegment) {
  OpticalNetwork on = MakeLine();
  // Circuit A->C fits in one segment? 1600 km > 1000 reach: regen at B.
  auto id = on.ProvisionCircuit(0, 2);
  ASSERT_TRUE(id);
  const Circuit& c = on.circuit(*id);
  ASSERT_EQ(c.segments.size(), 2u);
  for (const Segment& s : c.segments) {
    EXPECT_GE(s.wavelength, 0);
    EXPECT_EQ(s.fibers.size(), 1u);
  }
}

TEST(OpticalNetworkTest, CircuitsBetweenFindsBothDirections) {
  OpticalNetwork on = MakeLine();
  auto a = on.ProvisionCircuit(0, 1);
  auto b = on.ProvisionCircuit(1, 0);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(on.CircuitsBetween(0, 1).size(), 2u);
  EXPECT_EQ(on.CircuitsBetween(1, 0).size(), 2u);
  EXPECT_TRUE(on.CircuitsBetween(0, 2).empty());
}

TEST(OpticalNetworkTest, InvalidEndpoints) {
  OpticalNetwork on = MakeLine();
  EXPECT_FALSE(on.ProvisionCircuit(0, 0).has_value());
  EXPECT_FALSE(on.ProvisionCircuit(-1, 2).has_value());
  EXPECT_FALSE(on.ProvisionCircuit(0, 99).has_value());
}

TEST(OpticalNetworkTest, FiberDistance) {
  OpticalNetwork on = MakeLine();
  EXPECT_DOUBLE_EQ(on.FiberDistanceKm(0, 3), 2400.0);
  EXPECT_DOUBLE_EQ(on.FiberDistanceKm(0, 0), 0.0);
}

TEST(OpticalNetworkTest, FiberFailureTearsDownCircuits) {
  OpticalNetwork on = MakeLine();
  auto id = on.ProvisionCircuit(0, 3);
  ASSERT_TRUE(id);
  auto victims = on.FailFiber(1);  // B-C fiber
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], *id);
  EXPECT_EQ(on.NumCircuits(), 0);
  // Resources are back.
  EXPECT_EQ(on.FreeRegens(1), 2);
  // But the failed fiber cannot carry a new long circuit.
  EXPECT_FALSE(on.ProvisionCircuit(0, 3).has_value());
  EXPECT_TRUE(on.ProvisionCircuit(0, 1).has_value());
  EXPECT_TRUE(on.CheckInvariants());
}

TEST(OpticalNetworkTest, FiberRestoreReenables) {
  OpticalNetwork on = MakeLine();
  on.FailFiber(1);
  on.RestoreFiber(1);
  EXPECT_TRUE(on.ProvisionCircuit(0, 3).has_value());
}

TEST(OpticalNetworkTest, CopySemanticsIsolateState) {
  OpticalNetwork on = MakeLine();
  OpticalNetwork copy = on;
  auto id = copy.ProvisionCircuit(0, 3);
  ASSERT_TRUE(id);
  EXPECT_EQ(on.NumCircuits(), 0);
  EXPECT_EQ(on.FreeRegens(1), 2);
  EXPECT_EQ(copy.FreeRegens(1), 1);
}

TEST(OpticalNetworkTest, MeshAlternatePathWhenWavelengthsBusy) {
  // Two parallel routes between X and Y; exhaust one, the provisioner must
  // route over the other.
  std::vector<SiteInfo> sites = {{"X", 2, 0}, {"M", 2, 0}, {"N", 2, 0},
                                 {"Y", 2, 0}};
  OpticalNetwork on(std::move(sites), 2000.0, 10.0);
  on.AddFiber(0, 1, 400.0, 1);  // X-M
  on.AddFiber(1, 3, 400.0, 1);  // M-Y
  on.AddFiber(0, 2, 500.0, 1);  // X-N (longer)
  on.AddFiber(2, 3, 500.0, 1);  // N-Y
  auto a = on.ProvisionCircuit(0, 3);
  ASSERT_TRUE(a);
  EXPECT_DOUBLE_EQ(on.circuit(*a).TotalLengthKm(), 800.0);
  auto b = on.ProvisionCircuit(0, 3);
  ASSERT_TRUE(b);
  EXPECT_DOUBLE_EQ(on.circuit(*b).TotalLengthKm(), 1000.0);
  EXPECT_FALSE(on.ProvisionCircuit(0, 3).has_value());
  EXPECT_TRUE(on.CheckInvariants());
}

TEST(OpticalNetworkTest, InvariantCheckerCatchesTampering) {
  OpticalNetwork on = MakeLine();
  ASSERT_TRUE(on.ProvisionCircuit(0, 3).has_value());
  std::string err;
  EXPECT_TRUE(on.CheckInvariants(&err)) << err;
}

// The lazily-cached fiber trees must track failure events exactly: a stale
// tree would route circuits over dead fibers (or miss restored ones).
TEST(OpticalNetworkTest, FiberTreeCacheTracksFailures) {
  OpticalNetwork on = MakeLine();
  EXPECT_DOUBLE_EQ(on.FiberDistanceKm(0, 3), 2400.0);  // warms the cache
  EXPECT_DOUBLE_EQ(on.FiberTree(0).dist[2], 1600.0);

  on.FailFiber(1);  // B-C: the line is cut
  EXPECT_DOUBLE_EQ(on.FiberTree(0).dist[2], net::kInfDist);
  EXPECT_DOUBLE_EQ(on.FiberDistanceKm(0, 3), net::kInfDist);

  on.RestoreFiber(1);
  EXPECT_DOUBLE_EQ(on.FiberTree(0).dist[2], 1600.0);
  EXPECT_DOUBLE_EQ(on.FiberDistanceKm(0, 3), 2400.0);
}

TEST(OpticalNetworkTest, FiberCacheSurvivesCopyAndCircuitChurn) {
  OpticalNetwork on = MakeLine();
  EXPECT_DOUBLE_EQ(on.FiberTree(1).dist[3], 1600.0);  // warm

  // A copy shares its source's fiber-route table: it starts warm, with
  // identical answers.
  const OpticalNetwork copy = on;
  EXPECT_DOUBLE_EQ(copy.FiberTree(1).dist[3], 1600.0);
  EXPECT_DOUBLE_EQ(copy.FiberDistanceKm(0, 3), 2400.0);

  // Circuit churn must not disturb cached trees (they ignore wavelengths).
  const auto id = on.ProvisionCircuit(0, 3);
  ASSERT_TRUE(id.has_value());
  EXPECT_DOUBLE_EQ(on.FiberTree(1).dist[3], 1600.0);
  on.ReleaseCircuit(*id);
  EXPECT_DOUBLE_EQ(on.FiberTree(1).dist[3], 1600.0);
}

// A copy shares its source's fiber-route table only until one side changes
// the dead-fiber mask: that side gets a fresh table, and the other side's
// answers stay as they were.
TEST(OpticalNetworkTest, MaskChangesStayOnTheirSideOfACopy) {
  struct MaskChange {
    const char* name;
    void (*fail)(OpticalNetwork&);
    void (*restore)(OpticalNetwork&);
  };
  const MaskChange changes[] = {
      {"fiber B-C", [](OpticalNetwork& on) { on.FailFiber(1); },
       [](OpticalNetwork& on) { on.RestoreFiber(1); }},
      {"site B", [](OpticalNetwork& on) { on.FailSite(1); },
       [](OpticalNetwork& on) { on.RestoreSite(1); }},
  };
  for (const MaskChange& change : changes) {
    for (const bool on_copy : {false, true}) {
      SCOPED_TRACE(std::string(change.name) +
                   (on_copy ? " fails on the copy" : " fails on the source"));
      OpticalNetwork plant = MakeLine();
      EXPECT_DOUBLE_EQ(plant.FiberDistanceKm(0, 3), 2400.0);  // warm
      OpticalNetwork copy = MakeLine(1, 1, 1);
      copy = plant;
      OpticalNetwork& changed = on_copy ? copy : plant;
      OpticalNetwork& other = on_copy ? plant : copy;

      change.fail(changed);
      EXPECT_EQ(changed.FiberTree(0).dist[2], net::kInfDist);
      EXPECT_EQ(changed.FiberDistanceKm(0, 3), net::kInfDist);
      EXPECT_FALSE(changed.ProvisionCircuit(0, 3).has_value());
      EXPECT_DOUBLE_EQ(other.FiberTree(0).dist[2], 1600.0);
      EXPECT_DOUBLE_EQ(other.FiberDistanceKm(0, 3), 2400.0);
      const auto other_id = other.ProvisionCircuit(0, 3);
      ASSERT_TRUE(other_id.has_value());
      EXPECT_DOUBLE_EQ(other.circuit(*other_id).TotalLengthKm(), 2400.0);

      change.restore(changed);
      EXPECT_DOUBLE_EQ(changed.FiberTree(0).dist[2], 1600.0);
      EXPECT_DOUBLE_EQ(changed.FiberDistanceKm(0, 3), 2400.0);
      const auto id = changed.ProvisionCircuit(0, 3);
      ASSERT_TRUE(id.has_value());
      EXPECT_EQ(changed.circuit(*id).regen_sites,
                other.circuit(*other_id).regen_sites);
    }
  }
}

}  // namespace
}  // namespace owan::optical
