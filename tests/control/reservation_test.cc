#include "control/reservation.h"

#include <gtest/gtest.h>

#include <limits>

#include "topo/topologies.h"

namespace owan::control {
namespace {

class ReservationTest : public ::testing::Test {
 protected:
  ReservationTest() : wan_(topo::MakeMotivatingExample()) {}

  ReservationService MakeService(bool boost = true) {
    ReservationOptions opt;
    opt.allow_optical_boost = boost;
    return ReservationService(wan_.default_topology, wan_.optical, opt);
  }

  topo::Wan wan_;
};

TEST_F(ReservationTest, AdmitsWithinCapacity) {
  auto svc = MakeService(/*boost=*/false);
  auto r = svc.Request(0, 1, 8.0, 0.0, 600.0);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->src, 0);
  EXPECT_NEAR(r->rate, 8.0, 1e-9);
  EXPECT_FALSE(r->used_extra_circuit);
  EXPECT_EQ(svc.reservations().size(), 1u);
}

TEST_F(ReservationTest, RejectsBeyondCapacity) {
  auto svc = MakeService(/*boost=*/false);
  // Min-cut between 0 and 1 is 20 (direct + detour).
  EXPECT_TRUE(svc.Request(0, 1, 20.0, 0.0, 600.0).has_value());
  EXPECT_FALSE(svc.Request(0, 1, 1.0, 0.0, 600.0).has_value());
  EXPECT_EQ(svc.reservations().size(), 1u);
}

TEST_F(ReservationTest, WindowsDoNotConflictWhenDisjoint) {
  auto svc = MakeService(/*boost=*/false);
  EXPECT_TRUE(svc.Request(0, 1, 20.0, 0.0, 600.0).has_value());
  // Same capacity, later window: fine.
  EXPECT_TRUE(svc.Request(0, 1, 20.0, 600.0, 1200.0).has_value());
}

TEST_F(ReservationTest, OverlappingWindowsShareLedger) {
  auto svc = MakeService(/*boost=*/false);
  EXPECT_TRUE(svc.Request(0, 1, 15.0, 0.0, 900.0).has_value());
  // Overlap [600, 900): only 5 left.
  EXPECT_FALSE(svc.Request(0, 1, 10.0, 600.0, 1500.0).has_value());
  EXPECT_TRUE(svc.Request(0, 1, 5.0, 600.0, 1500.0).has_value());
}

TEST_F(ReservationTest, ReleaseReturnsCapacity) {
  auto svc = MakeService(/*boost=*/false);
  auto r = svc.Request(0, 1, 20.0, 0.0, 600.0);
  ASSERT_TRUE(r);
  svc.Release(r->id);
  EXPECT_TRUE(svc.Request(0, 1, 20.0, 0.0, 600.0).has_value());
  EXPECT_THROW(svc.Release(r->id), std::invalid_argument);
}

TEST_F(ReservationTest, MultiPathGuarantee) {
  auto svc = MakeService(/*boost=*/false);
  auto r = svc.Request(0, 1, 15.0, 0.0, 300.0);
  ASSERT_TRUE(r);
  EXPECT_GE(r->paths.size(), 2u);  // direct 10 + detour 5
  double total = 0.0;
  for (const auto& pa : r->paths) total += pa.rate;
  EXPECT_NEAR(total, 15.0, 1e-9);
}

TEST_F(ReservationTest, OpticalBoostLightsExtraCircuit) {
  // The square's default topology uses 2 of 2 ports everywhere, so no
  // boost is possible there; use a plant with spare ports.
  std::vector<optical::SiteInfo> sites = {{"A", 2, 0}, {"B", 2, 0}};
  optical::OpticalNetwork on(std::move(sites), 1000.0, 10.0);
  on.AddFiber(0, 1, 100.0, 4);
  core::Topology topo(2);
  topo.AddUnits(0, 1, 1);  // 1 of 2 ports used
  ReservationService svc(topo, on, {});
  // 10 G fits the existing link; 15 G needs the boost circuit.
  auto r = svc.Request(0, 1, 15.0, 0.0, 300.0);
  ASSERT_TRUE(r);
  EXPECT_TRUE(r->used_extra_circuit);
  EXPECT_EQ(svc.BoostCircuits(), 1);
  EXPECT_TRUE(svc.ledger().Audit().empty());
}

TEST_F(ReservationTest, BoostNeedsFreeRouterPorts) {
  // All ports in use: no boost even though fibers have spare wavelengths.
  auto svc = MakeService(/*boost=*/true);
  EXPECT_TRUE(svc.Request(0, 1, 20.0, 0.0, 600.0).has_value());
  EXPECT_FALSE(svc.Request(0, 1, 5.0, 0.0, 600.0).has_value());
  EXPECT_EQ(svc.BoostCircuits(), 0);
}

TEST_F(ReservationTest, AvailableRateReflectsLedger) {
  auto svc = MakeService(/*boost=*/false);
  const double before = svc.AvailableRate(0, 1, 0.0, 600.0);
  EXPECT_NEAR(before, 20.0, 1e-6);
  ASSERT_TRUE(svc.Request(0, 1, 8.0, 0.0, 600.0).has_value());
  EXPECT_NEAR(svc.AvailableRate(0, 1, 0.0, 600.0), 12.0, 1e-6);
  EXPECT_NEAR(svc.AvailableRate(0, 1, 600.0, 1200.0), 20.0, 1e-6);
}

TEST_F(ReservationTest, InvalidRequestsRejected) {
  auto svc = MakeService();
  EXPECT_FALSE(svc.Request(0, 0, 5.0, 0.0, 300.0).has_value());
  EXPECT_FALSE(svc.Request(0, 1, -1.0, 0.0, 300.0).has_value());
  EXPECT_FALSE(svc.Request(0, 1, 5.0, 300.0, 300.0).has_value());
}

TEST_F(ReservationTest, RejectsWindowsStartingInThePast) {
  auto svc = MakeService();
  // A negative start truncates onto slot 0 (or negative ledger slots) and
  // would book capacity for time that can never be served.
  EXPECT_FALSE(svc.Request(0, 1, 5.0, -600.0, 300.0).has_value());
  EXPECT_FALSE(svc.Request(0, 1, 5.0, -1.0, 300.0).has_value());
  EXPECT_TRUE(svc.Request(0, 1, 5.0, 0.0, 300.0).has_value());
}

TEST_F(ReservationTest, RejectsNonFiniteInputs) {
  auto svc = MakeService();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(svc.Request(0, 1, inf, 0.0, 300.0).has_value());
  EXPECT_FALSE(svc.Request(0, 1, nan, 0.0, 300.0).has_value());
  EXPECT_FALSE(svc.Request(0, 1, 5.0, nan, 300.0).has_value());
  EXPECT_FALSE(svc.Request(0, 1, 5.0, 0.0, inf).has_value());
  EXPECT_EQ(svc.reservations().size(), 0u);
}

TEST_F(ReservationTest, RejectsSlotLengthThatIsNotFiniteAndPositive) {
  // The ledger's constructor rejects the slot length, NaN included.
  for (double slot : {0.0, std::numeric_limits<double>::quiet_NaN()}) {
    ReservationOptions opt;
    opt.slot_seconds = slot;
    EXPECT_THROW(ReservationService(wan_.default_topology, wan_.optical, opt),
                 std::invalid_argument)
        << slot;
  }
}

TEST_F(ReservationTest, RejectsOutOfRangeNodes) {
  auto svc = MakeService();
  EXPECT_FALSE(svc.Request(-1, 1, 5.0, 0.0, 300.0).has_value());
  EXPECT_FALSE(svc.Request(0, 99, 5.0, 0.0, 300.0).has_value());
  EXPECT_EQ(svc.AvailableRate(-1, 1, 0.0, 300.0), 0.0);
  EXPECT_EQ(svc.AvailableRate(0, 99, 0.0, 300.0), 0.0);
}

TEST_F(ReservationTest, AvailableRateGuardsDegenerateQueries) {
  auto svc = MakeService(/*boost=*/false);
  // src == dst must be "nothing obtainable", not the self-loop path list.
  EXPECT_EQ(svc.AvailableRate(0, 0, 0.0, 600.0), 0.0);
  // Empty and inverted windows likewise.
  EXPECT_EQ(svc.AvailableRate(0, 1, 300.0, 300.0), 0.0);
  EXPECT_EQ(svc.AvailableRate(0, 1, 600.0, 0.0), 0.0);
  EXPECT_EQ(svc.AvailableRate(0, 1, -600.0, 300.0), 0.0);
}

TEST_F(ReservationTest, SlotAlignedWindowsOccupyExactlyTheirSlots) {
  auto svc = MakeService(/*boost=*/false);
  // [0, 600) covers slots {0,1}; an exclusive end must NOT leak into slot 2,
  // so a full-capacity booking there leaves [600, 1200) untouched.
  ASSERT_TRUE(svc.Request(0, 1, 20.0, 0.0, 600.0).has_value());
  EXPECT_NEAR(svc.AvailableRate(0, 1, 0.0, 600.0), 0.0, 1e-9);
  EXPECT_NEAR(svc.AvailableRate(0, 1, 600.0, 1200.0), 20.0, 1e-6);
  EXPECT_TRUE(svc.Request(0, 1, 20.0, 600.0, 1200.0).has_value());
}

TEST_F(ReservationTest, ReleaseThenReadmitReusesCapacity) {
  auto svc = MakeService(/*boost=*/false);
  auto first = svc.Request(0, 1, 20.0, 0.0, 600.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(svc.Request(0, 1, 1.0, 0.0, 600.0).has_value());
  svc.Release(first->id);
  EXPECT_EQ(svc.reservations().size(), 0u);
  EXPECT_TRUE(svc.ledger().Audit().empty());
  EXPECT_NEAR(svc.AvailableRate(0, 1, 0.0, 600.0), 20.0, 1e-6);
  EXPECT_TRUE(svc.Request(0, 1, 20.0, 0.0, 600.0).has_value());
  EXPECT_TRUE(svc.ledger().Audit().empty());
}

TEST_F(ReservationTest, ReleaseUnknownIdThrows) {
  auto svc = MakeService();
  EXPECT_THROW(svc.Release(42), std::invalid_argument);
}

}  // namespace
}  // namespace owan::control
