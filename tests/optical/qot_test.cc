#include "optical/qot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "optical/optical_network.h"

namespace owan::optical {
namespace {

// All goldens below use the default model: 80 km spans, 0.25 dB/km loss,
// 5 dB amplifier noise figure, 0 dBm launch power, 2 dB margin, and the
// default 4-tier modulation table.
QotOptions Qot() {
  QotOptions q;
  q.enabled = true;
  return q;
}

TEST(QotTest, SpanLayout) {
  const QotOptions q = Qot();
  // 200 km = two full 80 km spans plus a 40 km remainder.
  const std::vector<double> spans = SpanLengthsKm(200.0, q.span_km);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_DOUBLE_EQ(spans[0], 80.0);
  EXPECT_DOUBLE_EQ(spans[1], 80.0);
  EXPECT_DOUBLE_EQ(spans[2], 40.0);
  // An exact multiple produces no residual zero-length span.
  const std::vector<double> exact = SpanLengthsKm(160.0, q.span_km);
  ASSERT_EQ(exact.size(), 2u);
  EXPECT_DOUBLE_EQ(exact[0], 80.0);
  EXPECT_DOUBLE_EQ(exact[1], 80.0);
  // Degenerate zero length: no spans at all.
  EXPECT_TRUE(SpanLengthsKm(0.0, q.span_km).empty());
}

TEST(QotTest, SingleSpanOsnrGolden) {
  const QotOptions q = Qot();
  // 58 + 0 dBm - 0.25 * 80 km - 5 dB NF = 33 dB, all exactly representable.
  EXPECT_DOUBLE_EQ(SpanOsnrDb(80.0, 0.0, q), 33.0);
  EXPECT_DOUBLE_EQ(SpanOsnrDb(40.0, 0.0, q), 43.0);
  // Extra attenuation subtracts straight off the budget.
  EXPECT_DOUBLE_EQ(SpanOsnrDb(80.0, 3.0, q), 30.0);
}

TEST(QotTest, MultiSpanAccumulationGolden) {
  const QotOptions q = Qot();
  // Hand-accumulated 200 km fiber: spans of 33, 33, 43 dB OSNR combine on
  // the linear inverse scale; margin comes off at the end.
  const double inv_want = std::pow(10.0, -3.3) + std::pow(10.0, -3.3) +
                          std::pow(10.0, -4.3);
  const double inv = FiberInverseOsnr(200.0, 0.0, q);
  EXPECT_DOUBLE_EQ(inv, inv_want);
  EXPECT_DOUBLE_EQ(SnrDbFromInverseOsnr(inv, q),
                   -10.0 * std::log10(inv_want) - 2.0);
}

TEST(QotTest, SingleSpanRouteGolden) {
  const QotOptions q = Qot();
  // 50 km single span: SNR = 58 - 12.5 - 5 - 2 = 38.5 dB -> top tier.
  const double inv = FiberInverseOsnr(50.0, 0.0, q);
  EXPECT_DOUBLE_EQ(SnrDbFromInverseOsnr(inv, q), 38.5);
  EXPECT_DOUBLE_EQ(CapacityForSnrGbps(38.5, q), 200.0);
}

TEST(QotTest, ZeroLengthAccumulatesNothing) {
  const QotOptions q = Qot();
  EXPECT_DOUBLE_EQ(FiberInverseOsnr(0.0, 0.0, q), 0.0);
  EXPECT_EQ(SnrDbFromInverseOsnr(0.0, q),
            std::numeric_limits<double>::infinity());
}

TEST(QotTest, TierBoundaries) {
  const QotOptions q = Qot();
  // Exactly at a threshold qualifies for that tier.
  EXPECT_DOUBLE_EQ(CapacityForSnrGbps(13.0, q), 50.0);
  EXPECT_DOUBLE_EQ(CapacityForSnrGbps(16.0, q), 100.0);
  EXPECT_DOUBLE_EQ(CapacityForSnrGbps(19.0, q), 150.0);
  EXPECT_DOUBLE_EQ(CapacityForSnrGbps(22.0, q), 200.0);
  // Just below a threshold falls to the next tier down (or to zero).
  EXPECT_DOUBLE_EQ(CapacityForSnrGbps(12.999999, q), 0.0);
  EXPECT_DOUBLE_EQ(CapacityForSnrGbps(15.999999, q), 50.0);
  EXPECT_DOUBLE_EQ(CapacityForSnrGbps(21.999999, q), 150.0);
  EXPECT_DOUBLE_EQ(
      CapacityForSnrGbps(std::numeric_limits<double>::infinity(), q), 200.0);
}

TEST(QotTest, EffectiveReachMatchesFeasibilityEdge) {
  const QotOptions q = Qot();
  const double reach = EffectiveQotReachKm(q);
  ASSERT_GT(reach, 0.0);
  ASSERT_LT(reach, 1e7);
  // Just inside the reach a single contiguous fiber still closes at some
  // tier; just outside it closes at none.
  const double inside =
      SnrDbFromInverseOsnr(FiberInverseOsnr(reach - 0.1, 0.0, q), q);
  const double outside =
      SnrDbFromInverseOsnr(FiberInverseOsnr(reach + 0.1, 0.0, q), q);
  EXPECT_GT(CapacityForSnrGbps(inside, q), 0.0);
  EXPECT_DOUBLE_EQ(CapacityForSnrGbps(outside, q), 0.0);
  // Lower loss must never shrink the reach.
  QotOptions better = q;
  better.fiber_loss_db_per_km = 0.20;
  EXPECT_GE(EffectiveQotReachKm(better), reach);
}

// ---- circuit-level behavior on a real plant ----

// Line A - B - C with regens at B; theta 200 so the full tier range can
// express. 400 km (200G) and 1200 km (150G) legs give different tiers per
// segment, and regenerating at B strictly beats the unsplit 1600 km run
// (100G), so the impairment-aware selector must take the regen.
OpticalNetwork MakeQotLine(double theta = 200.0) {
  std::vector<SiteInfo> sites = {{"A", 2, 0}, {"B", 2, 2}, {"C", 2, 0}};
  OpticalNetwork on(std::move(sites), 2000.0, theta);
  on.set_qot(Qot());
  on.AddFiber(0, 1, 400.0, 4);
  on.AddFiber(1, 2, 1200.0, 4);
  return on;
}

TEST(QotTest, CircuitCarriesGradedCapacity) {
  OpticalNetwork on = MakeQotLine();
  auto id = on.ProvisionCircuit(0, 1);
  ASSERT_TRUE(id);
  const Circuit& c = on.circuit(*id);
  ASSERT_EQ(c.segments.size(), 1u);
  // 400 km = five 80 km spans: SNR = 33 - 10*log10(5) - 2 ~ 24.0 dB -> 200G.
  const double want_snr =
      -10.0 * std::log10(5.0 * std::pow(10.0, -3.3)) - 2.0;
  EXPECT_DOUBLE_EQ(c.segments[0].snr_db, want_snr);
  EXPECT_DOUBLE_EQ(c.capacity_gbps, 200.0);
  EXPECT_TRUE(on.CheckInvariants());
}

TEST(QotTest, RegenChosenWhenItRaisesTheTier) {
  OpticalNetwork on = MakeQotLine();
  auto id = on.ProvisionCircuit(0, 2);
  ASSERT_TRUE(id);
  const Circuit& c = on.circuit(*id);
  // Unsplit, 1600 km grades ~18 dB -> 100G. Regenerating at B yields
  // min(200G over 400 km, 150G over 1200 km) = 150G, so the selector must
  // spend the regen — and the circuit carries the minimum over segments.
  ASSERT_EQ(c.segments.size(), 2u);
  EXPECT_EQ(c.regen_sites.size(), 1u);
  EXPECT_DOUBLE_EQ(CapacityForSnrGbps(c.segments[0].snr_db, on.qot()),
                   200.0);
  EXPECT_DOUBLE_EQ(CapacityForSnrGbps(c.segments[1].snr_db, on.qot()),
                   150.0);
  EXPECT_DOUBLE_EQ(c.capacity_gbps, 150.0);
  EXPECT_TRUE(on.CheckInvariants());
}

TEST(QotTest, ThetaCapsTierCapacity) {
  OpticalNetwork on = MakeQotLine(/*theta=*/100.0);
  auto id = on.ProvisionCircuit(0, 1);
  ASSERT_TRUE(id);
  // The 400 km segment earns the 200G tier, but theta stays the
  // transceiver line-rate ceiling.
  EXPECT_DOUBLE_EQ(on.circuit(*id).capacity_gbps, 100.0);
  EXPECT_TRUE(on.CheckInvariants());
}

TEST(QotTest, DegradationShrinksThenRepairRestores) {
  OpticalNetwork on = MakeQotLine();
  auto id = on.ProvisionCircuit(1, 2);
  ASSERT_TRUE(id);
  EXPECT_DOUBLE_EQ(on.circuit(*id).capacity_gbps, 150.0);
  // 1200 km = fifteen 80 km spans; 60 dB of extra attenuation spreads
  // 4 dB onto each span, dropping ~19.2 dB SNR to ~15.2 dB: 50G tier.
  EXPECT_TRUE(on.DegradeFiber(1, 60.0).empty());
  EXPECT_DOUBLE_EQ(on.circuit(*id).capacity_gbps, 50.0);
  EXPECT_TRUE(on.CheckInvariants());
  EXPECT_TRUE(on.RepairFiberDegradation(1));
  EXPECT_DOUBLE_EQ(on.circuit(*id).capacity_gbps, 150.0);
  EXPECT_FALSE(on.AnyFiberDegraded());
  EXPECT_TRUE(on.CheckInvariants());
}

TEST(QotTest, DegradationCanTearDown) {
  OpticalNetwork on = MakeQotLine();
  auto id = on.ProvisionCircuit(1, 2);
  ASSERT_TRUE(id);
  // Enough attenuation closes no tier at all: the circuit is torn down and
  // returned as a victim, but the fiber itself stays lit.
  const auto victims = on.DegradeFiber(1, 500.0);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], *id);
  EXPECT_EQ(on.circuits().size(), 0u);
  EXPECT_FALSE(on.FiberFailed(1));
  EXPECT_TRUE(on.CheckInvariants());
  // Repair makes the span provisionable again.
  EXPECT_TRUE(on.RepairFiberDegradation(1));
  EXPECT_TRUE(on.ProvisionCircuit(1, 2).has_value());
}

// PathSnrDb sums a per-fiber noise cache. After every call that changes a
// fiber's physics, on either side of a copy, it must bit-equal the same sum
// taken afresh from FiberInverseOsnr.
double UncachedSnrDb(const OpticalNetwork& on,
                     const std::vector<net::EdgeId>& fibers) {
  double inv = 0.0;
  for (net::EdgeId f : fibers) {
    inv += FiberInverseOsnr(on.fiber(f).length_km, on.FiberDegradationDb(f),
                            on.qot());
  }
  return SnrDbFromInverseOsnr(inv, on.qot());
}

void ExpectNoiseCacheFresh(const OpticalNetwork& on) {
  std::vector<net::EdgeId> all;
  for (net::EdgeId f = 0; f < on.NumFibers(); ++f) {
    EXPECT_EQ(on.PathSnrDb({f}), UncachedSnrDb(on, {f})) << "fiber " << f;
    all.push_back(f);
  }
  EXPECT_EQ(on.PathSnrDb(all), UncachedSnrDb(on, all));
  std::string err;
  EXPECT_TRUE(on.CheckInvariants(&err)) << err;
}

TEST(QotTest, PathSnrDbTracksEveryPlantChange) {
  std::vector<SiteInfo> sites = {{"A", 2, 0}, {"B", 2, 2}, {"C", 2, 0}};
  OpticalNetwork on(std::move(sites), 2000.0, 200.0);
  on.AddFiber(0, 1, 400.0, 4);
  on.set_qot(Qot());  // installs the model over an existing fiber
  ExpectNoiseCacheFresh(on);
  on.AddFiber(1, 2, 1230.0, 4);  // added under QoT, with a remainder span
  ExpectNoiseCacheFresh(on);
  on.DegradeFiber(1, 7.5);
  ExpectNoiseCacheFresh(on);
  EXPECT_TRUE(on.RepairFiberDegradation(1));
  ExpectNoiseCacheFresh(on);

  // A degradation on one side of a copy stays on that side.
  OpticalNetwork copy = on;
  copy.DegradeFiber(0, 3.0);
  ExpectNoiseCacheFresh(copy);
  ExpectNoiseCacheFresh(on);
  EXPECT_LT(copy.PathSnrDb({0}), on.PathSnrDb({0}));
  on.DegradeFiber(1, 2.0);
  ExpectNoiseCacheFresh(on);
  ExpectNoiseCacheFresh(copy);
  EXPECT_LT(on.PathSnrDb({1}), copy.PathSnrDb({1}));

  // A degradation recorded while the model is off still counts once it is
  // back on, and new model parameters regrade every fiber.
  QotOptions off = Qot();
  off.enabled = false;
  copy.set_qot(off);
  copy.DegradeFiber(1, 5.0);
  QotOptions lossy = Qot();
  lossy.fiber_loss_db_per_km = 0.3;
  copy.set_qot(lossy);
  ExpectNoiseCacheFresh(copy);

  // Live circuits are regraded from the cache when a fiber they cross
  // degrades; CheckInvariants recomputes their SNR without it.
  const auto id = on.ProvisionCircuit(0, 2);
  ASSERT_TRUE(id);
  on.DegradeFiber(0, 4.0);
  ExpectNoiseCacheFresh(on);
  on.DegradeFiber(1, 0.5);
  ExpectNoiseCacheFresh(on);
  EXPECT_EQ(on.circuits().size(), 1u);
}

TEST(QotTest, SetQotRejectedOnLivePlant) {
  OpticalNetwork on = MakeQotLine();
  ASSERT_TRUE(on.ProvisionCircuit(0, 1));
  QotOptions q = Qot();
  q.span_km = 60.0;
  EXPECT_THROW(on.set_qot(q), std::logic_error);
}

TEST(QotTest, DisabledQotKeepsLegacySemantics) {
  std::vector<SiteInfo> sites = {{"A", 2, 0}, {"B", 2, 0}};
  OpticalNetwork on(std::move(sites), 1000.0, 10.0);
  on.AddFiber(0, 1, 800.0, 4);
  auto id = on.ProvisionCircuit(0, 1);
  ASSERT_TRUE(id);
  const Circuit& c = on.circuit(*id);
  EXPECT_EQ(c.segments[0].snr_db, std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(c.capacity_gbps, 10.0);
  EXPECT_DOUBLE_EQ(on.EffectiveReachKm(), 1000.0);
  // Degradation on a legacy plant is recorded but tears nothing down.
  EXPECT_TRUE(on.DegradeFiber(0, 50.0).empty());
  EXPECT_EQ(on.circuits().size(), 1u);
  EXPECT_TRUE(on.AnyFiberDegraded());
  EXPECT_TRUE(on.CheckInvariants());
}

}  // namespace
}  // namespace owan::optical
