// The fiber-route table a plant shares with its copies (see
// OpticalNetwork::FiberTree). Sharing must be invisible: a copy of a warmed
// plant realizes a topology exactly as a freshly built plant does, copies of
// one blank plant realizing at the same time on several threads agree with
// the serial result, and a copy of a warmed plant publishes no fills.
#include <gtest/gtest.h>

#include <iomanip>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/provisioned_state.h"
#include "obs/metrics.h"
#include "optical/optical_network.h"
#include "topo/topologies.h"

namespace owan::optical {
namespace {

// Every circuit, field by field, at full precision.
std::string Describe(const OpticalNetwork& on) {
  std::ostringstream os;
  os << std::setprecision(17);
  for (const auto& [id, c] : on.circuits()) {
    os << "#" << id << " " << c.src << "->" << c.dst << " regens";
    for (net::NodeId r : c.regen_sites) os << " " << r;
    for (const Segment& s : c.segments) {
      os << " | lambda " << s.wavelength << " km " << s.length_km << " snr "
         << s.snr_db << " fibers";
      for (net::EdgeId f : s.fibers) os << " " << f;
    }
    os << " | " << c.capacity_gbps << " G\n";
  }
  return os.str();
}

// Realizes `t` on a copy of `plant` (which shares the plant's table).
std::string Realize(const OpticalNetwork& plant, const core::Topology& t) {
  core::ProvisionedState state(plant);
  const int failed = state.SyncTo(t);
  return "failed " + std::to_string(failed) + "\n" + Describe(state.optical());
}

topo::Wan Isp100() { return topo::MakeByName("isp100"); }

// The graded plant of the boolean-vs-QoT optical ablation.
topo::Wan QotIsp40() {
  topo::WanParams graded;
  graded.wavelength_gbps = 200.0;
  graded.reach_km = 5000.0;
  graded.qot.enabled = true;
  return topo::MakeIspBackbone(7, 40, graded);
}

// A fiber cut and a span degradation, both on fibers that realizing the
// default topology uses: the first fiber of the first circuit and the last
// fiber of the last one.
struct PlantEvents {
  net::EdgeId cut = net::kInvalidEdge;
  net::EdgeId degraded = net::kInvalidEdge;

  void ApplyTo(OpticalNetwork& on) const {
    on.FailFiber(cut);
    on.DegradeFiber(degraded, 4.0);
  }
};

PlantEvents PickEvents(const topo::Wan& wan) {
  core::ProvisionedState probe(wan.optical);
  probe.SyncTo(wan.default_topology);
  const auto& circuits = probe.optical().circuits();
  PlantEvents events;
  if (circuits.size() < 2) return events;
  events.cut = circuits.begin()->second.segments.front().fibers.front();
  events.degraded = circuits.rbegin()->second.segments.back().fibers.back();
  return events;
}

void ExpectCopyOfWarmedPlantMatchesFreshPlant(topo::Wan (*build)()) {
  const topo::Wan wan = build();
  const core::Topology& t = wan.default_topology;
  const std::string intact = Realize(wan.optical, t);  // warms wan's table
  const PlantEvents events = PickEvents(wan);
  ASSERT_NE(events.cut, net::kInvalidEdge);
  ASSERT_NE(events.cut, events.degraded);

  // The copy shares the warm table until the events give it a fresh one;
  // realizing once more warms that one too.
  OpticalNetwork warmed = wan.optical;
  events.ApplyTo(warmed);
  const std::string first = Realize(warmed, t);
  const std::string from_copy = Realize(warmed, t);

  // Nothing is looked up on the fresh plant before the events.
  topo::Wan fresh = build();
  events.ApplyTo(fresh.optical);
  const std::string from_fresh = Realize(fresh.optical, t);

  EXPECT_EQ(from_copy, from_fresh);
  EXPECT_EQ(first, from_fresh);
  EXPECT_NE(from_fresh, intact);  // the cut did change the realization
  // The events stayed on the copy: the source still realizes as before.
  EXPECT_EQ(Realize(wan.optical, t), intact);
}

TEST(FiberRouteTableTest, CopyOfWarmedIsp100MatchesFreshPlant) {
  ExpectCopyOfWarmedPlantMatchesFreshPlant(&Isp100);
}

TEST(FiberRouteTableTest, CopyOfWarmedQotIsp40MatchesFreshPlant) {
  ExpectCopyOfWarmedPlantMatchesFreshPlant(&QotIsp40);
}

TEST(FiberRouteTableTest, CopyOfWarmedPlantPublishesNoFills) {
  obs::Counter& fills = obs::MetricsRegistry::Global().GetCounter(
      "optical.fiber_table_fills");
  const topo::Wan wan = topo::MakeByName("isp40");
  const core::Topology& t = wan.default_topology;

  const int64_t cold = fills.Value();
  const std::string first = Realize(wan.optical, t);
  const int64_t warm = fills.Value();
  EXPECT_GT(warm, cold);

  EXPECT_EQ(Realize(wan.optical, t), first);
  EXPECT_EQ(fills.Value(), warm);

  // A mask change gives the changed network a fresh table to fill.
  OpticalNetwork cut = wan.optical;
  cut.FailFiber(0);
  Realize(cut, t);
  EXPECT_GT(fills.Value(), warm);
}

// Four threads copy one unwarmed blank plant and realize the same topology
// at the same time, so they race to fill one table. Each result must equal
// the serial one from a plant of its own.
void ExpectConcurrentCopiesMatchSerial(topo::Wan (*build)()) {
  constexpr int kThreads = 4;
  const std::string serial = [&] {
    const topo::Wan own = build();
    return Realize(own.optical, own.default_topology);
  }();
  const topo::Wan wan = build();
  std::vector<std::string> results(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      results[static_cast<size_t>(i)] =
          Realize(wan.optical, wan.default_topology);
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::string& r : results) EXPECT_EQ(r, serial);
}

TEST(FiberTableConcurrencyTest, CopiesOfOneBlankPlantRealizeLikeSerial) {
  ExpectConcurrentCopiesMatchSerial([] { return topo::MakeByName("isp40"); });
  ExpectConcurrentCopiesMatchSerial(&QotIsp40);
}

}  // namespace
}  // namespace owan::optical
