#include "service/service.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/shortest_path.h"
#include "sim/simulator.h"
#include "te/amoeba.h"
#include "te/greedy.h"
#include "testkit/oracles.h"
#include "topo/topologies.h"
#include "workload/stream.h"

namespace owan::service {
namespace {

// Every demand gets its single shortest path at a fixed rate with NO
// residual clamp: a transfer can outrun the admission ledger's per-slot
// booking and finish early, which is the only deterministic way to exercise
// the release-then-readmit path (capacity-clamped schemes can never beat
// their own reservations).
class TestRateScheme : public core::TeScheme {
 public:
  explicit TestRateScheme(double rate) : rate_(rate) {}
  std::string name() const override { return "TestRate"; }
  core::TeOutput Compute(const core::TeInput& input) override {
    core::TeOutput out;
    out.allocations.resize(input.demands.size());
    const net::Graph g =
        input.topology->ToGraph(input.optical->wavelength_capacity());
    for (size_t i = 0; i < input.demands.size(); ++i) {
      const auto& d = input.demands[i];
      out.allocations[i].id = d.id;
      auto p = net::ShortestPath(g, d.src, d.dst);
      if (!p || p->edges.empty()) continue;
      out.allocations[i].paths.push_back(core::PathAllocation{*p, rate_});
    }
    return out;
  }

 private:
  double rate_;
};

core::Request Req(int id, int src, int dst, double size, double arrival,
                  double deadline = core::kNoDeadline) {
  core::Request r;
  r.id = id;
  r.src = src;
  r.dst = dst;
  r.size = size;
  r.arrival = arrival;
  r.deadline = deadline;
  return r;
}

double PathCap(const topo::Wan& wan, int src, int dst) {
  const net::Graph g =
      wan.default_topology.ToGraph(wan.optical.wavelength_capacity());
  const auto p = net::ShortestPath(g, src, dst);
  EXPECT_TRUE(p.has_value());
  double cap = 1e18;
  for (net::EdgeId e : p->edges) cap = std::min(cap, g.edge(e).capacity);
  return cap;
}

ServiceOptions OnlineOpts() {
  ServiceOptions opt;
  opt.mode = ServiceMode::kOnline;
  opt.admission_k_paths = 1;  // single-path ledger: booking math is exact
  return opt;
}

// ---------------------------------------------------------------------------
// Nominal parity anchor: passthrough mode reproduces sim::RunSimulation
// bit-for-bit — decisions, completions, throughput series, stall times.
// ---------------------------------------------------------------------------

workload::StreamParams ParityParams(uint64_t seed) {
  workload::StreamParams p;
  p.arrivals_per_s = 0.01;  // gaps of ~100 s: mid-slot arrivals + idle jumps
  p.seed = seed;
  return p;
}

void ExpectPassthroughParity(const topo::Wan& wan,
                             const std::vector<core::Request>& reqs,
                             std::unique_ptr<core::TeScheme> sim_scheme,
                             std::unique_ptr<core::TeScheme> svc_scheme) {
  const sim::SimResult batch = sim::RunSimulation(wan, reqs, *sim_scheme);

  ServiceOptions opt;
  opt.mode = ServiceMode::kPassthrough;
  ControllerService svc(&wan, std::move(svc_scheme), opt);
  for (const core::Request& r : reqs) svc.Submit(r);
  svc.Run();

  std::string why;
  EXPECT_TRUE(testkit::SameSimResult(batch, svc.ToSimResult(), &why)) << why;
  EXPECT_EQ(static_cast<uint64_t>(reqs.size()), svc.stats().requests);
  EXPECT_EQ(svc.stats().recomputes, svc.stats().slots);  // every slot fresh
  EXPECT_EQ(svc.stats().coasts, 0u);
}

TEST(ServicePassthrough, BatchAtTimeZeroMatchesSimulatorGreedy) {
  const topo::Wan wan = topo::MakeInternet2();
  std::vector<core::Request> reqs =
      workload::TakeStream(wan, ParityParams(7), 40);
  for (core::Request& r : reqs) r.arrival = 0.0;  // the t=0 batch anchor
  ExpectPassthroughParity(wan, reqs, std::make_unique<te::GreedyOwanTe>(),
                          std::make_unique<te::GreedyOwanTe>());
}

TEST(ServicePassthrough, StaggeredArrivalsMatchSimulatorGreedy) {
  const topo::Wan wan = topo::MakeInternet2();
  const std::vector<core::Request> reqs =
      workload::TakeStream(wan, ParityParams(11), 80);
  ExpectPassthroughParity(wan, reqs, std::make_unique<te::GreedyOwanTe>(),
                          std::make_unique<te::GreedyOwanTe>());
}

TEST(ServicePassthrough, StaggeredArrivalsMatchSimulatorAmoeba) {
  const topo::Wan wan = topo::MakeInternet2();
  const std::vector<core::Request> reqs =
      workload::TakeStream(wan, ParityParams(13), 60);
  const net::Graph g =
      wan.default_topology.ToGraph(wan.optical.wavelength_capacity());
  // Separate stateful instances per side: Admit mutates the reservation
  // ledger, so parity also checks that decisions land at identical times.
  ExpectPassthroughParity(wan, reqs,
                          std::make_unique<te::AmoebaTe>(g, 300.0),
                          std::make_unique<te::AmoebaTe>(g, 300.0));
}

// ---------------------------------------------------------------------------
// Online admission behavior
// ---------------------------------------------------------------------------

TEST(ServiceOnline, BestEffortRunsToCompletion) {
  const topo::Wan wan = topo::MakeInternet2();
  const double cap = PathCap(wan, 0, 1);
  ControllerService svc(&wan, std::make_unique<TestRateScheme>(cap),
                        OnlineOpts());
  svc.Submit(Req(0, 0, 1, cap * 450.0, 0.0));  // 1.5 slots at full rate
  svc.Run();
  EXPECT_EQ(svc.stats().admitted, 1u);
  EXPECT_EQ(svc.stats().completed, 1u);
  EXPECT_NEAR(svc.stats().makespan, 450.0, 1e-6);
  EXPECT_EQ(svc.active_transfers(), 0);
  const sim::SimResult r = svc.ToSimResult();
  ASSERT_EQ(r.transfers.size(), 1u);
  EXPECT_NEAR(r.transfers[0].completed_at, 450.0, 1e-6);
}

TEST(ServiceOnline, RejectedRequestNeverActivates) {
  const topo::Wan wan = topo::MakeInternet2();
  const double cap = PathCap(wan, 0, 1);
  ControllerService svc(&wan, std::make_unique<TestRateScheme>(cap),
                        OnlineOpts());
  // No whole slot fits before the deadline: firm reject at arrival time.
  svc.Submit(Req(0, 0, 1, 10.0, 0.0, 299.0));
  svc.Run();
  EXPECT_EQ(svc.stats().rejected, 1u);
  EXPECT_EQ(svc.stats().admitted, 0u);
  EXPECT_EQ(svc.stats().slots, 0u);  // nothing ever ran
  const sim::SimResult r = svc.ToSimResult();
  ASSERT_EQ(r.transfers.size(), 1u);
  EXPECT_FALSE(r.transfers[0].completed);
  EXPECT_EQ(r.transfers[0].completed_at, -1.0);  // never served
  EXPECT_EQ(r.transfers[0].delivered, 0.0);
}

TEST(ServiceOnline, PendingReadmittedWhenEarlyFinishReleasesCapacity) {
  const topo::Wan wan = topo::MakeInternet2();
  const double cap = PathCap(wan, 0, 1);
  // A books slots {0,1} on the single admission path; the scheme then runs
  // it at 2x the bottleneck so it drains entirely inside slot 0.
  ControllerService svc(&wan, std::make_unique<TestRateScheme>(2.0 * cap),
                        OnlineOpts());
  svc.Submit(Req(0, 0, 1, cap * 600.0, 0.0, 900.0));
  // B's only usable slot is 1 — fully booked at its t=0 decision (it must
  // arrive in the same ingestion round as A: anything later is decided
  // after A's early finish already released the slot), so it waits.
  svc.Submit(Req(1, 0, 1, cap * 300.0, 0.0, 600.0));
  svc.Run();

  EXPECT_EQ(svc.stats().pending_enqueued, 1u);
  EXPECT_EQ(svc.stats().pending_admitted, 1u);
  EXPECT_EQ(svc.stats().pending_rejected, 0u);
  EXPECT_EQ(svc.stats().retry_rounds, 1u);
  EXPECT_EQ(svc.stats().admitted, 2u);
  EXPECT_EQ(svc.stats().completed, 2u);
  EXPECT_EQ(svc.pending_requests(), 0);

  const sim::SimResult r = svc.ToSimResult();
  ASSERT_EQ(r.transfers.size(), 2u);
  EXPECT_NEAR(r.transfers[0].completed_at, 300.0, 1e-6);
  // B was admitted at the t=300 retry and drains in half a slot at 2x cap.
  EXPECT_NEAR(r.transfers[1].completed_at, 450.0, 1e-6);
  EXPECT_TRUE(r.transfers[1].MetDeadline());
}

TEST(ServiceOnline, PendingExpiresWhenWindowCloses) {
  const topo::Wan wan = topo::MakeInternet2();
  const double cap = PathCap(wan, 0, 1);
  // At exactly the bottleneck rate A never finishes early, so nothing is
  // ever released and B's one-slot window expires in the queue.
  ControllerService svc(&wan, std::make_unique<TestRateScheme>(cap),
                        OnlineOpts());
  svc.Submit(Req(0, 0, 1, cap * 600.0, 0.0, 900.0));
  svc.Submit(Req(1, 0, 1, cap * 300.0, 1.0, 600.0));
  svc.Run();

  EXPECT_EQ(svc.stats().pending_enqueued, 1u);
  EXPECT_EQ(svc.stats().pending_admitted, 0u);
  EXPECT_EQ(svc.stats().pending_rejected, 1u);
  EXPECT_EQ(svc.stats().retry_rounds, 0u);
  EXPECT_EQ(svc.stats().admitted, 1u);
  EXPECT_EQ(svc.stats().rejected, 1u);
  EXPECT_EQ(svc.stats().completed, 1u);
  EXPECT_EQ(svc.pending_requests(), 0);
}

TEST(ServiceOnline, DuplicateIdThrowsAtIngestion) {
  const topo::Wan wan = topo::MakeInternet2();
  ControllerService svc(&wan, std::make_unique<TestRateScheme>(10.0),
                        OnlineOpts());
  svc.Submit(Req(7, 0, 1, 100.0, 0.0));
  svc.Submit(Req(7, 1, 2, 100.0, 0.0));
  EXPECT_THROW(svc.Run(), std::invalid_argument);
}

TEST(ServiceOnline, SubmitValidatesRequests) {
  const topo::Wan wan = topo::MakeInternet2();
  ControllerService svc(&wan, std::make_unique<TestRateScheme>(10.0),
                        OnlineOpts());
  EXPECT_THROW(svc.Submit(Req(0, 3, 3, 100.0, 0.0)), std::invalid_argument);
  EXPECT_THROW(svc.Submit(Req(0, 0, 1, 0.0, 0.0)), std::invalid_argument);
  EXPECT_THROW(svc.Submit(Req(-1, 0, 1, 100.0, 0.0)), std::invalid_argument);
  svc.Submit(Req(0, 0, 1, 100.0, 500.0));
  EXPECT_THROW(svc.Submit(Req(1, 0, 1, 100.0, 400.0)),  // clock went back
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Bounded-staleness recomputes
// ---------------------------------------------------------------------------

TEST(ServiceOnline, CoastsUntilMaxStaleSlots) {
  const topo::Wan wan = topo::MakeInternet2();
  const double cap = PathCap(wan, 0, 1);
  ServiceOptions opt = OnlineOpts();
  opt.recompute_demand_frac = 1e18;  // demand trigger effectively off
  opt.max_stale_slots = 4;
  ControllerService svc(&wan, std::make_unique<TestRateScheme>(cap), opt);
  svc.Submit(Req(0, 0, 1, cap * 300.0 * 8.0, 0.0));  // 8 full slots
  svc.Run();
  EXPECT_EQ(svc.stats().slots, 8u);
  // Recompute fires on slots 0 and 4; the other six coast on frozen rates.
  EXPECT_EQ(svc.stats().recomputes, 2u);
  EXPECT_EQ(svc.stats().coasts, 6u);
  EXPECT_EQ(svc.stats().completed, 1u);
  EXPECT_NEAR(svc.stats().makespan, 2400.0, 1e-6);
}

TEST(ServiceOnline, AdmittedDemandDeltaTriggersRecompute) {
  const topo::Wan wan = topo::MakeInternet2();
  const double cap = PathCap(wan, 0, 1);
  ServiceOptions opt = OnlineOpts();
  opt.recompute_demand_frac = 0.25;
  opt.max_stale_slots = 1000;  // only the demand trigger can fire
  ControllerService svc(&wan, std::make_unique<TestRateScheme>(cap), opt);
  svc.Submit(Req(0, 0, 1, cap * 300.0 * 6.0, 0.0));
  // Arrives at the slot-2 boundary carrying ~50% of the standing demand:
  // comfortably above the 25% staleness budget.
  svc.Submit(Req(1, 0, 1, cap * 300.0 * 2.0, 600.0));
  svc.Run();
  EXPECT_EQ(svc.stats().slots, 6u);
  EXPECT_EQ(svc.stats().recomputes, 2u);  // slot 0 (cold) + slot 2 (delta)
  EXPECT_EQ(svc.stats().coasts, 4u);
  EXPECT_EQ(svc.stats().completed, 2u);
}

TEST(ServiceOnline, ForceRecomputeOverridesStaleness) {
  const topo::Wan wan = topo::MakeInternet2();
  const double cap = PathCap(wan, 0, 1);
  ServiceOptions opt = OnlineOpts();
  opt.recompute_demand_frac = 1e18;
  opt.max_stale_slots = 1000;
  ControllerService svc(&wan, std::make_unique<TestRateScheme>(cap), opt);
  svc.Submit(Req(0, 0, 1, cap * 300.0 * 2.0, 0.0));
  svc.RunUntilIngested(1);  // slot 0 recomputes cold
  const uint64_t before = svc.stats().recomputes;
  svc.ForceRecompute();  // the fault-event hook
  svc.Run();
  EXPECT_EQ(svc.stats().recomputes, before + 1);
}

// ---------------------------------------------------------------------------
// Determinism: same-seed fingerprints and checkpoint crash/resume
// ---------------------------------------------------------------------------

workload::StreamParams StreamParamsFor(uint64_t seed) {
  workload::StreamParams p;
  // ~15 arrivals per slot: a RunUntilIngested crash point lands mid-run
  // instead of swallowing the whole trace in the first progressed slot.
  p.arrivals_per_s = 0.05;
  p.seed = seed;
  return p;
}

TEST(ServiceDeterminism, SameSeedSameFingerprint) {
  const topo::Wan wan = topo::MakeInternet2();
  auto run = [&wan](uint64_t seed) {
    ControllerService svc(&wan, std::make_unique<te::GreedyOwanTe>(),
                          OnlineOpts());
    svc.AttachStream(StreamParamsFor(seed), 150);
    svc.Run();
    return svc;
  };
  const ControllerService a = run(21);
  const ControllerService b = run(21);
  const ControllerService c = run(22);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.stats().requests, 150u);
  EXPECT_EQ(a.stats().admitted, b.stats().admitted);
  EXPECT_EQ(a.stats().completed, b.stats().completed);
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
}

TEST(ServiceDeterminism, StreamDrainsAndDecidesEveryRequest) {
  const topo::Wan wan = topo::MakeInternet2();
  ControllerService svc(&wan, std::make_unique<te::GreedyOwanTe>(),
                        OnlineOpts());
  svc.AttachStream(StreamParamsFor(33), 200);
  svc.Run();
  EXPECT_EQ(svc.stats().requests, 200u);
  EXPECT_EQ(svc.stats().admitted + svc.stats().rejected, 200u);
  EXPECT_EQ(svc.pending_requests(), 0);
  EXPECT_EQ(svc.active_transfers(), 0);
  EXPECT_GT(svc.stats().completed, 0u);
  EXPECT_GT(svc.stats().delivered_gigabits, 0.0);
  uint64_t latency_total = 0;
  for (uint64_t v : svc.stats().decision_latency_slots) latency_total += v;
  EXPECT_EQ(latency_total, svc.stats().admitted + svc.stats().rejected);
}

TEST(ServiceDeterminism, CheckpointRestoreResumesBitIdentically) {
  const topo::Wan wan = topo::MakeInternet2();
  const workload::StreamParams params = StreamParamsFor(55);
  const uint64_t kRequests = 120;

  ControllerService full(&wan, std::make_unique<te::GreedyOwanTe>(),
                         OnlineOpts());
  full.AttachStream(params, kRequests);
  full.Run();

  ControllerService crashed(&wan, std::make_unique<te::GreedyOwanTe>(),
                            OnlineOpts());
  crashed.AttachStream(params, kRequests);
  crashed.RunUntilIngested(60);
  ASSERT_LT(crashed.stats().requests, kRequests);  // mid-run, work left
  const std::string snapshot = crashed.Checkpoint();

  ControllerService resumed = ControllerService::Restore(
      &wan, std::make_unique<te::GreedyOwanTe>(), snapshot, OnlineOpts());
  EXPECT_EQ(resumed.Fingerprint(), crashed.Fingerprint());
  resumed.AttachStream(params, kRequests);  // fast-forwards to the cursor
  resumed.Run();

  EXPECT_EQ(resumed.Fingerprint(), full.Fingerprint());
  EXPECT_EQ(resumed.stats().requests, full.stats().requests);
  EXPECT_EQ(resumed.stats().completed, full.stats().completed);
  std::string why;
  EXPECT_TRUE(
      testkit::SameSimResult(full.ToSimResult(), resumed.ToSimResult(), &why))
      << why;
}

TEST(ServiceDeterminism, RestoreRejectsCorruptSnapshots) {
  const topo::Wan wan = topo::MakeInternet2();
  EXPECT_THROW(ControllerService::Restore(
                   &wan, std::make_unique<te::GreedyOwanTe>(), "not-a-header",
                   OnlineOpts()),
               std::invalid_argument);
  EXPECT_THROW(
      ControllerService::Restore(&wan, std::make_unique<te::GreedyOwanTe>(),
                                 "owan-checkpoint v6\nbogus-tag 1 2 3\n",
                                 OnlineOpts()),
      std::invalid_argument);
}

}  // namespace
}  // namespace owan::service
