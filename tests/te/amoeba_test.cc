#include "te/amoeba.h"

#include <gtest/gtest.h>

#include "topo/topologies.h"

namespace owan::te {
namespace {

class AmoebaTest : public ::testing::Test {
 protected:
  AmoebaTest()
      : wan_(topo::MakeMotivatingExample()),
        graph_(wan_.default_topology.ToGraph(
            wan_.optical.wavelength_capacity())) {}

  core::Request Req(int id, int src, int dst, double size, double arrival,
                    double deadline) {
    core::Request r;
    r.id = id;
    r.src = src;
    r.dst = dst;
    r.size = size;
    r.arrival = arrival;
    r.deadline = deadline;
    return r;
  }

  topo::Wan wan_;
  net::Graph graph_;
};

TEST_F(AmoebaTest, AdmitsFeasibleTransfer) {
  AmoebaTe te(graph_, 300.0);
  // 10 Gbps direct link, one slot = 3000 Gb capacity; ask for 1000 Gb with
  // two slots of headroom.
  EXPECT_TRUE(te.Admit(Req(0, 0, 1, 1000.0, 0.0, 600.0), 0.0));
  EXPECT_EQ(te.admitted(), 1);
}

TEST_F(AmoebaTest, RejectsInfeasibleDeadline) {
  AmoebaTe te(graph_, 300.0);
  // Way more volume than the min-cut can carry before the deadline.
  EXPECT_FALSE(te.Admit(Req(0, 0, 1, 50000.0, 0.0, 600.0), 0.0));
  EXPECT_EQ(te.rejected(), 1);
}

TEST_F(AmoebaTest, NoDeadlineAlwaysAdmitted) {
  AmoebaTe te(graph_, 300.0);
  EXPECT_TRUE(te.Admit(Req(0, 0, 1, 1e9, 0.0, core::kNoDeadline), 0.0));
  EXPECT_EQ(te.admitted(), 0);  // unmanaged, not counted
}

TEST_F(AmoebaTest, ReservationsProtectEarlierAdmissions) {
  AmoebaTe te(graph_, 300.0);
  // Fill the 0->1 capacity for slots 0..1 (direct 3000 Gb/slot plus the
  // detour 3000 Gb/slot = 6000 Gb/slot max).
  EXPECT_TRUE(te.Admit(Req(0, 0, 1, 12000.0, 0.0, 600.0), 0.0));
  // Nothing is left before t=600 for another transfer.
  EXPECT_FALSE(te.Admit(Req(1, 0, 1, 1000.0, 0.0, 600.0), 0.0));
  // But a later deadline still works.
  EXPECT_TRUE(te.Admit(Req(2, 0, 1, 1000.0, 0.0, 1200.0), 0.0));
  EXPECT_TRUE(te.ledger().Audit().empty());
}

TEST_F(AmoebaTest, ComputeReturnsReservedRates) {
  AmoebaTe te(graph_, 300.0);
  ASSERT_TRUE(te.Admit(Req(7, 0, 1, 3000.0, 0.0, 300.0), 0.0));
  core::TeInput in;
  in.topology = &wan_.default_topology;
  in.optical = &wan_.optical;
  core::TransferDemand d;
  d.id = 7;
  d.src = 0;
  d.dst = 1;
  d.remaining = 3000.0;
  d.rate_cap = 10.0;
  d.deadline = 300.0;
  in.demands = {d};
  in.now = 0.0;
  in.slot_seconds = 300.0;
  auto out = te.Compute(in);
  ASSERT_EQ(out.allocations.size(), 1u);
  EXPECT_NEAR(out.allocations[0].TotalRate(), 10.0, 1e-6);
}

TEST_F(AmoebaTest, RejectedTransferServedBestEffort) {
  AmoebaTe te(graph_, 300.0);
  EXPECT_FALSE(te.Admit(Req(3, 0, 1, 1e6, 0.0, 300.0), 0.0));
  core::TeInput in;
  in.topology = &wan_.default_topology;
  in.optical = &wan_.optical;
  core::TransferDemand d;
  d.id = 3;
  d.src = 0;
  d.dst = 1;
  d.remaining = 1e6;
  d.rate_cap = 3333.0;
  d.deadline = 300.0;
  in.demands = {d};
  in.slot_seconds = 300.0;
  auto out = te.Compute(in);
  // Gets leftover capacity even though rejected.
  EXPECT_GT(out.allocations[0].TotalRate(), 0.0);
}

TEST_F(AmoebaTest, EarliestSlotsFilledFirst) {
  AmoebaTe te(graph_, 300.0);
  // Admit volume that fits in one slot given 6000 Gb/slot max; with a late
  // deadline it must still be scheduled into slot 0 (earliest-first).
  ASSERT_TRUE(te.Admit(Req(0, 0, 1, 3000.0, 0.0, 3000.0), 0.0));
  core::TeInput in;
  in.topology = &wan_.default_topology;
  in.optical = &wan_.optical;
  core::TransferDemand d;
  d.id = 0;
  d.src = 0;
  d.dst = 1;
  d.remaining = 3000.0;
  d.rate_cap = 10.0;
  d.deadline = 3000.0;
  in.demands = {d};
  in.now = 0.0;
  in.slot_seconds = 300.0;
  auto out = te.Compute(in);
  EXPECT_GT(out.allocations[0].TotalRate(), 0.0);
}

TEST_F(AmoebaTest, MidSlotAdmissionBooksTheSlotComputeServes) {
  AmoebaTe te(graph_, 300.0);
  // Admitted mid-slot (a fault truncated the interval): Compute at t=450
  // serves slot (450 + 150) / 300 = 2, so the volume must be booked from
  // the next boundary on, not into the slot already under way.
  ASSERT_TRUE(te.Admit(Req(0, 0, 1, 3000.0, 450.0, 1200.0), 450.0));
  core::TeInput in;
  in.topology = &wan_.default_topology;
  in.optical = &wan_.optical;
  core::TransferDemand d;
  d.id = 0;
  d.src = 0;
  d.dst = 1;
  d.remaining = 3000.0;
  d.rate_cap = 10.0;
  d.deadline = 1200.0;
  in.demands = {d};
  in.now = 450.0;
  in.slot_seconds = 300.0;
  auto out = te.Compute(in);
  ASSERT_EQ(out.allocations.size(), 1u);
  EXPECT_NEAR(out.allocations[0].TotalRate(), 10.0, 1e-6);
}

TEST_F(AmoebaTest, DeadlineBeforeNextSlotRejected) {
  AmoebaTe te(graph_, 300.0);
  // Deadline inside the current slot: no full slot available.
  EXPECT_FALSE(te.Admit(Req(0, 0, 1, 100.0, 0.0, 200.0), 0.0));
}

TEST_F(AmoebaTest, DisconnectedPairRejected) {
  core::Topology disconnected(4);
  disconnected.AddUnits(0, 1, 1);
  net::Graph g = disconnected.ToGraph(10.0);
  AmoebaTe te(g, 300.0);
  EXPECT_FALSE(te.Admit(Req(0, 2, 3, 10.0, 0.0, 3000.0), 0.0));
}

}  // namespace
}  // namespace owan::te
