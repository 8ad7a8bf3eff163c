#include "service/admission.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "net/shortest_path.h"
#include "topo/topologies.h"

namespace owan::service {
namespace {

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

// Min edge capacity (Gbps) along the shortest path src->dst in the WAN's
// default topology — the per-slot bottleneck the single-path ledger sees.
double PathCap(const topo::Wan& wan, int src, int dst) {
  const net::Graph g =
      wan.default_topology.ToGraph(wan.optical.wavelength_capacity());
  const auto p = net::ShortestPath(g, src, dst);
  EXPECT_TRUE(p.has_value());
  double cap = 1e18;
  for (net::EdgeId e : p->edges) cap = std::min(cap, g.edge(e).capacity);
  return cap;
}

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest()
      : wan_(topo::MakeInternet2()),
        graph_(wan_.default_topology.ToGraph(
            wan_.optical.wavelength_capacity())) {}

  AdmissionController Make(int k_paths = 1) {
    AdmissionOptions opt;
    opt.slot_seconds = 300.0;
    opt.k_paths = k_paths;
    return AdmissionController(graph_, opt);
  }

  topo::Wan wan_;
  net::Graph graph_;
};

TEST_F(AdmissionTest, BestEffortAlwaysAdmitted) {
  AdmissionController adm = Make();
  EXPECT_EQ(adm.Offer(Req(0, 0, 1, 1e9, 0.0), 0.0), Admission::kAdmitted);
  EXPECT_EQ(adm.live_reservations(), 0);  // no bookings for best-effort
}

TEST_F(AdmissionTest, RejectsEmptyDeadlineWindow) {
  AdmissionController adm = Make();
  // Deadline before the end of the first full slot: no whole slot fits.
  EXPECT_EQ(adm.Offer(Req(0, 0, 1, 10.0, 0.0, 299.0), 0.0),
            Admission::kRejected);
  // Deadline already past at decision time.
  EXPECT_EQ(adm.Offer(Req(1, 0, 1, 10.0, 1000.0, 600.0), 1000.0),
            Admission::kRejected);
  EXPECT_EQ(adm.rejected(), 2);
}

TEST_F(AdmissionTest, AdmitsFeasibleAndBooksVolume) {
  AdmissionController adm = Make();
  const double cap = PathCap(wan_, 0, 1);
  const core::Request r = Req(0, 0, 1, cap * 300.0, 0.0, 600.0);
  EXPECT_EQ(adm.Offer(r, 0.0), Admission::kAdmitted);
  EXPECT_EQ(adm.admitted(), 1);
  EXPECT_EQ(adm.live_reservations(), 1);
  EXPECT_TRUE(adm.Audit().empty());
}

TEST_F(AdmissionTest, PendingWhenFullThenAdmittedAfterRelease) {
  AdmissionController adm = Make();
  const double cap = PathCap(wan_, 0, 1);
  // A consumes the whole two-slot window on the single cached path.
  EXPECT_EQ(adm.Offer(Req(0, 0, 1, cap * 600.0, 0.0, 900.0), 0.0),
            Admission::kAdmitted);
  // B needs slot 1, which is fully booked: pending, not rejected — the
  // window is still open.
  const core::Request b = Req(1, 0, 1, cap * 300.0, 1.0, 600.0);
  EXPECT_EQ(adm.Offer(b, 1.0), Admission::kPending);
  EXPECT_FALSE(adm.capacity_released());

  // A finishes early during slot 0: its slot-1 booking comes back.
  const double released = adm.Release(0, 0.0);
  EXPECT_GT(released, 0.0);
  EXPECT_TRUE(adm.capacity_released());
  EXPECT_TRUE(adm.Audit().empty());

  EXPECT_EQ(adm.Offer(b, 300.0), Admission::kAdmitted);
  EXPECT_TRUE(adm.Audit().empty());
}

TEST_F(AdmissionTest, ReleaseKeepsElapsedSlots) {
  AdmissionController adm = Make();
  const double cap = PathCap(wan_, 0, 1);
  EXPECT_EQ(adm.Offer(Req(0, 0, 1, cap * 600.0, 0.0, 900.0), 0.0),
            Admission::kAdmitted);
  // Released at a time when slot 1 is current: only strictly-future slots
  // return, and both booked slots have elapsed or are in progress.
  EXPECT_EQ(adm.Release(0, 450.0), 0.0);
  EXPECT_FALSE(adm.capacity_released());
}

TEST_F(AdmissionTest, ReleaseUnknownIdIsNoop) {
  AdmissionController adm = Make();
  EXPECT_EQ(adm.Release(99, 0.0), 0.0);
  EXPECT_FALSE(adm.capacity_released());
}

TEST_F(AdmissionTest, GarbageCollectDropsElapsedState) {
  AdmissionController adm = Make();
  const double cap = PathCap(wan_, 0, 1);
  EXPECT_EQ(adm.Offer(Req(0, 0, 1, cap * 300.0, 0.0, 600.0), 0.0),
            Admission::kAdmitted);
  adm.GarbageCollect(900.0);  // slots 0-1 are history
  EXPECT_EQ(adm.live_reservations(), 0);
  EXPECT_TRUE(adm.Audit().empty());
}

TEST_F(AdmissionTest, MultiPathPackingUsesAlternateRoutes) {
  AdmissionController one = Make(1);
  AdmissionController three = Make(3);
  const double cap = PathCap(wan_, 0, 1);
  // One-slot window holding slightly more volume than the primary path's
  // slot can carry: only the k=3 packer can spill onto an alternate route.
  const core::Request r = Req(0, 0, 1, cap * 300.0 + 1.0, 0.0, 599.0);
  EXPECT_EQ(one.Offer(r, 0.0), Admission::kPending);
  EXPECT_EQ(three.Offer(r, 0.0), Admission::kAdmitted);
  EXPECT_TRUE(three.Audit().empty());
}

TEST_F(AdmissionTest, CheckpointRoundTripPreservesDecisions) {
  AdmissionController adm = Make();
  const double cap = PathCap(wan_, 0, 1);
  EXPECT_EQ(adm.Offer(Req(0, 0, 1, cap * 600.0, 0.0, 900.0), 0.0),
            Admission::kAdmitted);
  EXPECT_EQ(adm.Offer(Req(1, 0, 1, cap * 300.0, 1.0, 600.0), 1.0),
            Admission::kPending);

  std::ostringstream os;
  os.precision(17);
  adm.Checkpoint(os);
  AdmissionController restored = Make();
  std::istringstream is(os.str());
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    ASSERT_TRUE(restored.RestoreLine(tag, ls)) << "unknown tag " << tag;
    ASSERT_FALSE(ls.fail()) << "corrupt line " << line;
  }
  restored.FinishRestore();

  EXPECT_EQ(restored.admitted(), adm.admitted());
  EXPECT_EQ(restored.rejected(), adm.rejected());
  EXPECT_EQ(restored.live_reservations(), adm.live_reservations());
  EXPECT_TRUE(restored.Audit().empty());
  // The restored ledger makes the same choices as the original.
  const core::Request probe = Req(2, 0, 1, cap * 300.0, 2.0, 900.0);
  EXPECT_EQ(restored.Offer(probe, 2.0), adm.Offer(probe, 2.0));
  EXPECT_EQ(restored.Release(0, 0.0), adm.Release(0, 0.0));
  const core::Request again = Req(3, 0, 1, cap * 300.0, 3.0, 900.0);
  EXPECT_EQ(restored.Offer(again, 300.0), adm.Offer(again, 300.0));
}

TEST_F(AdmissionTest, AuditCatchesLedgerDrift) {
  AdmissionController adm = Make();
  const double cap = PathCap(wan_, 0, 1);
  EXPECT_EQ(adm.Offer(Req(0, 0, 1, cap * 300.0, 0.0, 600.0), 0.0),
            Admission::kAdmitted);
  // Corrupt the ledger by replaying the same booking lines on top of live
  // state: residual no longer matches capacity minus bookings.
  std::ostringstream os;
  os.precision(17);
  adm.Checkpoint(os);
  std::istringstream is(os.str());
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "adm") continue;  // keep counters; duplicate the bookings
    ASSERT_TRUE(adm.RestoreLine(tag, ls));
  }
  EXPECT_FALSE(adm.Audit().empty());
}

TEST_F(AdmissionTest, SlotLengthMustBeFiniteAndPositive) {
  // A slot of zero or less never advances a client's clock, and NaN or
  // infinity poison every slot index: the constructor refuses them all.
  for (double slot : {0.0, -300.0, std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity()}) {
    AdmissionOptions opt;
    opt.slot_seconds = slot;
    EXPECT_THROW(AdmissionController(graph_, opt), std::invalid_argument)
        << slot;
  }
}

}  // namespace
}  // namespace owan::service
