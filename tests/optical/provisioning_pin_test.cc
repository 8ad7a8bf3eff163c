// What provisioning produces, pinned. The regenerator graph's candidate
// sequences and whole blank realizations (core::ProvisionedState::SyncTo of
// a fixed topology) are digested bit for bit on several plants; the values
// were taken from the implementation that built every candidate list
// eagerly, so a faster search or provisioner must keep them unchanged. The
// lazy search must also agree with CandidateSequences prefix by prefix.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/provisioned_state.h"
#include "optical/optical_network.h"
#include "optical/regen_graph.h"
#include "topo/topologies.h"

namespace owan::optical {
namespace {

// FNV-1a over the little-endian bytes of each value.
class Digest {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      acc_ = (acc_ ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ULL;
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double d) { U64(std::bit_cast<uint64_t>(d)); }
  uint64_t value() const { return acc_; }

 private:
  uint64_t acc_ = 14695981039346656037ULL;
};

#define EXPECT_PINNED(actual, pinned)                                    \
  do {                                                                   \
    const uint64_t owan_digest_ = (actual);                              \
    EXPECT_EQ(owan_digest_, pinned##ULL)                                 \
        << std::hex << "digest 0x" << owan_digest_ << std::dec;          \
  } while (0)

// The graded plant of the boolean-vs-QoT optical ablation.
topo::Wan QotIsp40() {
  topo::WanParams graded;
  graded.wavelength_gbps = 200.0;
  graded.reach_km = 5000.0;
  graded.qot.enabled = true;
  return topo::MakeIspBackbone(7, 40, graded);
}

// The first fiber of the first circuit and the last fiber of the last one
// when the plant realizes its default topology.
std::pair<net::EdgeId, net::EdgeId> UsedFibers(const topo::Wan& wan) {
  core::ProvisionedState probe(wan.optical);
  probe.SyncTo(wan.default_topology);
  const auto& circuits = probe.optical().circuits();
  if (circuits.empty()) return {net::kInvalidEdge, net::kInvalidEdge};
  return {circuits.begin()->second.segments.front().fibers.front(),
          circuits.rbegin()->second.segments.back().fibers.back()};
}

// One fiber cut, every third site's regenerator pool drained and every
// third one (offset by one) down a regenerator, so node weights differ.
topo::Wan CutAndDrained(topo::Wan wan) {
  const net::EdgeId cut = UsedFibers(wan).first;
  EXPECT_NE(cut, net::kInvalidEdge);
  wan.optical.FailFiber(cut);
  for (net::NodeId v = 0; v < wan.optical.NumSites(); ++v) {
    const int pool = wan.optical.site(v).regenerators;
    if (v % 3 == 0) wan.optical.FailRegens(v, pool);
    if (v % 3 == 1) wan.optical.FailRegens(v, 1);
  }
  return wan;
}

// Ordered site pairs, about 40 x 40 of them on any plant.
std::vector<std::pair<net::NodeId, net::NodeId>> SamplePairs(int n) {
  const int stride = (n + 39) / 40;
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
  for (net::NodeId u = 0; u < n; u += stride) {
    for (net::NodeId v = 0; v < n; v += stride) {
      if (u != v) pairs.emplace_back(u, v);
    }
  }
  return pairs;
}

uint64_t DigestCandidates(const OpticalNetwork& on) {
  Digest d;
  for (const auto& [u, v] : SamplePairs(on.NumSites())) {
    const RegenGraph rg(on, u, v, on.balance_regens());
    const auto seqs = rg.CandidateSequences(8);
    d.I64(u);
    d.I64(v);
    d.U64(seqs.size());
    for (const auto& seq : seqs) {
      d.U64(seq.size());
      for (net::NodeId s : seq) d.I64(s);
    }
  }
  return d.value();
}

// Three units from every site to the site halfway round and three to the
// one eleven ids on: most need regenerators, wavelengths contend on shared
// fibers, and many units fail for lack of regenerators. Unlike the default
// topology, it makes regenerator balancing change what gets realized.
core::Topology LongHaul(int n) {
  core::Topology t(n);
  for (net::NodeId u = 0; u < n; ++u) {
    t.AddUnits(u, (u + n / 2) % n, 3);
    t.AddUnits(u, (u + 11) % n, 3);
  }
  return t;
}

// Every circuit of a blank realization of `t`, field by field, and the
// number of units that failed to realize.
void DigestRealization(const OpticalNetwork& plant, const core::Topology& t,
                       Digest& d) {
  core::ProvisionedState state(plant);
  d.I64(state.SyncTo(t));
  const OpticalNetwork& on = state.optical();
  d.U64(on.circuits().size());
  for (const auto& [id, c] : on.circuits()) {
    d.I64(id);
    d.I64(c.src);
    d.I64(c.dst);
    d.U64(c.regen_sites.size());
    for (net::NodeId r : c.regen_sites) d.I64(r);
    d.U64(c.segments.size());
    for (const Segment& s : c.segments) {
      d.U64(s.fibers.size());
      for (net::EdgeId f : s.fibers) d.I64(f);
      d.I64(s.wavelength);
      d.F64(s.length_km);
      d.F64(s.snr_db);
    }
    d.F64(c.capacity_gbps);
  }
}

// Blank realizations of the wan's default topology (one unit per fiber)
// and of LongHaul on `plant`.
uint64_t DigestRealizations(const topo::Wan& wan,
                            const OpticalNetwork& plant) {
  Digest d;
  DigestRealization(plant, wan.default_topology, d);
  DigestRealization(plant, LongHaul(plant.NumSites()), d);
  return d.value();
}

TEST(ProvisioningPinTest, CandidateSequencesOnIsp40) {
  const topo::Wan wan = CutAndDrained(topo::MakeByName("isp40"));
  EXPECT_PINNED(DigestCandidates(wan.optical), 0xc24a0cc0cfbd6fe5);
}

TEST(ProvisioningPinTest, CandidateSequencesOnIsp100) {
  const topo::Wan wan = CutAndDrained(topo::MakeByName("isp100"));
  EXPECT_PINNED(DigestCandidates(wan.optical), 0xe6984f1b922750e5);
}

TEST(ProvisioningPinTest, CandidateSequencesOnTiered400) {
  const topo::Wan wan = CutAndDrained(topo::MakeByName("tiered400"));
  EXPECT_PINNED(DigestCandidates(wan.optical), 0xfc51bacec2fd9dce);
}

TEST(ProvisioningPinTest, CandidateSequencesOnQotIsp40) {
  const topo::Wan wan = CutAndDrained(QotIsp40());
  EXPECT_PINNED(DigestCandidates(wan.optical), 0x841cf964cb15c245);
}

// The lazy search yields CandidateSequences(8) in order, runs on past it
// when asked, and CandidateSequences(j) stops after exactly j sequences.
TEST(ProvisioningPinTest, LazySearchYieldsCandidatesInOrder) {
  for (const topo::Wan& wan :
       {CutAndDrained(topo::MakeByName("isp40")),
        CutAndDrained(topo::MakeByName("isp100")),
        CutAndDrained(topo::MakeByName("tiered400")),
        CutAndDrained(QotIsp40())}) {
    const OpticalNetwork& on = wan.optical;
    const auto pairs = SamplePairs(on.NumSites());
    for (size_t i = 0; i < pairs.size(); i += 7) {
      const auto [u, v] = pairs[i];
      const RegenGraph rg(on, u, v, on.balance_regens());
      const auto eight = rg.CandidateSequences(8);
      net::YenSearch search(rg.arcs(), u, v);
      std::vector<std::vector<net::NodeId>> lazy;
      while (const std::optional<net::YenSearch::Route> route = search.Next()) {
        lazy.emplace_back(route->nodes.begin(), route->nodes.end());
        if (lazy.size() == 12) break;
      }
      ASSERT_GE(lazy.size(), eight.size()) << u << "->" << v;
      EXPECT_TRUE(std::equal(eight.begin(), eight.end(), lazy.begin()))
          << u << "->" << v;
      for (int j = 0; j <= 8; ++j) {
        const auto first_j = rg.CandidateSequences(j);
        ASSERT_EQ(first_j.size(), std::min<size_t>(j, lazy.size()));
        EXPECT_TRUE(std::equal(first_j.begin(), first_j.end(), lazy.begin()))
            << u << "->" << v << " j=" << j;
      }
    }
  }
}

TEST(ProvisioningPinTest, BlankRealizationOfIsp100) {
  const topo::Wan wan = topo::MakeByName("isp100");
  EXPECT_PINNED(DigestRealizations(wan, wan.optical), 0x68347f63359aee46);
}

TEST(ProvisioningPinTest, BlankRealizationOfTiered400) {
  const topo::Wan wan = topo::MakeByName("tiered400");
  EXPECT_PINNED(DigestRealizations(wan, wan.optical), 0x81c376101958c7c1);
}

TEST(ProvisioningPinTest, BlankRealizationOfQotIsp40WithCutAndDegradation) {
  topo::Wan wan = QotIsp40();
  const auto [cut, degraded] = UsedFibers(wan);
  ASSERT_NE(cut, degraded);
  wan.optical.FailFiber(cut);
  wan.optical.DegradeFiber(degraded, 4.0);
  EXPECT_PINNED(DigestRealizations(wan, wan.optical), 0x70e40b7b06e5a709);
}

// On the plant of the regenerator-balancing ablation: tight reach, so
// regenerators run out.
TEST(ProvisioningPinTest, BlankRealizationOfIsp40WithoutRegenBalancing) {
  topo::WanParams tight;
  tight.reach_km = 900.0;
  tight.wavelength_gbps = 100.0;
  topo::Wan wan = topo::MakeIspBackbone(7, 40, tight);
  wan.optical.set_balance_regens(false);
  EXPECT_PINNED(DigestRealizations(wan, wan.optical), 0xda04202f85534e58);
}

}  // namespace
}  // namespace owan::optical
