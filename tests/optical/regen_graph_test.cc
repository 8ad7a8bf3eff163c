#include "optical/regen_graph.h"

#include <gtest/gtest.h>

namespace owan::optical {
namespace {

// Diamond: S - {P, Q} - D where P has many regens and Q has one. Distances
// force exactly one regeneration.
OpticalNetwork MakeDiamond(int regens_p, int regens_q) {
  std::vector<SiteInfo> sites = {{"S", 2, 0},
                                 {"P", 2, regens_p},
                                 {"Q", 2, regens_q},
                                 {"D", 2, 0}};
  OpticalNetwork on(std::move(sites), 1000.0, 10.0);
  on.AddFiber(0, 1, 900.0, 8);  // S-P
  on.AddFiber(1, 3, 900.0, 8);  // P-D
  on.AddFiber(0, 2, 900.0, 8);  // S-Q
  on.AddFiber(2, 3, 900.0, 8);  // Q-D
  return on;
}

TEST(RegenGraphTest, ParticipantsAreSrcDstAndRegenSites) {
  OpticalNetwork on = MakeDiamond(3, 1);
  RegenGraph rg(on, 0, 3);
  EXPECT_TRUE(rg.Participates(0));
  EXPECT_TRUE(rg.Participates(3));
  EXPECT_TRUE(rg.Participates(1));
  EXPECT_TRUE(rg.Participates(2));
}

TEST(RegenGraphTest, SitesWithoutRegensExcluded) {
  std::vector<SiteInfo> sites = {
      {"S", 2, 0}, {"M", 2, 0}, {"D", 2, 0}};  // M has no regens
  OpticalNetwork on(std::move(sites), 1000.0, 10.0);
  on.AddFiber(0, 1, 900.0, 8);
  on.AddFiber(1, 2, 900.0, 8);
  RegenGraph rg(on, 0, 2);
  EXPECT_FALSE(rg.Participates(1));
  // No direct reach S->D (1800 km) and no regen site: no candidates.
  EXPECT_TRUE(rg.CandidateSequences(4).empty());
}

TEST(RegenGraphTest, NodeWeightIsInverseFreeRegens) {
  OpticalNetwork on = MakeDiamond(4, 1);
  RegenGraph rg(on, 0, 3);
  EXPECT_DOUBLE_EQ(rg.NodeWeight(1), 0.25);
  EXPECT_DOUBLE_EQ(rg.NodeWeight(2), 1.0);
  EXPECT_DOUBLE_EQ(rg.NodeWeight(0), 0.0);
  EXPECT_DOUBLE_EQ(rg.NodeWeight(3), 0.0);
}

TEST(RegenGraphTest, EdgesOnlyWithinReach) {
  OpticalNetwork on = MakeDiamond(2, 2);
  RegenGraph rg(on, 0, 3);
  // S-D shortest fiber distance is 1800 km > 1000 reach: no direct edge.
  EXPECT_FALSE(rg.Adjacent(0, 3));
  EXPECT_TRUE(rg.Adjacent(0, 1));
}

TEST(RegenGraphTest, PrefersRegenRichSites) {
  OpticalNetwork on = MakeDiamond(/*regens_p=*/5, /*regens_q=*/1);
  RegenGraph rg(on, 0, 3);
  auto seqs = rg.CandidateSequences(2);
  ASSERT_FALSE(seqs.empty());
  // Cheapest sequence goes through P (weight 0.2) not Q (weight 1.0).
  EXPECT_EQ(seqs[0], (std::vector<net::NodeId>{0, 1, 3}));
}

TEST(RegenGraphTest, BalancesConsumptionAsRegensDeplete) {
  OpticalNetwork on = MakeDiamond(2, 2);
  // Burn one regen at P so Q becomes the lighter choice.
  auto c1 = on.ProvisionCircuit(0, 3);
  ASSERT_TRUE(c1);
  const auto& first = on.circuit(*c1).regen_sites;
  ASSERT_EQ(first.size(), 1u);
  const net::NodeId used = first[0];
  RegenGraph rg(on, 0, 3);
  auto seqs = rg.CandidateSequences(2);
  ASSERT_FALSE(seqs.empty());
  // The next candidate prefers the other site.
  EXPECT_NE(seqs[0][1], used);
}

TEST(RegenGraphTest, SequenceWeightSumsInteriorOnly) {
  OpticalNetwork on = MakeDiamond(2, 1);
  RegenGraph rg(on, 0, 3);
  EXPECT_DOUBLE_EQ(rg.SequenceWeight({0, 1, 3}), 0.5);
  EXPECT_DOUBLE_EQ(rg.SequenceWeight({0, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(rg.SequenceWeight({0, 3}), 0.0);
}

TEST(RegenGraphTest, CandidatesOrderedByWeight) {
  OpticalNetwork on = MakeDiamond(4, 1);
  RegenGraph rg(on, 0, 3);
  auto seqs = rg.CandidateSequences(4);
  ASSERT_GE(seqs.size(), 2u);
  EXPECT_LE(rg.SequenceWeight(seqs[0]), rg.SequenceWeight(seqs[1]));
}

TEST(RegenGraphTest, DirectReachSkipsRegens) {
  std::vector<SiteInfo> sites = {{"S", 2, 0}, {"R", 2, 5}, {"D", 2, 0}};
  OpticalNetwork on(std::move(sites), 2000.0, 10.0);
  on.AddFiber(0, 1, 500.0, 8);
  on.AddFiber(1, 2, 500.0, 8);
  RegenGraph rg(on, 0, 2);
  auto seqs = rg.CandidateSequences(3);
  ASSERT_FALSE(seqs.empty());
  // Direct S->D (1000 km within reach via fiber path) has weight 0 and wins.
  EXPECT_EQ(seqs[0], (std::vector<net::NodeId>{0, 2}));
}

TEST(RegenGraphTest, FailedFiberExcludedFromDistances) {
  OpticalNetwork on = MakeDiamond(2, 2);
  on.FailFiber(0);  // S-P fiber
  RegenGraph rg(on, 0, 3);
  EXPECT_FALSE(rg.Adjacent(0, 1));
  auto seqs = rg.CandidateSequences(4);
  ASSERT_FALSE(seqs.empty());
  EXPECT_EQ(seqs[0], (std::vector<net::NodeId>{0, 2, 3}));
}

}  // namespace
}  // namespace owan::optical
