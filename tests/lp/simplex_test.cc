#include "lp/simplex.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace owan::lp {
namespace {

TEST(SimplexTest, SimpleMaximize) {
  // max x + y st x <= 3, y <= 4.
  LpProblem p;
  const int x = p.AddVariable(0, 3, 1.0);
  const int y = p.AddVariable(0, 4, 1.0);
  auto sol = Solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 7.0, 1e-7);
  EXPECT_NEAR(sol.values[static_cast<size_t>(x)], 3.0, 1e-7);
  EXPECT_NEAR(sol.values[static_cast<size_t>(y)], 4.0, 1e-7);
}

TEST(SimplexTest, SharedConstraint) {
  // max x + y st x + y <= 5, x <= 3, y <= 3.
  LpProblem p;
  const int x = p.AddVariable(0, 3, 1.0);
  const int y = p.AddVariable(0, 3, 1.0);
  p.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kLe, 5.0);
  auto sol = Solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 5.0, 1e-7);
  EXPECT_TRUE(p.IsFeasible(sol.values));
}

TEST(SimplexTest, ClassicTextbookProblem) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> optimum 36 at (2, 6).
  LpProblem p;
  const int x = p.AddVariable(0, kLpInf, 3.0);
  const int y = p.AddVariable(0, kLpInf, 5.0);
  p.AddConstraint({{x, 1.0}}, Relation::kLe, 4.0);
  p.AddConstraint({{y, 2.0}}, Relation::kLe, 12.0);
  p.AddConstraint({{x, 3.0}, {y, 2.0}}, Relation::kLe, 18.0);
  auto sol = Solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 36.0, 1e-6);
  EXPECT_NEAR(sol.values[static_cast<size_t>(x)], 2.0, 1e-6);
  EXPECT_NEAR(sol.values[static_cast<size_t>(y)], 6.0, 1e-6);
}

TEST(SimplexTest, Minimization) {
  // min x + 2y st x + y >= 4, y >= 1 -> x=3, y=1, obj=5.
  LpProblem p;
  p.SetMaximize(false);
  const int x = p.AddVariable(0, kLpInf, 1.0);
  const int y = p.AddVariable(1, kLpInf, 2.0);
  p.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kGe, 4.0);
  auto sol = Solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 5.0, 1e-6);
}

TEST(SimplexTest, EqualityConstraint) {
  // max x st x + y = 3, y >= 1 -> x = 2.
  LpProblem p;
  const int x = p.AddVariable(0, kLpInf, 1.0);
  const int y = p.AddVariable(1, kLpInf, 0.0);
  p.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 3.0);
  auto sol = Solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.values[static_cast<size_t>(x)], 2.0, 1e-6);
}

TEST(SimplexTest, InfeasibleDetected) {
  LpProblem p;
  const int x = p.AddVariable(0, 1, 1.0);
  p.AddConstraint({{x, 1.0}}, Relation::kGe, 5.0);
  auto sol = Solve(p);
  EXPECT_EQ(sol.status, LpStatus::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  LpProblem p;
  p.AddVariable(0, kLpInf, 1.0);
  auto sol = Solve(p);
  EXPECT_EQ(sol.status, LpStatus::kUnbounded);
}

TEST(SimplexTest, NegativeLowerBound) {
  // max x with -5 <= x <= -2: optimum is -2.
  LpProblem p;
  const int x = p.AddVariable(-5, -2, 1.0);
  auto sol = Solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.values[static_cast<size_t>(x)], -2.0, 1e-7);
  EXPECT_NEAR(sol.objective, -2.0, 1e-7);
}

TEST(SimplexTest, FreeVariable) {
  // min x st x >= -7 (via constraint); x free.
  LpProblem p;
  p.SetMaximize(false);
  const int x = p.AddVariable(-kLpInf, kLpInf, 1.0);
  p.AddConstraint({{x, 1.0}}, Relation::kGe, -7.0);
  auto sol = Solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.values[static_cast<size_t>(x)], -7.0, 1e-6);
}

TEST(SimplexTest, NegativeRhsNormalization) {
  // x - y <= -2 with x,y in [0,10]: maximize x -> x = 8 when y = 10.
  LpProblem p;
  const int x = p.AddVariable(0, 10, 1.0);
  const int y = p.AddVariable(0, 10, 0.0);
  p.AddConstraint({{x, 1.0}, {y, -1.0}}, Relation::kLe, -2.0);
  auto sol = Solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.values[static_cast<size_t>(x)], 8.0, 1e-6);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Highly degenerate: many redundant constraints through the origin.
  LpProblem p;
  const int x = p.AddVariable(0, kLpInf, 1.0);
  const int y = p.AddVariable(0, kLpInf, 1.0);
  for (int i = 1; i <= 6; ++i) {
    p.AddConstraint({{x, static_cast<double>(i)}, {y, 1.0}}, Relation::kLe,
                    static_cast<double>(i));
  }
  auto sol = Solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(p.IsFeasible(sol.values, 1e-6));
}

TEST(SimplexTest, RedundantEqualityRows) {
  LpProblem p;
  const int x = p.AddVariable(0, kLpInf, 1.0);
  const int y = p.AddVariable(0, kLpInf, 0.0);
  p.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 4.0);
  p.AddConstraint({{x, 2.0}, {y, 2.0}}, Relation::kEq, 8.0);  // same row x2
  auto sol = Solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 4.0, 1e-6);
}

TEST(SimplexTest, ZeroDemandProblem) {
  LpProblem p;
  const int x = p.AddVariable(0, 0, 1.0);
  auto sol = Solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.values[static_cast<size_t>(x)], 0.0, 1e-9);
}

TEST(SimplexTest, RandomProblemsFeasibleOptima) {
  util::Rng rng(31);
  for (int trial = 0; trial < 15; ++trial) {
    LpProblem p;
    const int n = 4 + static_cast<int>(rng.Index(4));
    for (int i = 0; i < n; ++i) {
      p.AddVariable(0, rng.Uniform(1.0, 10.0), rng.Uniform(0.1, 2.0));
    }
    for (int c = 0; c < 5; ++c) {
      std::vector<std::pair<int, double>> terms;
      for (int i = 0; i < n; ++i) {
        if (rng.Chance(0.6)) terms.emplace_back(i, rng.Uniform(0.1, 1.0));
      }
      if (terms.empty()) continue;
      p.AddConstraint(std::move(terms), Relation::kLe, rng.Uniform(2.0, 20.0));
    }
    auto sol = Solve(p);
    ASSERT_TRUE(sol.ok()) << "trial " << trial;
    EXPECT_TRUE(p.IsFeasible(sol.values, 1e-5)) << "trial " << trial;
    EXPECT_NEAR(sol.objective, p.Evaluate(sol.values), 1e-5);
  }
}

// Beale's classic cycling example: Dantzig's rule cycles forever on this
// tableau without an anti-cycling guard. Forcing Bland's rule from the
// first pivot must still terminate at the known optimum 1/20 (x1 = 0.04,
// x3 = 1).
TEST(SimplexTest, BealeCyclingExampleTerminatesUnderBland) {
  LpProblem p;
  const int x1 = p.AddVariable(0, kLpInf, 0.75);
  const int x2 = p.AddVariable(0, kLpInf, -150.0);
  const int x3 = p.AddVariable(0, kLpInf, 0.02);
  const int x4 = p.AddVariable(0, kLpInf, -6.0);
  p.AddConstraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                  Relation::kLe, 0.0);
  p.AddConstraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                  Relation::kLe, 0.0);
  p.AddConstraint({{x3, 1.0}}, Relation::kLe, 1.0);

  SimplexOptions bland_only;
  bland_only.bland_after = 0;
  auto sol = Solve(p, bland_only);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 0.05, 1e-9);
  EXPECT_NEAR(sol.values[static_cast<size_t>(x1)], 0.04, 1e-9);
  EXPECT_NEAR(sol.values[static_cast<size_t>(x3)], 1.0, 1e-9);
  // And the default Dantzig-then-Bland path lands on the same optimum.
  auto sol2 = Solve(p);
  ASSERT_TRUE(sol2.ok());
  EXPECT_NEAR(sol2.objective, 0.05, 1e-9);
}

TEST(SimplexTest, UnboundedAlongConstrainedRay) {
  // max x with x - y <= 1: the ray (x, y) = (1 + t, t) is feasible for all
  // t, so the LP is unbounded even though the objective variable itself is
  // constrained.
  LpProblem p;
  const int x = p.AddVariable(0, kLpInf, 1.0);
  const int y = p.AddVariable(0, kLpInf, 0.0);
  p.AddConstraint({{x, 1.0}, {y, -1.0}}, Relation::kLe, 1.0);
  auto sol = Solve(p);
  EXPECT_EQ(sol.status, LpStatus::kUnbounded);
}

TEST(SimplexTest, ConflictingEqualitiesInfeasible) {
  // Phase 1 must leave a positive artificial: x + y = 1 and x + y = 2
  // cannot both hold.
  LpProblem p;
  const int x = p.AddVariable(0, kLpInf, 1.0);
  const int y = p.AddVariable(0, kLpInf, 1.0);
  p.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 1.0);
  p.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 2.0);
  auto sol = Solve(p);
  EXPECT_EQ(sol.status, LpStatus::kInfeasible);
}

TEST(SimplexTest, InfeasibleBoundsVsGeRow) {
  // Upper bounds sum to 3 but a >= row demands 4; the infeasibility is only
  // visible through the bound rows, not any single constraint pair.
  LpProblem p;
  const int x = p.AddVariable(0, 1, 1.0);
  const int y = p.AddVariable(0, 2, 1.0);
  p.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kGe, 4.0);
  auto sol = Solve(p);
  EXPECT_EQ(sol.status, LpStatus::kInfeasible);
}

TEST(SimplexTest, TieBreakingDegeneratePivotsReachOptimum) {
  // Every basic feasible solution of this cube-with-diagonal is degenerate
  // at the origin; the solver must still climb out and find x = y = z = 1.
  LpProblem p;
  const int x = p.AddVariable(0, kLpInf, 1.0);
  const int y = p.AddVariable(0, kLpInf, 1.0);
  const int z = p.AddVariable(0, kLpInf, 1.0);
  p.AddConstraint({{x, 1.0}}, Relation::kLe, 1.0);
  p.AddConstraint({{y, 1.0}}, Relation::kLe, 1.0);
  p.AddConstraint({{z, 1.0}}, Relation::kLe, 1.0);
  p.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kLe, 2.0);
  p.AddConstraint({{y, 1.0}, {z, 1.0}}, Relation::kLe, 2.0);
  p.AddConstraint({{x, 1.0}, {y, 1.0}, {z, 1.0}}, Relation::kLe, 3.0);
  auto sol = Solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 3.0, 1e-9);
}

TEST(LpProblemTest, BadVariableRejected) {
  LpProblem p;
  p.AddVariable();
  EXPECT_THROW(p.AddConstraint({{3, 1.0}}, Relation::kLe, 1.0),
               std::out_of_range);
  EXPECT_THROW(p.AddVariable(5.0, 1.0), std::invalid_argument);
}

TEST(LpProblemTest, FeasibilityChecker) {
  LpProblem p;
  const int x = p.AddVariable(0, 2, 1.0);
  p.AddConstraint({{x, 1.0}}, Relation::kGe, 1.0);
  EXPECT_TRUE(p.IsFeasible({1.5}));
  EXPECT_FALSE(p.IsFeasible({0.5}));   // violates >=
  EXPECT_FALSE(p.IsFeasible({2.5}));   // violates upper bound
  EXPECT_FALSE(p.IsFeasible({1.0, 2.0}));  // wrong arity
}

}  // namespace
}  // namespace owan::lp
