#ifndef OWAN_LP_SIMPLEX_H_
#define OWAN_LP_SIMPLEX_H_

#include "lp/lp_problem.h"

namespace owan::lp {

struct SimplexOptions {
  // Hard cap on pivots per phase; generous for the problem sizes here.
  int max_iterations = 200000;
  // After this many pivots with Dantzig's rule, fall back to Bland's rule to
  // guarantee termination under degeneracy.
  int bland_after = 20000;
};

// Solves `problem` with a dense two-phase primal simplex.
//
// General bounded variables are handled by shifting each variable to a
// non-negative range and adding explicit upper-bound rows; >= and =
// constraints get artificial variables eliminated in phase 1.
LpSolution Solve(const LpProblem& problem, const SimplexOptions& options = {});

}  // namespace owan::lp

#endif  // OWAN_LP_SIMPLEX_H_
