#ifndef OWAN_LP_LP_PROBLEM_H_
#define OWAN_LP_LP_PROBLEM_H_

#include <limits>
#include <utility>
#include <vector>

namespace owan::lp {

inline constexpr double kLpInf = std::numeric_limits<double>::infinity();

enum class Relation { kLe, kGe, kEq };

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

// One linear constraint: sum(coef_i * x_i) REL rhs.
struct Constraint {
  std::vector<std::pair<int, double>> terms;
  Relation rel = Relation::kLe;
  double rhs = 0.0;
};

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;  // one per variable, in AddVariable order

  bool ok() const { return status == LpStatus::kOptimal; }
};

// Declarative LP builder: continuous variables with bounds, linear
// constraints, and a linear objective. Solved by the bundled dense
// two-phase simplex (`Solve` in simplex.h).
//
// The baseline traffic-engineering schemes the paper compares against
// (MaxFlow, MaxMinFract, SWAN, Tempus) are all expressed through this class
// using a path-based multi-commodity-flow formulation (see mcf.h).
class LpProblem {
 public:
  // Returns the variable index. Bounds may be infinite; lower defaults to 0.
  int AddVariable(double lower = 0.0, double upper = kLpInf,
                  double objective = 0.0);

  void SetObjectiveCoef(int var, double coef);
  double ObjectiveCoef(int var) const { return objective_[var]; }

  void AddConstraint(std::vector<std::pair<int, double>> terms, Relation rel,
                     double rhs);

  // true = maximize (default), false = minimize.
  void SetMaximize(bool maximize) { maximize_ = maximize; }
  bool maximize() const { return maximize_; }

  int NumVariables() const { return static_cast<int>(objective_.size()); }
  int NumConstraints() const { return static_cast<int>(constraints_.size()); }

  const std::vector<Constraint>& constraints() const { return constraints_; }
  double lower(int v) const { return lower_[v]; }
  double upper(int v) const { return upper_[v]; }

  // Evaluates the objective at a point (no feasibility check).
  double Evaluate(const std::vector<double>& x) const;

  // Verifies that `x` satisfies all constraints and bounds within `tol`.
  bool IsFeasible(const std::vector<double>& x, double tol = 1e-6) const;

 private:
  std::vector<double> objective_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<Constraint> constraints_;
  bool maximize_ = true;
};

}  // namespace owan::lp

#endif  // OWAN_LP_LP_PROBLEM_H_
