#include "lp/lp_problem.h"

#include <cmath>
#include <stdexcept>

namespace owan::lp {

int LpProblem::AddVariable(double lower, double upper, double objective) {
  if (lower > upper) {
    throw std::invalid_argument("LpProblem::AddVariable: lower > upper");
  }
  objective_.push_back(objective);
  lower_.push_back(lower);
  upper_.push_back(upper);
  return NumVariables() - 1;
}

void LpProblem::SetObjectiveCoef(int var, double coef) {
  objective_.at(static_cast<size_t>(var)) = coef;
}

void LpProblem::AddConstraint(std::vector<std::pair<int, double>> terms,
                              Relation rel, double rhs) {
  for (const auto& [v, c] : terms) {
    if (v < 0 || v >= NumVariables()) {
      throw std::out_of_range("LpProblem::AddConstraint: bad variable");
    }
    (void)c;
  }
  constraints_.push_back(Constraint{std::move(terms), rel, rhs});
}

double LpProblem::Evaluate(const std::vector<double>& x) const {
  double obj = 0.0;
  for (int v = 0; v < NumVariables(); ++v) {
    obj += objective_[static_cast<size_t>(v)] * x[static_cast<size_t>(v)];
  }
  return obj;
}

bool LpProblem::IsFeasible(const std::vector<double>& x, double tol) const {
  if (static_cast<int>(x.size()) != NumVariables()) return false;
  for (int v = 0; v < NumVariables(); ++v) {
    const double xv = x[static_cast<size_t>(v)];
    if (xv < lower_[static_cast<size_t>(v)] - tol) return false;
    if (xv > upper_[static_cast<size_t>(v)] + tol) return false;
  }
  for (const Constraint& c : constraints_) {
    double lhs = 0.0;
    for (const auto& [v, coef] : c.terms) lhs += coef * x[static_cast<size_t>(v)];
    switch (c.rel) {
      case Relation::kLe:
        if (lhs > c.rhs + tol) return false;
        break;
      case Relation::kGe:
        if (lhs < c.rhs - tol) return false;
        break;
      case Relation::kEq:
        if (std::abs(lhs - c.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

}  // namespace owan::lp
