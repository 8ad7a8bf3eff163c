#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace owan::lp {

namespace {

// Pivot and ratio-test tolerance.
constexpr double kEps = 1e-9;

// Dense tableau simplex operating on the standard form
//   minimize c^T x   s.t.  A x = b,  x >= 0,  b >= 0.
// Rows of A already include slack/surplus columns; artificial columns are
// appended internally for phase 1.
class Tableau {
 public:
  Tableau(std::vector<std::vector<double>> a, std::vector<double> b,
          std::vector<double> c, int cols, const SimplexOptions& opt)
      : a_(std::move(a)), b_(std::move(b)), c_(std::move(c)), opt_(opt) {
    rows_ = static_cast<int>(a_.size());
    cols_ = cols;
  }

  // Runs both phases. Returns status; on optimal, `x` holds all structural +
  // slack values and `obj` the phase-2 objective.
  LpStatus Run(std::vector<double>& x, double& obj) {
    // Phase 1: add one artificial per row, basis = artificials.
    const int art0 = cols_;
    basis_.resize(rows_);
    for (int r = 0; r < rows_; ++r) {
      for (auto& row : a_) row.push_back(0.0);
      a_[r][art0 + r] = 1.0;
      basis_[r] = art0 + r;
    }
    const int total = art0 + rows_;

    // Phase-1 cost: sum of artificials.
    std::vector<double> c1(total, 0.0);
    for (int r = 0; r < rows_; ++r) c1[art0 + r] = 1.0;
    double obj1 = 0.0;
    LpStatus st = Optimize(c1, obj1, /*restrict_cols=*/total);
    if (st != LpStatus::kOptimal) return st;
    if (obj1 > 1e-7) return LpStatus::kInfeasible;

    // Drive any remaining artificial variables out of the basis.
    for (int r = 0; r < rows_; ++r) {
      if (basis_[r] < art0) continue;
      int pivot_col = -1;
      for (int j = 0; j < art0; ++j) {
        if (std::abs(a_[r][j]) > kEps) {
          pivot_col = j;
          break;
        }
      }
      if (pivot_col >= 0) {
        Pivot(r, pivot_col);
      }
      // If the whole row is zero the constraint was redundant; the
      // artificial stays basic at value zero and is harmless.
    }

    // Phase 2: original costs, artificials forbidden.
    std::vector<double> c2(total, 0.0);
    for (int j = 0; j < cols_; ++j) c2[j] = c_[j];
    double obj2 = 0.0;
    st = Optimize(c2, obj2, /*restrict_cols=*/art0);
    if (st != LpStatus::kOptimal) return st;

    x.assign(cols_, 0.0);
    for (int r = 0; r < rows_; ++r) {
      if (basis_[r] < cols_) x[basis_[r]] = b_[r];
    }
    obj = obj2;
    return LpStatus::kOptimal;
  }

 private:
  void Pivot(int pr, int pc) {
    const double pv = a_[pr][pc];
    const double inv = 1.0 / pv;
    for (double& v : a_[pr]) v *= inv;
    b_[pr] *= inv;
    a_[pr][pc] = 1.0;  // kill round-off
    for (int r = 0; r < rows_; ++r) {
      if (r == pr) continue;
      const double f = a_[r][pc];
      if (std::abs(f) <= kEps) {
        a_[r][pc] = 0.0;
        continue;
      }
      const size_t width = a_[r].size();
      for (size_t j = 0; j < width; ++j) a_[r][j] -= f * a_[pr][j];
      a_[r][pc] = 0.0;
      b_[r] -= f * b_[pr];
    }
    basis_[pr] = pc;
  }

  // Minimizes cost over columns [0, restrict_cols). Maintains the reduced
  // cost row incrementally so pricing is O(width) per pivot instead of
  // O(rows * width).
  LpStatus Optimize(const std::vector<double>& cost, double& obj,
                    int restrict_cols) {
    const size_t width = a_.empty() ? cost.size() : a_[0].size();
    std::vector<double> z(cost.begin(), cost.begin() + static_cast<long>(width));
    double zobj = 0.0;
    for (int r = 0; r < rows_; ++r) {
      const double cb = cost[basis_[r]];
      if (cb == 0.0) continue;
      const std::vector<double>& row = a_[static_cast<size_t>(r)];
      for (size_t j = 0; j < width; ++j) z[j] -= cb * row[j];
      zobj += cb * b_[static_cast<size_t>(r)];
    }

    for (int iter = 0; iter < opt_.max_iterations; ++iter) {
      const bool bland = iter >= opt_.bland_after;
      int enter = -1;
      double best = -kEps * 10;
      for (int j = 0; j < restrict_cols; ++j) {
        const double rc = z[static_cast<size_t>(j)];
        if (rc < -1e-9) {
          if (bland) {
            enter = j;
            break;
          }
          if (rc < best) {
            best = rc;
            enter = j;
          }
        }
      }
      if (enter < 0) {
        obj = zobj;
        return LpStatus::kOptimal;
      }

      // Ratio test.
      int leave = -1;
      double best_ratio = 0.0;
      for (int r = 0; r < rows_; ++r) {
        if (a_[r][enter] > kEps) {
          const double ratio = b_[r] / a_[r][enter];
          if (leave < 0 || ratio < best_ratio - kEps ||
              (std::abs(ratio - best_ratio) <= kEps &&
               basis_[r] < basis_[leave])) {
            leave = r;
            best_ratio = ratio;
          }
        }
      }
      if (leave < 0) return LpStatus::kUnbounded;
      Pivot(leave, enter);
      const double f = z[static_cast<size_t>(enter)];
      if (f != 0.0) {
        const std::vector<double>& prow = a_[static_cast<size_t>(leave)];
        for (size_t j = 0; j < width; ++j) z[j] -= f * prow[j];
        z[static_cast<size_t>(enter)] = 0.0;
        zobj += f * b_[static_cast<size_t>(leave)];
      }
    }
    return LpStatus::kIterationLimit;
  }

  std::vector<std::vector<double>> a_;
  std::vector<double> b_;
  std::vector<double> c_;
  std::vector<int> basis_;
  SimplexOptions opt_;
  int rows_ = 0;
  int cols_ = 0;
};

}  // namespace

LpSolution Solve(const LpProblem& p, const SimplexOptions& opt) {
  LpSolution sol;
  const int n = p.NumVariables();

  // Shift variables so each has lower bound 0; variables with an infinite
  // lower bound are split into a difference of two non-negatives.
  // shifted x_j = pos_j (- neg_j) + lb_j.
  std::vector<int> pos_col(n), neg_col(n, -1);
  std::vector<double> shift(n, 0.0);
  int cols = 0;
  for (int v = 0; v < n; ++v) {
    pos_col[v] = cols++;
    if (p.lower(v) == -kLpInf) {
      neg_col[v] = cols++;
    } else {
      shift[v] = p.lower(v);
    }
  }

  struct Row {
    std::vector<std::pair<int, double>> terms;  // (column, coef)
    Relation rel;
    double rhs;
  };
  std::vector<Row> rows;

  auto add_row = [&rows](std::vector<std::pair<int, double>> terms,
                         Relation rel, double rhs) {
    rows.push_back(Row{std::move(terms), rel, rhs});
  };

  // Original constraints, rewritten over shifted columns.
  for (const Constraint& c : p.constraints()) {
    std::vector<std::pair<int, double>> terms;
    double rhs = c.rhs;
    for (const auto& [v, coef] : c.terms) {
      terms.emplace_back(pos_col[v], coef);
      if (neg_col[v] >= 0) terms.emplace_back(neg_col[v], -coef);
      rhs -= coef * shift[v];
    }
    add_row(std::move(terms), c.rel, rhs);
  }

  // Upper bounds become rows (shifted).
  for (int v = 0; v < n; ++v) {
    if (p.upper(v) == kLpInf) continue;
    std::vector<std::pair<int, double>> terms{{pos_col[v], 1.0}};
    if (neg_col[v] >= 0) terms.emplace_back(neg_col[v], -1.0);
    add_row(std::move(terms), Relation::kLe, p.upper(v) - shift[v]);
  }

  // Attach slack/surplus columns and normalise to Ax = b with b >= 0.
  const int m = static_cast<int>(rows.size());
  int slack_cols = 0;
  for (const Row& r : rows) {
    if (r.rel != Relation::kEq) ++slack_cols;
  }
  const int width = cols + slack_cols;
  std::vector<std::vector<double>> a(m, std::vector<double>(width, 0.0));
  std::vector<double> b(m, 0.0);
  int next_slack = cols;
  for (int i = 0; i < m; ++i) {
    Row& r = rows[static_cast<size_t>(i)];
    double sign = 1.0;
    Relation rel = r.rel;
    if (r.rhs < 0.0) {
      sign = -1.0;
      r.rhs = -r.rhs;
      if (rel == Relation::kLe) {
        rel = Relation::kGe;
      } else if (rel == Relation::kGe) {
        rel = Relation::kLe;
      }
    }
    for (const auto& [col, coef] : r.terms) a[i][col] += sign * coef;
    b[i] = r.rhs;
    if (rel == Relation::kLe) {
      a[i][next_slack++] = 1.0;
    } else if (rel == Relation::kGe) {
      a[i][next_slack++] = -1.0;
    }
  }

  // Phase-2 cost vector: minimize, so negate if maximizing.
  std::vector<double> c(width, 0.0);
  double const_term = 0.0;
  for (int v = 0; v < n; ++v) {
    const double coef = p.ObjectiveCoef(v);
    const double mc = p.maximize() ? -coef : coef;
    c[pos_col[v]] += mc;
    if (neg_col[v] >= 0) c[neg_col[v]] -= mc;
    const_term += coef * shift[v];
  }

  Tableau t(std::move(a), std::move(b), std::move(c), width, opt);
  std::vector<double> x;
  double obj = 0.0;
  sol.status = t.Run(x, obj);
  if (sol.status != LpStatus::kOptimal) return sol;

  sol.values.assign(n, 0.0);
  for (int v = 0; v < n; ++v) {
    double val = x[pos_col[v]];
    if (neg_col[v] >= 0) val -= x[neg_col[v]];
    sol.values[v] = val + shift[v];
  }
  sol.objective = (p.maximize() ? -obj : obj) + const_term;
  return sol;
}

}  // namespace owan::lp
