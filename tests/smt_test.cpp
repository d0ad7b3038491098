// Tests for smtlite: propagation & search correctness, encoding helpers
// (ite/max/abs/reify), optimisation, budgets, and randomized cross-checks
// against brute-force enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "obs/metrics.h"
#include "smt/format.h"
#include "smt/model.h"
#include "smt/solve_cache.h"
#include "smt/solver.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace fmnet::smt {
namespace {

TEST(LinExprTest, MergesTermsAndArithmetic) {
  Model m;
  const VarId x = m.new_int(0, 5, "x");
  const VarId y = m.new_int(0, 5, "y");
  LinExpr e = LinExpr(x) + LinExpr(x) + LinExpr(y) * 3 + LinExpr(7);
  ASSERT_EQ(e.terms().size(), 2u);
  EXPECT_EQ(e.terms()[0].first, 2);  // x merged
  EXPECT_EQ(e.terms()[1].first, 3);
  EXPECT_EQ(e.constant(), 7);
  const LinExpr d = e - LinExpr(x) * 2;
  // x term cancels to zero coefficient; evaluation must treat it as absent.
  std::int64_t coef_x = 0;
  for (const auto& [c, v] : d.terms()) {
    if (v == x) coef_x = c;
  }
  EXPECT_EQ(coef_x, 0);
}

TEST(SolverTest, TrivialSat) {
  Model m;
  const VarId x = m.new_int(2, 4, "x");
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_GE(r.value(x), 2);
  EXPECT_LE(r.value(x), 4);
}

TEST(SolverTest, SimpleSystemSat) {
  // x + y = 7, x - y <= 1, x,y in [0,10] — e.g. (3,4) or (4,3).
  Model m;
  const VarId x = m.new_int(0, 10, "x");
  const VarId y = m.new_int(0, 10, "y");
  m.add_linear(LinExpr(x) + LinExpr(y), Cmp::kEq, 7);
  m.add_linear(LinExpr(x) - LinExpr(y), Cmp::kLe, 1);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(x) + r.value(y), 7);
  EXPECT_LE(r.value(x) - r.value(y), 1);
}

TEST(SolverTest, InfeasibleBoundsUnsat) {
  Model m;
  const VarId x = m.new_int(0, 3, "x");
  m.add_linear(LinExpr(x), Cmp::kGe, 5);
  Solver s(m);
  EXPECT_EQ(s.solve().status, Status::kUnsat);
}

TEST(SolverTest, EqualityChainPropagates) {
  // x = y, y = z, z = 4.
  Model m;
  const VarId x = m.new_int(0, 10, "x");
  const VarId y = m.new_int(0, 10, "y");
  const VarId z = m.new_int(0, 10, "z");
  m.add_linear(LinExpr(x) - LinExpr(y), Cmp::kEq, 0);
  m.add_linear(LinExpr(y) - LinExpr(z), Cmp::kEq, 0);
  m.add_linear(LinExpr(z), Cmp::kEq, 4);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(x), 4);
  EXPECT_EQ(r.value(y), 4);
  // The chain must resolve by propagation alone: no decisions needed.
  EXPECT_EQ(r.decisions, 0);
}

TEST(SolverTest, NegativeCoefficientsAndDomains) {
  // -2x + 3y <= -5 with x in [-4, 4], y in [-4, 0]: need 2x >= 3y + 5.
  Model m;
  const VarId x = m.new_int(-4, 4, "x");
  const VarId y = m.new_int(-4, 0, "y");
  m.add_linear(LinExpr(x) * -2 + LinExpr(y) * 3, Cmp::kLe, -5);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_LE(-2 * r.value(x) + 3 * r.value(y), -5);
}

TEST(SolverTest, ClauseUnitPropagation) {
  Model m;
  const VarId a = m.new_bool("a");
  const VarId b = m.new_bool("b");
  m.add_clause({pos(a), pos(b)});
  m.add_linear(LinExpr(a), Cmp::kEq, 0);  // a = 0 forces b = 1
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(b), 1);
  EXPECT_EQ(r.decisions, 0);
}

TEST(SolverTest, PigeonholeUnsat) {
  // 4 pigeons, 3 holes: each pigeon in exactly one hole, holes hold <= 1.
  Model m;
  constexpr int kP = 4;
  constexpr int kH = 3;
  std::vector<std::vector<VarId>> in(kP);
  for (int p = 0; p < kP; ++p) {
    LinExpr sum;
    for (int h = 0; h < kH; ++h) {
      in[p].push_back(m.new_bool());
      sum = sum + LinExpr(in[p][h]);
    }
    m.add_linear(sum, Cmp::kEq, 1);
  }
  for (int h = 0; h < kH; ++h) {
    LinExpr sum;
    for (int p = 0; p < kP; ++p) sum = sum + LinExpr(in[p][h]);
    m.add_linear(sum, Cmp::kLe, 1);
  }
  Solver s(m);
  EXPECT_EQ(s.solve().status, Status::kUnsat);
}

TEST(SolverTest, ImpliesGuardForward) {
  // b=1 -> x <= 2; force b=1; x >= 2 => x == 2.
  Model m;
  const VarId b = m.new_bool("b");
  const VarId x = m.new_int(0, 10, "x");
  m.add_implies(pos(b), LinExpr(x), Cmp::kLe, 2);
  m.add_linear(LinExpr(b), Cmp::kEq, 1);
  m.add_linear(LinExpr(x), Cmp::kGe, 2);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(x), 2);
}

TEST(SolverTest, ImpliesGuardContrapositive) {
  // b=1 -> x <= 2, but x >= 5 forced: b must become 0.
  Model m;
  const VarId b = m.new_bool("b");
  const VarId x = m.new_int(0, 10, "x");
  m.add_implies(pos(b), LinExpr(x), Cmp::kLe, 2);
  m.add_linear(LinExpr(x), Cmp::kGe, 5);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(b), 0);
}

TEST(SolverTest, ReifiedBothDirections) {
  Model m;
  const VarId b = m.new_bool("b");
  const VarId x = m.new_int(0, 10, "x");
  m.add_reified(b, LinExpr(x), Cmp::kLe, 3);
  m.add_linear(LinExpr(x), Cmp::kEq, 7);
  Solver s(m);
  auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(b), 0);  // 7 <= 3 is false

  Model m2;
  const VarId b2 = m2.new_bool("b");
  const VarId x2 = m2.new_int(0, 10, "x");
  m2.add_reified(b2, LinExpr(x2), Cmp::kLe, 3);
  m2.add_linear(LinExpr(b2), Cmp::kEq, 0);  // force "not (x <= 3)"
  Solver s2(m2);
  r = s2.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_GE(r.value(x2), 4);
}

TEST(SolverTest, IteSelectsBranch) {
  Model m;
  const VarId c = m.new_bool("c");
  const VarId r1 = m.add_ite(c, LinExpr(10), LinExpr(20), 0, 100, "r");
  m.add_linear(LinExpr(c), Cmp::kEq, 1);
  Solver s(m);
  auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(r1), 10);

  Model m2;
  const VarId c2 = m2.new_bool("c");
  const VarId r2 = m2.add_ite(c2, LinExpr(10), LinExpr(20), 0, 100, "r");
  m2.add_linear(LinExpr(c2), Cmp::kEq, 0);
  Solver s2(m2);
  r = s2.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(r2), 20);
}

TEST(SolverTest, MaxConstraintAttained) {
  Model m;
  const VarId x = m.new_int(0, 5, "x");
  const VarId y = m.new_int(0, 5, "y");
  const VarId mx = m.add_max({x, y}, "max");
  m.add_linear(LinExpr(mx), Cmp::kEq, 4);
  m.add_linear(LinExpr(x), Cmp::kLe, 2);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(y), 4);  // only y can attain the max
  EXPECT_EQ(std::max(r.value(x), r.value(y)), 4);
}

TEST(SolverTest, MaxCannotExceedAllVars) {
  Model m;
  const VarId x = m.new_int(0, 3, "x");
  const VarId y = m.new_int(0, 3, "y");
  const VarId mx = m.add_max({x, y});
  m.add_linear(LinExpr(mx), Cmp::kEq, 5);  // impossible
  Solver s(m);
  EXPECT_EQ(s.solve().status, Status::kUnsat);
}

TEST(SolverTest, AbsValueExact) {
  for (const std::int64_t target : {-7LL, 0LL, 7LL}) {
    Model m;
    const VarId x = m.new_int(-10, 10, "x");
    const VarId d = m.add_abs(LinExpr(x) - LinExpr(3), 20, "d");
    m.add_linear(LinExpr(x), Cmp::kEq, target);
    Solver s(m);
    const auto r = s.solve();
    ASSERT_EQ(r.status, Status::kSat) << "target " << target;
    EXPECT_EQ(r.value(d), std::abs(target - 3));
  }
}

TEST(SolverTest, MinimizeSimpleLP) {
  // min x + y s.t. x + 2y >= 7, x,y in [0,10] -> optimum 4 at (1,3)? No:
  // x+2y>=7 minimising x+y: best is y as large as useful: (0,4)->4? x+2y=8
  // ok cost 4; (1,3) cost 4 too; optimum is 4.
  Model m;
  const VarId x = m.new_int(0, 10, "x");
  const VarId y = m.new_int(0, 10, "y");
  m.add_linear(LinExpr(x) + LinExpr(y) * 2, Cmp::kGe, 7);
  m.minimize(LinExpr(x) + LinExpr(y));
  Solver s(m);
  const auto r = s.minimize();
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.objective, 4);
}

TEST(SolverTest, MinimizeWithConstantInObjective) {
  Model m;
  const VarId x = m.new_int(2, 9, "x");
  m.minimize(LinExpr(x) + LinExpr(100));
  Solver s(m);
  const auto r = s.minimize();
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.objective, 102);
  EXPECT_EQ(r.value(x), 2);
}

TEST(SolverTest, MinimizeKnapsackLikeSelection) {
  // Choose items to cover weight >= 10 with min cost.
  // items: (w, c) = (6,5), (5,4), (4,3), (3,1)
  Model m;
  const std::vector<std::pair<int, int>> items{{6, 5}, {5, 4}, {4, 3}, {3, 1}};
  LinExpr weight;
  LinExpr cost;
  std::vector<VarId> take;
  for (const auto& [w, c] : items) {
    const VarId b = m.new_bool();
    take.push_back(b);
    weight = weight + LinExpr(b) * w;
    cost = cost + LinExpr(b) * c;
  }
  m.add_linear(weight, Cmp::kGe, 10);
  m.minimize(cost);
  Solver s(m);
  const auto r = s.minimize();
  ASSERT_EQ(r.status, Status::kOptimal);
  // Best: items 2 and 3 (w=7) no... need >=10: {0,3}: w9 no; {0,2}: w10 c8;
  // {1,2}: w9 no; {0,1}: w11 c9; {1,2,3} w12 c8; {0,2,3} w13 c9; {2,3} w7.
  // Optimum cost is 8.
  EXPECT_EQ(r.objective, 8);
}

TEST(SolverTest, UnsatMinimizeReportsUnknownNoSolution) {
  Model m;
  const VarId x = m.new_int(0, 3, "x");
  m.add_linear(LinExpr(x), Cmp::kGe, 5);
  m.minimize(LinExpr(x));
  Solver s(m);
  const auto r = s.minimize();
  EXPECT_FALSE(r.has_solution());
  EXPECT_EQ(r.status, Status::kUnsat);
}

TEST(SolverTest, DecisionBudgetReturnsUnknown) {
  // A hard pigeonhole instance with a 1-decision budget must hit UNKNOWN.
  Model m;
  constexpr int kP = 9;
  constexpr int kH = 8;
  std::vector<std::vector<VarId>> in(kP);
  for (int p = 0; p < kP; ++p) {
    LinExpr sum;
    for (int h = 0; h < kH; ++h) {
      in[p].push_back(m.new_bool());
      sum = sum + LinExpr(in[p][h]);
    }
    m.add_linear(sum, Cmp::kEq, 1);
  }
  for (int h = 0; h < kH; ++h) {
    LinExpr sum;
    for (int p = 0; p < kP; ++p) sum = sum + LinExpr(in[p][h]);
    m.add_linear(sum, Cmp::kLe, 1);
  }
  Budget b;
  b.max_decisions = 1;
  Solver s(m, b);
  EXPECT_EQ(s.solve().status, Status::kUnknown);
}

TEST(SolverTest, LargeDomainBisectionIsLogarithmic) {
  // Finding a pinned value in a million-wide domain must take ~log2(1e6)
  // decisions, not a linear scan — validates the domain-splitting search.
  Model m;
  const VarId x = m.new_int(0, 1'000'000, "x");
  const VarId y = m.new_int(0, 1'000'000, "y");
  m.add_linear(LinExpr(x) - LinExpr(y), Cmp::kEq, 123);
  m.add_linear(LinExpr(x) + LinExpr(y), Cmp::kEq, 2 * 123'456 + 123);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(y), 123'456);
  EXPECT_EQ(r.value(x), 123'579);
  EXPECT_LT(r.decisions, 60);
}

TEST(SolverTest, ManyGuardsChainPropagation) {
  // b_i -> x >= i for i = 1..20; forcing all b_i leaves x = 20 by
  // propagation alone.
  Model m;
  const VarId x = m.new_int(0, 20, "x");
  for (int i = 1; i <= 20; ++i) {
    const VarId b = m.new_bool();
    m.add_implies(pos(b), LinExpr(x), Cmp::kGe, i);
    m.add_linear(LinExpr(b), Cmp::kEq, 1);
  }
  m.add_linear(LinExpr(x), Cmp::kLe, 20);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(x), 20);
}

TEST(SolverTest, ZeroCoefficientTermsIgnored) {
  Model m;
  const VarId x = m.new_int(0, 5, "x");
  LinExpr e;
  e.add_term(0, x);  // dropped
  e.add_term(2, x);
  m.add_linear(e, Cmp::kEq, 6);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(x), 3);
}

TEST(FormatTest, RendersDeclarationsAndConstraints) {
  Model m;
  const VarId x = m.new_int(0, 5, "x");
  const VarId b = m.new_bool("b");
  m.add_linear(LinExpr(x) * 2, Cmp::kLe, 7);
  m.add_implies(pos(b), LinExpr(x), Cmp::kGe, 1);
  m.add_clause({pos(b)});
  m.minimize(LinExpr(x));
  const std::string s = to_smtlib(m);
  EXPECT_NE(s.find("(declare-const x Int)"), std::string::npos);
  EXPECT_NE(s.find("(* 2 x)"), std::string::npos);
  EXPECT_NE(s.find("(=> (= b 1)"), std::string::npos);
  EXPECT_NE(s.find("(minimize"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Property tests: random small instances cross-checked against brute force.
// ---------------------------------------------------------------------------

struct RandomInstance {
  int num_vars;
  int num_constraints;
  std::uint64_t seed;
};

class RandomCrossCheck : public ::testing::TestWithParam<RandomInstance> {};

TEST_P(RandomCrossCheck, MatchesBruteForce) {
  const auto& param = GetParam();
  fmnet::Rng rng(param.seed);

  constexpr std::int64_t kLo = 0;
  constexpr std::int64_t kHi = 4;
  Model m;
  std::vector<VarId> vars;
  for (int v = 0; v < param.num_vars; ++v) {
    vars.push_back(m.new_int(kLo, kHi));
  }
  struct RawConstraint {
    std::vector<std::int64_t> coefs;
    Cmp cmp;
    std::int64_t rhs;
  };
  std::vector<RawConstraint> raw;
  for (int c = 0; c < param.num_constraints; ++c) {
    RawConstraint rc;
    LinExpr e;
    for (int v = 0; v < param.num_vars; ++v) {
      const std::int64_t coef = rng.uniform_int(-2, 2);
      rc.coefs.push_back(coef);
      e.add_term(coef, vars[v]);
    }
    const int which = static_cast<int>(rng.uniform_int(0, 2));
    rc.cmp = which == 0 ? Cmp::kLe : (which == 1 ? Cmp::kGe : Cmp::kEq);
    rc.rhs = rng.uniform_int(-4, 8);
    raw.push_back(rc);
    m.add_linear(e, rc.cmp, rc.rhs);
  }
  // Objective: minimise a random positive combination.
  LinExpr obj;
  std::vector<std::int64_t> obj_coefs;
  for (int v = 0; v < param.num_vars; ++v) {
    const std::int64_t coef = rng.uniform_int(0, 3);
    obj_coefs.push_back(coef);
    obj.add_term(coef, vars[v]);
  }
  m.minimize(obj);

  // Brute force over (kHi-kLo+1)^num_vars assignments.
  std::int64_t best = -1;
  std::vector<std::int64_t> assign(param.num_vars, kLo);
  while (true) {
    bool feasible = true;
    for (const RawConstraint& rc : raw) {
      std::int64_t act = 0;
      for (int v = 0; v < param.num_vars; ++v) {
        act += rc.coefs[v] * assign[v];
      }
      const bool ok = rc.cmp == Cmp::kLe   ? act <= rc.rhs
                      : rc.cmp == Cmp::kGe ? act >= rc.rhs
                                           : act == rc.rhs;
      if (!ok) {
        feasible = false;
        break;
      }
    }
    if (feasible) {
      std::int64_t o = 0;
      for (int v = 0; v < param.num_vars; ++v) o += obj_coefs[v] * assign[v];
      if (best < 0 || o < best) best = o;
    }
    int d = 0;
    while (d < param.num_vars && ++assign[d] > kHi) {
      assign[d] = kLo;
      ++d;
    }
    if (d == param.num_vars) break;
  }

  Solver s(m);
  const auto r = s.minimize();
  if (best < 0) {
    EXPECT_EQ(r.status, Status::kUnsat) << "seed " << param.seed;
  } else {
    ASSERT_EQ(r.status, Status::kOptimal) << "seed " << param.seed;
    EXPECT_EQ(r.objective, best) << "seed " << param.seed;
    // Returned assignment must itself be feasible.
    for (const RawConstraint& rc : raw) {
      std::int64_t act = 0;
      for (int v = 0; v < param.num_vars; ++v) {
        act += rc.coefs[v] * r.value(vars[v]);
      }
      const bool ok = rc.cmp == Cmp::kLe   ? act <= rc.rhs
                      : rc.cmp == Cmp::kGe ? act >= rc.rhs
                                           : act == rc.rhs;
      EXPECT_TRUE(ok) << "seed " << param.seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Regression tests for the solver bugfixes: 64-bit overflow in propagation,
// minimize() wall-clock budget, and the solve/search counter schema.
// ---------------------------------------------------------------------------

TEST(SolverOverflowTest, WideDomainLinearPropagationIsExact) {
  // The minimum activity of -8x - 8y with x,y in [0, 2^60] is -2^64,
  // far outside int64: the solver must accumulate activities in 128 bits
  // and only saturate when writing variable bounds. A naive 64-bit
  // accumulation wraps and mis-propagates. x is kept on a small domain so
  // the cap/constraint interplay converges quickly; the optimum is
  // exactly 2^60 - 1.
  constexpr std::int64_t kHuge = std::int64_t{1} << 60;
  Model m;
  const VarId x = m.new_int(0, 5, "x");
  const VarId y = m.new_int(0, kHuge, "y");
  m.add_linear(LinExpr(x) * 8 + LinExpr(y) * 8, Cmp::kGe,
               std::numeric_limits<std::int64_t>::max() - 7);  // 2^63 - 8
  m.minimize(LinExpr(x) + LinExpr(y));
  Solver s(m);
  const auto r = s.minimize();
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.objective, kHuge - 1);
  const auto activity = static_cast<__int128>(r.value(x)) * 8 +
                        static_cast<__int128>(r.value(y)) * 8;
  EXPECT_TRUE(activity >= static_cast<__int128>(
                              std::numeric_limits<std::int64_t>::max() - 7));
}

TEST(SolverOverflowTest, NearLimitUpperBoundStillSat) {
  // Maximum activity of 2x + 2y with x,y in [0, INT64_MAX/2] is
  // ~2^63.9 — slack arithmetic must not wrap. Propagation alone pins
  // x = kBig - 1 (from the lower bound) and y = 0 (from the cap).
  constexpr std::int64_t kBig = std::numeric_limits<std::int64_t>::max() / 2;
  Model m;
  const VarId x = m.new_int(0, kBig, "x");
  const VarId y = m.new_int(0, kBig, "y");
  m.add_linear(LinExpr(x) * 2 + LinExpr(y) * 2, Cmp::kLe,
               std::numeric_limits<std::int64_t>::max() - 2);
  m.add_linear(LinExpr(x), Cmp::kGe, kBig - 1);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(x), kBig - 1);
  EXPECT_EQ(r.value(y), 0);
}

TEST(SolverOverflowTest, NegatedHugeCoefficientsUnsatDetected) {
  // -7x <= -(2^62) forces x >= 2^62/7; combined with a small upper bound
  // the system is UNSAT. The old 64-bit floor-division path overflowed on
  // the intermediate product.
  constexpr std::int64_t kHuge = std::int64_t{1} << 62;
  Model m;
  const VarId x = m.new_int(0, 1'000'000, "x");
  m.add_linear(LinExpr(x) * -7, Cmp::kLe, -kHuge);
  Solver s(m);
  EXPECT_EQ(s.solve().status, Status::kUnsat);
}

namespace {
// P pigeons into P-1 holes with a per-pigeon "unplaced" escape variable;
// minimising unplaced pigeons has optimum 1 but proving it (the cap-0
// search) is a full pigeonhole refutation — exponentially hard for a
// chronological-backtracking solver, ideal for budget tests.
Model escape_pigeonhole(int pigeons) {
  Model m;
  const int holes = pigeons - 1;
  std::vector<std::vector<VarId>> in(static_cast<std::size_t>(pigeons));
  LinExpr unplaced;
  for (int p = 0; p < pigeons; ++p) {
    const VarId u = m.new_bool();
    LinExpr placed(u);
    for (int h = 0; h < holes; ++h) {
      in[static_cast<std::size_t>(p)].push_back(m.new_bool());
      placed = placed + LinExpr(in[static_cast<std::size_t>(p)].back());
    }
    m.add_linear(placed, Cmp::kGe, 1);
    unplaced = unplaced + LinExpr(u);
  }
  for (int h = 0; h < holes; ++h) {
    LinExpr col;
    for (int p = 0; p < pigeons; ++p) {
      col = col + LinExpr(in[static_cast<std::size_t>(p)]
                            [static_cast<std::size_t>(h)]);
    }
    m.add_linear(col, Cmp::kLe, 1);
  }
  m.minimize(unplaced);
  return m;
}
}  // namespace

TEST(SolverBudgetTest, MinimizeHonoursWallClockAcrossSearches) {
  // max_seconds bounds the WHOLE minimize — incumbent searches, every
  // improvement search and the optimality proof share one clock. The old
  // solver re-armed a fresh stopwatch per inner search, so a minimize
  // could run a multiple of its budget.
  const Model m = escape_pigeonhole(14);
  Budget b;
  b.max_decisions = std::numeric_limits<std::int64_t>::max() / 4;
  b.max_seconds = 0.3;
  Solver s(m, b);
  fmnet::Stopwatch clock;
  const auto r = s.minimize();
  const double elapsed = clock.elapsed_seconds();
  EXPECT_LT(elapsed, 1.2) << "budget 0.3s overran to " << elapsed << "s";
  // The easy incumbent (all pigeons unplaced, then improvements) is found
  // well inside the budget; the cap-0 proof is what exhausts it.
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_TRUE(r.has_solution());
  EXPECT_GE(r.objective, 1);
}

TEST(SolverCounterTest, OneMinimizeIsOneSolveManySearches) {
  auto& reg = obs::Registry::global();
  const std::int64_t solves0 = reg.counter("smt.solves").value();
  const std::int64_t searches0 = reg.counter("smt.searches").value();

  Model m;
  const VarId x = m.new_int(0, 50, "x");
  const VarId y = m.new_int(0, 50, "y");
  m.add_linear(LinExpr(x) + LinExpr(y), Cmp::kGe, 20);
  m.minimize(LinExpr(x) + LinExpr(y) * 2);
  Solver s(m);
  const auto r = s.minimize();
  ASSERT_EQ(r.status, Status::kOptimal);

  // One user-level minimize = exactly one smt.solves, regardless of how
  // many inner branch-and-bound searches it ran; those are smt.searches.
  EXPECT_EQ(reg.counter("smt.solves").value() - solves0, 1);
  EXPECT_EQ(reg.counter("smt.searches").value() - searches0, r.searches);
  EXPECT_GE(r.searches, 2);  // incumbent search + at least the extraction

  const std::int64_t solves1 = reg.counter("smt.solves").value();
  const std::int64_t searches1 = reg.counter("smt.searches").value();
  Solver s2(m);
  const auto r2 = s2.solve();
  ASSERT_EQ(r2.status, Status::kSat);
  EXPECT_EQ(reg.counter("smt.solves").value() - solves1, 1);
  EXPECT_EQ(reg.counter("smt.searches").value() - searches1, 1);
  EXPECT_EQ(r2.searches, 1);
}

TEST(SolverGuardTest, GuardBackPropagatesToFalseWhenBodyImpossible) {
  // b -> x >= 5 while x is pinned to 2: the guard literal must be forced
  // to its opposite polarity by propagation alone (zero decisions).
  Model m;
  const VarId x = m.new_int(0, 3, "x");
  const VarId b = m.new_bool("b");
  m.add_linear(LinExpr(x), Cmp::kEq, 2);
  m.add_implies(pos(b), LinExpr(x), Cmp::kGe, 5);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(b), 0);
  EXPECT_EQ(r.value(x), 2);
  EXPECT_EQ(r.decisions, 0);
}

TEST(SolverGuardTest, NegativeGuardBackPropagatesToTrue) {
  // ¬b -> x >= 5 while x is pinned to 2 forces b = 1, again by pure
  // propagation.
  Model m;
  const VarId x = m.new_int(0, 3, "x");
  const VarId b = m.new_bool("b");
  m.add_linear(LinExpr(x), Cmp::kEq, 2);
  m.add_implies(neg(b), LinExpr(x), Cmp::kGe, 5);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(b), 1);
  EXPECT_EQ(r.decisions, 0);
}

TEST(SolverGuardTest, FixedOppositeGuardLeavesBodyInactive) {
  // b fixed to 0 keeps "b -> x >= 5" inactive: x keeps its full domain.
  Model m;
  const VarId x = m.new_int(0, 3, "x");
  const VarId b = m.new_bool("b");
  m.add_clause({neg(b)});
  m.add_implies(pos(b), LinExpr(x), Cmp::kGe, 5);
  m.add_linear(LinExpr(x), Cmp::kGe, 2);
  Solver s(m);
  const auto r = s.solve();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_EQ(r.value(b), 0);
  EXPECT_GE(r.value(x), 2);
}

TEST(SolverSplitTest, EqConstraintUnderMinimizeSplitsToOptimum) {
  // 3x + 5y = 2014 admits no propagation-only fixpoint — the solver must
  // bisect domains under branch-and-bound. Optimum of x + y is 404 at
  // (3, 401): x ≡ 3 (mod 5) and larger x trades 5y for 3x at a loss.
  Model m;
  const VarId x = m.new_int(0, 1000, "x");
  const VarId y = m.new_int(0, 1000, "y");
  m.add_linear(LinExpr(x) * 3 + LinExpr(y) * 5, Cmp::kEq, 2014);
  m.minimize(LinExpr(x) + LinExpr(y));
  Solver s(m);
  const auto r = s.minimize();
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.objective, 404);
  EXPECT_EQ(r.value(x), 3);
  EXPECT_EQ(r.value(y), 401);
}

TEST(SolverStatusTest, BudgetLimitedMinimizeIsSatNotOptimal) {
  // With a decision budget big enough to find an incumbent but not to
  // finish the optimality proof, minimize must report kSat (feasible,
  // unproven) — kOptimal is reserved for proven optima.
  const Model m = escape_pigeonhole(12);
  Budget limited;
  limited.max_decisions = 400;
  Solver s(m, limited);
  const auto r = s.minimize();
  ASSERT_EQ(r.status, Status::kSat);
  EXPECT_TRUE(r.has_solution());
  EXPECT_GE(r.objective, 1);
}

// ---------------------------------------------------------------------------
// Warm starts, canonical extraction, the repair cache and repair keys.
// ---------------------------------------------------------------------------

namespace {
Model small_repair_model(
    const std::vector<std::int64_t>& target = {3, 0, 5, 2, 0, 4}) {
  // A CEM-shaped miniature: values with per-step targets, an upper bound
  // and a nonzero-count cap; minimise total deviation.
  Model m;
  LinExpr dev;
  LinExpr nonzero;
  for (std::size_t t = 0; t < target.size(); ++t) {
    const VarId q = m.new_int(0, 6);
    dev.add_term(1, m.add_abs(LinExpr(q) - LinExpr(target[t]), 12));
    const VarId ne = m.new_bool();
    m.add_reified(ne, LinExpr(q), Cmp::kGe, 1);
    nonzero.add_term(1, ne);
  }
  m.add_linear(nonzero, Cmp::kLe, 2);
  m.minimize(dev);
  return m;
}
}  // namespace

TEST(SolverWarmStartTest, WarmAndColdProduceIdenticalResults) {
  const Model m = small_repair_model();
  Solver cold(m);
  const auto rc = cold.minimize();
  ASSERT_EQ(rc.status, Status::kOptimal);

  // Warm-start from the cold solution: same status, objective and
  // assignment, with the flag set and no extra incumbent search.
  WarmStart warm;
  for (std::size_t v = 0; v < rc.assignment.size(); ++v) {
    warm.hints.emplace_back(VarId{static_cast<std::int32_t>(v)},
                            rc.assignment[v]);
  }
  Solver w(m);
  const auto rw = w.minimize(warm);
  ASSERT_EQ(rw.status, Status::kOptimal);
  EXPECT_TRUE(rw.warm_started);
  EXPECT_EQ(rw.objective, rc.objective);
  EXPECT_EQ(rw.assignment, rc.assignment);
  EXPECT_LE(rw.decisions, rc.decisions);
}

TEST(SolverWarmStartTest, InfeasibleHintsAreDiscarded) {
  Model m;
  const VarId x = m.new_int(0, 10, "x");
  const VarId y = m.new_int(0, 10, "y");
  m.add_linear(LinExpr(x) + LinExpr(y), Cmp::kEq, 7);
  m.minimize(LinExpr(x));
  WarmStart bogus;
  bogus.hints.emplace_back(x, 9);
  bogus.hints.emplace_back(y, 9);  // 18 != 7 — not a feasible candidate
  Solver s(m);
  const auto r = s.minimize(bogus);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_FALSE(r.warm_started);
  EXPECT_EQ(r.objective, 0);
  EXPECT_EQ(r.value(x), 0);
  EXPECT_EQ(r.value(y), 7);
}

TEST(SolverWarmStartTest, PartialHintsAreCompletedByPropagation) {
  Model m;
  const VarId x = m.new_int(0, 10, "x");
  const VarId y = m.new_int(0, 10, "y");
  m.add_linear(LinExpr(x) + LinExpr(y), Cmp::kEq, 7);
  m.minimize(LinExpr(x) * 3 + LinExpr(y));
  WarmStart partial;
  partial.hints.emplace_back(x, 2);  // y is left to the completion dive
  Solver s(m);
  const auto r = s.minimize(partial);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_TRUE(r.warm_started);
  EXPECT_EQ(r.objective, 7);  // x=0, y=7
}

TEST(SolverWarmStartTest, DifferingHintsExtractTheSameAssignment) {
  // Three steps tie for the two non-empty slots, so the model has three
  // optimal assignments. Warm starts from each of them, and from a worse
  // one, seed different incumbents; canonical extraction must still
  // return the cold solve's assignment every time.
  const std::vector<std::int64_t> target{3, 0, 3, 2, 0, 3};
  const Model m = small_repair_model(target);
  Solver cold(m);
  const auto base = cold.minimize();
  ASSERT_EQ(base.status, Status::kOptimal);
  ASSERT_EQ(base.objective, 5);
  // q_t is the first variable of step t's block of four (q, |dev|, sign,
  // non-empty).
  const std::vector<std::vector<std::int64_t>> candidates{
      {3, 0, 3, 0, 0, 0},
      {0, 0, 3, 0, 0, 3},
      {3, 0, 0, 0, 0, 3},
      {0, 0, 0, 0, 0, 0}};
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    WarmStart warm;
    for (std::size_t t = 0; t < target.size(); ++t) {
      warm.hints.emplace_back(VarId{static_cast<std::int32_t>(4 * t)},
                              candidates[k][t]);
    }
    Solver s(m);
    const auto r = s.minimize(warm);
    ASSERT_EQ(r.status, Status::kOptimal) << "hint " << k;
    EXPECT_TRUE(r.warm_started) << "hint " << k;
    EXPECT_EQ(r.objective, base.objective) << "hint " << k;
    EXPECT_EQ(r.assignment, base.assignment) << "hint " << k;
  }
}

TEST(SolveCacheTest, HitReturnsIdenticalResultAndCounts) {
  SolveCache::global().clear();
  auto& reg = obs::Registry::global();
  const std::int64_t hits0 = reg.counter("smt.cache.hit").value();
  const std::int64_t miss0 = reg.counter("smt.cache.miss").value();

  const Model m = small_repair_model();
  RepairOptions ro;
  ro.use_cache = true;
  const auto first = repair_minimize(m, ro, nullptr);
  ASSERT_EQ(first.status, Status::kOptimal);
  EXPECT_FALSE(first.from_cache);

  const auto second = repair_minimize(m, ro, nullptr);
  ASSERT_EQ(second.status, Status::kOptimal);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.objective, first.objective);
  EXPECT_EQ(second.assignment, first.assignment);
  EXPECT_EQ(reg.counter("smt.cache.hit").value() - hits0, 1);
  EXPECT_EQ(reg.counter("smt.cache.miss").value() - miss0, 1);
  SolveCache::global().clear();
}

TEST(SolveCacheTest, CacheOffNeverMarksFromCache) {
  SolveCache::global().clear();
  const Model m = small_repair_model();
  RepairOptions ro;
  ro.use_cache = false;
  const auto first = repair_minimize(m, ro, nullptr);
  const auto second = repair_minimize(m, ro, nullptr);
  EXPECT_FALSE(first.from_cache);
  EXPECT_FALSE(second.from_cache);
  EXPECT_EQ(SolveCache::global().size(), 0u);
}

namespace {

// A model as plain data, so the key tests can permute and mutate it before
// building. Variables [0, num_bools) are 0/1; the rest are integers.
struct KeySpec {
  struct Term {
    std::int64_t coef;
    std::int32_t var;
    friend bool operator==(const Term&, const Term&) = default;
  };
  struct Constraint {
    std::vector<Term> terms;
    Cmp cmp = Cmp::kLe;
    std::int64_t rhs = 0;
    std::int32_t guard = -1;  // -1 = unguarded
    bool guard_value = true;
    friend bool operator==(const Constraint&, const Constraint&) = default;
  };
  struct Lit {
    std::int32_t var;
    bool positive;
    friend bool operator==(const Lit&, const Lit&) = default;
  };
  std::int32_t num_bools = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> bounds;
  std::vector<Constraint> constraints;
  std::vector<std::vector<Lit>> clauses;
  std::int64_t objective_constant = 0;
  std::vector<Term> objective;
};

Model build_key_model(const KeySpec& s, const std::string& prefix) {
  Model m;
  for (std::size_t v = 0; v < s.bounds.size(); ++v) {
    std::string name(prefix);
    name += std::to_string(v);
    m.new_int(s.bounds[v].first, s.bounds[v].second, std::move(name));
  }
  auto expr = [](const std::vector<KeySpec::Term>& terms) {
    LinExpr e;
    for (const KeySpec::Term& t : terms) e.add_term(t.coef, VarId{t.var});
    return e;
  };
  for (const KeySpec::Constraint& c : s.constraints) {
    if (c.guard < 0) {
      m.add_linear(expr(c.terms), c.cmp, c.rhs);
    } else {
      m.add_implies(BoolLit{VarId{c.guard}, c.guard_value}, expr(c.terms),
                    c.cmp, c.rhs);
    }
  }
  for (const auto& clause : s.clauses) {
    std::vector<BoolLit> lits;
    for (const KeySpec::Lit& l : clause) {
      lits.push_back(BoolLit{VarId{l.var}, l.positive});
    }
    m.add_clause(std::move(lits));
  }
  m.minimize(expr(s.objective) + LinExpr(s.objective_constant));
  return m;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(i) - 1))]);
  }
}

std::int64_t nonzero_coef(Rng& rng) {
  const std::int64_t c = rng.uniform_int(-4, 3);
  return c >= 0 ? c + 1 : c;
}

// Terms over `count` distinct variables with nonzero coefficients, so
// LinExpr neither merges nor drops any of them.
std::vector<KeySpec::Term> random_terms(std::int32_t num_vars, int count,
                                        Rng& rng) {
  std::vector<std::int32_t> vars(static_cast<std::size_t>(num_vars));
  for (std::int32_t v = 0; v < num_vars; ++v) vars[v] = v;
  shuffle(vars, rng);
  std::vector<KeySpec::Term> terms;
  for (int k = 0; k < count && k < num_vars; ++k) {
    terms.push_back({nonzero_coef(rng), vars[static_cast<std::size_t>(k)]});
  }
  return terms;
}

// At least two booleans, one integer, one guarded constraint, one clause
// and one objective term, so every mutation below has a target.
KeySpec random_key_spec(Rng& rng) {
  KeySpec s;
  s.num_bools = static_cast<std::int32_t>(rng.uniform_int(2, 4));
  const auto num_ints = static_cast<std::int32_t>(rng.uniform_int(1, 4));
  for (std::int32_t v = 0; v < s.num_bools; ++v) s.bounds.emplace_back(0, 1);
  for (std::int32_t v = 0; v < num_ints; ++v) {
    const std::int64_t lo = rng.uniform_int(-5, 5);
    s.bounds.emplace_back(lo, lo + rng.uniform_int(0, 10));
  }
  const auto num_vars = static_cast<std::int32_t>(s.bounds.size());
  const auto num_constraints = rng.uniform_int(2, 6);
  for (std::int64_t k = 0; k < num_constraints; ++k) {
    KeySpec::Constraint c;
    c.terms = random_terms(num_vars, static_cast<int>(rng.uniform_int(1, 3)),
                           rng);
    c.cmp = static_cast<Cmp>(rng.uniform_int(0, 2));
    c.rhs = rng.uniform_int(-10, 10);
    if (k == 0 || rng.bernoulli(0.5)) {
      c.guard = static_cast<std::int32_t>(rng.uniform_int(0, s.num_bools - 1));
      c.guard_value = rng.bernoulli(0.5);
    }
    s.constraints.push_back(std::move(c));
  }
  const auto num_clauses = rng.uniform_int(1, 3);
  for (std::int64_t k = 0; k < num_clauses; ++k) {
    std::vector<KeySpec::Lit> clause;
    const auto len = rng.uniform_int(1, 3);
    for (std::int64_t i = 0; i < len; ++i) {
      clause.push_back(
          {static_cast<std::int32_t>(rng.uniform_int(0, s.num_bools - 1)),
           rng.bernoulli(0.5)});
    }
    s.clauses.push_back(std::move(clause));
  }
  s.objective_constant = rng.uniform_int(-5, 5);
  s.objective =
      random_terms(num_vars, static_cast<int>(rng.uniform_int(1, 3)), rng);
  return s;
}

template <typename T>
T& pick(std::vector<T>& v, Rng& rng) {
  return v[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
}

std::int64_t changed_coef(std::int64_t c) { return c == -1 ? 1 : c + 1; }

std::int32_t other_bool(const KeySpec& s, std::int32_t var) {
  return (var + 1) % s.num_bools;
}

constexpr int kKeySpecs = 200;

}  // namespace

TEST(CanonicalKeyTest, ConstraintOrderAndNamesDoNotChangeKey) {
  // Property: over random small models, permuting constraints, clauses,
  // the terms of a constraint, the literals of a clause or the terms of
  // the objective, or renaming every variable, leaves the key unchanged.
  using Permute = void (*)(KeySpec&, Rng&);
  const std::vector<std::pair<const char*, Permute>> permutations{
      {"constraints", [](KeySpec& s, Rng& r) { shuffle(s.constraints, r); }},
      {"terms",
       [](KeySpec& s, Rng& r) {
         for (auto& c : s.constraints) shuffle(c.terms, r);
       }},
      {"clauses", [](KeySpec& s, Rng& r) { shuffle(s.clauses, r); }},
      {"literals",
       [](KeySpec& s, Rng& r) {
         for (auto& c : s.clauses) shuffle(c, r);
       }},
      {"objective terms",
       [](KeySpec& s, Rng& r) { shuffle(s.objective, r); }},
      {"all of them", [](KeySpec& s, Rng& r) {
         shuffle(s.constraints, r);
         for (auto& c : s.constraints) shuffle(c.terms, r);
         shuffle(s.clauses, r);
         for (auto& c : s.clauses) shuffle(c, r);
         shuffle(s.objective, r);
       }}};
  Rng rng(2024);
  for (int i = 0; i < kKeySpecs; ++i) {
    const KeySpec spec = random_key_spec(rng);
    const RepairKey base = repair_key(build_key_model(spec, "x"));
    EXPECT_EQ(repair_key(build_key_model(spec, "renamed_")), base)
        << "renaming, spec " << i;
    for (const auto& [what, permute] : permutations) {
      KeySpec permuted = spec;
      permute(permuted, rng);
      EXPECT_EQ(repair_key(build_key_model(permuted, "x")), base)
          << "permuting " << what << ", spec " << i;
    }
  }
}

TEST(CanonicalKeyTest, ChangingAnyOneFieldChangesKey) {
  // Property: over random small models, changing any single field the
  // solver reads gives a different key.
  using Mutate = void (*)(KeySpec&, Rng&);
  const std::vector<std::pair<const char*, Mutate>> mutations{
      {"bound",
       [](KeySpec& s, Rng& r) {
         auto& b = s.bounds[static_cast<std::size_t>(r.uniform_int(
             s.num_bools, static_cast<std::int64_t>(s.bounds.size()) - 1))];
         if (r.bernoulli(0.5)) {
           --b.first;
         } else {
           ++b.second;
         }
       }},
      {"coefficient",
       [](KeySpec& s, Rng& r) {
         auto& t = pick(pick(s.constraints, r).terms, r);
         t.coef = changed_coef(t.coef);
       }},
      {"rhs", [](KeySpec& s, Rng& r) { ++pick(s.constraints, r).rhs; }},
      {"cmp",
       [](KeySpec& s, Rng& r) {
         auto& c = pick(s.constraints, r);
         c.cmp = static_cast<Cmp>((static_cast<int>(c.cmp) + 1) % 3);
       }},
      {"guard var",
       [](KeySpec& s, Rng&) {
         s.constraints[0].guard = other_bool(s, s.constraints[0].guard);
       }},
      {"guard value",
       [](KeySpec& s, Rng&) {
         s.constraints[0].guard_value = !s.constraints[0].guard_value;
       }},
      {"clause literal polarity",
       [](KeySpec& s, Rng& r) {
         auto& l = pick(pick(s.clauses, r), r);
         l.positive = !l.positive;
       }},
      {"clause literal var",
       [](KeySpec& s, Rng& r) {
         auto& l = pick(pick(s.clauses, r), r);
         l.var = other_bool(s, l.var);
       }},
      {"objective constant",
       [](KeySpec& s, Rng&) { ++s.objective_constant; }},
      {"objective coefficient", [](KeySpec& s, Rng& r) {
         auto& t = pick(s.objective, r);
         t.coef = changed_coef(t.coef);
       }}};
  Rng rng(4048);
  for (int i = 0; i < kKeySpecs; ++i) {
    const KeySpec spec = random_key_spec(rng);
    const RepairKey base = repair_key(build_key_model(spec, "x"));
    for (const auto& [what, mutate] : mutations) {
      KeySpec mutated = spec;
      mutate(mutated, rng);
      EXPECT_NE(repair_key(build_key_model(mutated, "x")), base)
          << "changing a " << what << ", spec " << i;
    }
  }
}

TEST(CanonicalKeyTest, RepeatedItemsDoNotCancel) {
  // A constraint or clause that appears twice still counts twice: the
  // model with items {A, A, rest} and the one with {B, B, rest} differ
  // whenever A and B do (an XOR-combined multiset would map both to
  // {rest}).
  Rng rng(8096);
  int compared = 0;
  for (int i = 0; i < kKeySpecs; ++i) {
    const KeySpec spec = random_key_spec(rng);
    if (spec.constraints[0] != spec.constraints[1]) {
      KeySpec twice_a = spec;
      twice_a.constraints[1] = spec.constraints[0];
      KeySpec twice_b = spec;
      twice_b.constraints[0] = spec.constraints[1];
      EXPECT_NE(repair_key(build_key_model(twice_a, "x")),
                repair_key(build_key_model(twice_b, "x")))
          << "constraints, spec " << i;
      ++compared;
    }
    if (spec.clauses.size() >= 2 && spec.clauses[0] != spec.clauses[1]) {
      KeySpec twice_a = spec;
      twice_a.clauses[1] = spec.clauses[0];
      KeySpec twice_b = spec;
      twice_b.clauses[0] = spec.clauses[1];
      EXPECT_NE(repair_key(build_key_model(twice_a, "x")),
                repair_key(build_key_model(twice_b, "x")))
          << "clauses, spec " << i;
      ++compared;
    }
  }
  EXPECT_GT(compared, kKeySpecs);
}

std::vector<RandomInstance> make_instances() {
  std::vector<RandomInstance> out;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    out.push_back({3 + static_cast<int>(seed % 3),
                   2 + static_cast<int>(seed % 4), seed * 7919});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    RandomLIA, RandomCrossCheck, ::testing::ValuesIn(make_instances()),
    [](const ::testing::TestParamInfo<RandomInstance>& pinfo) {
      std::string name = "v";
      name += std::to_string(pinfo.param.num_vars);
      name += "c";
      name += std::to_string(pinfo.param.num_constraints);
      name += "s";
      name += std::to_string(pinfo.param.seed);
      return name;
    });

}  // namespace
}  // namespace fmnet::smt
