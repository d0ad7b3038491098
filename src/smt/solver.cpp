#include "smt/solver.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "util/check.h"

namespace fmnet::smt {

namespace {

// Exact 128-bit intermediates: every coef·bound product fits in 127 bits,
// so linear activities are accumulated without the int64 overflow UB the
// old solver had on wide domains. Results saturate back to int64 only when
// written as variable bounds, which can only *loosen* a propagated bound —
// sound, never lossy for feasibility.
using I128 = __int128;

std::int64_t sat64(I128 v) {
  constexpr I128 kMax = std::numeric_limits<std::int64_t>::max();
  constexpr I128 kMin = std::numeric_limits<std::int64_t>::min();
  if (v > kMax) return std::numeric_limits<std::int64_t>::max();
  if (v < kMin) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(v);
}

// Floor division for possibly-negative operands (C++ '/' truncates).
I128 floor_div(I128 a, I128 b) {
  I128 q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

// "Unbounded" rhs for the not-yet-armed objective cap constraints.
constexpr std::int64_t kCapInfinity =
    std::numeric_limits<std::int64_t>::max() / 4;

// Process-wide solver accounting, aggregated across every solve on every
// thread (CEM windows run concurrently on the pool). One record per
// user-visible solve/minimize; inner branch-and-bound searches are reported
// distinctly as smt.searches so per-solve averages stay honest.
void record_solve(const SolveResult& r) {
  auto& reg = obs::Registry::global();
  static obs::Counter& solves = reg.counter("smt.solves");
  static obs::Counter& searches = reg.counter("smt.searches");
  static obs::Counter& decisions = reg.counter("smt.decisions");
  static obs::Counter& propagations = reg.counter("smt.propagations");
  static obs::Counter& conflicts = reg.counter("smt.conflicts");
  static obs::Counter& timeouts = reg.counter("smt.timeouts");
  static obs::Counter& unsat = reg.counter("smt.unsat");
  solves.add(1);
  searches.add(r.searches);
  decisions.add(r.decisions);
  propagations.add(r.propagations);
  conflicts.add(r.conflicts);
  if (r.status == Status::kUnknown) timeouts.add(1);
  if (r.status == Status::kUnsat) unsat.add(1);
}

}  // namespace

Solver::Solver(const Model& model, Budget budget)
    : model_(model), budget_(budget) {
  lo_ = model.lower_bounds();
  hi_ = model.upper_bounds();

  // Normalise every linear constraint to <= form (Eq splits into two).
  for (const LinearConstraint& c : model.linear_constraints()) {
    auto push = [&](bool negate) {
      NormalisedConstraint n;
      n.rhs = negate ? -c.rhs : c.rhs;
      n.guard_var = c.guard_var;
      n.guard_value = c.guard_value;
      n.terms.reserve(c.terms.size());
      for (const auto& [coef, var] : c.terms) {
        n.terms.emplace_back(negate ? -coef : coef, var);
      }
      constraints_.push_back(std::move(n));
    };
    switch (c.cmp) {
      case Cmp::kLe:
        push(false);
        break;
      case Cmp::kGe:
        push(true);
        break;
      case Cmp::kEq:
        push(false);
        push(true);
        break;
    }
  }

  var_to_constraints_.resize(lo_.size());
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    for (const auto& [coef, var] : constraints_[i].terms) {
      var_to_constraints_[var].push_back(i);
    }
    if (constraints_[i].guard_var >= 0) {
      var_to_constraints_[constraints_[i].guard_var].push_back(i);
    }
  }
  var_to_clauses_.resize(lo_.size());
  const auto& clauses = model.clauses();
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    for (const BoolLit& l : clauses[i]) {
      var_to_clauses_[l.var.id].push_back(i);
    }
  }
  constraint_dirty_flag_.assign(constraints_.size(), 0);
  clause_dirty_flag_.assign(clauses.size(), 0);
}

bool Solver::set_hi(std::int32_t var, std::int64_t value) {
  if (value >= hi_[var]) return true;
  trail_.push_back({var, true, hi_[var]});
  hi_[var] = value;
  if (lo_[var] > hi_[var]) return false;
  for (const std::size_t ci : var_to_constraints_[var]) {
    if (!constraint_dirty_flag_[ci]) {
      constraint_dirty_flag_[ci] = 1;
      dirty_constraints_.push_back(ci);
    }
  }
  for (const std::size_t ci : var_to_clauses_[var]) {
    if (!clause_dirty_flag_[ci]) {
      clause_dirty_flag_[ci] = 1;
      dirty_clauses_.push_back(ci);
    }
  }
  return true;
}

bool Solver::set_lo(std::int32_t var, std::int64_t value) {
  if (value <= lo_[var]) return true;
  trail_.push_back({var, false, lo_[var]});
  lo_[var] = value;
  if (lo_[var] > hi_[var]) return false;
  for (const std::size_t ci : var_to_constraints_[var]) {
    if (!constraint_dirty_flag_[ci]) {
      constraint_dirty_flag_[ci] = 1;
      dirty_constraints_.push_back(ci);
    }
  }
  for (const std::size_t ci : var_to_clauses_[var]) {
    if (!clause_dirty_flag_[ci]) {
      clause_dirty_flag_[ci] = 1;
      dirty_clauses_.push_back(ci);
    }
  }
  return true;
}

void Solver::undo_to(std::size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry& e = trail_.back();
    (e.is_hi ? hi_ : lo_)[e.var] = e.old_value;
    trail_.pop_back();
  }
}

void Solver::clear_dirty() {
  for (const std::size_t idx : dirty_constraints_) {
    constraint_dirty_flag_[idx] = 0;
  }
  dirty_constraints_.clear();
  for (const std::size_t idx : dirty_clauses_) clause_dirty_flag_[idx] = 0;
  dirty_clauses_.clear();
}

void Solver::mark_constraint_dirty(std::size_t idx) {
  if (!constraint_dirty_flag_[idx]) {
    constraint_dirty_flag_[idx] = 1;
    dirty_constraints_.push_back(idx);
  }
}

void Solver::mark_all_dirty() {
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    mark_constraint_dirty(i);
  }
  for (std::size_t i = 0; i < model_.clauses().size(); ++i) {
    if (!clause_dirty_flag_[i]) {
      clause_dirty_flag_[i] = 1;
      dirty_clauses_.push_back(i);
    }
  }
}

bool Solver::propagate_linear(std::size_t idx) {
  const NormalisedConstraint& c = constraints_[idx];
  // Guard handling.
  bool active = true;
  if (c.guard_var >= 0) {
    const std::int64_t g_lo = lo_[c.guard_var];
    const std::int64_t g_hi = hi_[c.guard_var];
    const std::int64_t want = c.guard_value ? 1 : 0;
    if (g_lo == g_hi) {
      if (g_lo != want) return true;  // guard fixed opposite: inactive
      // guard fixed to active value: enforce below
    } else {
      active = false;  // guard undecided: only infer the guard itself
    }
  }

  // Minimum activity of Σ coef·var, exact in 128 bits.
  I128 min_act = 0;
  for (const auto& [coef, var] : c.terms) {
    min_act +=
        static_cast<I128>(coef) * (coef > 0 ? lo_[var] : hi_[var]);
  }

  if (!active) {
    // Guard undecided: if the constraint cannot hold, the guard must take
    // the opposite value.
    if (min_act > c.rhs) {
      const std::int64_t opposite = c.guard_value ? 0 : 1;
      if (opposite == 0) return set_hi(c.guard_var, 0);
      return set_lo(c.guard_var, 1);
    }
    return true;
  }

  if (min_act > c.rhs) return false;  // violated

  // Tighten each variable given the others at their minimum: with
  // room = rhs - min_act, coef > 0 gives x <= lo + floor(room / coef) and
  // coef < 0 gives x >= hi - floor(room / -coef). Either moves the bound
  // only when room < |coef|·(hi - lo), so other terms skip the division.
  const I128 room = static_cast<I128>(c.rhs) - min_act;
  for (const auto& [coef, var] : c.terms) {
    const I128 width = static_cast<I128>(hi_[var]) - lo_[var];
    if (coef > 0) {
      if (room >= static_cast<I128>(coef) * width) continue;
      if (!set_hi(var, sat64(lo_[var] + floor_div(room, coef)))) return false;
    } else {
      if (room >= -static_cast<I128>(coef) * width) continue;
      if (!set_lo(var, sat64(hi_[var] - floor_div(room, -static_cast<I128>(
                                                        coef))))) {
        return false;
      }
    }
  }
  return true;
}

bool Solver::propagate_clause(std::size_t idx) {
  const auto& clause = model_.clauses()[idx];
  std::int32_t unfixed = -1;
  bool unfixed_positive = true;
  int num_unfixed = 0;
  for (const BoolLit& l : clause) {
    const std::int64_t vlo = lo_[l.var.id];
    const std::int64_t vhi = hi_[l.var.id];
    if (vlo == vhi) {
      const bool value = vlo == 1;
      if (value == l.positive) return true;  // satisfied
    } else {
      ++num_unfixed;
      unfixed = l.var.id;
      unfixed_positive = l.positive;
    }
  }
  if (num_unfixed == 0) return false;  // all literals false
  if (num_unfixed == 1) {
    // Unit: force the remaining literal true.
    if (unfixed_positive) return set_lo(unfixed, 1);
    return set_hi(unfixed, 0);
  }
  return true;
}

bool Solver::propagate() {
  while (!dirty_constraints_.empty() || !dirty_clauses_.empty()) {
    while (!dirty_constraints_.empty()) {
      const std::size_t idx = dirty_constraints_.back();
      dirty_constraints_.pop_back();
      constraint_dirty_flag_[idx] = 0;
      ++propagations_;
      if (!propagate_linear(idx)) return false;
    }
    while (!dirty_clauses_.empty()) {
      const std::size_t idx = dirty_clauses_.back();
      dirty_clauses_.pop_back();
      clause_dirty_flag_[idx] = 0;
      ++propagations_;
      if (!propagate_clause(idx)) return false;
    }
  }
  return true;
}

std::int32_t Solver::pick_variable() const {
  const std::size_t n = lo_.size();
  if (n == 0) return -1;
  std::int32_t best = -1;
  std::uint64_t best_size = 0;
  // First-fail (smallest domain); ties go to the lowest index.
  for (std::size_t v = 0; v < n; ++v) {
    if (lo_[v] == hi_[v]) continue;
    const std::uint64_t size = static_cast<std::uint64_t>(hi_[v]) -
                               static_cast<std::uint64_t>(lo_[v]);
    if (best < 0 || size < best_size) {
      best = static_cast<std::int32_t>(v);
      best_size = size;
    }
  }
  return best;
}

std::int64_t Solver::eval_objective() const {
  I128 obj = model_.objective().constant();
  for (const auto& [coef, var] : model_.objective().terms()) {
    obj += static_cast<I128>(coef) * lo_[var.id];
  }
  return sat64(obj);
}

void Solver::begin(bool minimizing, const WarmStart* warm) {
  FMNET_CHECK(phase_ == Phase::kIdle, "Solver instances are single-use");
  clock_.reset();
  minimizing_ = minimizing;
  if (minimizing) {
    FMNET_CHECK(model_.has_objective(), "minimize() without an objective");
    // Two pre-wired cap constraints over the objective terms: cap_le_
    // (obj' <= K) drives branch-and-bound; cap_ge_ (-obj' <= K) stays at
    // +inf until canonical extraction pins obj' to the proven optimum.
    auto add_cap = [&](bool negate) {
      NormalisedConstraint cap;
      cap.rhs = kCapInfinity;
      for (const auto& [coef, var] : model_.objective().terms()) {
        cap.terms.emplace_back(negate ? -coef : coef, var.id);
      }
      const std::size_t idx = constraints_.size();
      constraints_.push_back(std::move(cap));
      constraint_dirty_flag_.push_back(0);
      for (const auto& [coef, var] : model_.objective().terms()) {
        var_to_constraints_[var.id].push_back(idx);
      }
      return idx;
    };
    cap_le_idx_ = add_cap(false);
    cap_ge_idx_ = add_cap(true);
  }
  phase_ = Phase::kSearch;
  ++searches_;
  mark_all_dirty();
  if (!propagate()) {
    clear_dirty();
    undo_to(0);
    finish(Status::kUnsat);
    return;
  }
  base_mark_ = root_mark_ = trail_.size();
  conflict_ = false;
  if (minimizing && warm != nullptr) try_warm(*warm);
}

void Solver::try_warm(const WarmStart& warm) {
  auto& reg = obs::Registry::global();
  static obs::Counter& accepted = reg.counter("smt.warm.accepted");
  static obs::Counter& rejected = reg.counter("smt.warm.rejected");
  const std::size_t mark = trail_.size();
  bool ok = !warm.hints.empty();
  for (const auto& [var, value] : warm.hints) {
    if (!ok) break;
    if (var.id < 0 || static_cast<std::size_t>(var.id) >= lo_.size()) {
      ok = false;
      break;
    }
    ok = value >= lo_[var.id] && value <= hi_[var.id] &&
         set_lo(var.id, value) && set_hi(var.id, value);
  }
  ok = ok && propagate();
  // Complete the (possibly partial) hint with a propagation dive: fix each
  // remaining variable to its lower bound and re-propagate. Reaching an
  // all-fixed fixpoint without conflict proves feasibility, because every
  // constraint over a touched variable was re-checked at exact activity and
  // untouched ones were already consistent at the root fixpoint.
  while (ok) {
    std::int32_t var = -1;
    for (std::size_t v = 0; v < lo_.size(); ++v) {
      if (lo_[v] != hi_[v]) {
        var = static_cast<std::int32_t>(v);
        break;
      }
    }
    if (var < 0) break;
    ok = set_hi(var, lo_[var]) && propagate();
  }
  if (ok) {
    have_incumbent_ = true;
    incumbent_.assign(lo_.begin(), lo_.end());
    incumbent_objective_ = eval_objective();
    result_.warm_started = true;
    accepted.add(1);
  } else {
    rejected.add(1);
  }
  clear_dirty();
  undo_to(mark);
  if (have_incumbent_ && !tighten_cap_below_incumbent()) enter_extract();
}

bool Solver::tighten_cap_below_incumbent() {
  // Require strictly better than the incumbent from here on. Inferences
  // propagated from the cap at root level stay valid for the rest of
  // branch-and-bound (the cap only ever tightens), so they are retained on
  // the trail below root_mark_ rather than re-derived each restart.
  const I128 next = static_cast<I128>(incumbent_objective_) -
                    model_.objective().constant() - 1;
  constraints_[cap_le_idx_].rhs = sat64(next);
  mark_constraint_dirty(cap_le_idx_);
  if (!propagate()) {
    clear_dirty();
    return false;
  }
  root_mark_ = trail_.size();
  return true;
}

void Solver::enter_extract() {
  // Optimum proven: re-derive the assignment canonically (a fresh search
  // under objective == optimum) so the result is independent of the warm
  // start and of the incumbents branch-and-bound passed through.
  phase_ = Phase::kExtract;
  ++searches_;
  stack_.clear();
  clear_dirty();
  undo_to(base_mark_);
  const I128 b = static_cast<I128>(incumbent_objective_) -
                 model_.objective().constant();
  constraints_[cap_le_idx_].rhs = sat64(b);
  constraints_[cap_ge_idx_].rhs = sat64(-b);
  mark_constraint_dirty(cap_le_idx_);
  mark_constraint_dirty(cap_ge_idx_);
  conflict_ = !propagate();
  if (conflict_) clear_dirty();
  // A conflict here is impossible (the incumbent witnesses the optimum);
  // the defensive fallback lives in on_tree_exhausted().
}

void Solver::on_all_fixed() {
  if (phase_ == Phase::kExtract) {
    result_.assignment.assign(lo_.begin(), lo_.end());
    result_.objective = incumbent_objective_;
    undo_to(0);
    finish(Status::kOptimal);
    return;
  }
  if (!minimizing_) {
    result_.assignment.assign(lo_.begin(), lo_.end());
    if (model_.has_objective()) result_.objective = eval_objective();
    undo_to(0);
    finish(Status::kSat);
    return;
  }
  // Improving solution: record it, then restart from the retained root
  // fixpoint with a tighter cap (incremental branch-and-bound).
  have_incumbent_ = true;
  incumbent_.assign(lo_.begin(), lo_.end());
  incumbent_objective_ = eval_objective();
  stack_.clear();
  undo_to(root_mark_);
  if (tighten_cap_below_incumbent()) {
    ++searches_;
  } else {
    enter_extract();
  }
}

void Solver::on_tree_exhausted() {
  if (phase_ == Phase::kExtract) {
    // Unreachable in theory (the incumbent witnesses objective == optimum);
    // fall back to the incumbent defensively.
    result_.assignment = incumbent_;
    result_.objective = incumbent_objective_;
    undo_to(0);
    finish(Status::kOptimal);
    return;
  }
  if (minimizing_ && have_incumbent_) {
    enter_extract();  // nothing beats the incumbent: optimum proven
    return;
  }
  undo_to(0);
  finish(Status::kUnsat);
}

void Solver::finish(Status status) {
  result_.status = status;
  result_.decisions = decisions_;
  result_.propagations = propagations_;
  result_.conflicts = conflicts_;
  result_.searches = searches_;
  result_.seconds = clock_.elapsed_seconds();
  phase_ = Phase::kDone;
}

void Solver::finish_budget_exhausted() {
  clear_dirty();
  undo_to(0);
  if (minimizing_ && have_incumbent_) {
    // Feasible but not certified within budget. Even when the proof had
    // completed, an unfinished canonical extraction reports kSat so that
    // kOptimal always implies the canonical assignment.
    result_.assignment = incumbent_;
    result_.objective = incumbent_objective_;
    finish(Status::kSat);
    return;
  }
  finish(Status::kUnknown);
}

void Solver::search() {
  if (phase_ == Phase::kDone) return;  // settled by the root propagation
  while (true) {
    if (decisions_ > budget_.max_decisions ||
        clock_.elapsed_seconds() > budget_.max_seconds) {
      finish_budget_exhausted();
      return;
    }

    if (conflict_) {
      ++conflicts_;
      clear_dirty();
      // Backtrack to the deepest frame with an untried alternative.
      while (!stack_.empty() && stack_.back().tried_alternative) {
        undo_to(stack_.back().trail_mark);
        stack_.pop_back();
      }
      if (stack_.empty()) {
        conflict_ = false;
        on_tree_exhausted();
        if (phase_ == Phase::kDone) return;
        continue;
      }
      Frame& f = stack_.back();
      undo_to(f.trail_mark);
      f.tried_alternative = true;
      ++decisions_;
      conflict_ = !set_lo(f.var, f.split + 1) || !propagate();
      continue;
    }

    const std::int32_t var = pick_variable();
    if (var < 0) {
      on_all_fixed();
      if (phase_ == Phase::kDone) return;
      continue;
    }

    // Decision: split the domain, lower half first.
    const std::uint64_t width = static_cast<std::uint64_t>(hi_[var]) -
                                static_cast<std::uint64_t>(lo_[var]);
    const std::int64_t split =
        lo_[var] + static_cast<std::int64_t>(width / 2);
    stack_.push_back({trail_.size(), var, split, false});
    ++decisions_;
    conflict_ = !set_hi(var, split) || !propagate();
  }
}

SolveResult Solver::run(bool minimizing, const WarmStart* warm) {
  begin(minimizing, warm);
  search();
  record_solve(result_);
  return result_;
}

SolveResult Solver::solve() { return run(/*minimizing=*/false, nullptr); }

SolveResult Solver::minimize() { return run(/*minimizing=*/true, nullptr); }

SolveResult Solver::minimize(const WarmStart& warm) {
  return run(/*minimizing=*/true, &warm);
}

}  // namespace fmnet::smt
