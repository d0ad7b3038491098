// smtlite solver: bounds-consistency propagation + complete DFS search
// with chronological backtracking, and branch-and-bound minimisation.
//
// The canonical-extraction rule: whenever minimisation completes with a
// proven optimum, the returned assignment is re-derived by a final
// *canonical extraction* search — first-fail branching, lower half first,
// under the constraint objective == optimum — so the assignment depends
// only on the model and the optimal value, never on the warm-start hints
// or the incumbents branch-and-bound passed through. Cold, warm and cached
// solves of the same model are therefore bit-identical.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "smt/model.h"
#include "util/stopwatch.h"

namespace fmnet::smt {

/// Search limits. Exceeding any limit stops the search with an UNKNOWN /
/// best-so-far result instead of a definitive answer. Both limits bound the
/// *whole* solve — a minimize() with max_seconds = S finishes within ~S
/// total, not S per inner search.
struct Budget {
  std::int64_t max_decisions = 50'000'000;
  double max_seconds = 3600.0;
};

/// Outcome of a solve() / minimize() call.
enum class Status {
  kSat,      // feasible assignment found (optimality not proven)
  kOptimal,  // minimize(): best assignment proven optimal
  kUnsat,    // proven infeasible
  kUnknown,  // budget exhausted before any definitive answer
};

/// Result of a solve, including the best (or first) assignment and search
/// statistics used by the scalability benches.
struct SolveResult {
  Status status = Status::kUnknown;
  std::vector<std::int64_t> assignment;  // per-variable value when found
  std::int64_t objective = 0;            // valid when has_solution()
  std::int64_t decisions = 0;
  std::int64_t propagations = 0;
  std::int64_t conflicts = 0;
  /// Inner DFS searches run (branch-and-bound restarts + the canonical
  /// extraction pass). A plain solve() is exactly one search.
  std::int64_t searches = 0;
  double seconds = 0.0;
  /// True when a warm-start hint was accepted and seeded the incumbent.
  bool warm_started = false;
  /// True when the result was served from the repair cache (solve_cache.h)
  /// without running the solver.
  bool from_cache = false;

  bool has_solution() const {
    return status == Status::kSat || status == Status::kOptimal;
  }
  std::int64_t value(VarId v) const { return assignment.at(v.id); }
};

/// Warm-start hint for minimize(): a (possibly partial) assignment expected
/// to be feasible — e.g. the previous overlapping CEM window's solution.
/// Hinted variables are fixed, propagation completes the rest; if that
/// yields a feasible assignment it seeds the incumbent and the initial
/// objective cap, so branch-and-bound starts at "prove or beat this" instead
/// of discovering a first solution from scratch. Infeasible or inconsistent
/// hints are discarded (the solve proceeds cold) — hints can never change
/// the answer, only the work needed to reach it.
struct WarmStart {
  std::vector<std::pair<VarId, std::int64_t>> hints;
};

/// Complete solver over a Model. The Model must outlive the Solver.
/// Single-use: one solve()/minimize() per instance.
class Solver {
 public:
  explicit Solver(const Model& model, Budget budget = {});

  /// Finds one feasible assignment (ignores the objective).
  SolveResult solve();

  /// Branch-and-bound minimisation of the model's objective. Requires
  /// Model::minimize() to have been called. The optional warm start seeds
  /// the incumbent (see WarmStart).
  SolveResult minimize();
  SolveResult minimize(const WarmStart& warm);

 private:
  enum class Phase {
    kIdle,     // constructed, not armed
    kSearch,   // DFS in progress (feasibility or branch-and-bound)
    kExtract,  // optimum proven; canonical extraction search in progress
    kDone,     // result_ valid
  };

  struct NormalisedConstraint {
    // Σ coef·var <= rhs, optionally guarded by (guard_var == guard_value).
    std::vector<std::pair<std::int64_t, std::int32_t>> terms;
    std::int64_t rhs = 0;
    std::int32_t guard_var = -1;
    bool guard_value = true;
  };

  struct Frame {
    std::size_t trail_mark;
    std::int32_t var;
    std::int64_t split;  // first branch var<=split; alternative var>split
    bool tried_alternative;
  };

  // Bound updates with trail recording; return false on empty domain.
  bool set_hi(std::int32_t var, std::int64_t value);
  bool set_lo(std::int32_t var, std::int64_t value);
  void undo_to(std::size_t mark);
  void clear_dirty();
  void mark_constraint_dirty(std::size_t idx);
  void mark_all_dirty();

  bool propagate();  // to fixpoint; false on conflict
  bool propagate_linear(std::size_t idx);
  bool propagate_clause(std::size_t idx);

  std::int32_t pick_variable() const;  // -1 when all fixed
  std::int64_t eval_objective() const;

  SolveResult run(bool minimizing, const WarmStart* warm);
  void begin(bool minimizing, const WarmStart* warm);
  void search();  // until result_ is valid
  void try_warm(const WarmStart& warm);
  bool tighten_cap_below_incumbent();
  void enter_extract();
  void on_all_fixed();
  void on_tree_exhausted();
  void finish(Status status);
  void finish_budget_exhausted();

  const Model& model_;
  Budget budget_;

  std::vector<std::int64_t> lo_;
  std::vector<std::int64_t> hi_;
  std::vector<NormalisedConstraint> constraints_;
  std::vector<std::vector<std::size_t>> var_to_constraints_;
  std::vector<std::vector<std::size_t>> var_to_clauses_;

  struct TrailEntry {
    std::int32_t var;
    bool is_hi;
    std::int64_t old_value;
  };
  std::vector<TrailEntry> trail_;
  std::vector<std::size_t> dirty_constraints_;
  std::vector<char> constraint_dirty_flag_;
  std::vector<std::size_t> dirty_clauses_;
  std::vector<char> clause_dirty_flag_;

  // ---- solve lifetime state ----
  Phase phase_ = Phase::kIdle;
  bool minimizing_ = false;
  bool conflict_ = false;
  std::vector<Frame> stack_;
  fmnet::Stopwatch clock_;  // one clock for the whole solve (budget fix)

  // Objective cap constraints, appended by begin_minimize. cap_le_ enforces
  // obj <= K (the branch-and-bound cap); cap_ge_ enforces obj >= K' and
  // stays disabled (rhs at +inf) until canonical extraction pins obj to the
  // proven optimum.
  std::size_t cap_le_idx_ = 0;
  std::size_t cap_ge_idx_ = 0;

  // Trail marks delimiting reusable propagation state. base_mark_: fixpoint
  // of the original constraints only (before any cap inference) — canonical
  // extraction restarts here. root_mark_: fixpoint including inferences from
  // the current objective cap; since the cap only ever tightens, these
  // inferences stay valid for the rest of branch-and-bound, so each restart
  // resumes from root_mark_ instead of re-deriving them (incremental reuse).
  std::size_t base_mark_ = 0;
  std::size_t root_mark_ = 0;

  bool have_incumbent_ = false;
  std::vector<std::int64_t> incumbent_;
  std::int64_t incumbent_objective_ = 0;

  SolveResult result_;
  std::int64_t decisions_ = 0;
  std::int64_t propagations_ = 0;
  std::int64_t conflicts_ = 0;
  std::int64_t searches_ = 0;
};

}  // namespace fmnet::smt
