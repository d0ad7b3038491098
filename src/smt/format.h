// Debug rendering of smtlite models, and the repair cache's content key.
#pragma once

#include <cstdint>
#include <string>

#include "smt/model.h"

namespace fmnet::smt {

/// Renders variable declarations, constraints, clauses and the objective of
/// a Model; intended for logging and test diagnostics, not for parsing.
std::string to_smtlib(const Model& model);

/// 128-bit content address of a model's constraint system.
struct RepairKey {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  friend bool operator==(const RepairKey&, const RepairKey&) = default;
};

/// Repair-cache key (solve_cache.h), computed in one pass over the model
/// without allocating. Two models get the same key iff they pose the same
/// problem to the solver, up to a 128-bit digest collision:
///   * the variable bounds are mixed in index order;
///   * constraints and clauses are order-independent multisets: each item's
///     digest is summed lane-wise into its section, so build order is lost;
///   * the terms of a constraint, the literals of a clause and the terms of
///     the objective are likewise summed, so their order is lost too;
///   * variable *names* are excluded.
/// Ignoring order is safe because bounds-consistency fixpoints (and
/// therefore the canonical extraction assignment, solver.h) depend only on
/// the constraint set over (domains, objective), never on declaration
/// order.
RepairKey repair_key(const Model& model);

}  // namespace fmnet::smt
