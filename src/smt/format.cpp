#include "smt/format.h"

#include <sstream>

namespace fmnet::smt {

namespace {
const char* cmp_str(Cmp c) {
  switch (c) {
    case Cmp::kLe:
      return "<=";
    case Cmp::kGe:
      return ">=";
    case Cmp::kEq:
      return "=";
  }
  return "?";
}

void render_terms(
    std::ostringstream& os,
    const std::vector<std::pair<std::int64_t, std::int32_t>>& terms,
    const Model& m) {
  os << "(+";
  for (const auto& [coef, var] : terms) {
    os << " (* " << coef << " " << m.name(VarId{var}) << ")";
  }
  os << ")";
}
}  // namespace

std::string to_smtlib(const Model& model) {
  std::ostringstream os;
  for (std::size_t v = 0; v < model.num_vars(); ++v) {
    const VarId id{static_cast<std::int32_t>(v)};
    os << "(declare-const " << model.name(id) << " Int)  ; ["
       << model.lower_bound(id) << ", " << model.upper_bound(id) << "]\n";
  }
  for (const LinearConstraint& c : model.linear_constraints()) {
    os << "(assert ";
    if (c.guard_var >= 0) {
      os << "(=> (= " << model.name(VarId{c.guard_var}) << " "
         << (c.guard_value ? 1 : 0) << ") ";
    }
    os << "(" << cmp_str(c.cmp) << " ";
    render_terms(os, c.terms, model);
    os << " " << c.rhs << ")";
    if (c.guard_var >= 0) os << ")";
    os << ")\n";
  }
  for (const auto& clause : model.clauses()) {
    os << "(assert (or";
    for (const BoolLit& l : clause) {
      if (l.positive) {
        os << " (= " << model.name(l.var) << " 1)";
      } else {
        os << " (= " << model.name(l.var) << " 0)";
      }
    }
    os << "))\n";
  }
  if (model.has_objective()) {
    os << "(minimize (+ " << model.objective().constant();
    for (const auto& [coef, var] : model.objective().terms()) {
      os << " (* " << coef << " " << model.name(var) << ")";
    }
    os << "))\n";
  }
  return os.str();
}

namespace {

// 64-bit finalisers of splitmix64 and murmur3. Each is a bijection on
// 64-bit words; the two lanes of a Digest use different ones, so inputs
// that collide in one lane are not thereby likely to collide in the other.
std::uint64_t mix_a(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t mix_b(std::uint64_t x) {
  x = (x ^ (x >> 33)) * 0xff51afd7ed558ccdULL;
  x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

// Order-dependent two-lane digest of a sequence of 64-bit words.
struct Digest {
  std::uint64_t a = 0x9e3779b97f4a7c15ULL;
  std::uint64_t b = 0x2545f4914f6cdd1dULL;

  Digest& add(std::uint64_t w) {
    a = mix_a(a ^ w);
    b = mix_b(b + w);
    return *this;
  }
  Digest& add(std::int64_t w) { return add(static_cast<std::uint64_t>(w)); }
};

// Order-independent digest of a multiset: the lane-wise sum of its
// members' digests, and their count.
struct MultisetDigest {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t n = 0;

  void insert(const Digest& d) {
    a += d.a;
    b += d.b;
    ++n;
  }
  void add_to(Digest& d) const { d.add(n).add(a).add(b); }
};

std::int64_t var_index(std::int32_t var) { return var; }
std::int64_t var_index(VarId var) { return var.id; }

// Mixes the multiset of (coef, var) terms of a constraint or objective.
template <typename Var>
void add_terms(Digest& d,
               const std::vector<std::pair<std::int64_t, Var>>& terms) {
  MultisetDigest set;
  for (const auto& [coef, var] : terms) {
    set.insert(Digest{}.add(coef).add(var_index(var)));
  }
  set.add_to(d);
}

}  // namespace

RepairKey repair_key(const Model& model) {
  Digest key;
  const std::size_t n = model.num_vars();
  key.add(std::uint64_t{n});
  for (std::size_t v = 0; v < n; ++v) {
    key.add(model.lower_bounds()[v]).add(model.upper_bounds()[v]);
  }

  MultisetDigest constraints;
  for (const LinearConstraint& c : model.linear_constraints()) {
    Digest item;
    item.add(static_cast<std::uint64_t>(c.cmp))
        .add(c.rhs)
        .add(std::int64_t{c.guard_var})
        .add(std::uint64_t{c.guard_value});
    add_terms(item, c.terms);
    constraints.insert(item);
  }
  constraints.add_to(key);

  MultisetDigest clauses;
  for (const auto& clause : model.clauses()) {
    MultisetDigest lits;
    for (const BoolLit& l : clause) {
      lits.insert(Digest{}.add(std::int64_t{l.var.id}).add(
          std::uint64_t{l.positive}));
    }
    Digest item;
    lits.add_to(item);
    clauses.insert(item);
  }
  clauses.add_to(key);

  key.add(std::uint64_t{model.has_objective()});
  if (model.has_objective()) {
    key.add(model.objective().constant());
    add_terms(key, model.objective().terms());
  }
  return RepairKey{key.a, key.b};
}

}  // namespace fmnet::smt
