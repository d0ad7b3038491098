// Constraint Enforcement Module (paper §3.2).
//
// CEM post-corrects a transformer-imputed queue-length series so that the
// selected constraints hold *exactly*, while minimally changing the output:
//
//   min Σ_{t ∉ T_samples} | Q̂c[t] − Q̂[t] |
//   s.t. C1: per interval w,  max_{t∈w} Q̂c[t] ≤ m_max_w
//        C2: Q̂c[t] = m_len_t              for sampled t
//        C3: per interval w,  #{t∈w : Q̂c[t] > 0} ≤ m_out_w
//
// C1 is an upper bound (not an attained equality): m_max is the LANZ
// slot-granularity intra-interval maximum, which the per-ms corrected
// series may legitimately stay below when the peak fell between two ms
// samples (see nn/kal.h).
//
// Because every constraint is interval-local, the optimisation decomposes
// into one problem per coarse interval; independent intervals are
// corrected concurrently on the shared ThreadPool with a deterministic
// in-order stitch. Two interchangeable engines solve each interval over
// integer packet counts:
//
//  * kFastRepair — an exact specialised algorithm: each step's
//    unconstrained optimum is clamp(round(q̂), 0, m_max); then the steps
//    zeroed for C3 are the cheapest ones (optimal since step costs are
//    independent). O(F log F) per interval.
//  * kSmtBranchAndBound — the same encoding handed to the smtlite solver
//    as a branch-and-bound minimisation (how the paper uses Z3).
//
// Property tests assert the two engines produce equal objective values.
//
// Every entry point rounds the raw model output to an integer reference.
// Values rounding cannot represent are masked first, never silently
// rewritten: NaN becomes 0 and is counted in cem.nonfinite; values beyond
// ±2^53 (±inf included) saturate to ±2^53 and are counted in cem.clamped.
// In-range windows take exactly the unmasked path.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/kal.h"
#include "smt/solver.h"
#include "util/thread_pool.h"

namespace fmnet::impute {

/// Constraint data for one window in integer packet units.
struct CemConstraints {
  std::vector<std::int64_t> sample_idx;
  std::vector<std::int64_t> sample_val;  // packets
  std::vector<std::int64_t> window_max;  // packets, per interval
  std::vector<std::int64_t> port_sent;   // steps, per interval (pre-capped)
  /// C1 validity per interval (empty = all valid, see nn/kal.h). Where 0,
  /// the LANZ report was lost and window_max is stale: CEM relaxes the
  /// interval's bound so C1 cannot bind there — the correction enforces
  /// only C2/C3 and never clamps to a value the operator never received.
  std::vector<std::uint8_t> window_max_valid;
  std::int64_t coarse_factor = 50;
};

/// Converts the dataset's normalised constraint record to packet units.
CemConstraints to_packet_constraints(const nn::ExampleConstraints& c,
                                     double qlen_scale);

enum class CemEngine { kFastRepair, kSmtBranchAndBound };

struct CemConfig {
  CemEngine engine = CemEngine::kFastRepair;
  /// Budget for the SMT engine, per interval.
  smt::Budget smt_budget{.max_decisions = 2'000'000, .max_seconds = 30.0};
  /// Serving-path accelerators for the SMT engine (no effect on the fast
  /// engine). All of them preserve the repaired output bit-for-bit: solver
  /// results are canonically extracted (smt/solver.h) and only definitive
  /// answers are cached (smt/solve_cache.h).
  /// Memoise solved windows in the process-wide repair cache, keyed by the
  /// canonicalised constraint system (recurring violation patterns skip
  /// the solver).
  bool use_repair_cache = true;
  /// Seed each window's branch-and-bound with a feasible repair candidate
  /// (the fast-repair solution, or the caller's warm values) instead of
  /// discovering a first incumbent by search.
  bool warm_start = true;
};

struct CemResult {
  std::vector<double> corrected;  // packets, same length as input
  /// Σ |corrected - round(imputed)| over non-sampled steps (integer).
  std::int64_t objective = 0;
  bool feasible = true;
  double seconds = 0.0;
};

/// Result of the port-level joint correction.
struct PortCemResult {
  std::vector<std::vector<double>> corrected;  // [queue][t], packets
  std::int64_t objective = 0;
  bool feasible = true;
  double seconds = 0.0;
};

class ConstraintEnforcementModule {
 public:
  explicit ConstraintEnforcementModule(CemConfig config = {})
      : config_(config) {}

  /// Corrects one window (in packets). `imputed` length must be
  /// factor * #intervals. Throws CheckError on malformed constraints;
  /// returns feasible=false when the constraint system is contradictory
  /// (cannot happen for measurements produced by a real switch).
  /// Intervals are corrected concurrently on `pool` (null = global pool);
  /// the result is identical at every thread count.
  CemResult correct(const std::vector<double>& imputed,
                    const CemConstraints& c,
                    util::ThreadPool* pool = nullptr) const;

  /// Port-level joint correction: the paper's exact C3 semantics, where
  /// the non-empty indicator is the *disjunction over all queues of the
  /// port* (Fig. 3 / §3, NE_i). Corrects every queue of the port
  /// simultaneously so that Σ_t [∨_q Q̂c[q][t] > 0] <= m_out per interval,
  /// in addition to per-queue C1/C2. All per-queue constraint records must
  /// share coarse_factor and horizon; c[0].port_sent carries the port
  /// budget. Solved with the smtlite engine (the joint problem has no
  /// independent-cost structure for the fast repair).
  /// Windows are solved concurrently on `pool` (null = global pool) with a
  /// deterministic in-order stitch.
  PortCemResult correct_port(
      const std::vector<std::vector<double>>& imputed,
      const std::vector<CemConstraints>& per_queue,
      util::ThreadPool* pool = nullptr) const;

  /// Repairs a single window of length `sample_at.size()` (== factor).
  /// `warm_values`, when given, is a repair candidate for the window —
  /// e.g. the overlapping part of the previous window's solution — used to
  /// warm-start the SMT engine (it is first made feasible by the fast
  /// repair, so it never has to be exactly feasible itself). The returned
  /// repair is identical with or without warm values whenever the solve
  /// completes. `imputed` must have length factor.
  CemResult correct_window(
      const std::vector<double>& imputed, std::int64_t m_max,
      std::int64_t m_out, const std::vector<std::int64_t>& sample_at,
      const std::vector<std::int64_t>* warm_values = nullptr) const;

 private:
  struct IntervalResult {
    std::vector<std::int64_t> values;
    std::int64_t objective = 0;
    bool feasible = true;
  };
  IntervalResult correct_interval_fast(const std::vector<double>& imputed,
                                       std::int64_t m_max,
                                       std::int64_t m_out,
                                       const std::vector<std::int64_t>&
                                           sample_at,  // -1 = not sampled
                                       std::int64_t factor) const;
  IntervalResult correct_interval_smt(const std::vector<double>& imputed,
                                      std::int64_t m_max, std::int64_t m_out,
                                      const std::vector<std::int64_t>&
                                          sample_at,
                                      std::int64_t factor,
                                      const std::vector<std::int64_t>*
                                          warm_values = nullptr) const;

  CemConfig config_;
};

/// Incremental repair of a sliding window advancing by `stride` steps at a
/// time (stride < factor ⇒ consecutive windows overlap). Each repair
/// warm-starts the solver from the previous window's solution shifted by
/// the stride — the serving-path "incremental solving" mode: overlapping
/// telemetry rarely changes the optimal repair of the shared suffix, so
/// the previous solution is usually an immediately-feasible incumbent.
/// Results are bit-identical to repairing each window cold (see
/// correct_window).
class StreamingCemRepair {
 public:
  explicit StreamingCemRepair(CemConfig config, std::int64_t stride)
      : cem_(config), stride_(stride) {}

  /// Repairs the current window (length = sample_at.size()); call with
  /// consecutive windows advanced by `stride` steps each.
  CemResult repair(const std::vector<double>& imputed, std::int64_t m_max,
                   std::int64_t m_out,
                   const std::vector<std::int64_t>& sample_at);

  /// Forgets the previous window (e.g. at a series boundary).
  void reset() { prev_.clear(); }

 private:
  ConstraintEnforcementModule cem_;
  std::int64_t stride_;
  std::vector<std::int64_t> prev_;  // previous window's repaired values
};

}  // namespace fmnet::impute
