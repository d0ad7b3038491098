#include "impute/cem.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/metrics.h"
#include "obs/span.h"
#include "smt/solve_cache.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace fmnet::impute {

namespace {
// Window-repair accounting shared by correct() and correct_port().
struct CemMetrics {
  obs::Counter& windows;
  obs::Counter& infeasible;
  obs::Counter& packets_moved;
  obs::Counter& clamped;
  obs::Counter& nonfinite;
  obs::Histogram& window_ms;
  static CemMetrics& get() {
    auto& reg = obs::Registry::global();
    static CemMetrics m{
        reg.counter("cem.windows"), reg.counter("cem.infeasible_windows"),
        reg.counter("cem.packets_moved"), reg.counter("cem.clamped"),
        reg.counter("cem.nonfinite"),
        reg.histogram("cem.window_ms",
                      {0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000})};
    return m;
  }
};

/// Largest magnitude a raw model value keeps as a repair reference: 2^53,
/// beyond which doubles are no longer dense integers and llround can
/// overflow int64 (an unspecified result, INT64_MIN on x86).
constexpr double kMaxReference = 9007199254740992.0;

bool in_reference_range(double v) { return std::fabs(v) <= kMaxReference; }

/// The reference value CEM repairs towards: NaN masks to 0, and values
/// beyond ±2^53 (±inf included) saturate to ±2^53. Identity in range.
double masked_reference(double v) {
  if (std::isnan(v)) return 0.0;
  return std::clamp(v, -kMaxReference, kMaxReference);
}

/// Returns `imputed` itself when every value is in range, so in-range
/// windows take exactly the unmasked path. Otherwise fills `masked` with
/// masked_reference() of each value, counts cem.nonfinite (NaN) and
/// cem.clamped (saturated) values, and returns `masked`.
const std::vector<double>& mask_references(const std::vector<double>& imputed,
                                           std::vector<double>& masked,
                                           CemMetrics& metrics) {
  if (std::all_of(imputed.begin(), imputed.end(), in_reference_range)) {
    return imputed;
  }
  masked.resize(imputed.size());
  std::int64_t nonfinite = 0;
  std::int64_t clamped = 0;
  for (std::size_t t = 0; t < imputed.size(); ++t) {
    const double v = imputed[t];
    if (std::isnan(v)) {
      ++nonfinite;
    } else if (!in_reference_range(v)) {
      ++clamped;
    }
    masked[t] = masked_reference(v);
  }
  metrics.nonfinite.add(nonfinite);
  metrics.clamped.add(clamped);
  return masked;
}
}  // namespace

CemConstraints to_packet_constraints(const nn::ExampleConstraints& c,
                                     double qlen_scale) {
  FMNET_CHECK_GT(qlen_scale, 0.0);
  CemConstraints out;
  out.coarse_factor = c.coarse_factor;
  out.sample_idx = c.sample_idx;
  out.sample_val.reserve(c.sample_val.size());
  for (const float v : c.sample_val) {
    out.sample_val.push_back(
        std::llround(static_cast<double>(v) * qlen_scale));
  }
  out.window_max.reserve(c.window_max.size());
  for (const float v : c.window_max) {
    out.window_max.push_back(
        std::llround(static_cast<double>(v) * qlen_scale));
  }
  out.port_sent.reserve(c.port_sent.size());
  for (const float v : c.port_sent) {
    out.port_sent.push_back(std::llround(static_cast<double>(v)));
  }
  out.window_max_valid = c.window_max_valid;
  return out;
}

namespace {

/// The effective C1 bound for one interval. Valid intervals use the LANZ
/// report. Invalid ones (report lost) get a bound wide enough to admit the
/// rounded reference and every sampled value, so C1 never binds there
/// while the SMT variable domains stay finite.
std::int64_t effective_m_max(const CemConstraints& c, std::int64_t w,
                             const std::vector<double>& imputed,
                             const std::vector<std::int64_t>& sample_at,
                             std::int64_t begin, std::int64_t factor) {
  const std::int64_t reported =
      c.window_max[static_cast<std::size_t>(w)];
  if (c.window_max_valid.empty() ||
      c.window_max_valid[static_cast<std::size_t>(w)] != 0) {
    return reported;
  }
  std::int64_t hi = 0;
  for (std::int64_t t = begin; t < begin + factor; ++t) {
    hi = std::max(hi, std::max<std::int64_t>(
                          0, std::llround(imputed[static_cast<std::size_t>(
                                 t)])));
    const std::int64_t s = sample_at[static_cast<std::size_t>(t)];
    if (s > hi) hi = s;
  }
  return hi;
}

}  // namespace

namespace {
std::int64_t iabs(std::int64_t v) { return v < 0 ? -v : v; }
}  // namespace

ConstraintEnforcementModule::IntervalResult
ConstraintEnforcementModule::correct_interval_fast(
    const std::vector<double>& imputed, std::int64_t m_max,
    std::int64_t m_out, const std::vector<std::int64_t>& sample_at,
    std::int64_t factor) const {
  IntervalResult res;
  res.values.assign(static_cast<std::size_t>(factor), 0);

  // Integer reference: the rounded transformer output.
  std::vector<std::int64_t> ref(static_cast<std::size_t>(factor));
  for (std::int64_t t = 0; t < factor; ++t) {
    ref[t] = std::llround(imputed[static_cast<std::size_t>(t)]);
  }

  // Feasibility screens on the sampled (immutable) steps.
  std::int64_t forced_nonempty = 0;
  for (std::int64_t t = 0; t < factor; ++t) {
    const std::int64_t s = sample_at[static_cast<std::size_t>(t)];
    if (s < 0) continue;
    if (s > m_max) {
      res.feasible = false;
      return res;
    }
    if (s > 0) ++forced_nonempty;
  }
  if (forced_nonempty > m_out) {
    res.feasible = false;
    return res;
  }

  // Per-step optimum under C1/C2 alone: clamp into [0, m_max]. C1 is an
  // upper bound, so no step needs to be raised to attain m_max.
  std::vector<std::int64_t> base(static_cast<std::size_t>(factor));
  std::int64_t cost = 0;
  std::int64_t nonempty = forced_nonempty;
  // Optional non-empty steps (non-sampled, base > 0) with the cost delta
  // of zeroing them instead: (Δ, t).
  std::vector<std::pair<std::int64_t, std::int64_t>> zero_delta;
  for (std::int64_t t = 0; t < factor; ++t) {
    const std::int64_t s = sample_at[static_cast<std::size_t>(t)];
    if (s >= 0) {
      base[t] = s;
    } else {
      base[t] = std::clamp<std::int64_t>(ref[t], 0, m_max);
      cost += iabs(base[t] - ref[t]);
      if (base[t] > 0) {
        ++nonempty;
        zero_delta.emplace_back(iabs(ref[t]) - iabs(base[t] - ref[t]), t);
      }
    }
  }

  // C3: zero the cheapest optional steps until the non-empty count fits.
  // Always possible: forced_nonempty <= m_out was screened above.
  const std::int64_t need_zero =
      std::max<std::int64_t>(0, nonempty - m_out);
  std::sort(zero_delta.begin(), zero_delta.end());
  for (std::int64_t k = 0; k < need_zero; ++k) {
    base[zero_delta[static_cast<std::size_t>(k)].second] = 0;
    cost += zero_delta[static_cast<std::size_t>(k)].first;
  }
  res.values = std::move(base);
  res.objective = cost;
  return res;
}

ConstraintEnforcementModule::IntervalResult
ConstraintEnforcementModule::correct_interval_smt(
    const std::vector<double>& imputed, std::int64_t m_max,
    std::int64_t m_out, const std::vector<std::int64_t>& sample_at,
    std::int64_t factor, const std::vector<std::int64_t>* warm_values) const {
  IntervalResult res;
  smt::Model model;
  std::vector<smt::VarId> q;
  q.reserve(static_cast<std::size_t>(factor));
  for (std::int64_t t = 0; t < factor; ++t) {
    q.push_back(model.new_int(0, m_max));
  }
  // C2: sampled steps fixed.
  for (std::int64_t t = 0; t < factor; ++t) {
    const std::int64_t s = sample_at[static_cast<std::size_t>(t)];
    if (s >= 0) {
      if (s > m_max) {
        res.feasible = false;
        return res;
      }
      model.add_linear(smt::LinExpr(q[t]), smt::Cmp::kEq, s);
    }
  }
  // C1 (upper bound) is the variable domain [0, m_max] itself.
  // C3: Σ [q_t >= 1] <= m_out.
  smt::LinExpr ne;
  for (std::int64_t t = 0; t < factor; ++t) {
    const smt::VarId nz = model.new_bool();
    model.add_reified(nz, smt::LinExpr(q[t]), smt::Cmp::kGe, 1);
    ne.add_term(1, nz);
  }
  model.add_linear(ne, smt::Cmp::kLe, m_out);
  // Objective: Σ |q_t - ref_t| over non-sampled steps.
  smt::LinExpr objective;
  for (std::int64_t t = 0; t < factor; ++t) {
    if (sample_at[static_cast<std::size_t>(t)] >= 0) continue;
    const std::int64_t ref =
        std::llround(imputed[static_cast<std::size_t>(t)]);
    const std::int64_t hi = std::max(iabs(ref), iabs(m_max - ref));
    objective.add_term(
        1, model.add_abs(smt::LinExpr(q[t]) - smt::LinExpr(ref), hi));
  }
  model.minimize(objective);

  // Warm start: seed the incumbent with a feasible candidate — the exact
  // fast repair of the caller's warm values (e.g. the previous overlapping
  // window's solution) or, failing that, of the imputed window itself.
  smt::WarmStart warm;
  bool have_warm = false;
  if (config_.warm_start) {
    const std::vector<double>* candidate = &imputed;
    std::vector<double> warm_double;
    if (warm_values != nullptr &&
        static_cast<std::int64_t>(warm_values->size()) == factor) {
      warm_double.assign(warm_values->begin(), warm_values->end());
      candidate = &warm_double;
    }
    const IntervalResult cand =
        correct_interval_fast(*candidate, m_max, m_out, sample_at, factor);
    if (cand.feasible) {
      warm.hints.reserve(static_cast<std::size_t>(factor));
      for (std::int64_t t = 0; t < factor; ++t) {
        warm.hints.emplace_back(q[static_cast<std::size_t>(t)],
                                cand.values[static_cast<std::size_t>(t)]);
      }
      have_warm = true;
    }
  }

  smt::RepairOptions ro;
  ro.budget = config_.smt_budget;
  ro.use_cache = config_.use_repair_cache;
  const smt::SolveResult r =
      smt::repair_minimize(model, ro, have_warm ? &warm : nullptr);
  if (!r.has_solution()) {
    res.feasible = false;
    return res;
  }
  res.objective = r.objective;
  res.values.resize(static_cast<std::size_t>(factor));
  for (std::int64_t t = 0; t < factor; ++t) {
    res.values[static_cast<std::size_t>(t)] = r.value(q[t]);
  }
  return res;
}

PortCemResult ConstraintEnforcementModule::correct_port(
    const std::vector<std::vector<double>>& imputed_raw,
    const std::vector<CemConstraints>& per_queue,
    util::ThreadPool* pool) const {
  obs::ScopedSpan span("correct_port");
  CemMetrics& metrics = CemMetrics::get();
  fmnet::Stopwatch clock;
  FMNET_CHECK(!imputed_raw.empty(), "no queues");
  FMNET_CHECK_EQ(imputed_raw.size(), per_queue.size());
  const std::size_t nq = imputed_raw.size();
  // Masked copies only when some queue holds an out-of-range reference;
  // otherwise every queue takes exactly the unmasked path.
  const bool in_range = std::all_of(
      imputed_raw.begin(), imputed_raw.end(), [](const auto& series) {
        return std::all_of(series.begin(), series.end(), in_reference_range);
      });
  std::vector<std::vector<double>> masked;
  if (!in_range) {
    std::vector<double> scratch;
    for (const std::vector<double>& series : imputed_raw) {
      masked.push_back(mask_references(series, scratch, metrics));
    }
  }
  const std::vector<std::vector<double>>& imputed =
      in_range ? imputed_raw : masked;
  const std::int64_t factor = per_queue.front().coarse_factor;
  const auto t_len = static_cast<std::int64_t>(imputed.front().size());
  FMNET_CHECK_GT(factor, 0);
  FMNET_CHECK_EQ(t_len % factor, 0);
  const std::int64_t windows = t_len / factor;
  for (std::size_t q = 0; q < nq; ++q) {
    FMNET_CHECK_EQ(static_cast<std::int64_t>(imputed[q].size()), t_len);
    FMNET_CHECK_EQ(per_queue[q].coarse_factor, factor);
    FMNET_CHECK_EQ(static_cast<std::int64_t>(per_queue[q].window_max.size()),
                   windows);
    if (!per_queue[q].window_max_valid.empty()) {
      FMNET_CHECK_EQ(
          static_cast<std::int64_t>(per_queue[q].window_max_valid.size()),
          windows);
    }
  }

  // Scatter samples per queue.
  std::vector<std::vector<std::int64_t>> sample_at(
      nq, std::vector<std::int64_t>(static_cast<std::size_t>(t_len), -1));
  for (std::size_t q = 0; q < nq; ++q) {
    for (std::size_t s = 0; s < per_queue[q].sample_idx.size(); ++s) {
      sample_at[q][static_cast<std::size_t>(per_queue[q].sample_idx[s])] =
          per_queue[q].sample_val[s];
    }
  }

  // Each window is an independent SMT problem: solve them concurrently
  // into per-window slots, then stitch in window order so the result is
  // identical at every thread count.
  struct WindowResult {
    bool feasible = true;
    std::int64_t objective = 0;
    std::vector<std::vector<double>> values;  // [queue][t within window]
  };
  std::vector<WindowResult> results(static_cast<std::size_t>(windows));

  util::ThreadPool::resolve(pool).parallel_for(0, windows, [&](std::int64_t
                                                                   w) {
    const bool timed = obs::enabled();
    fmnet::Stopwatch window_clock;
    WindowResult& wr = results[static_cast<std::size_t>(w)];
    wr.values.assign(nq,
                     std::vector<double>(static_cast<std::size_t>(factor)));
    const std::int64_t begin = w * factor;
    auto record_time = [&] {
      if (timed) metrics.window_ms.record(window_clock.elapsed_ms());
    };
    auto clamp_fallback = [&] {
      wr.feasible = false;
      for (std::size_t q = 0; q < nq; ++q) {
        for (std::int64_t t = 0; t < factor; ++t) {
          wr.values[q][static_cast<std::size_t>(t)] = std::max(
              0.0, imputed[q][static_cast<std::size_t>(begin + t)]);
        }
      }
      record_time();
    };

    smt::Model model;
    std::vector<std::vector<smt::VarId>> qv(nq);
    smt::LinExpr objective;
    std::vector<smt::LinExpr> step_nz(static_cast<std::size_t>(factor));

    std::vector<std::int64_t> m_max_q(nq, 0);
    for (std::size_t q = 0; q < nq; ++q) {
      // C1 (upper bound) is each variable's domain [0, m_max]; intervals
      // with a lost LANZ report get the relaxed effective bound instead.
      const std::int64_t m_max = effective_m_max(
          per_queue[q], w, imputed[q], sample_at[q], begin, factor);
      m_max_q[q] = m_max;
      for (std::int64_t t = 0; t < factor; ++t) {
        const smt::VarId v = model.new_int(0, m_max);
        qv[q].push_back(v);
        const std::int64_t s =
            sample_at[q][static_cast<std::size_t>(begin + t)];
        if (s >= 0) {
          if (s > m_max) {
            clamp_fallback();
            return;
          }
          model.add_linear(smt::LinExpr(v), smt::Cmp::kEq, s);
        } else {
          const std::int64_t ref = std::llround(
              imputed[q][static_cast<std::size_t>(begin + t)]);
          const std::int64_t hi = std::max(iabs(ref), iabs(m_max - ref));
          objective.add_term(
              1, model.add_abs(smt::LinExpr(v) - smt::LinExpr(ref), hi));
        }
        const smt::VarId nz = model.new_bool();
        model.add_reified(nz, smt::LinExpr(v), smt::Cmp::kGe, 1);
        step_nz[static_cast<std::size_t>(t)].add_term(1, nz);
      }
    }

    // Port-level NE: or_t <-> any queue non-empty at t; Σ or_t <= m_out.
    smt::LinExpr ne;
    for (std::int64_t t = 0; t < factor; ++t) {
      const smt::VarId any = model.new_bool();
      // any >= each nz (via: sum_nz - nq*any <= 0 would be wrong per-lit;
      // use: sum_nz >= any  and  sum_nz <= nq * any).
      model.add_linear(step_nz[static_cast<std::size_t>(t)] -
                           smt::LinExpr(any),
                       smt::Cmp::kGe, 0);
      model.add_linear(step_nz[static_cast<std::size_t>(t)] -
                           smt::LinExpr(any) * static_cast<std::int64_t>(nq),
                       smt::Cmp::kLe, 0);
      ne.add_term(1, any);
    }
    const std::int64_t m_out =
        per_queue.front().port_sent[static_cast<std::size_t>(w)];
    model.add_linear(ne, smt::Cmp::kLe, m_out);
    model.minimize(objective);

    // Warm start: a greedy feasible candidate — per-queue clamp into
    // [0, m_max], then zero the cheapest optional steps (whole port-steps
    // with no sampled-positive queue) until the port-level C3 budget
    // holds. Not necessarily optimal, but feasible, which is all a warm
    // incumbent needs to be.
    smt::WarmStart warm;
    bool have_warm = false;
    if (config_.warm_start) {
      std::vector<std::vector<std::int64_t>> cand(
          nq, std::vector<std::int64_t>(static_cast<std::size_t>(factor)));
      std::vector<char> forced(static_cast<std::size_t>(factor), 0);
      for (std::size_t q = 0; q < nq; ++q) {
        for (std::int64_t t = 0; t < factor; ++t) {
          const std::int64_t s =
              sample_at[q][static_cast<std::size_t>(begin + t)];
          if (s >= 0) {
            cand[q][static_cast<std::size_t>(t)] = s;
            if (s > 0) forced[static_cast<std::size_t>(t)] = 1;
          } else {
            const std::int64_t ref = std::llround(
                imputed[q][static_cast<std::size_t>(begin + t)]);
            cand[q][static_cast<std::size_t>(t)] =
                std::clamp<std::int64_t>(ref, 0, m_max_q[q]);
          }
        }
      }
      std::int64_t ne_count = 0;
      std::int64_t forced_count = 0;
      // (Δcost of zeroing, t) for optional non-empty steps.
      std::vector<std::pair<std::int64_t, std::int64_t>> zero_delta;
      for (std::int64_t t = 0; t < factor; ++t) {
        bool any = false;
        std::int64_t delta = 0;
        for (std::size_t q = 0; q < nq; ++q) {
          if (cand[q][static_cast<std::size_t>(t)] > 0) {
            any = true;
            const std::int64_t ref = std::llround(
                imputed[q][static_cast<std::size_t>(begin + t)]);
            delta += iabs(ref) -
                     iabs(cand[q][static_cast<std::size_t>(t)] - ref);
          }
        }
        if (!any) continue;
        ++ne_count;
        if (forced[static_cast<std::size_t>(t)] != 0) {
          ++forced_count;
        } else {
          zero_delta.emplace_back(delta, t);
        }
      }
      if (forced_count <= m_out) {
        const std::int64_t need_zero =
            std::max<std::int64_t>(0, ne_count - m_out);
        std::sort(zero_delta.begin(), zero_delta.end());
        for (std::int64_t k = 0;
             k < need_zero &&
             k < static_cast<std::int64_t>(zero_delta.size());
             ++k) {
          const std::int64_t t = zero_delta[static_cast<std::size_t>(k)]
                                     .second;
          for (std::size_t q = 0; q < nq; ++q) {
            if (sample_at[q][static_cast<std::size_t>(begin + t)] < 0) {
              cand[q][static_cast<std::size_t>(t)] = 0;
            }
          }
        }
        warm.hints.reserve(nq * static_cast<std::size_t>(factor));
        for (std::size_t q = 0; q < nq; ++q) {
          for (std::int64_t t = 0; t < factor; ++t) {
            warm.hints.emplace_back(qv[q][static_cast<std::size_t>(t)],
                                    cand[q][static_cast<std::size_t>(t)]);
          }
        }
        have_warm = true;
      }
    }

    smt::RepairOptions ro;
    ro.budget = config_.smt_budget;
    ro.use_cache = config_.use_repair_cache;
    const smt::SolveResult r =
        smt::repair_minimize(model, ro, have_warm ? &warm : nullptr);
    if (!r.has_solution()) {
      clamp_fallback();
      return;
    }
    wr.objective = r.objective;
    for (std::size_t q = 0; q < nq; ++q) {
      for (std::int64_t t = 0; t < factor; ++t) {
        wr.values[q][static_cast<std::size_t>(t)] = static_cast<double>(
            r.value(qv[q][static_cast<std::size_t>(t)]));
      }
    }
    record_time();
  });

  PortCemResult out;
  out.corrected.assign(nq, std::vector<double>(
                               static_cast<std::size_t>(t_len), 0.0));
  metrics.windows.add(windows);
  for (std::int64_t w = 0; w < windows; ++w) {
    const WindowResult& wr = results[static_cast<std::size_t>(w)];
    const std::int64_t begin = w * factor;
    if (!wr.feasible) {
      out.feasible = false;
      metrics.infeasible.add(1);
    }
    if (wr.feasible) out.objective += wr.objective;
    for (std::size_t q = 0; q < nq; ++q) {
      for (std::int64_t t = 0; t < factor; ++t) {
        out.corrected[q][static_cast<std::size_t>(begin + t)] =
            wr.values[q][static_cast<std::size_t>(t)];
      }
    }
  }
  out.seconds = clock.elapsed_seconds();
  metrics.packets_moved.add(out.objective);
  return out;
}

CemResult ConstraintEnforcementModule::correct(
    const std::vector<double>& imputed_raw, const CemConstraints& c,
    util::ThreadPool* pool) const {
  obs::ScopedSpan span("correct");
  CemMetrics& metrics = CemMetrics::get();
  fmnet::Stopwatch clock;
  std::vector<double> masked;
  const std::vector<double>& imputed =
      mask_references(imputed_raw, masked, metrics);
  const std::int64_t factor = c.coarse_factor;
  FMNET_CHECK_GT(factor, 0);
  const auto t_len = static_cast<std::int64_t>(imputed.size());
  FMNET_CHECK_EQ(t_len % factor, 0);
  const std::int64_t windows = t_len / factor;
  FMNET_CHECK_EQ(static_cast<std::int64_t>(c.window_max.size()), windows);
  FMNET_CHECK_EQ(static_cast<std::int64_t>(c.port_sent.size()), windows);
  FMNET_CHECK_EQ(c.sample_idx.size(), c.sample_val.size());

  // Scatter samples to per-step lookup (-1 = not sampled).
  std::vector<std::int64_t> sample_at(static_cast<std::size_t>(t_len), -1);
  for (std::size_t s = 0; s < c.sample_idx.size(); ++s) {
    const std::int64_t idx = c.sample_idx[s];
    FMNET_CHECK(idx >= 0 && idx < t_len, "sample index out of range");
    sample_at[static_cast<std::size_t>(idx)] = c.sample_val[s];
  }

  // Validate serially so malformed constraints throw deterministically,
  // then correct the independent intervals concurrently into per-window
  // slots and stitch in window order.
  if (!c.window_max_valid.empty()) {
    FMNET_CHECK_EQ(static_cast<std::int64_t>(c.window_max_valid.size()),
                   windows);
  }
  for (std::int64_t w = 0; w < windows; ++w) {
    FMNET_CHECK_GE(c.window_max[static_cast<std::size_t>(w)], 0);
    FMNET_CHECK_GE(c.port_sent[static_cast<std::size_t>(w)], 0);
  }

  std::vector<IntervalResult> results(static_cast<std::size_t>(windows));
  util::ThreadPool::resolve(pool).parallel_for(
      0, windows, [&](std::int64_t w) {
        const bool timed = obs::enabled();
        fmnet::Stopwatch window_clock;
        const auto begin = static_cast<std::size_t>(w * factor);
        const std::vector<double> window_in(
            imputed.begin() + static_cast<std::ptrdiff_t>(begin),
            imputed.begin() + static_cast<std::ptrdiff_t>(begin + factor));
        const std::vector<std::int64_t> window_samples(
            sample_at.begin() + static_cast<std::ptrdiff_t>(begin),
            sample_at.begin() + static_cast<std::ptrdiff_t>(begin + factor));
        const std::int64_t m_max = effective_m_max(
            c, w, imputed, sample_at, w * factor, factor);
        const std::int64_t m_out = c.port_sent[static_cast<std::size_t>(w)];
        results[static_cast<std::size_t>(w)] =
            config_.engine == CemEngine::kFastRepair
                ? correct_interval_fast(window_in, m_max, m_out,
                                        window_samples, factor)
                : correct_interval_smt(window_in, m_max, m_out,
                                       window_samples, factor);
        if (timed) metrics.window_ms.record(window_clock.elapsed_ms());
      });

  CemResult out;
  out.corrected.resize(static_cast<std::size_t>(t_len));
  metrics.windows.add(windows);
  for (std::int64_t w = 0; w < windows; ++w) {
    const IntervalResult& r = results[static_cast<std::size_t>(w)];
    const auto begin = static_cast<std::size_t>(w * factor);
    if (!r.feasible) {
      out.feasible = false;
      metrics.infeasible.add(1);
      // Leave this interval as the clamped input so callers still get a
      // usable series.
      for (std::int64_t t = 0; t < factor; ++t) {
        out.corrected[begin + static_cast<std::size_t>(t)] = std::max(
            0.0, imputed[begin + static_cast<std::size_t>(t)]);
      }
      continue;
    }
    out.objective += r.objective;
    for (std::int64_t t = 0; t < factor; ++t) {
      out.corrected[begin + static_cast<std::size_t>(t)] =
          static_cast<double>(r.values[static_cast<std::size_t>(t)]);
    }
  }
  out.seconds = clock.elapsed_seconds();
  metrics.packets_moved.add(out.objective);
  return out;
}

CemResult ConstraintEnforcementModule::correct_window(
    const std::vector<double>& imputed_raw, std::int64_t m_max,
    std::int64_t m_out, const std::vector<std::int64_t>& sample_at,
    const std::vector<std::int64_t>* warm_values) const {
  CemMetrics& metrics = CemMetrics::get();
  const bool timed = obs::enabled();
  fmnet::Stopwatch clock;
  std::vector<double> masked;
  const std::vector<double>& imputed =
      mask_references(imputed_raw, masked, metrics);
  const auto factor = static_cast<std::int64_t>(sample_at.size());
  FMNET_CHECK_GT(factor, 0);
  FMNET_CHECK_EQ(static_cast<std::int64_t>(imputed.size()), factor);
  FMNET_CHECK_GE(m_max, 0);
  FMNET_CHECK_GE(m_out, 0);

  const IntervalResult r =
      config_.engine == CemEngine::kFastRepair
          ? correct_interval_fast(imputed, m_max, m_out, sample_at, factor)
          : correct_interval_smt(imputed, m_max, m_out, sample_at, factor,
                                 warm_values);
  CemResult out;
  out.corrected.resize(static_cast<std::size_t>(factor));
  metrics.windows.add(1);
  if (!r.feasible) {
    out.feasible = false;
    metrics.infeasible.add(1);
    for (std::int64_t t = 0; t < factor; ++t) {
      out.corrected[static_cast<std::size_t>(t)] =
          std::max(0.0, imputed[static_cast<std::size_t>(t)]);
    }
  } else {
    out.objective = r.objective;
    for (std::int64_t t = 0; t < factor; ++t) {
      out.corrected[static_cast<std::size_t>(t)] =
          static_cast<double>(r.values[static_cast<std::size_t>(t)]);
    }
  }
  out.seconds = clock.elapsed_seconds();
  metrics.packets_moved.add(out.objective);
  if (timed) metrics.window_ms.record(clock.elapsed_ms());
  return out;
}

CemResult StreamingCemRepair::repair(
    const std::vector<double>& imputed, std::int64_t m_max,
    std::int64_t m_out, const std::vector<std::int64_t>& sample_at) {
  const auto factor = static_cast<std::int64_t>(sample_at.size());
  // Shift the previous solution by the stride: position t of this window
  // is position t + stride of the previous one; the fresh tail falls back
  // to the clamped imputation. Any mismatch (first window, resized window,
  // degenerate stride) just repairs cold.
  std::vector<std::int64_t> warm;
  const bool overlap =
      static_cast<std::int64_t>(prev_.size()) == factor && stride_ > 0 &&
      stride_ < factor;
  if (overlap) {
    warm.resize(static_cast<std::size_t>(factor));
    for (std::int64_t t = 0; t < factor; ++t) {
      const std::int64_t src = t + stride_;
      warm[static_cast<std::size_t>(t)] =
          src < factor
              ? prev_[static_cast<std::size_t>(src)]
              : std::max<std::int64_t>(
                    0, std::llround(masked_reference(
                           imputed[static_cast<std::size_t>(t)])));
    }
  }
  const CemResult out = cem_.correct_window(imputed, m_max, m_out, sample_at,
                                            overlap ? &warm : nullptr);
  prev_.resize(static_cast<std::size_t>(factor));
  for (std::int64_t t = 0; t < factor; ++t) {
    prev_[static_cast<std::size_t>(t)] =
        std::llround(out.corrected[static_cast<std::size_t>(t)]);
  }
  return out;
}

}  // namespace fmnet::impute
