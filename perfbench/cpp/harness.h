// Measurement pieces of the benchmark that do not depend on a workload:
// exact percentiles with their sample counts, an in-memory span recorder
// that writes Chrome trace-event JSON, a timing Imputer decorator, the
// open-loop tick pacer, counter deltas and the run's conditions block.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "impute/imputer.h"
#include "util/clock.h"

namespace perfbench {

/// A nearest-rank percentile of a sample: the value at rank ceil(p/100·n)
/// of the sorted samples, with the sample count and the number of samples
/// strictly beyond that rank.
struct Quantile {
  double value = 0.0;
  std::int64_t samples = 0;
  std::int64_t beyond = 0;
};

/// Nearest-rank percentile `p` in (0, 100] of `values`. Throws
/// CheckError on an empty sample.
Quantile percentile(std::vector<double> values, double p);

/// As percentile(), but throws CheckError unless at least `min_beyond`
/// samples lie beyond the reported rank — the rule every tail percentile
/// the benchmark reports obeys (p99 needs n >= 1000 for 10 beyond).
Quantile tail_percentile(std::vector<double> values, double p,
                         std::int64_t min_beyond = 10);

double median(std::vector<double> values);

/// Seconds on the steady clock since the first call in the process.
double now_s();

/// In-memory span recorder. Disabled, a span costs one branch. Spans nest
/// per thread; a span without a request id inherits its parent's.
class Tracer {
 public:
  struct Record {
    std::int64_t id = 0;
    std::int64_t parent = -1;
    std::string name;
    std::string request;
    double start_s = 0.0;
    double end_s = 0.0;
    std::uint64_t thread = 0;
  };

  class Span {
   public:
    Span(Tracer* tracer, const char* name, std::string request);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t index_ = -1;
    std::int64_t saved_parent_ = -1;
  };

  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  Span span(const char* name, std::string request = {}) {
    return Span(enabled_ ? this : nullptr, name, std::move(request));
  }

  /// Duration of each span named `name` (optionally only for `request`).
  std::vector<double> durations(const std::string& name,
                                const std::string& request = {}) const;

  /// Sum over spans named `name` of their self time: duration minus the
  /// part of it covered by their direct children.
  double self_seconds(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON ("X" events, µs).
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// Forwards every call to `inner`, timing impute/impute_batch. Latencies
/// (ms per call) go to `latencies_ms` when non-null; with the tracer on
/// each call is also a span `span_name` carrying `request`. name() is the
/// inner name, so Table-1 output is unchanged by decoration.
class TimedImputer final : public fmnet::impute::Imputer {
 public:
  TimedImputer(std::shared_ptr<fmnet::impute::Imputer> inner,
               std::vector<double>* latencies_ms, Tracer* tracer,
               const char* span_name, std::string request);

  std::string name() const override { return inner_->name(); }
  void fit(const std::vector<fmnet::impute::ImputationExample>& examples,
           fmnet::util::ThreadPool* pool = nullptr) override {
    inner_->fit(examples, pool);
  }
  std::vector<double> impute(
      const fmnet::impute::ImputationExample& ex) override;
  std::vector<std::vector<double>> impute_batch(
      const std::vector<fmnet::impute::ImputationExample>& batch) override;

 private:
  std::shared_ptr<fmnet::impute::Imputer> inner_;
  std::vector<double>* latencies_ms_;
  Tracer* tracer_;
  const char* span_name_;
  std::string request_;
};

/// One tick of an open-loop schedule: when it was due, when it started and
/// when it returned, all on the pacer's clock (seconds).
struct TickTiming {
  double due = 0.0;
  double start = 0.0;
  double end = 0.0;
};

/// Open-loop pacer. Tick t is due at clock.now() at entry + t·interval; it
/// starts at its due time or, if the previous tick overran, as soon as
/// that tick returns — so a stall delays every tick queued behind it and
/// the delay shows in latencies measured from due times. `wait_until`
/// blocks until the clock reads at least its argument; `after_tick` runs
/// once the tick's end is read, outside the timed interval.
std::vector<TickTiming> run_open_loop(
    std::int64_t ticks, double interval_s, const fmnet::util::Clock& clock,
    const std::function<void(double)>& wait_until,
    const std::function<void(std::int64_t)>& do_tick,
    const std::function<void(std::int64_t, const TickTiming&)>& after_tick);

/// Sleeps on the steady clock until `clock` (a wall clock) reads `t`.
void sleep_until_wall(const fmnet::util::Clock& clock, double t);

/// obs counter values by name.
std::map<std::string, std::int64_t> counter_snapshot();
/// after − before per counter (missing before = 0).
std::map<std::string, std::int64_t> counter_delta(
    const std::map<std::string, std::int64_t>& before,
    const std::map<std::string, std::int64_t>& after);
std::int64_t get(const std::map<std::string, std::int64_t>& m,
                 const std::string& key);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// The conditions a result was measured under. Runs compare only when
/// every field but `seed` agrees.
struct Conditions {
  int nproc = 0;
  std::string fmnet_threads;
  std::string isa;
  std::string build_type;
  std::string compiler;
  bool fmnet_fast = false;
  std::string scenario_hash;  // canonical scenario before the seed
  std::uint64_t seed = 0;
};
Conditions current_conditions(const std::string& scenario_hash,
                              std::uint64_t seed);

/// FNV-1a over one 64-bit word, little-endian byte order.
std::uint64_t fnv64(std::uint64_t h, std::uint64_t v);
std::uint64_t fnv64_double(std::uint64_t h, double v);
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/// JSON string literal with escapes.
std::string json_str(const std::string& s);
/// Shortest round-tripping decimal for a double ("null" if not finite).
std::string json_num(double v);

}  // namespace perfbench
