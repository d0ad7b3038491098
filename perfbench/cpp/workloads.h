// The benchmark's three workloads (see README.md for why each exists):
//
//   table1-cold  examples/scenarios/table1.scn as-is against an empty
//                artifact store — training-bound;
//   serve        500 replayed sessions through serve::ServeCore: an
//                unpaced VirtualClock replay (capacity) and an open loop
//                paced at one tick per 50 ms (latency from due time);
//   cem-smt      one correct_window call per 50 ms interval, SMT engine,
//                over the iterative imputer's outputs — solver-bound.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "harness.h"
#include "serve/serve.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  /// Checkout root: scenario files and perfbench/golden are read from it.
  std::string root = ".";
  /// Scratch directory for artifact stores, traces and result documents.
  std::string work_dir = ".bench_build/perfbench-work";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Sample count behind a percentile or median (0 = single measurement).
  std::int64_t samples = 0;
};

struct WorkloadResult {
  std::vector<std::string> check_failures;  // empty = outputs correct
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // filled by traced runs only
  std::string scenario_hash;
  /// Extra facts for the result document (output hash, counts, ...).
  std::map<std::string, std::string> notes;
};

/// Runs one workload end to end (set-up, measured job, output checks and,
/// when traced, the per-layer table). Throws CheckError on bad options.
WorkloadResult run_workload(const RunOptions& options);

// ---- pieces exposed for the self-tests ------------------------------------

/// What the decorated Table-1 job observes besides its rows.
struct Table1Observed {
  /// Outer decorator, per row (method name) — one entry per test window.
  std::map<std::string, std::vector<double>> window_ms;
  /// CEM share of each +cem window: outer minus inner decorator.
  std::vector<double> cem_ms;
  /// The base model's time per window over every row (the inner decorator
  /// on +cem rows).
  std::vector<double> model_ms;
  /// The fitted model under the last +cem row (the paper's model).
  std::shared_ptr<fmnet::impute::Imputer> repaired_base;
  /// +cem output intervals checked against C1–C3 in packets, and how many
  /// broke them.
  std::int64_t repaired_intervals = 0;
  std::int64_t repaired_violations = 0;
};

/// Engine::run's fit → (with_cem) → evaluate loop for every scenario
/// method, with every imputer wrapped in TimedImputer. Output rows equal
/// Engine::run's on the same engine state.
std::vector<fmnet::core::Table1Row> run_table1_decorated(
    const fmnet::core::Scenario& s, fmnet::core::Engine& engine,
    const fmnet::core::Campaign& campaign,
    const fmnet::core::PreparedData& data, Tracer& tracer,
    Table1Observed& observed);

/// What a serving phase observed: latencies from each window's due time to
/// its publication, and an FNV hash of the published stream (session,
/// tick, kind, values; latency excluded) in publication order.
struct ServePhase {
  std::vector<TickTiming> ticks;
  std::vector<double> raw_ms;
  std::vector<double> repaired_ms;
  /// The arrival tick of each raw_ms / repaired_ms sample.
  std::vector<std::int64_t> raw_tick;
  std::vector<std::int64_t> repaired_tick;
  std::vector<double> repair_lag_ticks;
  std::uint64_t hash = kFnvBasis;
  std::int64_t raw = 0;
  std::int64_t repaired = 0;
  std::int64_t degraded = 0;
};

/// Drives `server` open loop over `ticks` ticks of `source` on `clock`
/// (see run_open_loop), then drains it. `stall` (may be empty) runs inside
/// each tick after the server's work — tests use it to stall one tick.
/// With a tracer, each tick is a span whose request id is the tick.
ServePhase run_serve_phase(fmnet::serve::ServeCore& server,
                           const fmnet::serve::ReplaySource& source,
                           std::int64_t ticks, double interval_s,
                           const fmnet::util::Clock& clock,
                           const std::function<void(double)>& wait_until,
                           const std::function<void(std::int64_t)>& stall,
                           Tracer* tracer = nullptr);

}  // namespace perfbench
