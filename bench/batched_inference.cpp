// Transformer inference throughput: windows/s of the per-window fp32
// serving loop (impute::TransformerImputer::impute, one InferenceGuard
// forward per window) — the one inference path every model-backed
// imputer serves through.
//
// Gauge:
//   bench.batched.loop.win_per_s    per-window fp32 loop
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace fmnet;

namespace {

// Synthetic coarse-feature windows in normalised units. An untrained model
// is fine for throughput purposes: the weights are random but fixed by the
// seed.
std::vector<telemetry::ImputationExample> make_windows(std::size_t count,
                                                       std::size_t window) {
  fmnet::Rng rng(123);
  std::vector<telemetry::ImputationExample> out(count);
  for (auto& ex : out) {
    ex.window = window;
    ex.qlen_scale = 1.0;
    ex.count_scale = 1.0;
    ex.features.resize(window * telemetry::kNumInputChannels);
    for (auto& f : ex.features) {
      f = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    ex.target.assign(window, 0.0f);  // never read by impute
  }
  return out;
}

}  // namespace

int main() {
  bench::ScopedMetricsDump metrics_dump;
  bench::print_header("Transformer inference (per-window fp32 loop)");

  const bool fast = fast_mode();
  const std::size_t window = fast ? 90 : 300;   // 6 coarse intervals
  const std::size_t num_windows = fast ? 32 : 64;
  const auto reps =
      static_cast<std::size_t>(bench::env_int("FMNET_BATCH_REPS",
                                              fast ? 3 : 5));

  impute::TransformerImputer imputer(bench::default_model(),
                                     bench::default_training(false));
  const auto windows = make_windows(num_windows, window);

  fmnet::Stopwatch clock;
  for (std::size_t r = 0; r < reps; ++r) {
    for (const auto& ex : windows) (void)imputer.impute(ex);
  }
  const double loop_wps =
      static_cast<double>(reps * num_windows) / clock.elapsed_seconds();

  obs::Registry::global()
      .gauge("bench.batched.loop.win_per_s")
      .set_max(loop_wps);

  Table table({"path", "windows/s"});
  table.add_row({"per-window loop (fp32)", Table::fmt(loop_wps)});
  table.print(std::cout);
  return 0;
}
