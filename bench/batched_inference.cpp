// Transformer inference throughput: windows/s of the per-window fp32
// serving loop (impute::TransformerImputer::impute, one InferenceGuard
// forward per window) — the one inference path every model-backed
// imputer serves through. The loop is timed pinned to the portable
// kernels and on the startup dispatch (the best vector clone the CPU runs,
// or the FMNET_KERNEL_ISA pin), alternating over three rounds and keeping
// the best of each, so a burst of host noise slows a round rather than one
// side of the ratio. The ratio is a within-run check that the clones are
// in use, which no number recorded on another host can give.
//
// Gauges:
//   bench.batched.loop.win_per_s    per-window fp32 loop, startup dispatch
//   bench.batched.isa_speedup       that loop over the portable-kernel loop
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "tensor/kernels.h"
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

  const auto loop_win_per_s = [&] {
    fmnet::Stopwatch clock;
    for (std::size_t r = 0; r < reps; ++r) {
      for (const auto& ex : windows) (void)imputer.impute(ex);
    }
    return static_cast<double>(reps * num_windows) / clock.elapsed_seconds();
  };
  namespace kernels = tensor::kernels;
  const kernels::Isa startup = kernels::active_isa();
  double portable_wps = 0.0;
  double loop_wps = 0.0;
  for (int round = 0; round < 3; ++round) {
    kernels::set_isa(kernels::Isa::kPortable);
    portable_wps = std::max(portable_wps, loop_win_per_s());
    kernels::set_isa(startup);
    loop_wps = std::max(loop_wps, loop_win_per_s());
  }
  const double isa_speedup = loop_wps / portable_wps;

  auto& reg = obs::Registry::global();
  reg.gauge("bench.batched.loop.win_per_s").set_max(loop_wps);
  reg.gauge("bench.batched.isa_speedup").set(isa_speedup);

  Table table({"path", "windows/s"});
  table.add_row({"per-window loop (fp32, portable)", Table::fmt(portable_wps)});
  table.add_row({std::string("per-window loop (fp32, ") +
                     kernels::isa_name(startup) + ")",
                 Table::fmt(loop_wps)});
  table.add_row({"isa speedup", Table::fmt(isa_speedup)});
  table.print(std::cout);
  return 0;
}
