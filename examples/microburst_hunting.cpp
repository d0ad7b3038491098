// Microburst hunting: find sub-10 ms queue spikes — invisible to 50 ms
// polling — from routinely-collected telemetry (the paper's anomaly-
// detection / root-cause motivation).
//
// Compares microburst recall of the coarse view vs the imputed view
// against ground truth, and prints the hunted incidents.
#include <algorithm>
#include <cstdio>

#include "example_common.h"
#include "obs/export.h"
#include "tasks/bursts.h"

using namespace fmnet;

namespace {
// Microburst = burst shorter than 10 ms.
std::vector<tasks::Burst> microbursts(const std::vector<double>& series,
                                      double threshold) {
  std::vector<tasks::Burst> out;
  for (const auto& b : tasks::detect_bursts(series, threshold)) {
    if (b.duration() < 10) out.push_back(b);
  }
  return out;
}

// Matching at two granularities: exact (overlapping steps) and interval
// (same 50 ms interval — what CEM can guarantee, since the LANZ max forces
// a >= threshold step *somewhere* in the right interval).
std::size_t matched(const std::vector<tasks::Burst>& truth,
                    const std::vector<tasks::Burst>& found,
                    std::size_t tolerance) {
  std::size_t hits = 0;
  for (const auto& t : truth) {
    for (const auto& f : found) {
      const tasks::Burst widened{f.start > tolerance ? f.start - tolerance
                                                     : 0,
                                 f.end + tolerance, f.height};
      if (t.overlaps(widened)) {
        ++hits;
        break;
      }
    }
  }
  return hits;
}
}  // namespace

int main() {
  std::printf("=== Microburst hunting with imputed telemetry ===\n");
  const core::Scenario s = examples::small_scenario(
      "microburst-hunting", /*seed=*/33, /*total_ms=*/3'000, /*epochs=*/15);
  core::Engine engine;
  const core::Campaign campaign = engine.campaign(s.campaign);
  const core::PreparedData data = engine.prepare(s, campaign);
  auto built = engine.fit_method(s, "transformer+kal+cem", data);
  impute::Imputer& imputer = *built.imputer;

  const double threshold =
      0.1 * static_cast<double>(campaign.switch_config.buffer_size);

  std::size_t truth_total = 0;
  std::size_t coarse_hits = 0;
  std::size_t imputed_hits = 0;
  std::size_t imputed_interval_hits = 0;
  std::size_t imputed_false = 0;
  for (const auto& ex : data.split.test) {
    std::vector<double> truth(ex.window);
    std::vector<double> coarse(ex.window);
    for (std::size_t t = 0; t < ex.window; ++t) {
      truth[t] = campaign.gt.queue_len[ex.queue][ex.start_ms + t];
      const std::size_t j = t / static_cast<std::size_t>(
                                    ex.constraints.coarse_factor);
      coarse[t] = static_cast<double>(ex.constraints.sample_val[j]) *
                  ex.qlen_scale;
    }
    const auto imputed = imputer.impute(ex);

    const auto mb_truth = microbursts(truth, threshold);
    const auto mb_coarse = microbursts(coarse, threshold);
    const auto mb_imputed = microbursts(imputed, threshold);
    const std::size_t interval_tol =
        static_cast<std::size_t>(ex.constraints.coarse_factor);
    truth_total += mb_truth.size();
    coarse_hits += matched(mb_truth, mb_coarse, 0);
    imputed_hits += matched(mb_truth, mb_imputed, 0);
    imputed_interval_hits += matched(mb_truth, mb_imputed, interval_tol);
    imputed_false += mb_imputed.size() - matched(mb_imputed, mb_truth, 0);

    for (const auto& b : mb_truth) {
      const bool exact = matched({b}, mb_imputed, 0) > 0;
      const bool interval = matched({b}, mb_imputed, interval_tol) > 0;
      std::printf(
          "  microburst: queue %d at t=%zu ms, %zu ms long, peak %.0f pkts "
          "-> %s\n",
          ex.queue, ex.start_ms + b.start, b.duration(), b.height,
          exact      ? "FOUND (exact ms)"
          : interval ? "FOUND (right interval)"
                     : "missed");
    }
  }
  auto pct = [&](std::size_t hits) {
    return truth_total ? 100.0 * static_cast<double>(hits) /
                             static_cast<double>(truth_total)
                       : 0.0;
  };
  std::printf("\nground-truth microbursts: %zu\n", truth_total);
  std::printf("recall from 50 ms samples alone:        %.0f%%\n",
              pct(coarse_hits));
  std::printf("FMNet recall, exact-ms overlap:         %.0f%%\n",
              pct(imputed_hits));
  std::printf("FMNet recall, correct 50 ms interval:   %.0f%%  "
              "(guaranteed by CEM when the peak exceeds the threshold)\n",
              pct(imputed_interval_hits));
  std::printf("spurious imputed microbursts (exact):   %zu\n",
              imputed_false);
  obs::finalize();
  return 0;
}
