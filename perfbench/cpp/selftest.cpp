// The benchmark's own tests: its percentile rule, its due-time accounting
// under an injected VirtualClock, and the transparency of the timing
// decorators. Run through `python3 perfbench/run.py --selftest`, or
// directly: perfbench_selftest --root=<checkout>.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/scenario.h"
#include "harness.h"
#include "impute/linear_interp.h"
#include "serve/serve.h"
#include "util/check.h"
#include "workloads.h"

namespace {

std::string g_root = ".";

fmnet::core::Scenario smoke_scenario() {
  return fmnet::core::load_scenario_file(g_root +
                                         "/examples/scenarios/smoke.scn");
}

TEST(Percentile, NearestRankWithSampleCounts) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());
  const perfbench::Quantile p50 = perfbench::percentile(v, 50.0);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.samples, 1000);
  EXPECT_EQ(p50.beyond, 500);
  const perfbench::Quantile p99 = perfbench::tail_percentile(v, 99.0);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000);
  EXPECT_EQ(p99.beyond, 10);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  std::vector<double> v(999, 1.0);
  EXPECT_EQ(perfbench::percentile(v, 99.0).beyond, 9);
  EXPECT_THROW(perfbench::tail_percentile(v, 99.0), fmnet::CheckError);
  EXPECT_THROW(perfbench::percentile({}, 50.0), fmnet::CheckError);
}

/// Replays the smoke scenario's telemetry through a ServeCore backed by
/// linear interpolation on a VirtualClock. Every tick costs 10 ms of
/// virtual time; tick `stalled` (if >= 0) costs 180 ms.
perfbench::ServePhase replay_with_stall(std::int64_t stalled) {
  const fmnet::core::Scenario s = smoke_scenario();
  fmnet::core::Engine engine{fmnet::core::ArtifactStore()};
  const fmnet::core::Campaign campaign = engine.campaign(s.campaign);
  const fmnet::core::PreparedData data = engine.prepare(s, campaign);
  fmnet::serve::ServeConfig config;
  config.sessions = 8;
  fmnet::util::VirtualClock clock;
  fmnet::serve::ServeCore server(
      config, std::make_shared<fmnet::impute::LinearInterpImputer>(),
      s.window_ms / s.factor, s.factor, data.dataset_config.qlen_scale,
      data.dataset_config.count_scale, s.cem, &clock);
  const fmnet::serve::ReplaySource source(
      data.coarse, s.campaign.queues_per_port, config.sessions);
  return perfbench::run_serve_phase(
      server, source, /*ticks=*/20, /*interval_s=*/0.05, clock,
      [&](double t) { clock.set(t); },
      [&](std::int64_t t) { clock.advance(t == stalled ? 0.18 : 0.01); });
}

TEST(DueTime, StalledTickInflatesLaterWindows) {
  const perfbench::ServePhase steady = replay_with_stall(-1);
  const perfbench::ServePhase stalled = replay_with_stall(10);
  ASSERT_EQ(steady.raw_ms.size(), stalled.raw_ms.size());
  EXPECT_EQ(steady.hash, stalled.hash);
  const double steady_max =
      *std::max_element(steady.raw_ms.begin(), steady.raw_ms.end());
  EXPECT_NEAR(steady_max, 10.0, 1e-6);
  // Tick 10 ends 180 ms after it was due. Ticks 11..14 start when their
  // predecessor returns, 130/90/50/10 ms late, and publish 10 ms later;
  // tick 15 is on time again.
  std::vector<double> inflated;
  for (const double ms : stalled.raw_ms) {
    if (ms > 10.0 + 1e-6) inflated.push_back(ms);
  }
  const std::size_t per_tick = 8;
  const std::vector<double> expected = {20.0, 60.0, 100.0, 140.0, 180.0};
  ASSERT_EQ(inflated.size(), expected.size() * per_tick);
  std::sort(inflated.begin(), inflated.end());
  for (std::size_t k = 0; k < inflated.size(); ++k) {
    EXPECT_NEAR(inflated[k], expected[k / per_tick], 1e-6);
  }
}

TEST(Decorators, Table1OutputUnchanged) {
  const fmnet::core::Scenario s = smoke_scenario();
  std::ostringstream plain;
  {
    fmnet::core::Engine engine{fmnet::core::ArtifactStore()};
    fmnet::core::print_table1(engine.run(s), plain);
  }
  std::ostringstream decorated;
  perfbench::Tracer tracer(true);
  perfbench::Table1Observed observed;
  {
    fmnet::core::Engine engine{fmnet::core::ArtifactStore()};
    const fmnet::core::Campaign campaign = engine.campaign(s.campaign);
    const fmnet::core::PreparedData data = engine.prepare(s, campaign);
    fmnet::core::print_table1(
        perfbench::run_table1_decorated(s, engine, campaign, data, tracer,
                                        observed),
        decorated);
  }
  EXPECT_EQ(plain.str(), decorated.str());
  EXPECT_FALSE(observed.cem_ms.empty());
  EXPECT_GT(observed.repaired_intervals, 0);
  EXPECT_EQ(observed.repaired_violations, 0);
  EXPECT_FALSE(tracer.durations("evaluate").empty());
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) g_root = arg.substr(7);
  }
  return RUN_ALL_TESTS();
}
