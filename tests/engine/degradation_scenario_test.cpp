// Acceptance scenario for the graceful-degradation ladder (docs/robustness.md):
// a 4-reader paper testbed loses reader 2 mid-run through a seed-driven
// FaultPlan. Required behaviour:
//   * every tracked tag keeps getting a usable fix through the transition —
//     quality moves OK -> DEGRADED with no invalid gap;
//   * the health monitor quarantines the dead reader (and the quarantine
//     shows up in the Prometheus export);
//   * median localization error while degraded stays within 2x the
//     all-healthy baseline;
//   * the whole faulted run is bit-identical from run to run with the same
//     fault seed;
//   * the restart variant recovers: the reader rejoins and quality returns
//     to OK.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/localization_engine.h"
#include "env/environment.h"
#include "fault/fault_injector.h"
#include "obs/exporters.h"
#include "sim/simulator.h"

namespace vire::engine {
namespace {

constexpr double kKillTime = 60.0;
constexpr int kRounds = 20;
constexpr double kRoundStep = 5.0;

const std::vector<geom::Vec2>& truths() {
  static const std::vector<geom::Vec2> positions = {
      {1.4, 1.8}, {1.5, 1.5}, {2.2, 2.2}};
  return positions;
}

struct RoundFix {
  Fix fix;
  double error = 0.0;  ///< distance to ground truth
};

struct ScenarioRun {
  std::vector<std::vector<RoundFix>> rounds;  ///< [round][tag]
  std::uint64_t quarantines = 0;
  std::uint64_t recoveries = 0;
  std::string prometheus;
};

/// Runs the full pipeline with `plan` injected; identical seeds everywhere so
/// two invocations differ only in the plan.
ScenarioRun run_scenario(const fault::FaultPlan& plan) {
  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();
  sim::SimulatorConfig sim_config;
  sim_config.seed = 7;
  sim_config.middleware.window_s = 10.0;
  sim::RfidSimulator simulator(environment, deployment, sim_config);

  fault::FaultInjector injector(plan, /*seed=*/7);
  simulator.set_interceptor(&injector);

  const auto reference_ids = simulator.add_reference_tags();
  std::vector<sim::TagId> tags;
  for (const auto& p : truths()) tags.push_back(simulator.add_tag(p));

  EngineConfig config;
  config.min_refresh_interval_s = 10.0;
  config.degradation.health.quarantine_after = 2;
  config.degradation.health.recover_after = 2;
  config.degradation.health.stale_after_s = 60.0;
  LocalizationEngine engine(deployment, config);
  injector.attach_metrics(engine.metrics());
  engine.set_reference_ids(reference_ids);
  for (std::size_t i = 0; i < tags.size(); ++i) {
    engine.track(tags[i], "tag-" + std::to_string(i));
  }

  simulator.run_for(40.0);  // warm-up: fill the window before round 0

  ScenarioRun run;
  for (int r = 0; r < kRounds; ++r) {
    simulator.run_for(kRoundStep);
    const sim::SimTime now = simulator.now();
    simulator.middleware().evict_stale(now);  // age out dead readers' samples
    const auto fixes = engine.update(simulator.middleware(), now);
    std::vector<RoundFix> round;
    for (std::size_t i = 0; i < fixes.size(); ++i) {
      round.push_back(
          {fixes[i], geom::distance(fixes[i].position, truths()[i])});
    }
    run.rounds.push_back(std::move(round));
  }
  run.quarantines = engine.health().quarantine_count();
  run.recoveries = engine.health().recovery_count();
  run.prometheus = obs::to_prometheus(engine.metrics());
  return run;
}

double median(std::vector<double> values) {
  const auto mid = values.size() / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(mid), values.end());
  return values[mid];
}

/// Median error over rounds [first, last) across all tags.
double median_error(const ScenarioRun& run, int first, int last) {
  std::vector<double> errors;
  for (int r = first; r < last; ++r) {
    for (const auto& rf : run.rounds[static_cast<std::size_t>(r)]) {
      errors.push_back(rf.error);
    }
  }
  return median(std::move(errors));
}

TEST(DegradationScenario, ReaderLossDegradesWithoutGaps) {
  fault::FaultPlan plan;
  plan.kill_reader(2, kKillTime);
  const ScenarioRun faulted = run_scenario(plan);
  const ScenarioRun baseline = run_scenario(fault::FaultPlan{});

  // No gaps: every round of every tag has a fresh position.
  bool seen_degraded = false;
  for (const auto& round : faulted.rounds) {
    for (const auto& rf : round) {
      EXPECT_TRUE(rf.fix.valid)
          << rf.fix.name << " lost its fix at t=" << rf.fix.time;
      EXPECT_TRUE(rf.fix.quality == FixQuality::kOk ||
                  rf.fix.quality == FixQuality::kDegraded);
      if (rf.fix.quality == FixQuality::kDegraded) seen_degraded = true;
      // Monotone ladder in this scenario: once degraded, never back to OK
      // (the reader stays dead).
      if (seen_degraded) {
        EXPECT_NE(rf.fix.quality, FixQuality::kOk);
      }
    }
  }
  EXPECT_TRUE(seen_degraded);

  // The first rounds (before the kill at t=60, i.e. rounds 0-3) are OK.
  for (int r = 0; r < 3; ++r) {
    for (const auto& rf : faulted.rounds[static_cast<std::size_t>(r)]) {
      EXPECT_EQ(rf.fix.quality, FixQuality::kOk) << "round " << r;
    }
  }
  // The tail is degraded (quarantine latency: eviction window + hysteresis).
  for (const auto& rf : faulted.rounds.back()) {
    EXPECT_EQ(rf.fix.quality, FixQuality::kDegraded);
  }
  EXPECT_GE(faulted.quarantines, 1u);
  EXPECT_EQ(baseline.quarantines, 0u);

  // Degraded accuracy stays within 2x the all-healthy baseline over the
  // post-kill rounds.
  const double degraded_error = median_error(faulted, 5, kRounds);
  const double baseline_error = median_error(baseline, 5, kRounds);
  EXPECT_LE(degraded_error, 2.0 * baseline_error)
      << "degraded median " << degraded_error << " vs baseline "
      << baseline_error;

  // Quarantine/recovery metrics are in the Prometheus export, alongside the
  // injector's fault counters and the quality-by-level fix counters.
  EXPECT_NE(faulted.prometheus.find("vire_health_quarantines_total 1"),
            std::string::npos)
      << faulted.prometheus;
  EXPECT_NE(faulted.prometheus.find("vire_health_recoveries_total 0"),
            std::string::npos);
  EXPECT_NE(faulted.prometheus.find(
                "vire_fault_injected_total{type=\"reader_outage\"}"),
            std::string::npos);
  EXPECT_NE(faulted.prometheus.find(
                "vire_engine_fixes_by_quality_total{quality=\"degraded\"}"),
            std::string::npos);
  EXPECT_NE(faulted.prometheus.find("vire_health_reader_healthy{reader=\"2\"} 0"),
            std::string::npos);
}

TEST(DegradationScenario, FaultedRunIsBitIdenticalUnderTheSameFaultSeed) {
  fault::FaultPlan plan;
  plan.kill_reader(2, kKillTime);
  const ScenarioRun first = run_scenario(plan);
  const ScenarioRun second = run_scenario(plan);

  ASSERT_EQ(first.rounds.size(), second.rounds.size());
  for (std::size_t r = 0; r < first.rounds.size(); ++r) {
    ASSERT_EQ(first.rounds[r].size(), second.rounds[r].size());
    for (std::size_t i = 0; i < first.rounds[r].size(); ++i) {
      const Fix& a = first.rounds[r][i].fix;
      const Fix& b = second.rounds[r][i].fix;
      EXPECT_EQ(a.valid, b.valid);
      EXPECT_EQ(a.quality, b.quality);
      EXPECT_EQ(a.used_fallback, b.used_fallback);
      // Bit-pattern comparison: == would also accept -0.0 vs 0.0.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.position.x),
                std::bit_cast<std::uint64_t>(b.position.x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.position.y),
                std::bit_cast<std::uint64_t>(b.position.y));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.smoothed_position.x),
                std::bit_cast<std::uint64_t>(b.smoothed_position.x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.smoothed_position.y),
                std::bit_cast<std::uint64_t>(b.smoothed_position.y));
      EXPECT_EQ(a.survivor_count, b.survivor_count);
    }
  }
  EXPECT_EQ(first.quarantines, second.quarantines);
}

TEST(DegradationScenario, ReaderRestartRecoversToOk) {
  fault::FaultPlan plan;
  plan.kill_reader(2, kKillTime, 100.0);  // restart at t = 100
  const ScenarioRun run = run_scenario(plan);

  EXPECT_GE(run.quarantines, 1u);
  EXPECT_GE(run.recoveries, 1u);
  // After restart + window refill + recovery hysteresis, quality is OK again.
  for (const auto& rf : run.rounds.back()) {
    EXPECT_EQ(rf.fix.quality, FixQuality::kOk)
        << rf.fix.name << " still degraded at t=" << rf.fix.time;
  }
  // And nothing was ever a gap in between.
  for (const auto& round : run.rounds) {
    for (const auto& rf : round) EXPECT_TRUE(rf.fix.valid);
  }
}

}  // namespace
}  // namespace vire::engine
