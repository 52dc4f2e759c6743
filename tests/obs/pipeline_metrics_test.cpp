// End-to-end instrumentation coverage (the PR's acceptance test): after one
// LocalizationEngine::update() the Prometheus export must contain a counter
// or histogram for every instrumented pipeline stage, and the fixes
// themselves must stay bit-identical from run to run — metrics are a pure
// side channel over the determinism contract.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/vire_localizer.h"
#include "engine/localization_engine.h"
#include "env/environment.h"
#include "obs/exporters.h"
#include "sim/simulator.h"

namespace vire::obs {
namespace {

struct Rig {
  env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  env::Deployment deployment = env::Deployment::paper_testbed();
  sim::RfidSimulator simulator;
  std::vector<sim::TagId> reference_ids;
  std::vector<sim::TagId> assets;

  explicit Rig(std::uint64_t seed = 7)
      : simulator(environment, deployment, [seed] {
          sim::SimulatorConfig config;
          config.seed = seed;
          return config;
        }()) {
    reference_ids = simulator.add_reference_tags();
    assets.push_back(simulator.add_tag({0.8, 0.8}));
    assets.push_back(simulator.add_tag({2.2, 2.2}));
    assets.push_back(simulator.add_tag({1.4, 1.8}));
    simulator.run_for(40.0);
  }
};

struct RunResult {
  std::vector<engine::Fix> fixes;
  std::string prometheus;
};

RunResult run_instrumented(Rig& rig) {
  engine::LocalizationEngine engine(rig.deployment, engine::EngineConfig{});
  // The middleware registers into the engine's registry so one export
  // covers the whole pipeline.
  rig.simulator.middleware().attach_metrics(engine.metrics());
  engine.set_reference_ids(rig.reference_ids);
  for (std::size_t i = 0; i < rig.assets.size(); ++i) {
    engine.track(rig.assets[i], "asset" + std::to_string(i));
  }
  RunResult result;
  result.fixes = engine.update(rig.simulator.middleware(), rig.simulator.now());
  result.prometheus = to_prometheus(engine.metrics());
  return result;
}

/// Every metric the instrumented pipeline must expose after one update.
std::vector<std::string> mandatory_series() {
  return {
      "vire_engine_updates_total 1",
      "vire_engine_fixes_total{valid=\"true\"}",
      "vire_engine_fixes_total{valid=\"false\"}",
      "vire_engine_grid_rebuilds_total 1",
      "vire_engine_grid_rebuild_skips_total{reason=\"rate_limited\"}",
      "vire_engine_grid_rebuild_skips_total{reason=\"unchanged\"}",
      "vire_engine_update_seconds_bucket{le=\"+Inf\"} 1",
      "vire_engine_stage_seconds_bucket{stage=\"interpolation\",le=\"+Inf\"} 1",
      "vire_engine_stage_seconds_bucket{stage=\"elimination\",le=\"+Inf\"} 3",
      "vire_engine_stage_seconds_bucket{stage=\"weighting\",le=\"+Inf\"} 3",
      "vire_engine_stage_seconds_bucket{stage=\"locate\",le=\"+Inf\"} 1",
      "vire_engine_survivors_count 3",
      "vire_engine_threshold_refinement_steps_count 3",
      "vire_engine_kernel_isa{isa=\"" + std::string(core::locate_kernel_isa()) + "\"} 1",
      "vire_middleware_readings_ingested_total",
      "vire_middleware_samples_evicted_total",
      "vire_middleware_nan_links_served_total",
  };
}

TEST(PipelineMetrics, OneUpdateExportsEveryInstrumentedStage) {
  Rig rig;
  const RunResult result = run_instrumented(rig);
  ASSERT_EQ(result.fixes.size(), 3u);
  for (const auto& fix : result.fixes) EXPECT_TRUE(fix.valid);
  for (const std::string& needle : mandatory_series()) {
    EXPECT_NE(result.prometheus.find(needle), std::string::npos)
        << "missing series: " << needle << "\nexport was:\n"
        << result.prometheus;
  }
}

TEST(PipelineMetrics, FixesAndDeterministicSeriesRepeatAcrossRuns) {
  Rig first_rig;
  Rig second_rig;
  const RunResult first = run_instrumented(first_rig);
  const RunResult second = run_instrumented(second_rig);
  ASSERT_EQ(first.fixes.size(), second.fixes.size());
  for (std::size_t i = 0; i < first.fixes.size(); ++i) {
    EXPECT_EQ(first.fixes[i].valid, second.fixes[i].valid);
    EXPECT_EQ(first.fixes[i].position, second.fixes[i].position);
    EXPECT_EQ(first.fixes[i].smoothed_position, second.fixes[i].smoothed_position);
    EXPECT_EQ(first.fixes[i].survivor_count, second.fixes[i].survivor_count);
  }
  // The deterministic per-item observations (fix counts, survivor and
  // refinement distributions) must also agree; only wall-clock timers may
  // differ between the two runs.
  auto deterministic_series = [](const std::string& prom) {
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < prom.size()) {
      std::size_t end = prom.find('\n', start);
      if (end == std::string::npos) end = prom.size();
      const std::string line = prom.substr(start, end - start);
      start = end + 1;
      if (line.rfind("vire_engine_fixes_total", 0) == 0 ||
          line.rfind("vire_engine_survivors_bucket", 0) == 0 ||
          line.rfind("vire_engine_survivors_count", 0) == 0 ||
          line.rfind("vire_engine_survivors_sum", 0) == 0 ||
          line.rfind("vire_engine_threshold_refinement_steps", 0) == 0) {
        lines.push_back(line);
      }
    }
    return lines;
  };
  EXPECT_EQ(deterministic_series(first.prometheus),
            deterministic_series(second.prometheus));
}

TEST(PipelineMetrics, SkipCountersTrackRebuildDecisions) {
  Rig rig;
  engine::EngineConfig config;
  config.min_refresh_interval_s = 1000.0;  // everything after the first is rate-limited
  engine::LocalizationEngine engine(rig.deployment, config);
  engine.set_reference_ids(rig.reference_ids);
  engine.track(rig.assets[0]);
  for (int i = 0; i < 3; ++i) {
    rig.simulator.run_for(1.0);
    (void)engine.update(rig.simulator.middleware(), rig.simulator.now());
  }
  const std::string prom = to_prometheus(engine.metrics());
  EXPECT_NE(prom.find("vire_engine_grid_rebuilds_total 1"), std::string::npos);
  EXPECT_NE(
      prom.find("vire_engine_grid_rebuild_skips_total{reason=\"rate_limited\"} 2"),
      std::string::npos);
  EXPECT_NE(prom.find("vire_engine_updates_total 3"), std::string::npos);
}

}  // namespace
}  // namespace vire::obs
