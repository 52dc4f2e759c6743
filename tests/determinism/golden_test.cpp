// Golden-file regression harness: locks the seed scenarios' localization
// estimates bit-for-bit. Each scenario runs the full simulator -> middleware
// -> engine pipeline with a fixed seed and compares every Fix field,
// rendered at full precision (%.17g round-trips doubles exactly), against a
// CSV checked into tests/golden/.
//
// Regenerating after an intentional algorithm change:
//   VIRE_REGEN_GOLDEN=1 ./golden_regression_test
// rewrites the files in the source tree (path baked in via VIRE_GOLDEN_DIR);
// review the diff like any other code change.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/localization_engine.h"
#include "env/environment.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "sim/simulator.h"

#ifndef VIRE_GOLDEN_DIR
#error "VIRE_GOLDEN_DIR must point at tests/golden"
#endif

namespace vire::engine {
namespace {

struct Scenario {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<geom::Vec2> tags;
  int rounds = 3;
  /// Grid-refresh rate limit; 0 refreshes every round, which (with a partly
  /// static reference field) drives the incremental re-interpolation path.
  double min_refresh_interval_s = 10.0;
  /// Reader killed mid-scenario (-1: none). A dead reader's links go NaN and
  /// then STAY NaN, so later refreshes see a strict subset of reader planes
  /// dirty — the partial-rebuild path the incremental goldens lock down.
  int kill_reader = -1;
  double kill_time_s = 0.0;
};

std::vector<Scenario> scenarios() {
  return {
      {"center_cluster", 7, {{1.4, 1.8}, {1.5, 1.5}, {2.2, 2.2}}, 3},
      {"boundary_ring", 21, {{0.0, 0.0}, {3.0, 1.0}, {1.0, 3.0}, {2.9, 2.9}}, 3},
      {"dense_batch",
       99,
       {{0.3, 0.3}, {0.9, 2.1}, {1.2, 0.7}, {1.4, 1.8}, {1.5, 1.5}, {1.8, 2.6},
        {2.1, 1.1}, {2.2, 2.2}, {2.6, 0.4}, {2.8, 2.9}, {0.5, 1.6}, {1.9, 0.2}},
       2},
      {"incremental_updates",
       42,
       {{0.8, 0.8}, {1.6, 2.4}, {2.5, 1.3}},
       8,
       /*min_refresh_interval_s=*/0.0,
       /*kill_reader=*/2,
       /*kill_time_s=*/38.0},
  };
}

std::string format_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

/// Runs a scenario and renders one CSV line per (round, fix). When
/// `partial_rebuilds` is non-null it receives the engine's
/// vire_engine_grid_partial_rebuilds_total counter after the last round.
std::vector<std::string> render_rows(const Scenario& scenario,
                                     std::uint64_t* partial_rebuilds = nullptr) {
  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();
  sim::SimulatorConfig sim_config;
  sim_config.seed = scenario.seed;
  // Fault scenarios shrink the window so a killed reader's samples age out
  // within one round; the original scenarios keep the default, leaving their
  // golden files byte-identical to the seed.
  if (scenario.kill_reader >= 0) sim_config.middleware.window_s = 10.0;
  sim::RfidSimulator simulator(environment, deployment, sim_config);
  fault::FaultPlan plan;
  if (scenario.kill_reader >= 0) {
    plan.kill_reader(static_cast<std::uint16_t>(scenario.kill_reader),
                     scenario.kill_time_s);
  }
  fault::FaultInjector injector(plan, scenario.seed);
  if (scenario.kill_reader >= 0) simulator.set_interceptor(&injector);
  const auto reference_ids = simulator.add_reference_tags();
  std::vector<sim::TagId> tags;
  for (const auto& p : scenario.tags) tags.push_back(simulator.add_tag(p));
  simulator.run_for(35.0);

  EngineConfig config;
  config.min_refresh_interval_s = scenario.min_refresh_interval_s;
  LocalizationEngine engine(deployment, config);
  engine.set_reference_ids(reference_ids);
  for (std::size_t i = 0; i < tags.size(); ++i) {
    engine.track(tags[i], "tag-" + std::to_string(i));
  }

  std::vector<std::string> rows;
  for (int r = 0; r < scenario.rounds; ++r) {
    simulator.run_for(5.0);
    // Dead readers' samples must age out for their links to serve NaN (and
    // from then on stay bit-stable across refreshes). Only the fault
    // scenarios evict: the original scenarios' middleware state is
    // untouched, keeping their goldens byte-identical to the seed files.
    if (scenario.kill_reader >= 0) {
      simulator.middleware().evict_stale(simulator.now());
    }
    const auto fixes = engine.update(simulator.middleware(), simulator.now());
    for (std::size_t i = 0; i < fixes.size(); ++i) {
      const Fix& fix = fixes[i];
      std::ostringstream row;
      row << r << ',' << i << ',' << fix.name << ',' << (fix.valid ? 1 : 0) << ','
          << format_double(fix.position.x) << ',' << format_double(fix.position.y)
          << ',' << format_double(fix.smoothed_position.x) << ','
          << format_double(fix.smoothed_position.y) << ',' << fix.survivor_count;
      rows.push_back(row.str());
    }
  }
  if (partial_rebuilds != nullptr) {
    *partial_rebuilds =
        engine.metrics().counter("vire_engine_grid_partial_rebuilds_total", {})
            .value();
  }
  return rows;
}

std::filesystem::path golden_path(const Scenario& scenario) {
  return std::filesystem::path(VIRE_GOLDEN_DIR) / (scenario.name + ".csv");
}

const char* kHeader = "round,tag_index,name,valid,x,y,smoothed_x,smoothed_y,survivors";

void write_golden(const Scenario& scenario, const std::vector<std::string>& rows) {
  std::ofstream out(golden_path(scenario));
  ASSERT_TRUE(out.is_open()) << golden_path(scenario);
  out << kHeader << '\n';
  for (const auto& row : rows) out << row << '\n';
}

std::vector<std::string> read_golden(const Scenario& scenario) {
  std::ifstream in(golden_path(scenario));
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool regen_requested() { return std::getenv("VIRE_REGEN_GOLDEN") != nullptr; }

void check_scenario(const Scenario& scenario) {
  std::uint64_t partial_rebuilds = 0;
  const auto rows = render_rows(scenario, &partial_rebuilds);
  if (regen_requested()) {
    write_golden(scenario, rows);
    GTEST_SKIP() << "regenerated " << golden_path(scenario);
  }
  if (scenario.min_refresh_interval_s == 0.0 && scenario.kill_reader >= 0) {
    // The incremental scenario exists to pin the partial-rebuild path: a
    // dead reader's plane stays bit-stable while the live planes keep
    // changing, so at least some refreshes must re-interpolate a strict
    // subset of reader planes.
    EXPECT_GT(partial_rebuilds, 0u)
        << scenario.name << " never took the incremental path";
  }
  const auto golden = read_golden(scenario);
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << golden_path(scenario)
      << " — run with VIRE_REGEN_GOLDEN=1 to create it";
  ASSERT_EQ(golden.size(), rows.size() + 1) << scenario.name;
  EXPECT_EQ(golden[0], kHeader);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(golden[i + 1], rows[i]) << scenario.name << " row " << i;
  }
}

TEST(Golden, SerialRunsMatchGoldenFiles) {
  for (const auto& scenario : scenarios()) check_scenario(scenario);
}

}  // namespace
}  // namespace vire::engine
