// Cross-version checkpoint compatibility: a checkpoint file written by a
// PREVIOUS build of the engine (specifically, the pre-SoA/pre-bitset layout
// that stored the virtual grid as nested vectors) must still deserialize,
// restore, and replay bit-identically on the current build. The fixture pair
// under tests/persist/fixtures/ was generated BEFORE the data-layout
// refactor and is checked in as an immutable artifact:
//
//   pre_soa_checkpoint.ckpt    serialized Checkpoint (engine + middleware
//                              window + counter samples) taken at t=45
//   pre_soa_expected_fixes.csv fixes of the SAME uninterrupted run for the
//                              three post-checkpoint rounds (t=50,55,60),
//                              doubles rendered with %.17g
//
// Regenerating (only legitimate when the fix pipeline changes on purpose —
// which also invalidates the golden CSVs, so expect to regen those too):
//   VIRE_REGEN_CHECKPOINT_FIXTURE=1 ./checkpoint_fixture_test
//
// The scenario deliberately has no faults and a rate-limited refresh, so the
// snapshot covers a mid-flight engine with a cached virtual grid: restore()
// must rebuild that grid from the stored per-reference-tag readings (the
// layout-independent encoding) regardless of how the live grid stores them.

#include <cstdint>
#include <memory>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/localization_engine.h"
#include "env/environment.h"
#include "persist/checkpoint.h"
#include "sim/simulator.h"

#ifndef VIRE_FIXTURE_DIR
#error "VIRE_FIXTURE_DIR must point at tests/persist/fixtures"
#endif

namespace vire::persist {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 11;
constexpr double kWarmupS = 35.0;
constexpr double kCheckpointTime = 45.0;
constexpr int kPreRounds = 2;   // updates at t=40, 45 (before the snapshot)
constexpr int kPostRounds = 3;  // updates at t=50, 55, 60 (replayed)

fs::path fixture_dir() { return fs::path(VIRE_FIXTURE_DIR); }
fs::path checkpoint_file() { return fixture_dir() / "pre_soa_checkpoint.ckpt"; }
fs::path expected_file() { return fixture_dir() / "pre_soa_expected_fixes.csv"; }

engine::EngineConfig fixture_config() {
  engine::EngineConfig config;
  config.min_refresh_interval_s = 10.0;
  return config;
}

std::string format_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::vector<geom::Vec2> tag_positions() {
  return {{0.7, 1.1}, {1.5, 1.5}, {2.4, 2.7}};
}

struct Pipeline {
  env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  env::Deployment deployment = env::Deployment::paper_testbed();
  std::unique_ptr<sim::RfidSimulator> simulator;
  std::unique_ptr<engine::LocalizationEngine> engine;
  std::vector<sim::TagId> tags;
};

/// Deterministic simulator + engine; the simulator's middleware evolves only
/// from the seeded event stream, never from the engine, so two builds of
/// this function see identical readings at identical times.
Pipeline make_pipeline() {
  Pipeline p;
  sim::SimulatorConfig sim_config;
  sim_config.seed = kSeed;
  p.simulator = std::make_unique<sim::RfidSimulator>(p.environment, p.deployment,
                                                     sim_config);
  p.engine = std::make_unique<engine::LocalizationEngine>(p.deployment,
                                                          fixture_config());
  const auto reference_ids = p.simulator->add_reference_tags();
  for (const auto& pos : tag_positions()) {
    p.tags.push_back(p.simulator->add_tag(pos));
  }
  p.engine->set_reference_ids(reference_ids);
  for (std::size_t i = 0; i < p.tags.size(); ++i) {
    p.engine->track(p.tags[i], "tag-" + std::to_string(i));
  }
  p.simulator->run_for(kWarmupS);
  return p;
}

std::vector<std::string> render_fixes(int round,
                                      const std::vector<engine::Fix>& fixes) {
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < fixes.size(); ++i) {
    const engine::Fix& fix = fixes[i];
    std::ostringstream row;
    row << round << ',' << i << ',' << (fix.valid ? 1 : 0) << ','
        << static_cast<int>(fix.quality) << ',' << format_double(fix.position.x)
        << ',' << format_double(fix.position.y) << ','
        << format_double(fix.smoothed_position.x) << ','
        << format_double(fix.smoothed_position.y) << ',' << fix.survivor_count;
    rows.push_back(row.str());
  }
  return rows;
}

/// Post-checkpoint rounds, shared by generation and verification.
std::vector<std::string> run_post_rounds(Pipeline& p) {
  std::vector<std::string> rows;
  for (int r = 0; r < kPostRounds; ++r) {
    p.simulator->run_for(5.0);
    const auto fixes = p.engine->update(p.simulator->middleware(), p.simulator->now());
    const auto rendered = render_fixes(r, fixes);
    rows.insert(rows.end(), rendered.begin(), rendered.end());
  }
  return rows;
}

void generate_fixture() {
  Pipeline p = make_pipeline();
  for (int r = 0; r < kPreRounds; ++r) {
    p.simulator->run_for(5.0);
    (void)p.engine->update(p.simulator->middleware(), p.simulator->now());
  }
  ASSERT_EQ(p.simulator->now(), kCheckpointTime);

  Checkpoint ckpt;
  ckpt.config_fingerprint = engine_config_fingerprint(fixture_config());
  ckpt.wal_sequence = 0;
  ckpt.sim_time = p.simulator->now();
  ckpt.engine = p.engine->snapshot();
  ckpt.middleware = p.simulator->middleware().snapshot();
  ckpt.counters = sample_counters(p.engine->metrics());

  fs::create_directories(fixture_dir());
  std::ofstream out(checkpoint_file(), std::ios::binary);
  ASSERT_TRUE(out.is_open()) << checkpoint_file();
  const std::string blob = serialize(ckpt);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  out.close();

  const auto rows = run_post_rounds(p);
  std::ofstream csv(expected_file());
  ASSERT_TRUE(csv.is_open()) << expected_file();
  for (const auto& row : rows) csv << row << '\n';
}

TEST(CheckpointCrossVersion, PreRefactorFixtureRestoresAndReplaysBitIdentically) {
  if (std::getenv("VIRE_REGEN_CHECKPOINT_FIXTURE") != nullptr) {
    generate_fixture();
    GTEST_SKIP() << "regenerated " << checkpoint_file();
  }

  std::ifstream in(checkpoint_file(), std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << checkpoint_file()
      << " missing — run with VIRE_REGEN_CHECKPOINT_FIXTURE=1 to create it";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  const auto ckpt = deserialize(bytes);
  ASSERT_TRUE(ckpt.has_value()) << "pre-refactor checkpoint no longer parses";
  EXPECT_EQ(serialize(*ckpt), bytes)
      << "re-serializing the fixture must reproduce its bytes exactly";

  // The config fingerprint must be stable across the refactor: data-layout
  // changes are not allowed to masquerade as algorithm changes.
  EXPECT_EQ(ckpt->config_fingerprint, engine_config_fingerprint(fixture_config()));
  EXPECT_EQ(ckpt->sim_time, kCheckpointTime);

  // Fresh pipeline advanced to the checkpoint time WITHOUT engine updates;
  // engine + middleware state comes entirely from the old checkpoint.
  Pipeline p = make_pipeline();
  p.simulator->run_for(kCheckpointTime - kWarmupS);
  ASSERT_EQ(p.simulator->now(), kCheckpointTime);
  p.simulator->middleware().restore(ckpt->middleware);
  p.engine->restore(ckpt->engine);

  const auto rows = run_post_rounds(p);

  std::ifstream csv(expected_file());
  ASSERT_TRUE(csv.is_open()) << expected_file();
  std::vector<std::string> expected;
  std::string line;
  while (std::getline(csv, line)) expected.push_back(line);

  ASSERT_EQ(expected.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(expected[i], rows[i]) << "replayed fix row " << i
                                    << " diverged from the pre-refactor run";
  }
}

}  // namespace
}  // namespace vire::persist
