// RecoveryManager: in-process bit-identity. A persistent run is abandoned
// mid-scenario (writer simply dropped, as a crash would), recovered into a
// FRESH engine, caught up with the deterministic simulator, and every
// replayed + continued fix is compared against the uninterrupted golden run
// by bit pattern. The fork+SIGKILL variant lives in crash_drill_test.cpp /
// examples/crash_drill.cpp.

#include "persist/recovery.h"

#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "engine/localization_engine.h"
#include "env/environment.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "sim/simulator.h"

namespace vire::persist {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 11;
constexpr double kWarmupS = 40.0;
constexpr double kPollS = 5.0;
constexpr int kPolls = 10;
constexpr int kCrashAfterPolls = 6;   // persistence run stops here
constexpr int kCheckpointAtPoll = 4;  // one checkpoint, mid-run

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

struct Pipeline {
  std::unique_ptr<sim::RfidSimulator> simulator;
  std::unique_ptr<engine::LocalizationEngine> engine;
};

Pipeline make_pipeline(sim::ReadingInterceptor* interceptor) {
  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();
  sim::SimulatorConfig sim_config;
  sim_config.seed = kSeed;
  sim_config.middleware.window_s = 10.0;

  Pipeline p;
  p.simulator = std::make_unique<sim::RfidSimulator>(environment, deployment,
                                                     sim_config);
  if (interceptor != nullptr) p.simulator->set_interceptor(interceptor);
  const auto reference_ids = p.simulator->add_reference_tags();
  const sim::TagId pallet = p.simulator->add_tag({1.4, 1.8});
  const sim::TagId forklift = p.simulator->add_tag({2.3, 1.1});

  engine::EngineConfig config;
  config.min_refresh_interval_s = 10.0;
  p.engine = std::make_unique<engine::LocalizationEngine>(deployment, config);
  p.simulator->middleware().attach_metrics(p.engine->metrics());
  p.engine->set_reference_ids(reference_ids);
  p.engine->track(pallet, "pallet");
  p.engine->track(forklift, "forklift");
  return p;
}

void expect_bit_identical(const std::vector<engine::Fix>& actual,
                          const std::vector<engine::Fix>& expected, int poll) {
  ASSERT_EQ(actual.size(), expected.size()) << "poll " << poll;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const engine::Fix& a = actual[i];
    const engine::Fix& e = expected[i];
    EXPECT_EQ(a.tag, e.tag) << "poll " << poll;
    EXPECT_EQ(a.name, e.name) << "poll " << poll;
    EXPECT_EQ(bits(a.time), bits(e.time)) << "poll " << poll;
    EXPECT_EQ(a.valid, e.valid) << "poll " << poll;
    EXPECT_EQ(a.quality, e.quality) << "poll " << poll;
    EXPECT_EQ(bits(a.position.x), bits(e.position.x)) << "poll " << poll;
    EXPECT_EQ(bits(a.position.y), bits(e.position.y)) << "poll " << poll;
    EXPECT_EQ(bits(a.smoothed_position.x), bits(e.smoothed_position.x))
        << "poll " << poll;
    EXPECT_EQ(bits(a.smoothed_position.y), bits(e.smoothed_position.y))
        << "poll " << poll;
    EXPECT_EQ(a.survivor_count, e.survivor_count) << "poll " << poll;
    EXPECT_EQ(a.used_fallback, e.used_fallback) << "poll " << poll;
    EXPECT_EQ(bits(a.age_s), bits(e.age_s)) << "poll " << poll;
  }
}

std::vector<std::vector<engine::Fix>> run_golden() {
  Pipeline p = make_pipeline(nullptr);
  p.simulator->run_for(kWarmupS);
  std::vector<std::vector<engine::Fix>> polls;
  for (int poll = 0; poll < kPolls; ++poll) {
    p.simulator->run_for(kPollS);
    const sim::SimTime now = p.simulator->now();
    p.simulator->middleware().evict_stale(now);
    polls.push_back(p.engine->update(p.simulator->middleware(), now));
  }
  return polls;
}

/// Runs the first kCrashAfterPolls polls with WAL + one checkpoint, then
/// abandons the pipeline exactly as a crash would (no clean shutdown beyond
/// what write()/rename() already flushed).
void run_and_abandon(const fs::path& dir) {
  Pipeline p = make_pipeline(nullptr);

  WalConfig wal_config;
  wal_config.dir = dir / "wal";
  wal_config.fsync = FsyncPolicy::kOff;
  WalWriter wal(wal_config);
  p.simulator->middleware().attach_journal(&wal);

  CheckpointStoreConfig store_config;
  store_config.dir = dir / "ckpt";
  CheckpointStore store(store_config);
  const std::uint64_t fingerprint =
      engine_config_fingerprint(p.engine->config());

  p.simulator->run_for(kWarmupS);
  for (int poll = 0; poll < kCrashAfterPolls; ++poll) {
    p.simulator->run_for(kPollS);
    const sim::SimTime now = p.simulator->now();
    p.simulator->middleware().evict_stale(now);
    wal.append_update_marker(now);
    p.engine->update(p.simulator->middleware(), now);
    if (poll + 1 == kCheckpointAtPoll) {
      Checkpoint ckpt;
      ckpt.config_fingerprint = fingerprint;
      ckpt.wal_sequence = wal.next_sequence();
      ckpt.sim_time = now;
      ckpt.engine = p.engine->snapshot();
      ckpt.middleware = p.simulator->middleware().snapshot();
      ckpt.counters = sample_counters(p.engine->metrics());
      store.write(ckpt);
    }
  }
  p.simulator->middleware().attach_journal(nullptr);  // "crash"
}

/// Recovers from `dir`, checks the replayed fixes against golden, then
/// catches up and continues the remaining polls.
void recover_and_check(const fs::path& dir,
                       const std::vector<std::vector<engine::Fix>>& golden) {
  CatchUpGate gate;
  gate.set_open(false);
  Pipeline p = make_pipeline(&gate);

  RecoveryManager manager({dir / "wal", dir / "ckpt"});
  const RecoveryReport report =
      manager.recover(*p.engine, p.simulator->middleware());

  ASSERT_TRUE(report.checkpoint_loaded);
  EXPECT_EQ(report.updates_replayed,
            static_cast<std::uint64_t>(kCrashAfterPolls - kCheckpointAtPoll));
  EXPECT_EQ(report.corrupt_frames, 0u);
  EXPECT_EQ(bits(report.recovered_time),
            bits(kWarmupS + kPollS * kCrashAfterPolls));

  // Replayed updates are golden polls [kCheckpointAtPoll, kCrashAfterPolls).
  ASSERT_EQ(report.replayed_fixes.size(), report.updates_replayed);
  for (std::size_t i = 0; i < report.replayed_fixes.size(); ++i) {
    const int poll = kCheckpointAtPoll + static_cast<int>(i);
    expect_bit_identical(report.replayed_fixes[i],
                         golden[static_cast<std::size_t>(poll)], poll);
  }

  // Catch the simulator up (deliveries muted), reopen the WAL, continue.
  p.simulator->run_until(report.recovered_time);
  gate.set_open(true);
  WalConfig wal_config;
  wal_config.dir = dir / "wal";
  wal_config.fsync = FsyncPolicy::kOff;
  WalWriter wal(wal_config);
  EXPECT_EQ(wal.next_sequence(), report.next_wal_sequence);
  p.simulator->middleware().attach_journal(&wal);

  for (int poll = kCrashAfterPolls; poll < kPolls; ++poll) {
    p.simulator->run_for(kPollS);
    const sim::SimTime now = p.simulator->now();
    p.simulator->middleware().evict_stale(now);
    wal.append_update_marker(now);
    expect_bit_identical(p.engine->update(p.simulator->middleware(), now),
                         golden[static_cast<std::size_t>(poll)], poll);
  }
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vire_recovery_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(RecoveryTest, RecoveredRunIsBitIdenticalToUninterrupted) {
  const auto golden = run_golden();
  run_and_abandon(dir_);
  recover_and_check(dir_, golden);
}

TEST_F(RecoveryTest, ColdStartIsUntouched) {
  Pipeline p = make_pipeline(nullptr);
  RecoveryManager manager({dir_ / "wal", dir_ / "ckpt"});
  const RecoveryReport report =
      manager.recover(*p.engine, p.simulator->middleware());
  EXPECT_FALSE(report.checkpoint_loaded);
  EXPECT_EQ(report.frames_replayed, 0u);
  EXPECT_EQ(report.next_wal_sequence, 1u);

  // The untouched engine then runs the scenario exactly as golden does.
  const auto golden = run_golden();
  p.simulator->run_for(kWarmupS);
  for (int poll = 0; poll < 2; ++poll) {
    p.simulator->run_for(kPollS);
    const sim::SimTime now = p.simulator->now();
    p.simulator->middleware().evict_stale(now);
    expect_bit_identical(p.engine->update(p.simulator->middleware(), now),
                         golden[static_cast<std::size_t>(poll)], poll);
  }
}

TEST_F(RecoveryTest, RecoveryMetricsAreRegistered) {
  run_and_abandon(dir_);
  CatchUpGate gate;
  gate.set_open(false);
  Pipeline p = make_pipeline(&gate);
  RecoveryManager manager({dir_ / "wal", dir_ / "ckpt"});
  const RecoveryReport report =
      manager.recover(*p.engine, p.simulator->middleware());

  const obs::Counter* replayed =
      p.engine->metrics().find_counter("vire_persist_wal_replayed_total", {});
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->value(), report.frames_replayed);
  EXPECT_NE(
      p.engine->metrics().find_counter("vire_persist_checkpoint_loaded_total", {}),
      nullptr);
}

}  // namespace
}  // namespace vire::persist
