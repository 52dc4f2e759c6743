// The crash drill as a test: fork the persistent pipeline, SIGKILL it
// mid-scenario, recover into a fresh engine and demand bit-identity with
// the uninterrupted run. The fuller drill (torn tail + corrupt checkpoint
// variants) is examples/crash_drill.cpp; this keeps one end-to-end kill in
// the default ctest sweep.
//
// fork() safety: the child is forked before the parent constructs ANY
// engine, so no other thread exists at fork time.

#include <sys/types.h>
#include <sys/wait.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "engine/localization_engine.h"
#include "env/environment.h"
#include "persist/checkpoint.h"
#include "persist/recovery.h"
#include "persist/wal.h"
#include "sim/simulator.h"

namespace vire::persist {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 11;
constexpr double kWarmupS = 40.0;
constexpr double kPollS = 5.0;
constexpr int kPolls = 12;
constexpr int kCheckpointEveryPolls = 4;
constexpr std::uint64_t kKillAfterMarkers = 10;
// The poll that writes the kill marker must not also checkpoint: the kill
// lands in that poll's sleep, and a checkpoint there leaves recovery nothing
// to replay.
static_assert(kKillAfterMarkers % kCheckpointEveryPolls != 0);

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

[[noreturn]] void run_child(const fs::path& dir) {
  Pipeline p = make_pipeline(nullptr);

  WalConfig wal_config;
  wal_config.dir = dir / "wal";
  WalWriter wal(wal_config);
  p.simulator->middleware().attach_journal(&wal);

  CheckpointStoreConfig store_config;
  store_config.dir = dir / "ckpt";
  CheckpointStore store(store_config);
  const std::uint64_t fingerprint =
      engine_config_fingerprint(p.engine->config());

  p.simulator->run_for(kWarmupS);
  for (int poll = 0; poll < kPolls; ++poll) {
    p.simulator->run_for(kPollS);
    const sim::SimTime now = p.simulator->now();
    p.simulator->middleware().evict_stale(now);
    wal.append_update_marker(now);
    p.engine->update(p.simulator->middleware(), now);
    if ((poll + 1) % kCheckpointEveryPolls == 0) {
      Checkpoint ckpt;
      ckpt.config_fingerprint = fingerprint;
      ckpt.wal_sequence = wal.next_sequence();
      ckpt.sim_time = now;
      ckpt.engine = p.engine->snapshot();
      ckpt.middleware = p.simulator->middleware().snapshot();
      ckpt.counters = sample_counters(p.engine->metrics());
      store.write(ckpt);
    }
    // Slow down so the parent's SIGKILL reliably lands mid-run.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(poll >= 6 ? 150 : 20));
  }
  _exit(7);  // finished un-killed: the parent reports the race as a failure
}

TEST(CrashDrillTest, SigkilledRunRecoversBitIdentically) {
  if (std::thread::hardware_concurrency() <= 1) {
    GTEST_SKIP() << "single hardware thread: the watcher/child kill race "
                    "cannot be scheduled reliably (the child may finish all "
                    "polls before the parent observes enough WAL markers); "
                    "see docs/robustness.md, 'Single-core machines'";
  }
  const fs::path dir =
      fs::temp_directory_path() / "vire_crash_drill_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Fork FIRST: no engine exists in this process yet.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) run_child(dir);  // never returns

  bool killed = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      FAIL() << "child exited (status " << status << ") before the kill";
    }
    const WalReadResult wal = read_wal(dir / "wal");
    std::uint64_t markers = 0;
    for (const auto& frame : wal.frames) {
      if (frame.type == FrameType::kUpdate) ++markers;
    }
    if (markers >= kKillAfterMarkers) {
      kill(pid, SIGKILL);
      killed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(killed) << "child never reached " << kKillAfterMarkers
                      << " update markers";
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // Golden: the same scenario, uninterrupted, in this process.
  std::vector<std::vector<engine::Fix>> golden;
  {
    Pipeline p = make_pipeline(nullptr);
    p.simulator->run_for(kWarmupS);
    for (int poll = 0; poll < kPolls; ++poll) {
      p.simulator->run_for(kPollS);
      const sim::SimTime now = p.simulator->now();
      p.simulator->middleware().evict_stale(now);
      golden.push_back(p.engine->update(p.simulator->middleware(), now));
    }
  }

  // Recover into a fresh engine and verify the replay + the continuation
  // against golden, fix by fix, bit by bit.
  CatchUpGate gate;
  gate.set_open(false);
  Pipeline p = make_pipeline(&gate);
  RecoveryManager manager({dir / "wal", dir / "ckpt"});
  std::unique_ptr<WalWriter> wal;
  const RecoveryReport report =
      manager.recover(*p.engine, p.simulator->middleware(), {}, wal);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(report.checkpoint_loaded);
  ASSERT_GE(report.updates_replayed, 1u);

  const int done_polls =
      static_cast<int>((report.recovered_time - kWarmupS) / kPollS + 0.5);
  ASSERT_GT(done_polls, 0);
  ASSERT_LT(done_polls, kPolls);
  const int replay_first =
      done_polls - static_cast<int>(report.updates_replayed);
  ASSERT_GE(replay_first, 0);

  auto expect_poll = [&](const std::vector<engine::Fix>& actual, int poll) {
    const auto& expected = golden[static_cast<std::size_t>(poll)];
    ASSERT_EQ(actual.size(), expected.size()) << "poll " << poll;
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].tag, expected[i].tag) << "poll " << poll;
      EXPECT_EQ(actual[i].valid, expected[i].valid) << "poll " << poll;
      EXPECT_EQ(actual[i].quality, expected[i].quality) << "poll " << poll;
      EXPECT_EQ(bits(actual[i].position.x), bits(expected[i].position.x))
          << "poll " << poll;
      EXPECT_EQ(bits(actual[i].position.y), bits(expected[i].position.y))
          << "poll " << poll;
      EXPECT_EQ(bits(actual[i].smoothed_position.x),
                bits(expected[i].smoothed_position.x))
          << "poll " << poll;
      EXPECT_EQ(bits(actual[i].smoothed_position.y),
                bits(expected[i].smoothed_position.y))
          << "poll " << poll;
      EXPECT_EQ(actual[i].survivor_count, expected[i].survivor_count)
          << "poll " << poll;
    }
  };

  for (std::size_t i = 0; i < report.replayed_fixes.size(); ++i) {
    expect_poll(report.replayed_fixes[i], replay_first + static_cast<int>(i));
  }

  p.simulator->run_until(report.recovered_time);
  gate.set_open(true);
  p.simulator->middleware().attach_journal(wal.get());
  for (int poll = done_polls; poll < kPolls; ++poll) {
    p.simulator->run_for(kPollS);
    const sim::SimTime now = p.simulator->now();
    p.simulator->middleware().evict_stale(now);
    wal->append_update_marker(now);
    expect_poll(p.engine->update(p.simulator->middleware(), now), poll);
  }

  fs::remove_all(dir);
}

}  // namespace
}  // namespace vire::persist
