// The service's core acceptance bar: merged poll() output is fix-for-fix
// BIT-IDENTICAL to a single-engine run over the same reading stream and
// poll schedule, at any shard count x any parallel_workers — including
// after a shard crash+recovery, live add/remove-shard rebalances and a
// supervisor that disappears mid-stream and is replaced. The multi-shard
// cases run a Supervisor over an InProcessShardRunner (every shard a
// one-engine ShardedService behind a server thread), so nothing forks and
// the whole suite runs under TSan. The one-engine host's own recovery —
// construct-with-recover plus a whole-stream re-feed, after a clean drop
// and after a fork+SIGKILL — is checked directly.
//
// Harness: one simulator run is captured through a ReadingRecorder into
// per-segment reading batches (warmup, then one segment per poll interval);
// the golden single engine and every service configuration consume the
// identical capture, so any divergence is the service's fault.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/localization_engine.h"
#include "env/environment.h"
#include "service/shard_runner.h"
#include "service/sharded_service.h"
#include "service/supervisor.h"
#include "sim/simulator.h"

namespace vire::service {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 11;
constexpr double kWarmupS = 40.0;
constexpr double kPollS = 5.0;
constexpr int kPolls = 10;

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

struct Capture {
  /// segments[0] = warmup readings; segments[i+1] = readings of poll i's
  /// interval — fed before poll i, exactly as the golden run ingested them.
  std::vector<std::vector<sim::RssiReading>> segments;
  std::vector<sim::SimTime> poll_times;
  std::vector<std::vector<engine::Fix>> golden;
  std::vector<sim::TagId> reference_ids;
  std::vector<std::pair<sim::TagId, std::string>> tracked;
};

engine::EngineConfig engine_config(int workers) {
  engine::EngineConfig config;
  config.parallel_workers = workers;
  config.min_refresh_interval_s = 10.0;
  return config;
}

Capture capture_scenario() {
  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();
  sim::SimulatorConfig sim_config;
  sim_config.seed = kSeed;
  sim_config.middleware.window_s = 10.0;

  sim::RfidSimulator simulator(environment, deployment, sim_config);
  sim::ReadingRecorder recorder;
  simulator.set_interceptor(&recorder);

  Capture capture;
  capture.reference_ids = simulator.add_reference_tags();
  const sim::TagId pallet = simulator.add_tag({1.4, 1.8});
  const sim::TagId forklift = simulator.add_tag({2.3, 1.1});
  const sim::TagId cart = simulator.add_tag({0.9, 2.6});
  capture.tracked = {{pallet, "pallet"}, {forklift, "forklift"}, {cart, "cart"}};

  engine::LocalizationEngine engine(deployment, engine_config(1));
  simulator.middleware().attach_metrics(engine.metrics());
  engine.set_reference_ids(capture.reference_ids);
  for (const auto& [tag, name] : capture.tracked) engine.track(tag, name);

  simulator.run_for(kWarmupS);
  capture.segments.push_back(recorder.take());
  for (int poll = 0; poll < kPolls; ++poll) {
    simulator.run_for(kPollS);
    capture.segments.push_back(recorder.take());
    const sim::SimTime now = simulator.now();
    capture.poll_times.push_back(now);
    simulator.middleware().evict_stale(now);
    capture.golden.push_back(engine.update(simulator.middleware(), now));
  }
  return capture;
}

const Capture& shared_capture() {
  static const Capture capture = capture_scenario();
  return capture;
}

/// A one-engine host over `data_dir`, registered with the capture's tags.
std::unique_ptr<ShardedService> make_host(const Capture& capture, int workers,
                                          const fs::path& data_dir,
                                          bool recover = false) {
  ServiceConfig config;
  config.engine = engine_config(workers);
  config.middleware.window_s = 10.0;
  config.data_dir = data_dir;
  config.checkpoint_every_updates = 2;
  config.recover = recover;
  auto host = std::make_unique<ShardedService>(env::Deployment::paper_testbed(),
                                               config);
  host->set_reference_ids(capture.reference_ids);
  for (const auto& [tag, name] : capture.tracked) host->track(tag, name);
  return host;
}

fs::path fresh_root(const std::string& name) {
  const fs::path root = fs::temp_directory_path() / name;
  fs::remove_all(root);
  fs::create_directories(root);
  return root;
}

SupervisorConfig fleet_config(const fs::path& root, int shards, int workers) {
  SupervisorConfig config;
  config.shards = shards;
  config.root_dir = root;
  config.engine_workers = workers;
  config.middleware_window_s = 10.0;
  config.checkpoint_every_updates = 2;
  config.seed = 7;
  return config;
}

/// A started supervisor over `runner`, registered with the capture's tags.
std::unique_ptr<Supervisor> make_fleet(const Capture& capture,
                                       const SupervisorConfig& config,
                                       ShardRunner& runner) {
  auto supervisor = std::make_unique<Supervisor>(
      env::Deployment::paper_testbed(), config, nullptr, &runner);
  supervisor->start();
  supervisor->set_reference_ids(capture.reference_ids);
  for (const auto& [tag, name] : capture.tracked) {
    supervisor->track(tag, name, std::nullopt);
  }
  return supervisor;
}

void expect_poll_identical(const std::vector<engine::Fix>& actual,
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

TEST(ShardEquivalenceTest, MatrixMatchesSingleEngineBitIdentically) {
  const Capture& capture = shared_capture();
  for (const int shards : {1, 2, 4}) {
    for (const int workers : {1, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " workers=" + std::to_string(workers));
      const fs::path root = fresh_root("vire_equivalence_matrix");
      InProcessShardRunner runner;
      auto fleet = make_fleet(capture, fleet_config(root, shards, workers), runner);
      fleet->ingest(capture.segments[0]);
      for (int poll = 0; poll < kPolls; ++poll) {
        fleet->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
        const auto fixes = fleet->poll(capture.poll_times[poll]);
        expect_poll_identical(fixes, capture.golden[poll], poll);
      }
      fleet->stop();
      fs::remove_all(root);
    }
  }
}

TEST(ShardEquivalenceTest, LatestFixAndExplainServeMergedResults) {
  const Capture& capture = shared_capture();
  const fs::path root = fresh_root("vire_equivalence_latest");
  InProcessShardRunner runner;
  auto fleet = make_fleet(capture, fleet_config(root, 3, 1), runner);
  fleet->ingest(capture.segments[0]);
  for (int poll = 0; poll < kPolls; ++poll) {
    fleet->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    (void)fleet->poll(capture.poll_times[poll]);
  }
  for (const auto& [tag, name] : capture.tracked) {
    const auto fix = fleet->latest_fix(tag);
    ASSERT_TRUE(fix.has_value()) << name;
    const auto& expected = capture.golden.back();
    const auto it = std::find_if(expected.begin(), expected.end(),
                                 [t = tag](const auto& f) { return f.tag == t; });
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(bits(fix->position.x), bits(it->position.x)) << name;
    const auto record = fleet->explain_json(tag);
    ASSERT_TRUE(record.has_value()) << name;
    EXPECT_NE(record->find("\"tag\":" + std::to_string(tag)), std::string::npos)
        << *record;
  }
  fleet->stop();
  fs::remove_all(root);
}

TEST(ShardEquivalenceTest, KilledShardRecoversBitIdentically) {
  const Capture& capture = shared_capture();
  const fs::path root = fresh_root("vire_equivalence_crash");
  InProcessShardRunner runner;
  auto fleet = make_fleet(capture, fleet_config(root, 3, 1), runner);

  constexpr int kCrashAfterPoll = 5;
  const std::uint32_t victim =
      fleet->router().route(capture.tracked[0].first, std::nullopt);
  fleet->ingest(capture.segments[0]);
  for (int poll = 0; poll < kPolls; ++poll) {
    fleet->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    const auto fixes = fleet->poll(capture.poll_times[poll]);
    expect_poll_identical(fixes, capture.golden[poll], poll);
    if (poll == kCrashAfterPoll) {
      // SIGKILL semantics: queued work is lost, the supervisor's connection
      // sees EOF, no checkpoint is written. The next request detects the
      // death; the restarted shard recovers from its own WAL + checkpoint
      // and the supervisor replays the un-acked suffix.
      runner.kill(victim);
      EXPECT_TRUE(runner.exited(victim));
    }
  }
  EXPECT_EQ(fleet->restarts(), 1u);
  EXPECT_EQ(fleet->shard_state(victim), ShardState::kUp);
  fleet->stop();
  fs::remove_all(root);
}

// A supervisor destroyed without stop() leaves its shards running in the
// runner; the next supervisor over the same root and runner rebuilds its
// control state from the journal, adopts the running shards instead of
// restarting them, replays the un-acked suffix and carries on bit-identically.
TEST(ShardEquivalenceTest, NextSupervisorAdoptsRunningShards) {
  const Capture& capture = shared_capture();
  const fs::path root = fresh_root("vire_equivalence_adopt");
  const SupervisorConfig config = fleet_config(root, 2, 1);
  InProcessShardRunner runner;

  constexpr int kHandoverPoll = 5;
  {
    auto first = make_fleet(capture, config, runner);
    first->ingest(capture.segments[0]);
    for (int poll = 0; poll < kHandoverPoll; ++poll) {
      first->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
      const auto fixes = first->poll(capture.poll_times[poll]);
      expect_poll_identical(fixes, capture.golden[poll], poll);
    }
    // Mid-stream: this segment is delivered, its poll is not.
    first->ingest(capture.segments[static_cast<std::size_t>(kHandoverPoll) + 1]);
  }  // no stop(): the shards keep running
  ASSERT_FALSE(runner.exited(0));
  ASSERT_FALSE(runner.exited(1));

  Supervisor second(env::Deployment::paper_testbed(), config, nullptr, &runner);
  EXPECT_TRUE(second.recovered_from_journal());
  second.start();
  EXPECT_TRUE(second.shard_adopted(0));
  EXPECT_TRUE(second.shard_adopted(1));
  for (int poll = kHandoverPoll; poll < kPolls; ++poll) {
    if (poll > kHandoverPoll) {
      second.ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    }
    const auto fixes = second.poll(capture.poll_times[poll]);
    expect_poll_identical(fixes, capture.golden[poll], poll);
  }
  EXPECT_EQ(second.restarts(), 0u) << "adopted shards must not be restarted";
  second.stop();
  EXPECT_TRUE(runner.exited(0));
  EXPECT_TRUE(runner.exited(1));
  fs::remove_all(root);
}

TEST(ShardEquivalenceTest, HostRecoveryReplaysAndContinues) {
  const Capture& capture = shared_capture();
  const fs::path dir = fresh_root("vire_host_recovery");
  // Crash one poll past a checkpoint boundary (cadence 2 => checkpoints after
  // polls 1 and 3), so recovery must REPLAY poll 4's update, not just load
  // the checkpoint — that exercises the replayed-fix substitution path.
  constexpr int kCrashAfterPoll = 4;

  {
    auto host = make_host(capture, 1, dir);
    host->ingest(capture.segments[0]);
    for (int poll = 0; poll <= kCrashAfterPoll; ++poll) {
      host->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
      (void)host->poll(capture.poll_times[poll]);
    }
    // Dropped without further ceremony — the WAL already holds everything.
  }

  // Recover at a DIFFERENT worker count, re-feed the WHOLE stream from t=0
  // and re-issue every poll. Polls executed before the last checkpoint are
  // gone (fixes are not journaled) and come back incomplete; the replayed
  // polls are served bit-identically from recovered fixes; later polls run
  // live. The resume gate drops every re-fed duplicate reading.
  auto host = make_host(capture, 4, dir, /*recover=*/true);
  const auto report = host->recover();
  EXPECT_EQ(bits(report.recovered_time), bits(capture.poll_times[kCrashAfterPoll]));
  EXPECT_GE(report.updates_replayed, 1u);

  host->ingest(capture.segments[0]);
  for (int poll = 0; poll < kPolls; ++poll) {
    host->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    const auto fixes = host->poll(capture.poll_times[poll]);
    if (poll < kCrashAfterPoll) continue;  // pre-checkpoint history: not reproducible
    expect_poll_identical(fixes, capture.golden[poll], poll);
  }
  // Every gated poll was answered from recovery state, never re-executed.
  const auto* substituted =
      host->metrics().find_counter("vire_service_poll_substituted_total");
  ASSERT_NE(substituted, nullptr);
  EXPECT_EQ(substituted->value(), static_cast<std::uint64_t>(1 * (kCrashAfterPoll + 1)));
  fs::remove_all(dir);
}

TEST(ShardEquivalenceTest, LiveRebalanceKeepsBitIdentity) {
  const Capture& capture = shared_capture();
  const fs::path root = fresh_root("vire_equivalence_rebalance");
  InProcessShardRunner runner;
  auto fleet = make_fleet(capture, fleet_config(root, 2, 1), runner);

  std::uint32_t added = 0;
  fleet->ingest(capture.segments[0]);
  for (int poll = 0; poll < kPolls; ++poll) {
    fleet->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    const auto fixes = fleet->poll(capture.poll_times[poll]);
    expect_poll_identical(fixes, capture.golden[poll], poll);
    if (poll == 3) {
      added = static_cast<std::uint32_t>(fleet->admin_add_shard());
      EXPECT_EQ(fleet->shard_count(), 3u);
    }
    if (poll == 7) {
      (void)fleet->admin_remove_shard(added);  // zero moved tags is legal
      EXPECT_EQ(fleet->shard_count(), 2u);
      EXPECT_TRUE(runner.exited(added));
    }
  }
  fleet->stop();
  fs::remove_all(root);
}

TEST(ShardEquivalenceTest, RebalanceMovesTagStateExactly) {
  // Deterministic mover regardless of ring layout: remove the tag's owner.
  const Capture& capture = shared_capture();
  const fs::path root = fresh_root("vire_equivalence_mover");
  InProcessShardRunner runner;
  auto fleet = make_fleet(capture, fleet_config(root, 3, 1), runner);
  fleet->ingest(capture.segments[0]);
  for (int poll = 0; poll < 5; ++poll) {
    fleet->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    (void)fleet->poll(capture.poll_times[poll]);
  }
  const sim::TagId tag = capture.tracked[1].first;
  const std::uint32_t owner = fleet->router().route(tag, std::nullopt);
  EXPECT_GE(fleet->admin_remove_shard(owner), 1u);
  EXPECT_NE(fleet->router().route(tag, std::nullopt), owner);
  for (int poll = 5; poll < kPolls; ++poll) {
    fleet->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    const auto fixes = fleet->poll(capture.poll_times[poll]);
    expect_poll_identical(fixes, capture.golden[poll], poll);
  }
  fleet->stop();
  fs::remove_all(root);
}

// Whole-process crash of the one-engine host: fork a child that drives it
// persistently and SIGKILL it mid-run, then recover in the parent at a
// different worker count and demand bit-identity for every poll — replayed
// and live alike. The child reports over a pipe once it is past poll 5 and
// has the next segment queued, then waits to be killed, so the kill lands at
// the same point of the run however the scheduler treats the two processes.
TEST(ShardEquivalenceTest, SigkilledHostRecoversBitIdentically) {
  const fs::path dir = fresh_root("vire_host_sigkill");
  constexpr int kKillAfterPoll = 5;
  const Capture& capture = shared_capture();

  int ready[2];
  ASSERT_EQ(pipe(ready), 0);
  // Every service this test builds in the parent is built after the fork;
  // earlier tests joined all of their threads.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(ready[0]);
    auto host = make_host(capture, 1, dir);
    host->ingest(capture.segments[0]);
    for (int poll = 0; poll <= kKillAfterPoll; ++poll) {
      host->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
      (void)host->poll(capture.poll_times[poll]);
    }
    host->ingest(capture.segments[static_cast<std::size_t>(kKillAfterPoll) + 2]);
    const char byte = 'k';
    if (write(ready[1], &byte, 1) != 1) _exit(6);
    for (;;) pause();
  }
  close(ready[1]);
  char byte = 0;
  const ssize_t got = read(ready[0], &byte, 1);
  close(ready[0]);
  if (got != 1) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    FAIL() << "child never reached poll " << kKillAfterPoll;
  }
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  auto host = make_host(capture, 4, dir, /*recover=*/true);
  const auto report = host->recover();
  const sim::SimTime resume = report.recovered_time;
  EXPECT_EQ(bits(resume), bits(capture.poll_times[kKillAfterPoll]))
      << "the host resumes at its last completed poll";

  host->ingest(capture.segments[0]);
  bool compared_live = false;
  for (int poll = 0; poll < kPolls; ++poll) {
    host->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    const auto fixes = host->poll(capture.poll_times[poll]);
    if (capture.poll_times[poll] <= resume &&
        fixes.size() != capture.golden[poll].size()) {
      continue;  // pre-checkpoint history: not reproducible
    }
    expect_poll_identical(fixes, capture.golden[poll], poll);
    if (capture.poll_times[poll] > resume) compared_live = true;
  }
  EXPECT_TRUE(compared_live);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace vire::service
