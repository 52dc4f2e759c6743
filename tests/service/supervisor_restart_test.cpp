// Restart-storm / circuit-breaker test (ISSUE 8 satellite): a shard binary
// that aborts on startup must trip the crash-loop breaker within a bounded
// number of supervision ticks — backoff delays growing, never a hot spin —
// and once the fault clears, the half-open probe closes the breaker and the
// shard serves again. Time is driven by a fake clock so backoff and cooldown
// windows elapse instantly; a small real sleep inside sleep_for() lets the
// real child processes make progress.
//
// Skipped on single-hardware-thread boxes (docs/robustness.md single-core
// policy): the drill spawns real processes that starve behind the test.
// VIRE_FORCE_DRILLS=1 overrides.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "env/deployment.h"
#include "service/supervisor.h"

namespace vire::service {
namespace {

namespace fs = std::filesystem;

bool drills_enabled() {
  if (std::thread::hardware_concurrency() > 1) return true;
  const char* force = std::getenv("VIRE_FORCE_DRILLS");
  return force != nullptr && std::strcmp(force, "1") == 0;
}

#define SKIP_ON_SINGLE_CORE()                                                \
  if (!drills_enabled()) {                                                   \
    GTEST_SKIP() << "single hardware thread: spawned shard processes starve " \
                    "behind the test (VIRE_FORCE_DRILLS=1 overrides)";       \
  }

/// Fake time for the supervisor; sleep_for advances the fake clock AND
/// yields ~2ms of real time so spawned children get scheduled.
class FakeClock final : public Clock {
 public:
  double now() override { return now_; }
  void sleep_for(double seconds) override {
    ++sleeps_;
    if (seconds > 0.0) now_ += seconds;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  void advance(double seconds) { now_ += seconds; }
  /// sleep_for() calls so far.
  [[nodiscard]] int sleeps() const { return sleeps_; }

 private:
  double now_ = 1000.0;
  int sleeps_ = 0;
};

fs::path write_flaky_shardd(const fs::path& dir, const fs::path& fault_file) {
  const fs::path script = dir / "flaky_shardd.sh";
  {
    std::ofstream out(script);
    out << "#!/bin/sh\n"
        << "if [ -e '" << fault_file.string() << "' ]; then\n"
        << "  exec '" << VIRE_SHARDD_PATH << "' \"$@\" --abort-on-start\n"
        << "fi\n"
        << "exec '" << VIRE_SHARDD_PATH << "' \"$@\"\n";
  }
  fs::permissions(script, fs::perms::owner_all | fs::perms::group_read |
                              fs::perms::others_read);
  return script;
}

/// Counts every launch request; serves nothing.
class CountingRunner final : public ShardRunner {
 public:
  bool start(const ShardLaunch& /*launch*/) override {
    ++launches;
    return false;
  }
  bool adopt(const ShardLaunch& /*launch*/) override {
    ++launches;
    return false;
  }
  bool exited(std::uint32_t /*id*/) override { return true; }
  void kill(std::uint32_t /*id*/) noexcept override {}
  void stop(std::uint32_t /*id*/) noexcept override {}
  [[nodiscard]] pid_t pid(std::uint32_t /*id*/) const override { return -1; }

  int launches = 0;
};

// The supervisor always journals under <root_dir>/journal/, so a config
// without a root is refused at construction: no shard starts and no journal
// lands in the working directory.
TEST(SupervisorRestartTest, EmptyRootDirIsRefusedBeforeAnyShardStarts) {
  SupervisorConfig config;
  config.shards = 2;
  CountingRunner runner;
  const bool journal_existed = fs::exists("journal");
  EXPECT_THROW(Supervisor(env::Deployment::paper_testbed(), config, nullptr,
                          &runner),
               std::invalid_argument);
  EXPECT_EQ(runner.launches, 0);
  if (!journal_existed) {
    EXPECT_FALSE(fs::exists("journal"));
  }
}

TEST(SupervisorRestartTest, CrashLoopTripsBreakerThenRecovers) {
  SKIP_ON_SINGLE_CORE();
  const fs::path root = fs::temp_directory_path() / "vire_supervisor_storm";
  fs::remove_all(root);
  fs::create_directories(root);
  const fs::path fault_file = root / "fault";
  { std::ofstream out(fault_file); }  // faulted from the very first spawn

  SupervisorConfig config;
  config.shards = 1;
  config.root_dir = root;
  config.shardd_binary = write_flaky_shardd(root, fault_file);
  config.restart_backoff_initial_s = 0.05;
  config.restart_backoff_multiplier = 2.0;
  config.restart_backoff_max_s = 1.0;
  config.breaker_max_deaths = 3;
  config.breaker_window_s = 60.0;
  config.breaker_cooldown_s = 5.0;
  config.spawn_wait_s = 30.0;
  config.seed = 3;

  FakeClock clock;
  Supervisor supervisor(env::Deployment::paper_testbed(), config, &clock);
  supervisor.start();  // first spawn aborts: death 1, never throws
  EXPECT_EQ(supervisor.shard_state(0), ShardState::kBackoff);

  // Budget: each tick advances 0.3s fake time; with backoff 0.05 -> 0.1 the
  // three deaths land within a handful of ticks. 20 is generous headroom.
  int ticks = 0;
  while (supervisor.shard_state(0) != ShardState::kDown && ticks < 20) {
    clock.advance(0.3);
    supervisor.tick();
    ++ticks;
  }
  ASSERT_EQ(supervisor.shard_state(0), ShardState::kDown)
      << "breaker must trip within the tick budget";
  EXPECT_LE(ticks, 20);

  const auto* deaths = supervisor.metrics().find_counter(
      "vire_supervisor_deaths_total", "cause=\"waitpid\"");
  ASSERT_NE(deaths, nullptr);
  EXPECT_EQ(deaths->value(), 3u) << "breaker_max_deaths deaths, then DOWN";
  const auto* breaker = supervisor.metrics().find_counter(
      "vire_supervisor_breaker_open_total");
  ASSERT_NE(breaker, nullptr);
  EXPECT_EQ(breaker->value(), 1u);
  EXPECT_EQ(supervisor.restarts(), 0u);

  // While the breaker is open, ticks must NOT spawn: deaths stay frozen.
  clock.advance(1.0);
  supervisor.tick();
  EXPECT_EQ(deaths->value(), 3u) << "open breaker must not respawn";
  EXPECT_EQ(supervisor.shard_state(0), ShardState::kDown);

  // Cooldown elapses with the fault still present: the half-open probe
  // fails and re-opens the breaker without counting toward a new trip.
  clock.advance(config.breaker_cooldown_s + 0.1);
  supervisor.tick();
  EXPECT_EQ(supervisor.shard_state(0), ShardState::kDown);
  EXPECT_EQ(breaker->value(), 1u);

  // Fault cleared: the next probe closes the breaker and the shard serves.
  fs::remove(fault_file);
  clock.advance(config.breaker_cooldown_s + 0.1);
  supervisor.tick();
  ASSERT_EQ(supervisor.shard_state(0), ShardState::kUp);
  EXPECT_EQ(supervisor.restarts(), 1u);
  EXPECT_GT(supervisor.shard_pid(0), 0);

  // State gauges track the transition.
  const auto* up_gauge = supervisor.metrics().find_gauge(
      "vire_supervisor_shard_state", "state=\"up\"");
  ASSERT_NE(up_gauge, nullptr);
  EXPECT_EQ(up_gauge->value(), 1.0);

  supervisor.stop();
  fs::remove_all(root);
}

// A supervisor restarted over an existing root dir recovers each shard's
// durable ack cursor from its WAL; fresh ingest sequences must resume ABOVE
// that cursor or the shard drops every new batch as an already-acked
// duplicate and trim_oplog discards it — silent, unbounded data loss.
TEST(SupervisorRestartTest, IngestSequencesResumeAboveRecoveredAcks) {
  SKIP_ON_SINGLE_CORE();
  const fs::path root = fs::temp_directory_path() / "vire_supervisor_reseed";
  fs::remove_all(root);
  fs::create_directories(root);

  SupervisorConfig config;
  config.shards = 1;
  config.root_dir = root;
  config.shardd_binary = VIRE_SHARDD_PATH;
  config.restart_backoff_initial_s = 0.01;
  config.spawn_wait_s = 60.0;
  config.heartbeat_interval_s = 0.05;

  sim::RssiReading reading;
  reading.time = 1.0;
  reading.tag = 7;
  reading.reader = 0;
  reading.rssi_dbm = -50.0;

  std::uint64_t acked = 0;
  {
    Supervisor first(env::Deployment::paper_testbed(), config);
    first.start();
    ASSERT_EQ(first.shard_state(0), ShardState::kUp);
    first.ingest({reading});
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (first.heartbeat().last_ack_sequence < 1) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "batch never durably acked";
      first.tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    acked = first.heartbeat().last_ack_sequence;
    first.stop();
  }

  Supervisor second(env::Deployment::paper_testbed(), config);
  second.start();
  ASSERT_EQ(second.shard_state(0), ShardState::kUp);
  const HeartbeatInfo recovered = second.heartbeat();
  EXPECT_GE(recovered.last_ack_sequence, acked) << "WAL cursor must survive";
  EXPECT_GT(recovered.wal_next_sequence, recovered.last_ack_sequence)
      << "fresh sequences must sort above the recovered ack cursor";

  // And a new batch must actually land: its ack advances past the cursor.
  reading.time = 2.0;
  second.ingest({reading});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (second.heartbeat().last_ack_sequence <= recovered.last_ack_sequence) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "post-restart batch was dropped as an already-acked duplicate";
    second.tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  second.stop();
  fs::remove_all(root);
}

// A poll hitting a shard whose scheduled restart is further away than
// inline_revival_max_wait_s must degrade immediately instead of sleeping the
// backoff out on the event-loop thread; tick() performs the restart later.
TEST(SupervisorRestartTest, PollSkipsInlineRevivalWhenBackoffIsLong) {
  SKIP_ON_SINGLE_CORE();
  const fs::path root = fs::temp_directory_path() / "vire_supervisor_inline";
  fs::remove_all(root);
  fs::create_directories(root);

  SupervisorConfig config;
  config.shards = 1;
  config.root_dir = root;
  config.shardd_binary = VIRE_SHARDD_PATH;
  config.restart_backoff_initial_s = 30.0;  // far beyond the inline bound
  config.inline_revival_max_wait_s = 0.25;
  config.spawn_wait_s = 60.0;
  config.heartbeat_interval_s = 1e6;
  config.heartbeat_timeout_s = 1e9;
  FakeClock clock;
  Supervisor supervisor(env::Deployment::paper_testbed(), config, &clock);
  supervisor.start();
  ASSERT_EQ(supervisor.shard_state(0), ShardState::kUp);

  ASSERT_EQ(::kill(supervisor.shard_pid(0), SIGKILL), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  supervisor.tick();  // waitpid reaps: kBackoff, restart ~30s of fake time out
  ASSERT_EQ(supervisor.shard_state(0), ShardState::kBackoff);

  // Had poll slept the backoff out, sleep_for would advance the fake clock
  // and bring_up would respawn: restarts() would tick over and the state
  // would flip to kUp. Degrading leaves both untouched.
  const auto fixes = supervisor.poll(1.0);
  EXPECT_TRUE(fixes.empty()) << "no prior fixes: nothing to hold";
  EXPECT_EQ(supervisor.shard_state(0), ShardState::kBackoff)
      << "poll must not revive through a long backoff inline";
  EXPECT_EQ(supervisor.restarts(), 0u);

  // The scheduled restart still happens where it belongs: in tick().
  clock.advance(35.0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (supervisor.shard_state(0) != ShardState::kUp) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    supervisor.tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GE(supervisor.restarts(), 1u);

  supervisor.stop();
  fs::remove_all(root);
}

TEST(SupervisorRestartTest, WaitpidDetectsSilentDeathOnTick) {
  SKIP_ON_SINGLE_CORE();
  const fs::path root = fs::temp_directory_path() / "vire_supervisor_waitpid";
  fs::remove_all(root);
  fs::create_directories(root);

  SupervisorConfig config;
  config.shards = 1;
  config.root_dir = root;
  config.shardd_binary = VIRE_SHARDD_PATH;
  config.restart_backoff_initial_s = 0.01;
  config.spawn_wait_s = 60.0;
  // Disable the heartbeat detectors: this test pins down that waitpid alone
  // notices a silent death (heartbeats racing the reap would relabel it).
  config.heartbeat_interval_s = 1e6;
  config.heartbeat_timeout_s = 1e9;
  FakeClock clock;
  Supervisor supervisor(env::Deployment::paper_testbed(), config, &clock);
  supervisor.start();
  ASSERT_EQ(supervisor.shard_state(0), ShardState::kUp);
  const pid_t first = supervisor.shard_pid(0);
  ASSERT_GT(first, 0);

  // Kill the child without touching its socket from our side: the reap in
  // tick() must notice before any request does.
  ASSERT_EQ(::kill(first, SIGKILL), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (supervisor.shard_state(0) != ShardState::kUp ||
         supervisor.shard_pid(0) == first) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    clock.advance(0.3);
    supervisor.tick();
  }
  EXPECT_NE(supervisor.shard_pid(0), first);
  const auto* deaths = supervisor.metrics().find_counter(
      "vire_supervisor_deaths_total", "cause=\"waitpid\"");
  ASSERT_NE(deaths, nullptr);
  EXPECT_GE(deaths->value(), 1u);
  EXPECT_GE(supervisor.restarts(), 1u);

  supervisor.stop();
  EXPECT_LE(supervisor.shard_pid(0), 0) << "stop() reaps the child";
  fs::remove_all(root);
}

// Bring-up waits on the shard's readiness handshake, not on the clock: a
// fresh start() and a revival after SIGKILL connect once to a shard that
// already serves, so neither calls sleep_for (a bring-up that retried the
// connect would sleep at least once per spawn, before the shard binds).
TEST(SupervisorRestartTest, BringUpWaitsOnReadinessNotOnTheClock) {
  SKIP_ON_SINGLE_CORE();
  const fs::path root = fs::temp_directory_path() / "vire_supervisor_ready";
  fs::remove_all(root);
  fs::create_directories(root);

  SupervisorConfig config;
  config.shards = 2;
  config.root_dir = root;
  config.shardd_binary = VIRE_SHARDD_PATH;
  config.restart_backoff_initial_s = 0.01;
  config.spawn_wait_s = 60.0;
  config.heartbeat_interval_s = 1e6;
  config.heartbeat_timeout_s = 1e9;
  FakeClock clock;
  Supervisor supervisor(env::Deployment::paper_testbed(), config, &clock);
  supervisor.start();
  ASSERT_EQ(supervisor.shard_state(0), ShardState::kUp);
  ASSERT_EQ(supervisor.shard_state(1), ShardState::kUp);
  EXPECT_EQ(clock.sleeps(), 0) << "start() slept waiting for a shard";

  const pid_t first = supervisor.shard_pid(0);
  ASSERT_GT(first, 0);
  ASSERT_EQ(::kill(first, SIGKILL), 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (supervisor.shard_state(0) == ShardState::kUp) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    supervisor.tick();  // reaps the child: kBackoff
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  clock.advance(1.0);  // past the backoff
  supervisor.tick();
  ASSERT_EQ(supervisor.shard_state(0), ShardState::kUp);
  EXPECT_NE(supervisor.shard_pid(0), first);
  EXPECT_EQ(supervisor.restarts(), 1u);
  EXPECT_EQ(clock.sleeps(), 0) << "the revival slept waiting for the shard";

  supervisor.stop();
  fs::remove_all(root);
}

// A shard that dies before serving closes its end of the readiness pipe, so
// bring-up fails at once rather than after spawn_wait_s. Two shards spawn
// back to back: had the first spawn's write end leaked into the second
// child (or stayed open here), the EOF would never come and the wait would
// run the full 30 s.
TEST(SupervisorRestartTest, ShardDyingBeforeServingFailsBringUpAtOnce) {
  SKIP_ON_SINGLE_CORE();
  const fs::path root = fs::temp_directory_path() / "vire_supervisor_abort";
  fs::remove_all(root);
  fs::create_directories(root);

  SupervisorConfig config;
  config.shards = 2;
  config.root_dir = root;
  config.shardd_binary = VIRE_SHARDD_PATH;
  config.shardd_extra_args = {"--abort-on-start"};
  config.restart_backoff_initial_s = 30.0;
  config.spawn_wait_s = 30.0;
  Supervisor supervisor(env::Deployment::paper_testbed(), config);
  const auto started = std::chrono::steady_clock::now();
  supervisor.start();
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - started)
                               .count();
  EXPECT_LT(elapsed_s, 1.0);
  EXPECT_EQ(supervisor.shard_state(0), ShardState::kBackoff);
  EXPECT_EQ(supervisor.shard_state(1), ShardState::kBackoff);
  const auto* deaths = supervisor.metrics().find_counter(
      "vire_supervisor_deaths_total", "cause=\"waitpid\"");
  ASSERT_NE(deaths, nullptr);
  EXPECT_EQ(deaths->value(), 2u);
  EXPECT_LE(supervisor.shard_pid(0), 0) << "the dead child is reaped";
  EXPECT_LE(supervisor.shard_pid(1), 0) << "the dead child is reaped";

  supervisor.stop();
  fs::remove_all(root);
}

/// Runs vire_shardd with `extra` after --socket/--data-dir and expects a
/// usage error: exit status 2 before the shard binds its socket.
void expect_shardd_usage_error(const std::string& name,
                               const std::vector<std::string>& extra) {
  SCOPED_TRACE(name);
  const fs::path root = fs::temp_directory_path() / ("vire_shardd_" + name);
  fs::remove_all(root);
  fs::create_directories(root);
  const fs::path socket = root / "shard.sock";
  std::vector<std::string> args = {VIRE_SHARDD_PATH, "--socket",
                                   socket.string(), "--data-dir",
                                   root.string()};
  args.insert(args.end(), extra.begin(), extra.end());
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::execv(VIRE_SHARDD_PATH, argv.data());
    ::_exit(127);
  }
  // A shard that accepted the arguments would serve until signalled: bound
  // the wait so that regression fails instead of hanging the suite.
  int status = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      fs::remove_all(root);
      FAIL() << "vire_shardd did not exit";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  EXPECT_FALSE(fs::exists(socket));
  fs::remove_all(root);
}

// The engine is serial, so a shard accepts --workers only as "1" (what
// existing launchers pass); any other count is a usage error, status 2,
// before the shard binds a socket.
TEST(SupervisorRestartTest, ShardddRejectsWorkerCountsOtherThanOne) {
  expect_shardd_usage_error("workers", {"--workers", "4"});
}

// --ready-fd must name an open descriptor: otherwise the readiness byte
// would land in whatever the shard opened under that number (a WAL
// segment, its listening socket). Rejected before the socket is bound.
TEST(SupervisorRestartTest, ShardddRejectsReadyFdThatIsNotAnOpenDescriptor) {
  expect_shardd_usage_error("ready_fd_text", {"--ready-fd", "pipe"});
  expect_shardd_usage_error("ready_fd_suffix", {"--ready-fd", "7x"});
  expect_shardd_usage_error("ready_fd_negative", {"--ready-fd", "-1"});
  expect_shardd_usage_error("ready_fd_empty", {"--ready-fd", ""});
  expect_shardd_usage_error("ready_fd_closed", {"--ready-fd", "1000"});
}

// --------------------------------------------------------------------------
// Durable control plane: journal recovery, orphan adoption, mixed shard
// fates and the revival's journal read.

/// Double-forks a vire_shardd so it is reparented to init — the exact
/// topology a SIGKILLed supervisor leaves behind — and writes the pidfile
/// the adoption handshake reads. Returns the orphan's pid.
pid_t spawn_orphan_shardd(const fs::path& socket, const fs::path& data_dir) {
  fs::create_directories(data_dir);
  const fs::path pidfile = data_dir / "shardd.pid";
  fs::remove(pidfile);
  const pid_t mid = ::fork();
  if (mid == 0) {
    const pid_t grand = ::fork();
    if (grand == 0) {
      ::execl(VIRE_SHARDD_PATH, VIRE_SHARDD_PATH, "--socket",
              socket.c_str(), "--data-dir", data_dir.c_str(), "--shard-id",
              "0", "--workers", "1", (char*)nullptr);
      ::_exit(127);
    }
    {
      // _exit skips stream destructors, so flush+close explicitly or the
      // buffered pid never reaches the file and the parent polls forever.
      std::ofstream out(pidfile);
      out << grand << '\n';
      out.close();
    }
    ::_exit(grand > 0 ? 0 : 1);
  }
  int status = 0;
  ::waitpid(mid, &status, 0);
  EXPECT_EQ(status, 0);
  long pid = -1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  for (;;) {
    std::ifstream in(pidfile);
    if (in >> pid && pid > 0 && fs::exists(socket)) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      ADD_FAILURE() << "orphan shardd never came up";
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Give the listener a beat past socket creation before the handshake.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  return static_cast<pid_t>(pid);
}

sim::RssiReading make_reading(double time, sim::TagId tag) {
  sim::RssiReading r;
  r.time = time;
  r.tag = tag;
  r.reader = 0;
  r.rssi_dbm = -50.0;
  return r;
}

// One restart, three fates (the tentpole's recovery matrix): shard 0's
// process survived the supervisor (orphaned, still serving) and must be
// ADOPTED, not respawned; shard 1 is dead and must be restarted with its
// un-acked journal suffix replayed; shard 2 died breaker-open and must stay
// DOWN until the cooldown, then probe back up. Journaled membership (3
// shards) must override config.shards (1). The control state is staged
// through a handcrafted ControlJournal — byte-for-byte what a supervisor
// SIGKILLed mid-stream leaves on disk.
TEST(SupervisorRestartTest, JournalRestartHandlesMixedShardFates) {
  SKIP_ON_SINGLE_CORE();
  const fs::path root = fs::temp_directory_path() / "vire_supervisor_fates";
  fs::remove_all(root);
  fs::create_directories(root);

  {
    ControlJournalConfig jc;
    jc.dir = root / "journal";
    ControlJournal journal(jc);
    (void)journal.recover();
    for (std::uint32_t id = 0; id < 3; ++id) {
      journal.record_add_shard(id);
      journal.record_shard_active(id);
    }
    journal.record_track(7, "asset-7", std::nullopt);
    journal.record_track(8, "asset-8", std::nullopt);
    journal.record_batch(0, 1, std::vector{make_reading(1.0, 7)});
    journal.record_batch(1, 2, std::vector{make_reading(1.0, 8)});
    journal.record_batch(2, 3, std::vector{make_reading(1.5, 7)});
    journal.record_breaker(2, true);
  }
  const pid_t orphan =
      spawn_orphan_shardd(root / "shard-0.sock", root / "shard-0");

  SupervisorConfig config;
  config.shards = 1;  // journaled membership must win over this
  config.root_dir = root;
  config.shardd_binary = VIRE_SHARDD_PATH;
  config.restart_backoff_initial_s = 0.01;
  config.breaker_cooldown_s = 5.0;
  config.spawn_wait_s = 120.0;
  config.heartbeat_interval_s = 1e6;
  config.heartbeat_timeout_s = 1e9;
  FakeClock clock;
  Supervisor supervisor(env::Deployment::paper_testbed(), config, &clock);
  EXPECT_TRUE(supervisor.recovered_from_journal());
  EXPECT_EQ(supervisor.shard_count(), 3u);
  supervisor.start();

  // Fate 1: alive orphan, adopted (same pid, no respawn).
  ASSERT_EQ(supervisor.shard_state(0), ShardState::kUp);
  EXPECT_TRUE(supervisor.shard_adopted(0));
  EXPECT_EQ(supervisor.shard_pid(0), orphan);

  // Fate 2: dead shard, restarted fresh (not adopted: no process to adopt).
  ASSERT_EQ(supervisor.shard_state(1), ShardState::kUp);
  EXPECT_FALSE(supervisor.shard_adopted(1));
  EXPECT_GT(supervisor.shard_pid(1), 0);

  // Fate 3: breaker-open member stays DOWN through the cooldown...
  EXPECT_EQ(supervisor.shard_state(2), ShardState::kDown);
  EXPECT_EQ(supervisor.member_phase(2), MemberPhase::kActive);
  const auto* replayed = supervisor.metrics().find_counter(
      "vire_supervisor_replayed_batches_total");
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->value(), 2u) << "shards 0 and 1 replay their suffix";
  const auto* adoptions =
      supervisor.metrics().find_counter("vire_supervisor_adoptions_total");
  ASSERT_NE(adoptions, nullptr);
  EXPECT_EQ(adoptions->value(), 1u);

  // ...and probes back up once it elapses, replaying its own suffix.
  clock.advance(config.breaker_cooldown_s + 1.0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (supervisor.shard_state(2) != ShardState::kUp) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    supervisor.tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(replayed->value(), 3u);

  supervisor.stop();
  // stop() signals the orphan but cannot waitpid it (not our child): give
  // delivery + init's reap a real-time beat, and count a zombie as dead.
  const auto gone_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool orphan_gone = false;
  while (std::chrono::steady_clock::now() < gone_deadline) {
    if (::kill(orphan, 0) != 0 && errno == ESRCH) {
      orphan_gone = true;
      break;
    }
    std::ifstream stat("/proc/" + std::to_string(orphan) + "/stat");
    std::string line;
    if (std::getline(stat, line)) {
      const auto paren = line.rfind(')');
      if (paren != std::string::npos && paren + 2 < line.size() &&
          line[paren + 2] == 'Z') {
        orphan_gone = true;  // dead, just not yet reaped by init
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(orphan_gone) << "stop() must tear the adopted orphan down too";
  fs::remove_all(root);
}

// A shard held down while batches arrive loses none of them: its op-log
// indexes every batch, the control journal holds their readings, and the
// revival reads all of them back and replays them.
TEST(SupervisorRestartTest, HeldDownShardReplaysEveryBatchFromTheJournal) {
  SKIP_ON_SINGLE_CORE();
  const fs::path root = fs::temp_directory_path() / "vire_supervisor_held_down";
  fs::remove_all(root);
  fs::create_directories(root);

  SupervisorConfig config;
  config.shards = 1;
  config.root_dir = root;
  config.shardd_binary = VIRE_SHARDD_PATH;
  config.restart_backoff_initial_s = 30.0;  // hold the shard down
  config.spawn_wait_s = 120.0;
  config.heartbeat_interval_s = 1e6;
  config.heartbeat_timeout_s = 1e9;
  FakeClock clock;
  Supervisor supervisor(env::Deployment::paper_testbed(), config, &clock);
  supervisor.start();
  ASSERT_EQ(supervisor.shard_state(0), ShardState::kUp);

  ASSERT_EQ(::kill(supervisor.shard_pid(0), SIGKILL), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  supervisor.tick();
  ASSERT_EQ(supervisor.shard_state(0), ShardState::kBackoff);

  for (int i = 0; i < 8; ++i) {
    supervisor.ingest({make_reading(1.0 + 0.1 * i, 7)});
  }

  clock.advance(35.0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (supervisor.shard_state(0) != ShardState::kUp) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    supervisor.tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // The revival read ALL 8 batches back from the journal: the shard's
  // durable ack reaches the newest sequence.
  EXPECT_GE(supervisor.heartbeat().last_ack_sequence, 8u)
      << "every batch must replay from the journal";
  const auto* replayed = supervisor.metrics().find_counter(
      "vire_supervisor_replayed_batches_total");
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->value(), 8u);

  supervisor.stop();
  fs::remove_all(root);
}

// The journal floor follows the op-log: batches a dead shard owes pin it, so
// a checkpoint keeps every segment holding them, and once the revival's ack
// covers them the next checkpoint prunes those segments. 4200 batches cross
// the first journal segment (4096 records), so the revival reads across
// the rotation. One shard and no polls, so only the revival acks.
TEST(SupervisorRestartTest, RevivalReplaysAcrossASegmentAndFreesTheJournal) {
  SKIP_ON_SINGLE_CORE();
  const fs::path root = fs::temp_directory_path() / "vire_supervisor_episode";
  fs::remove_all(root);
  fs::create_directories(root);

  SupervisorConfig config;
  config.shards = 1;
  config.root_dir = root;
  config.shardd_binary = VIRE_SHARDD_PATH;
  config.restart_backoff_initial_s = 30.0;  // hold the shard down
  config.spawn_wait_s = 120.0;
  config.heartbeat_interval_s = 1e6;
  config.heartbeat_timeout_s = 1e9;
  FakeClock clock;
  Supervisor supervisor(env::Deployment::paper_testbed(), config, &clock);
  supervisor.start();
  ASSERT_EQ(supervisor.shard_state(0), ShardState::kUp);

  ASSERT_EQ(::kill(supervisor.shard_pid(0), SIGKILL), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  supervisor.tick();
  ASSERT_EQ(supervisor.shard_state(0), ShardState::kBackoff);

  constexpr std::uint64_t kBatches = 4200;
  for (std::uint64_t i = 0; i < kBatches; ++i) {
    supervisor.ingest({make_reading(1.0 + 0.001 * static_cast<double>(i), 7)});
  }
  const fs::path first_segment = root / "journal" / "ops-000000000001.log";
  supervisor.checkpoint_now();
  EXPECT_TRUE(fs::exists(first_segment))
      << "un-acked batches pin the journal floor at the oldest of them";

  clock.advance(35.0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (supervisor.shard_state(0) != ShardState::kUp) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    supervisor.tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(supervisor.heartbeat().last_ack_sequence, kBatches);
  const auto* replayed = supervisor.metrics().find_counter(
      "vire_supervisor_replayed_batches_total");
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->value(), kBatches)
      << "every batch replays, across the segment rotation";
  EXPECT_NE(supervisor.snapshot_json().find("\"oplog\":0"), std::string::npos);
  supervisor.checkpoint_now();
  EXPECT_FALSE(fs::exists(first_segment))
      << "once acked, the floor follows the acks and the segment is pruned";

  supervisor.stop();
  fs::remove_all(root);
}

// A clean stop() checkpoints the folded control state, so the next
// incarnation starts with an empty journal suffix: zero replayed batches.
TEST(SupervisorRestartTest, CleanStopCheckpointsSoRestartReplaysNothing) {
  SKIP_ON_SINGLE_CORE();
  const fs::path root = fs::temp_directory_path() / "vire_supervisor_clean";
  fs::remove_all(root);
  fs::create_directories(root);

  SupervisorConfig config;
  config.shards = 1;
  config.root_dir = root;
  config.shardd_binary = VIRE_SHARDD_PATH;
  config.spawn_wait_s = 120.0;
  config.heartbeat_interval_s = 0.05;
  {
    Supervisor first(env::Deployment::paper_testbed(), config);
    first.start();
    ASSERT_EQ(first.shard_state(0), ShardState::kUp);
    first.ingest({make_reading(1.0, 7)});
    first.stop();  // drains the ack, checkpoints, prunes
  }
  Supervisor second(env::Deployment::paper_testbed(), config);
  EXPECT_TRUE(second.recovered_from_journal());
  second.start();
  ASSERT_EQ(second.shard_state(0), ShardState::kUp);
  const auto* replayed = second.metrics().find_counter(
      "vire_supervisor_replayed_batches_total");
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->value(), 0u)
      << "SIGTERM contract: clean shutdown leaves no un-acked suffix";
  second.stop();
  fs::remove_all(root);
}

}  // namespace
}  // namespace vire::service
