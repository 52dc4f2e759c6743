// Chaos drill for the multi-process supervisor (ISSUE 8 acceptance bar):
// two real vire_shardd processes behind a Supervisor take seeded SIGKILLs
// mid-stream; the supervisor detects each death, restarts the process,
// replays the un-acked suffix — and the merged poll stream stays fix-for-fix
// BIT-IDENTICAL to an uninterrupted single-engine run. A second drill trips
// the crash-loop circuit breaker with a persistently aborting shard binary
// and demands graceful degradation: the dead shard's tags are answered from
// last-known fixes with FixQuality::kHold (never a stall, never a crash),
// and after the fault clears the breaker closes and bit-identity returns.
//
// Skipped on single-hardware-thread boxes (same policy as the fork+SIGKILL
// crash drills, docs/robustness.md): each restart spawns a whole engine
// process, and on one core the child starves behind the test and the drill
// flakes on spawn deadlines rather than on anything the supervisor does.
// Set VIRE_FORCE_DRILLS=1 to run it anyway.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/localization_engine.h"
#include "env/environment.h"
#include "service/client.h"
#include "service/supervisor.h"
#include "service/wire.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace vire::service {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 11;
constexpr double kWarmupS = 40.0;
constexpr double kPollS = 5.0;
constexpr int kPolls = 10;

bool drills_enabled() {
  if (std::thread::hardware_concurrency() > 1) return true;
  const char* force = std::getenv("VIRE_FORCE_DRILLS");
  return force != nullptr && std::strcmp(force, "1") == 0;
}

#define SKIP_ON_SINGLE_CORE()                                               \
  if (!drills_enabled()) {                                                  \
    GTEST_SKIP() << "single hardware thread: shard processes starve behind " \
                    "the test and the drill flakes on spawn deadlines, not " \
                    "on supervisor logic (VIRE_FORCE_DRILLS=1 overrides)";   \
  }

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

struct Capture {
  std::vector<std::vector<sim::RssiReading>> segments;
  std::vector<sim::SimTime> poll_times;
  std::vector<std::vector<engine::Fix>> golden;
  std::vector<sim::TagId> reference_ids;
  std::vector<std::pair<sim::TagId, std::string>> tracked;
};

/// Same scenario family as shard_equivalence_test: the golden single engine
/// and the supervised fleet consume the identical capture, so any divergence
/// is the supervisor's fault.
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

  engine::EngineConfig engine_config;
  engine_config.min_refresh_interval_s = 10.0;
  engine::LocalizationEngine engine(deployment, engine_config);
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

SupervisorConfig drill_config(const fs::path& root) {
  SupervisorConfig config;
  config.shards = 2;
  config.root_dir = root;
  config.shardd_binary = VIRE_SHARDD_PATH;
  config.checkpoint_every_updates = 2;
  config.restart_backoff_initial_s = 0.01;
  config.restart_backoff_max_s = 0.05;
  config.request_retries = 3;
  config.spawn_wait_s = 60.0;  // generous: restarts replay a whole engine
  config.seed = 7;
  return config;
}

void register_capture(Supervisor& supervisor, const Capture& capture) {
  supervisor.set_reference_ids(capture.reference_ids);
  for (const auto& [tag, name] : capture.tracked) {
    supervisor.track(tag, name, std::nullopt);
  }
}

/// The value of the unlabeled `vire_service_polls_total` sample in a shard's
/// own scrape, or -1 when absent. The match is anchored at a line start:
/// the `# TYPE` and `# HELP` lines name the series too.
double shard_polls_total(const std::string& prom) {
  const std::string key = "vire_service_polls_total ";
  for (std::size_t at = 0; at < prom.size();) {
    const std::size_t end = std::min(prom.find('\n', at), prom.size());
    if (prom.compare(at, key.size(), key) == 0) {
      return std::strtod(prom.c_str() + at + key.size(), nullptr);
    }
    at = end + 1;
  }
  return -1.0;
}

/// Wrapper binary whose behavior the test flips at runtime: while
/// `fault_file` exists every spawn aborts on startup (a crash-looping
/// install); once removed, spawns behave like the real vire_shardd.
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

TEST(SupervisorChaosTest, SeededSigkillsKeepBitIdentity) {
  SKIP_ON_SINGLE_CORE();
  const Capture& capture = shared_capture();
  const fs::path root = fs::temp_directory_path() / "vire_supervisor_chaos";
  fs::remove_all(root);
  fs::create_directories(root);

  Supervisor supervisor(env::Deployment::paper_testbed(), drill_config(root));
  supervisor.start();
  ASSERT_EQ(supervisor.shard_state(0), ShardState::kUp);
  ASSERT_EQ(supervisor.shard_state(1), ShardState::kUp);
  register_capture(supervisor, capture);

  std::uint64_t rng = 0xC0FFEE ^ kSeed;
  int kills = 0;
  supervisor.ingest(capture.segments[0]);
  for (int poll = 0; poll < kPolls; ++poll) {
    supervisor.ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    if (poll % 2 == 1) {
      // Random victim, seeded: SIGKILL lands between ingest and poll, the
      // worst spot — the batch may be delivered but not yet durably acked.
      const auto victim =
          static_cast<std::uint32_t>(support::splitmix64(rng) % 2);
      const pid_t pid = supervisor.shard_pid(victim);
      ASSERT_GT(pid, 0) << "poll " << poll;
      ASSERT_EQ(::kill(pid, SIGKILL), 0);
      ++kills;
    }
    const auto fixes = supervisor.poll(capture.poll_times[poll]);
    expect_poll_identical(fixes, capture.golden[poll], poll);
  }

  EXPECT_EQ(kills, kPolls / 2);
  EXPECT_GE(supervisor.restarts(), static_cast<std::uint64_t>(kills));
  EXPECT_EQ(supervisor.shard_state(0), ShardState::kUp);
  EXPECT_EQ(supervisor.shard_state(1), ShardState::kUp);

  // The merged scrape carries supervisor series plus per-process shard
  // series disambiguated by the injected label.
  const std::string prom = supervisor.snapshot_prometheus();
  EXPECT_NE(prom.find("vire_supervisor_restarts_total"), std::string::npos);
  EXPECT_NE(prom.find("vire_supervisor_shard_state"), std::string::npos);
  EXPECT_NE(prom.find("process=\"shard-0\""), std::string::npos);
  EXPECT_NE(prom.find("process=\"shard-1\""), std::string::npos);

  supervisor.stop();
  fs::remove_all(root);
}

TEST(SupervisorChaosTest, BreakerDegradesToHeldFixesAndRecovers) {
  SKIP_ON_SINGLE_CORE();
  const Capture& capture = shared_capture();
  const fs::path root = fs::temp_directory_path() / "vire_supervisor_breaker";
  fs::remove_all(root);
  fs::create_directories(root);
  const fs::path fault_file = root / "fault";

  SupervisorConfig config = drill_config(root);
  config.shardd_binary = write_flaky_shardd(root, fault_file);
  config.breaker_max_deaths = 2;
  config.breaker_window_s = 300.0;
  config.breaker_cooldown_s = 0.5;
  config.request_retries = 1;

  Supervisor supervisor(env::Deployment::paper_testbed(), config);
  supervisor.start();
  register_capture(supervisor, capture);

  const sim::TagId canary = capture.tracked[0].first;
  const std::uint32_t victim = supervisor.router().route(canary);
  const auto owned_by_victim = [&](sim::TagId tag) {
    return supervisor.router().route(tag) == victim;
  };

  constexpr int kFaultAfterPoll = 2;
  supervisor.ingest(capture.segments[0]);
  for (int poll = 0; poll <= kFaultAfterPoll; ++poll) {
    supervisor.ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    expect_poll_identical(supervisor.poll(capture.poll_times[poll]),
                          capture.golden[poll], poll);
  }

  // Fault on: every respawn aborts at startup. The next poll sees the dead
  // socket (death 1), the inline revival crash-loops (death 2), the breaker
  // opens — and the poll still returns, with the victim's tags held.
  { std::ofstream out(fault_file); }
  ASSERT_EQ(::kill(supervisor.shard_pid(victim), SIGKILL), 0);

  const int down_poll = kFaultAfterPoll + 1;
  supervisor.ingest(
      capture.segments[static_cast<std::size_t>(down_poll) + 1]);
  const auto degraded = supervisor.poll(capture.poll_times[down_poll]);
  EXPECT_EQ(supervisor.shard_state(victim), ShardState::kDown);
  ASSERT_EQ(degraded.size(), capture.golden[down_poll].size())
      << "degradation must not drop tags";
  for (const engine::Fix& fix : degraded) {
    const auto& golden = capture.golden[down_poll];
    const auto it =
        std::find_if(golden.begin(), golden.end(),
                     [&fix](const engine::Fix& g) { return g.tag == fix.tag; });
    ASSERT_NE(it, golden.end());
    if (owned_by_victim(fix.tag)) {
      EXPECT_EQ(fix.quality, engine::FixQuality::kHold) << fix.name;
      EXPECT_FALSE(fix.valid) << fix.name;
      EXPECT_EQ(bits(fix.time), bits(capture.poll_times[down_poll]));
      // Held position is the last fix the shard actually produced.
      const auto& last = capture.golden[kFaultAfterPoll];
      const auto prev =
          std::find_if(last.begin(), last.end(), [&fix](const engine::Fix& g) {
            return g.tag == fix.tag;
          });
      ASSERT_NE(prev, last.end());
      EXPECT_EQ(bits(fix.position.x), bits(prev->position.x)) << fix.name;
      EXPECT_EQ(bits(fix.position.y), bits(prev->position.y)) << fix.name;
      EXPECT_GT(fix.age_s, 0.0) << fix.name;
    } else {
      expect_poll_identical({fix}, {*it}, down_poll);
    }
  }
  const auto* held =
      supervisor.metrics().find_counter("vire_supervisor_held_fixes_total");
  ASSERT_NE(held, nullptr);
  EXPECT_GE(held->value(), 1u);

  // Fault cleared: after the cooldown the next tick's half-open probe
  // restarts the shard, replays the missed batch + poll, and closes the
  // breaker.
  fs::remove(fault_file);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (supervisor.shard_state(victim) != ShardState::kUp) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "breaker never closed after the fault cleared";
    supervisor.tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  for (int poll = down_poll + 1; poll < kPolls; ++poll) {
    supervisor.ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    expect_poll_identical(supervisor.poll(capture.poll_times[poll]),
                          capture.golden[poll], poll);
  }

  const auto* breaker = supervisor.metrics().find_counter(
      "vire_supervisor_breaker_open_total");
  ASSERT_NE(breaker, nullptr);
  EXPECT_GE(breaker->value(), 1u);

  supervisor.stop();
  fs::remove_all(root);
}

// --------------------------------------------------------------------------
// Durable control plane drills (ISSUE 10 acceptance bar).

// THE tentpole drill: the SUPERVISOR itself takes a SIGKILL mid-stream, and
// its two shard processes meet different fates. Shard 1's process is killed
// FIRST, so poll 3's batch is journaled but never reaches its WAL — that
// slice survives nowhere but the control journal. Shard 0 stays up,
// orphaned to init and still serving. A second incarnation over the same
// root must rebuild its control plane from the journal, ADOPT the living
// orphan (same pid, warm engine, nothing to replay — its own WAL cursor
// already covers the "un-acked" suffix), RESPAWN the dead shard and replay
// exactly the journal suffix its WAL recovery cannot supply, and keep the
// merged poll stream fix-for-fix bit-identical to the uninterrupted
// single-engine run.
TEST(SupervisorChaosTest, SupervisorSigkillMidStreamKeepsBitIdentity) {
  SKIP_ON_SINGLE_CORE();
  const Capture& capture = shared_capture();
  const fs::path root = fs::temp_directory_path() / "vire_supervisor_failover";
  fs::remove_all(root);
  fs::create_directories(root);
  const fs::path polls_file = root / "child_polls.bin";
  const fs::path ready_file = root / "child_ready";
  constexpr int kCrashPoll = 3;  // child answers polls 0..2, dies before 3

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Crashing incarnation. No gtest in here: the parent detects failure as
    // a missing ready file or broken bit-identity.
    Supervisor first(env::Deployment::paper_testbed(), drill_config(root));
    first.start();
    register_capture(first, capture);
    std::ofstream out(polls_file, std::ios::binary);
    first.ingest(capture.segments[0]);
    for (int poll = 0; poll < kCrashPoll; ++poll) {
      first.ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
      const std::string bytes =
          encode_fixes(first.poll(capture.poll_times[poll]));
      const auto len = static_cast<std::uint32_t>(bytes.size());
      out.write(reinterpret_cast<const char*>(&len), sizeof(len));
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    out.flush();
    // Shard 1's process dies BEFORE poll 3's ingest: its slice of that batch
    // is journaled (write-ahead) but never delivered, so after the
    // supervisor's own SIGKILL it exists only in the control journal.
    pid_t victim = -1;
    {
      std::ifstream in(root / "shard-1" / "shardd.pid");
      in >> victim;
    }
    if (victim <= 0) ::_exit(3);
    ::kill(victim, SIGKILL);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    first.ingest(capture.segments[kCrashPoll + 1]);
    { std::ofstream ready(ready_file); }
    for (;;) ::pause();  // SIGKILL only: the Supervisor dtor must never run
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(300);
  while (!fs::exists(ready_file)) {
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, WNOHANG), 0)
        << "crashing incarnation exited early";
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);

  // The child's pre-crash polls must already have been golden — a divergence
  // here would taint the engines the second incarnation adopts.
  {
    std::ifstream in(polls_file, std::ios::binary);
    ASSERT_TRUE(in.is_open());
    for (int poll = 0; poll < kCrashPoll; ++poll) {
      std::uint32_t len = 0;
      ASSERT_TRUE(in.read(reinterpret_cast<char*>(&len), sizeof(len)));
      std::string bytes(len, '\0');
      ASSERT_TRUE(in.read(bytes.data(), static_cast<std::streamsize>(len)));
      const auto fixes = decode_fixes(bytes);
      ASSERT_TRUE(fixes.has_value());
      expect_poll_identical(*fixes, capture.golden[poll], poll);
    }
  }

  Supervisor second(env::Deployment::paper_testbed(), drill_config(root));
  EXPECT_TRUE(second.recovered_from_journal());
  second.start();
  ASSERT_EQ(second.shard_state(0), ShardState::kUp);
  EXPECT_TRUE(second.shard_adopted(0)) << "orphan 0 must be adopted, not killed";
  EXPECT_FALSE(second.shard_adopted(1))
      << "shard 1's process died pre-crash: it must be respawned";
  // If the child's ingest observed shard 1's death, the checkpointless
  // journal restores it cooled-down instead of up — tick until the probe
  // respawns it (covers both orderings of death detection vs SIGKILL).
  const auto up_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (second.shard_state(1) != ShardState::kUp) {
    ASSERT_LT(std::chrono::steady_clock::now(), up_deadline)
        << "dead shard never respawned after supervisor recovery";
    second.tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const auto* adoptions =
      second.metrics().find_counter("vire_supervisor_adoptions_total");
  ASSERT_NE(adoptions, nullptr);
  EXPECT_EQ(adoptions->value(), 1u);
  const auto* replayed = second.metrics().find_counter(
      "vire_supervisor_replayed_batches_total");
  ASSERT_NE(replayed, nullptr);
  EXPECT_GT(replayed->value(), 0u)
      << "SIGKILL contract: the suffix the dead shard's WAL never saw must "
         "replay from the control journal (SIGTERM would leave zero)";

  // Poll 3's ingest died with the first incarnation — the journal already
  // carries it, so do NOT re-ingest; the remaining polls proceed normally.
  for (int poll = kCrashPoll; poll < kPolls; ++poll) {
    if (poll > kCrashPoll) {
      second.ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    }
    expect_poll_identical(second.poll(capture.poll_times[poll]),
                          capture.golden[poll], poll);
  }

  second.stop();
  fs::remove_all(root);
}

// Live elastic membership: a third shard process joins mid-stream (seeded
// from a donor, moved tags re-fed through its WAL), then an ORIGINAL member
// is drained and retired — and every poll before, between and after stays
// bit-identical to the single-engine run. Exercises the cross-process
// migration path end to end: heartbeat drain, export_tag_state, WAL-suffix
// re-feed through normal ingest, import_tag_state.
TEST(SupervisorChaosTest, LiveShardAddRemoveKeepsBitIdentity) {
  SKIP_ON_SINGLE_CORE();
  const Capture& capture = shared_capture();
  const fs::path root = fs::temp_directory_path() / "vire_supervisor_members";
  fs::remove_all(root);
  fs::create_directories(root);

  Supervisor supervisor(env::Deployment::paper_testbed(), drill_config(root));
  supervisor.start();
  register_capture(supervisor, capture);

  supervisor.ingest(capture.segments[0]);
  int poll = 0;
  for (; poll < 3; ++poll) {
    supervisor.ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    expect_poll_identical(supervisor.poll(capture.poll_times[poll]),
                          capture.golden[poll], poll);
  }

  // Join: owners that change route must move; count them for the metric.
  std::vector<std::uint32_t> owners_before;
  for (const auto& [tag, name] : capture.tracked) {
    owners_before.push_back(supervisor.router().route(tag));
  }
  const std::uint64_t new_id = supervisor.admin_add_shard();
  EXPECT_EQ(new_id, 2u);
  EXPECT_EQ(supervisor.shard_count(), 3u);
  EXPECT_EQ(supervisor.member_phase(static_cast<std::uint32_t>(new_id)),
            MemberPhase::kActive);
  ASSERT_EQ(supervisor.shard_state(static_cast<std::uint32_t>(new_id)),
            ShardState::kUp);
  std::uint64_t expected_moves = 0;
  for (std::size_t i = 0; i < capture.tracked.size(); ++i) {
    if (supervisor.router().route(capture.tracked[i].first) !=
        owners_before[i]) {
      ++expected_moves;
    }
  }
  const auto* moved_total = supervisor.metrics().find_counter(
      "vire_supervisor_membership_moved_tags_total");
  ASSERT_NE(moved_total, nullptr);
  EXPECT_EQ(moved_total->value(), expected_moves);

  for (; poll < 6; ++poll) {
    supervisor.ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    expect_poll_identical(supervisor.poll(capture.poll_times[poll]),
                          capture.golden[poll], poll);
  }

  // Retire an ORIGINAL member: everything it owns must drain to survivors.
  std::uint64_t owned_by_0 = 0;
  for (const auto& [tag, name] : capture.tracked) {
    if (supervisor.router().route(tag) == 0) ++owned_by_0;
  }
  const std::uint64_t drained = supervisor.admin_remove_shard(0);
  EXPECT_EQ(drained, owned_by_0);
  EXPECT_EQ(supervisor.shard_count(), 2u);
  EXPECT_THROW((void)supervisor.shard_state(0), std::out_of_range);

  for (; poll < kPolls; ++poll) {
    supervisor.ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    expect_poll_identical(supervisor.poll(capture.poll_times[poll]),
                          capture.golden[poll], poll);
  }

  const auto* adds = supervisor.metrics().find_counter(
      "vire_supervisor_membership_changes_total", "op=\"add\"");
  ASSERT_NE(adds, nullptr);
  EXPECT_EQ(adds->value(), 1u);
  const auto* removes = supervisor.metrics().find_counter(
      "vire_supervisor_membership_changes_total", "op=\"remove\"");
  ASSERT_NE(removes, nullptr);
  EXPECT_EQ(removes->value(), 1u);

  // The state machine is fleet_status-visible.
  const std::string json = supervisor.snapshot_json();
  EXPECT_NE(json.find("\"phase\":\"active\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"journal\":{"), std::string::npos) << json;

  // The last active pair cannot be reduced to one.
  ASSERT_NO_THROW((void)supervisor.admin_remove_shard(1));
  EXPECT_THROW(supervisor.admin_remove_shard(2), std::runtime_error);

  supervisor.stop();
  fs::remove_all(root);
}

TEST(SupervisorChaosTest, PollRunsShardsConcurrently) {
  SKIP_ON_SINGLE_CORE();
  const Capture& capture = shared_capture();
  const fs::path root = fs::temp_directory_path() / "vire_supervisor_scatter";
  fs::remove_all(root);
  fs::create_directories(root);

  Supervisor supervisor(env::Deployment::paper_testbed(), drill_config(root));
  supervisor.start();
  ASSERT_EQ(supervisor.shard_state(0), ShardState::kUp);
  ASSERT_EQ(supervisor.shard_state(1), ShardState::kUp);
  register_capture(supervisor, capture);
  supervisor.ingest(capture.segments[0]);
  supervisor.ingest(capture.segments[1]);

  // A second connection to shard 1 watches its own poll counter while the
  // supervisor's poll is blocked on a stopped shard 0.
  ServiceClient probe(root / "shard-1.sock");
  const double polls_before = shard_polls_total(probe.snapshot_prometheus());
  ASSERT_GE(polls_before, 0.0);

  const pid_t stopped = supervisor.shard_pid(0);
  ASSERT_GT(stopped, 0);
  ASSERT_EQ(::kill(stopped, SIGSTOP), 0);
  std::vector<engine::Fix> fixes;
  std::thread poller(
      [&] { fixes = supervisor.poll(capture.poll_times[0]); });

  bool advanced = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (!advanced && std::chrono::steady_clock::now() < deadline) {
    advanced =
        shard_polls_total(probe.snapshot_prometheus()) > polls_before;
    if (!advanced) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(::kill(stopped, SIGCONT), 0);
  poller.join();

  EXPECT_TRUE(advanced)
      << "shard 1 must run its poll while shard 0's is still outstanding";
  expect_poll_identical(fixes, capture.golden[0], 0);
  EXPECT_EQ(supervisor.restarts(), 0u);

  supervisor.stop();
  fs::remove_all(root);
}

TEST(SupervisorChaosTest, RefusedPollKeepsEveryShardInStep) {
  SKIP_ON_SINGLE_CORE();
  const Capture& capture = shared_capture();
  const fs::path root = fs::temp_directory_path() / "vire_supervisor_refused";
  fs::remove_all(root);
  fs::create_directories(root);

  Supervisor supervisor(env::Deployment::paper_testbed(), drill_config(root));
  supervisor.start();
  for (const auto& [tag, name] : capture.tracked) {
    supervisor.track(tag, name, std::nullopt);
  }
  // No reference ids yet: every shard refuses the update with kError. Each
  // refusal must be read off its connection before the poll reports it, or
  // the next request on that connection reads the stale kError.
  EXPECT_THROW((void)supervisor.poll(1.0), std::runtime_error);

  supervisor.set_reference_ids(capture.reference_ids);
  supervisor.ingest(capture.segments[0]);
  for (int poll = 0; poll < kPolls; ++poll) {
    supervisor.ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    expect_poll_identical(supervisor.poll(capture.poll_times[poll]),
                          capture.golden[poll], poll);
  }
  EXPECT_EQ(supervisor.restarts(), 0u);
  EXPECT_EQ(supervisor.shard_state(0), ShardState::kUp);
  EXPECT_EQ(supervisor.shard_state(1), ShardState::kUp);

  supervisor.stop();
  fs::remove_all(root);
}

}  // namespace
}  // namespace vire::service
