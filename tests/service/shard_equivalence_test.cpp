// The service's core acceptance bar: merged poll() output is fix-for-fix
// BIT-IDENTICAL to a single-engine run over the same reading stream and
// poll schedule, at any shard count — including after a shard
// crash+recovery, live add/remove-shard rebalances (called directly and
// sent over the wire) and a supervisor that disappears mid-stream and is
// replaced; a request only one host serves draws kError from the other.
// The multi-shard cases run a Supervisor over an InProcessShardRunner
// (every shard a one-engine ShardedService behind a server thread), so
// nothing forks and the whole suite runs under TSan. The one-engine host's
// own recovery — construct-with-recover plus a whole-stream re-feed, after
// a clean drop and after a fork+SIGKILL — is checked directly.
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
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/localization_engine.h"
#include "env/environment.h"
#include "fault/disk_fault.h"
#include "service/client.h"
#include "service/server.h"
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

engine::EngineConfig engine_config() {
  engine::EngineConfig config;
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

  engine::LocalizationEngine engine(deployment, engine_config());
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
std::unique_ptr<ShardedService> make_host(const Capture& capture,
                                          const fs::path& data_dir,
                                          bool recover = false) {
  ServiceConfig config;
  config.engine = engine_config();
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

/// Room for a supervisor's admin round trip under a sanitizer.
ClientConfig patient_client() {
  ClientConfig config;
  config.read_timeout_s = 60.0;
  return config;
}

SupervisorConfig fleet_config(const fs::path& root, int shards) {
  SupervisorConfig config;
  config.shards = shards;
  config.root_dir = root;
  config.middleware_window_s = 10.0;
  config.checkpoint_every_updates = 2;
  config.seed = 7;
  return config;
}

/// A started supervisor over `runner`, registered with the capture's tags.
std::unique_ptr<Supervisor> make_fleet(
    const Capture& capture, const SupervisorConfig& config, ShardRunner& runner,
    Clock* clock = nullptr, support::IoFaultHook* journal_fault_hook = nullptr) {
  auto supervisor = std::make_unique<Supervisor>(
      env::Deployment::paper_testbed(), config, clock, &runner,
      journal_fault_hook);
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
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const fs::path root = fresh_root("vire_equivalence_matrix");
    InProcessShardRunner runner;
    auto fleet = make_fleet(capture, fleet_config(root, shards), runner);
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

TEST(ShardEquivalenceTest, LatestFixAndExplainServeMergedResults) {
  const Capture& capture = shared_capture();
  const fs::path root = fresh_root("vire_equivalence_latest");
  InProcessShardRunner runner;
  auto fleet = make_fleet(capture, fleet_config(root, 3), runner);
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
  auto fleet = make_fleet(capture, fleet_config(root, 3), runner);

  constexpr int kCrashAfterPoll = 5;
  const std::uint32_t victim =
      fleet->router().route(capture.tracked[0].first);
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

/// Every shard's op-log length from the supervisor's fleet_status document.
std::vector<std::size_t> oplog_lengths(const Supervisor& fleet) {
  const std::string status = fleet.snapshot_json();
  const std::string key = "\"oplog\":";
  std::vector<std::size_t> lengths;
  for (auto at = status.find(key); at != std::string::npos;
       at = status.find(key, at + key.size())) {
    lengths.push_back(std::stoul(status.substr(at + key.size())));
  }
  return lengths;
}

std::uint64_t counter_value(Supervisor& fleet, const std::string& name) {
  const auto* counter = fleet.metrics().find_counter(name);
  return counter != nullptr ? counter->value() : 0;
}

// tick() never heartbeats here (heartbeat_interval_s = 1e6) and the poll
// sends none, so nothing acks between polls and the op-logs keep every
// batch. A shard killed in the middle of a poll interval is revived by the
// next poll, reading its un-acked suffix back from the control journal, and
// every poll stays bit-identical to the uninterrupted run.
TEST(ShardEquivalenceTest, KillMidPollIntervalRevivesBitIdentically) {
  const Capture& capture = shared_capture();
  constexpr std::size_t kBatches = 640;
  constexpr std::size_t kPollEvery = 20;
  constexpr std::size_t kKillAfterBatch = 327;  // mid poll interval
  std::vector<sim::RssiReading> stream;
  for (const auto& segment : capture.segments) {
    stream.insert(stream.end(), segment.begin(), segment.end());
  }
  ASSERT_GE(stream.size(), kBatches);

  const auto run = [&](bool kill_shard_0) {
    const fs::path root = fresh_root("vire_equivalence_mid_interval");
    InProcessShardRunner runner;
    SupervisorConfig config = fleet_config(root, 2);
    config.heartbeat_interval_s = 1e6;
    auto fleet = make_fleet(capture, config, runner);
    std::vector<std::vector<engine::Fix>> polls;
    for (std::size_t b = 0; b < kBatches; ++b) {
      const auto begin = stream.begin() + static_cast<std::ptrdiff_t>(
                                              stream.size() * b / kBatches);
      const auto end = stream.begin() + static_cast<std::ptrdiff_t>(
                                            stream.size() * (b + 1) / kBatches);
      fleet->ingest(std::vector<sim::RssiReading>(begin, end));
      if (kill_shard_0 && b == kKillAfterBatch) runner.kill(0);
      if ((b + 1) % kPollEvery != 0) continue;
      polls.push_back(fleet->poll((end - 1)->time));
    }
    EXPECT_EQ(fleet->restarts(), kill_shard_0 ? 1u : 0u);
    if (kill_shard_0) {
      EXPECT_GT(
          counter_value(*fleet, "vire_supervisor_replayed_batches_total"), 0u)
          << "the batches ingested while shard 0 was dead replay";
    }
    fleet->stop();
    fs::remove_all(root);
    return polls;
  };

  const auto uninterrupted = run(false);
  const auto revived = run(true);
  ASSERT_EQ(revived.size(), kBatches / kPollEvery);
  ASSERT_EQ(revived.size(), uninterrupted.size());
  for (std::size_t poll = 0; poll < revived.size(); ++poll) {
    expect_poll_identical(revived[poll], uninterrupted[poll],
                          static_cast<int>(poll));
  }
}

/// Supervisor time that moves only when told to (in-process shards need no
/// real time to pass).
class ManualClock final : public Clock {
 public:
  double now() override { return now_; }
  void sleep_for(double seconds) override {
    if (seconds > 0.0) now_ += seconds;
  }
  void advance(double seconds) { now_ += seconds; }

 private:
  double now_ = 1000.0;
};

// A poll that finds a shard down, with its restart far off, queues a kPoll
// entry in the op-log, and the batches ingested meanwhile queue behind it.
// The revival replays polls and batches in op-log order; the acks that
// follow trim past the queued polls, and every poll after the revival is
// bit-identical to the single engine.
TEST(ShardEquivalenceTest, MissedPollsAndLaterBatchesReplayInOrder) {
  const Capture& capture = shared_capture();
  const fs::path root = fresh_root("vire_equivalence_missed_poll");
  constexpr int kKillBeforePoll = 4;
  constexpr int kReviveBeforePoll = 6;
  InProcessShardRunner runner;
  ManualClock clock;
  SupervisorConfig config = fleet_config(root, 2);
  config.restart_backoff_initial_s = 30.0;  // beyond inline_revival_max_wait_s
  config.heartbeat_interval_s = 1e6;
  config.heartbeat_timeout_s = 1e9;
  auto fleet = make_fleet(capture, config, runner, &clock);
  const std::uint32_t victim =
      fleet->router().route(capture.tracked[0].first);

  fleet->ingest(capture.segments[0]);
  for (int poll = 0; poll < kPolls; ++poll) {
    if (poll == kKillBeforePoll) runner.kill(victim);
    fleet->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    if (poll == kReviveBeforePoll) {
      EXPECT_NE(fleet->shard_state(victim), ShardState::kUp);
      clock.advance(60.0);
      fleet->tick();
      ASSERT_EQ(fleet->shard_state(victim), ShardState::kUp);
      EXPECT_EQ(oplog_lengths(*fleet).at(victim), 0u)
          << "the revival's ack trims every replayed batch";
    }
    const auto fixes = fleet->poll(capture.poll_times[poll]);
    if (poll >= kKillBeforePoll && poll < kReviveBeforePoll) continue;  // held
    expect_poll_identical(fixes, capture.golden[poll], poll);
  }
  EXPECT_EQ(counter_value(*fleet, "vire_supervisor_replayed_polls_total"),
            static_cast<std::uint64_t>(kReviveBeforePoll - kKillBeforePoll));
  EXPECT_GT(counter_value(*fleet, "vire_supervisor_replayed_batches_total"), 0u);
  EXPECT_GT(counter_value(*fleet, "vire_supervisor_held_fixes_total"), 0u);
  EXPECT_EQ(fleet->restarts(), 1u);
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
  const SupervisorConfig config = fleet_config(root, 2);
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
    auto host = make_host(capture, dir);
    host->ingest(capture.segments[0]);
    for (int poll = 0; poll <= kCrashAfterPoll; ++poll) {
      host->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
      (void)host->poll(capture.poll_times[poll]);
    }
    // Dropped without further ceremony — the WAL already holds everything.
  }

  // Recover into a fresh host, re-feed the WHOLE stream from t=0 and
  // re-issue every poll. Polls executed before the last checkpoint are
  // gone (fixes are not journaled) and come back incomplete; the replayed
  // polls are served bit-identically from recovered fixes; later polls run
  // live. The resume gate drops every re-fed duplicate reading.
  auto host = make_host(capture, dir, /*recover=*/true);
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

// A crash that tears the WAL's last frame. Recovery walks the WAL once: the
// writer's reopen walk drops and truncates the torn frame, so
// vire_persist_wal_corrupt_total reads 1, not once per walk. The host then
// serves the single engine's fixes once the stream is re-fed.
TEST(ShardEquivalenceTest, TornWalTailIsCountedOnce) {
  const Capture& capture = shared_capture();
  const fs::path dir = fresh_root("vire_host_torn_tail");
  constexpr int kCrashAfterPoll = 4;
  {
    auto host = make_host(capture, dir);
    host->ingest(capture.segments[0]);
    for (int poll = 0; poll <= kCrashAfterPoll; ++poll) {
      host->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
      (void)host->poll(capture.poll_times[poll]);
    }
    // Readings past the last update marker, drained into the WAL.
    host->ingest(capture.segments[static_cast<std::size_t>(kCrashAfterPoll) + 2]);
    (void)host->heartbeat();
  }
  fs::path newest;
  for (const auto& entry : fs::directory_iterator(dir / "shard-0" / "wal")) {
    if (newest.empty() || entry.path() > newest) newest = entry.path();
  }
  ASSERT_FALSE(newest.empty());
  fs::resize_file(newest, fs::file_size(newest) - 3);

  auto host = make_host(capture, dir, /*recover=*/true);
  const auto report = host->recover();
  EXPECT_EQ(report.corrupt_frames, 1u);
  const std::string metrics = host->snapshot_prometheus();
  EXPECT_NE(metrics.find("\nvire_persist_wal_corrupt_total 1\n"),
            std::string::npos)
      << metrics;
  EXPECT_EQ(persist::read_wal(dir / "shard-0" / "wal").corrupt_frames, 0u)
      << "the torn frame is truncated";

  host->ingest(capture.segments[0]);
  for (int poll = 0; poll < kPolls; ++poll) {
    host->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    const auto fixes = host->poll(capture.poll_times[poll]);
    if (poll < kCrashAfterPoll) continue;  // pre-checkpoint history
    expect_poll_identical(fixes, capture.golden[poll], poll);
  }
  fs::remove_all(dir);
}

TEST(ShardEquivalenceTest, LiveRebalanceKeepsBitIdentity) {
  // The same stream, add and remove twice: called on the supervisor, and
  // sent through a ServiceClient to a ServiceServer over it (kIngest,
  // kPoll, kAddShard, kRemoveShard), whose thread then drives it alone.
  const Capture& capture = shared_capture();
  for (const bool over_wire : {false, true}) {
    SCOPED_TRACE(over_wire ? "over the wire" : "direct");
    const fs::path root = fresh_root("vire_equivalence_rebalance");
    InProcessShardRunner runner;
    auto fleet = make_fleet(capture, fleet_config(root, 2), runner);
    ServerConfig server_config;
    server_config.socket_path = root / "supervisor.sock";
    ServiceServer server(*fleet, server_config);
    std::unique_ptr<ServiceClient> client;
    if (over_wire) {
      server.start();
      client = std::make_unique<ServiceClient>(server_config.socket_path,
                                               patient_client());
    }
    const auto ingest = [&](const std::vector<sim::RssiReading>& readings) {
      if (client) {
        client->stream(readings);
      } else {
        fleet->ingest(readings);
      }
    };

    std::uint32_t added = 0;
    ingest(capture.segments[0]);
    for (int poll = 0; poll < kPolls; ++poll) {
      ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
      const sim::SimTime now = capture.poll_times[poll];
      const auto fixes = client ? client->poll(now) : fleet->poll(now);
      expect_poll_identical(fixes, capture.golden[poll], poll);
      if (poll == 3) {
        added = static_cast<std::uint32_t>(client ? client->add_shard()
                                                  : fleet->admin_add_shard());
        EXPECT_EQ(fleet->shard_count(), 3u);
      }
      if (poll == 7) {
        // Zero moved tags is legal.
        (void)(client ? client->remove_shard(added)
                      : fleet->admin_remove_shard(added));
        EXPECT_EQ(fleet->shard_count(), 2u);
        EXPECT_TRUE(runner.exited(added));
      }
    }
    client.reset();
    server.stop();
    fleet->stop();
    fs::remove_all(root);
  }
}

/// Sends a request its host does not serve: it must draw kError (the
/// client's std::runtime_error), not cost the connection, so the next
/// heartbeat on it is still answered.
void expect_refused(ServiceClient& client, const char* what,
                    const std::function<void()>& request) {
  SCOPED_TRACE(what);
  static std::uint64_t probe = 0;
  try {
    request();
    ADD_FAILURE() << "served";
  } catch (const TransportError& e) {
    ADD_FAILURE() << "connection failed: " << e.what();
    return;
  } catch (const std::runtime_error&) {
  }
  ++probe;
  EXPECT_EQ(client.heartbeat(probe).seq, probe);
}

TEST(ShardEquivalenceTest, HostSpecificRequestsAreRefusedOnTheOtherHost) {
  const Capture& capture = shared_capture();
  const fs::path root = fresh_root("vire_equivalence_wrong_host");
  InProcessShardRunner runner;
  auto fleet = make_fleet(capture, fleet_config(root, 2), runner);
  auto host = make_host(capture, root / "host");
  ServerConfig supervisor_config;
  supervisor_config.socket_path = root / "supervisor.sock";
  ServiceServer supervisor_server(*fleet, supervisor_config);
  supervisor_server.start();
  ServerConfig host_config;
  host_config.socket_path = root / "host.sock";
  ServiceServer host_server(*host, host_config);
  host_server.start();

  {
    ServiceClient to_supervisor(supervisor_config.socket_path,
                                patient_client());
    const sim::TagId tag = capture.tracked[0].first;
    expect_refused(to_supervisor, "kRecover",
                   [&] { (void)to_supervisor.recover_now(); });
    expect_refused(to_supervisor, "kExportTag",
                   [&] { (void)to_supervisor.export_tag_state(tag); });
    expect_refused(to_supervisor, "kSeedExport",
                   [&] { (void)to_supervisor.seed_export(); });

    ServiceClient to_host(host_config.socket_path, patient_client());
    expect_refused(to_host, "kAddShard", [&] { (void)to_host.add_shard(); });
    expect_refused(to_host, "kRemoveShard",
                   [&] { (void)to_host.remove_shard(0); });
  }
  EXPECT_EQ(fleet->shard_count(), 2u);
  host_server.stop();
  supervisor_server.stop();
  host.reset();
  fleet->stop();
  fs::remove_all(root);
}

TEST(ShardEquivalenceTest, RebalanceMovesTagStateExactly) {
  // Deterministic mover regardless of ring layout: remove the tag's owner.
  const Capture& capture = shared_capture();
  const fs::path root = fresh_root("vire_equivalence_mover");
  InProcessShardRunner runner;
  auto fleet = make_fleet(capture, fleet_config(root, 3), runner);
  fleet->ingest(capture.segments[0]);
  for (int poll = 0; poll < 5; ++poll) {
    fleet->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    (void)fleet->poll(capture.poll_times[poll]);
  }
  const sim::TagId tag = capture.tracked[1].first;
  const std::uint32_t owner = fleet->router().route(tag);
  EXPECT_GE(fleet->admin_remove_shard(owner), 1u);
  EXPECT_NE(fleet->router().route(tag), owner);
  for (int poll = 5; poll < kPolls; ++poll) {
    fleet->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    const auto fixes = fleet->poll(capture.poll_times[poll]);
    expect_poll_identical(fixes, capture.golden[poll], poll);
  }
  fleet->stop();
  fs::remove_all(root);
}

// Whole-process crash of the one-engine host: fork a child that drives it
// persistently and SIGKILL it mid-run, then recover in the parent and
// demand bit-identity for every poll — replayed and live alike. The child reports over a pipe once it is past poll 5 and
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
    auto host = make_host(capture, dir);
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

  auto host = make_host(capture, dir, /*recover=*/true);
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

// ---- ingest runs: a run of batches costs one WAL write per queue op at a
// shard, one journal write and one send per shard at the supervisor, and
// leaves every byte on disk as the batches ingested one call each leave it.

/// `readings` cut into consecutive batches of `size` readings.
std::vector<std::vector<sim::RssiReading>> batches_of(
    const std::vector<sim::RssiReading>& readings, std::size_t size) {
  std::vector<std::vector<sim::RssiReading>> batches;
  for (std::size_t off = 0; off < readings.size(); off += size) {
    const std::size_t end = std::min(readings.size(), off + size);
    batches.emplace_back(readings.begin() + static_cast<std::ptrdiff_t>(off),
                         readings.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return batches;
}

/// The batches as one ingest run, sequenced 1, 2, ... in order.
std::vector<IngestBatch> as_run(
    const std::vector<std::vector<sim::RssiReading>>& batches) {
  std::vector<IngestBatch> run;
  for (const auto& batch : batches) {
    run.push_back({batch, run.size() + 1, {}});
  }
  return run;
}

/// Every file directly under `dir`, by name.
std::map<std::string, std::string> file_bytes(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

std::vector<sim::RssiReading> concat(const std::vector<sim::RssiReading>& a,
                                     const std::vector<sim::RssiReading>& b) {
  std::vector<sim::RssiReading> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

// Batches of 32 share ops two by two; batches of 100 are cut into ops of
// their own (64 readings, then the rest with the ack), so a run writes as
// often as one call per batch.
TEST(ShardEquivalenceTest, HostIngestRunWritesTheWalOfOneCallPerBatch) {
  const Capture& capture = shared_capture();
  struct Result {
    std::map<std::string, std::string> wal;
    std::uint64_t last_ack = 0;
    std::uint64_t wal_writes = 0;
    std::vector<engine::Fix> fixes;
  };
  const auto run = [&](const std::vector<std::vector<sim::RssiReading>>& batches,
                       bool one_run) {
    const fs::path dir = fresh_root("vire_host_ingest_run");
    ServiceConfig config;
    config.engine = engine_config();
    config.middleware.window_s = 10.0;
    config.data_dir = dir;
    config.fsync = persist::FsyncPolicy::kOff;  // a due fsync splits a write
    fault::DiskFaultInjector writes({});
    ShardedService host(env::Deployment::paper_testbed(), config, &writes);
    host.set_reference_ids(capture.reference_ids);
    for (const auto& [tag, name] : capture.tracked) host.track(tag, name);
    const std::uint64_t before = writes.writes_seen();
    if (one_run) {
      host.ingest(as_run(batches));
    } else {
      for (std::size_t i = 0; i < batches.size(); ++i) {
        host.ingest(batches[i], i + 1);
      }
    }
    Result result;
    result.last_ack = host.heartbeat().last_ack_sequence;
    result.wal_writes = writes.writes_seen() - before;
    result.fixes = host.poll(capture.poll_times[0]);
    result.wal = file_bytes(dir / "shard-0" / "wal");
    fs::remove_all(dir);
    return result;
  };
  for (const std::size_t size : {std::size_t{32}, std::size_t{100}}) {
    SCOPED_TRACE("batch size " + std::to_string(size));
    const auto batches =
        batches_of(concat(capture.segments[0], capture.segments[1]), size);
    const Result one = run(batches, true);
    const Result each = run(batches, false);

    ASSERT_FALSE(one.wal.empty());
    EXPECT_TRUE(one.wal == each.wal) << "WAL segments differ byte for byte";
    EXPECT_EQ(one.last_ack, batches.size());
    EXPECT_EQ(each.last_ack, batches.size());
    expect_poll_identical(one.fixes, capture.golden[0], 0);
    expect_poll_identical(each.fixes, capture.golden[0], 0);
    // One WAL write per queue op, each op's acks in the same write.
    std::uint64_t ops_of_own = 0;  // a batch's ops when it shares none
    for (const auto& batch : batches) ops_of_own += (batch.size() + 63) / 64;
    EXPECT_EQ(each.wal_writes, ops_of_own);
    EXPECT_EQ(one.wal_writes, size == 32 ? (batches.size() + 1) / 2 : ops_of_own);
  }
}

TEST(ShardEquivalenceTest, SupervisorIngestRunJournalsOnceWithTheSameBytes) {
  const Capture& capture = shared_capture();
  const auto batches =
      batches_of(concat(capture.segments[0], capture.segments[1]), 32);

  struct Result {
    std::map<std::string, std::string> journal;
    std::map<std::string, std::string> wal[2];
    std::uint64_t journal_writes = 0;
    std::uint64_t fleet_ack = 0;
    std::vector<engine::Fix> fixes;
  };
  const auto run = [&](bool one_run) {
    const fs::path root = fresh_root("vire_equivalence_ingest_run");
    InProcessShardRunner runner;
    SupervisorConfig config = fleet_config(root, 2);
    // No control checkpoint between the batches: the journal writes counted
    // below are the batch records' alone.
    config.journal_checkpoint_every_ops = std::uint64_t{1} << 40;
    fault::DiskFaultInjector writes({});
    Supervisor fleet(env::Deployment::paper_testbed(), config, nullptr,
                     &runner, &writes);
    fleet.start();
    fleet.set_reference_ids(capture.reference_ids);
    for (const auto& [tag, name] : capture.tracked) {
      fleet.track(tag, name, std::nullopt);
    }
    Result result;
    const std::uint64_t before = writes.writes_seen();
    if (one_run) {
      fleet.ingest(as_run(batches));
    } else {
      for (const auto& batch : batches) fleet.ingest(batch);
    }
    result.journal_writes = writes.writes_seen() - before;
    result.fixes = fleet.poll(capture.poll_times[0]);
    fleet.stop();  // drains both shards: every batch acked
    result.fleet_ack = fleet.heartbeat().last_ack_sequence;
    for (const auto& [name, bytes] : file_bytes(root / "journal")) {
      if (name.rfind("ops-", 0) == 0) result.journal[name] = bytes;
    }
    for (int id = 0; id < 2; ++id) {
      result.wal[id] = file_bytes(root / ("shard-" + std::to_string(id)) /
                                  "shard-0" / "wal");
    }
    fs::remove_all(root);
    return result;
  };
  const Result one = run(true);
  const Result each = run(false);

  ASSERT_FALSE(one.journal.empty());
  EXPECT_TRUE(one.journal == each.journal)
      << "control-journal segments differ byte for byte";
  for (int id = 0; id < 2; ++id) {
    ASSERT_FALSE(one.wal[id].empty());
    EXPECT_TRUE(one.wal[id] == each.wal[id])
        << "shard " << id << " WAL differs byte for byte";
  }
  expect_poll_identical(one.fixes, capture.golden[0], 0);
  expect_poll_identical(each.fixes, capture.golden[0], 0);
  EXPECT_EQ(one.fleet_ack, batches.size());
  EXPECT_EQ(each.fleet_ack, batches.size());
  // Write-ahead in one write per call: once for the run, once per batch
  // (both of its shard records) otherwise.
  EXPECT_EQ(one.journal_writes, 1u);
  EXPECT_EQ(each.journal_writes, batches.size());
}

// The dead shard's share of a run lands in its op-log once per batch, even
// though the whole share failed in one send; the revival replays each batch
// exactly once and the poll after it is bit-identical.
TEST(ShardEquivalenceTest, IngestRunMeetingADeadShardReplaysEachBatchOnce) {
  const Capture& capture = shared_capture();
  const fs::path root = fresh_root("vire_equivalence_run_dead_shard");
  InProcessShardRunner runner;
  ManualClock clock;
  auto fleet = make_fleet(capture, fleet_config(root, 2), runner, &clock);
  const std::uint32_t victim =
      fleet->router().route(capture.tracked[0].first);

  fleet->ingest(capture.segments[0]);
  fleet->ingest(capture.segments[1]);
  expect_poll_identical(fleet->poll(capture.poll_times[0]), capture.golden[0], 0);
  clock.advance(1.0);
  fleet->tick();  // heartbeats every shard: the op-logs trim to empty
  ASSERT_EQ(oplog_lengths(*fleet), (std::vector<std::size_t>{0, 0}));

  runner.kill(victim);
  const auto batches = batches_of(capture.segments[2], 32);
  std::size_t victim_batches = 0;
  for (const auto& batch : batches) {
    victim_batches += std::any_of(batch.begin(), batch.end(), [&](const auto& r) {
      return std::find(capture.reference_ids.begin(),
                       capture.reference_ids.end(),
                       r.tag) != capture.reference_ids.end() ||
             fleet->router().route(r.tag) == victim;
    });
  }
  ASSERT_GT(victim_batches, 1u);
  fleet->ingest(as_run(batches));
  EXPECT_EQ(oplog_lengths(*fleet).at(victim), victim_batches)
      << "each batch of the run is in the dead shard's op-log once";

  expect_poll_identical(fleet->poll(capture.poll_times[1]), capture.golden[1], 1);
  EXPECT_EQ(fleet->restarts(), 1u);
  EXPECT_EQ(counter_value(*fleet, "vire_supervisor_replayed_batches_total"),
            victim_batches);
  EXPECT_EQ(oplog_lengths(*fleet).at(victim), 0u)
      << "the revival's ack covers every replayed batch";
  fleet->stop();
  fs::remove_all(root);
}

// A journal write that fails (a full disk, or a write torn partway) loses
// the ingest run it carried: the call throws, and none of its batches is
// indexed or sent. The journal's writer takes their records back, so a shard
// killed afterwards reads exactly its op-log back at the revival, and with
// the client's retry of the run every poll stays bit-identical.
TEST(ShardEquivalenceTest, FailedJournalWriteLeavesTheRevivalWhole) {
  const Capture& capture = shared_capture();
  const auto batches = batches_of(capture.segments[1], 32);
  ASSERT_GT(batches.size(), 2u);
  // The journal writes before the run, counted in a run without faults: the
  // supervisor's writes follow its calls alone.
  std::uint64_t writes_before_run = 0;
  {
    const fs::path root = fresh_root("vire_equivalence_journal_fault");
    InProcessShardRunner runner;
    ManualClock clock;
    fault::DiskFaultInjector writes({});
    auto fleet =
        make_fleet(capture, fleet_config(root, 2), runner, &clock, &writes);
    fleet->ingest(capture.segments[0]);
    writes_before_run = writes.writes_seen();
    fleet->stop();
    fs::remove_all(root);
  }

  for (const bool torn : {false, true}) {
    SCOPED_TRACE(torn ? "short write" : "ENOSPC");
    fault::DiskFaultPlan plan;
    if (torn) {
      // Past the run's first record (one 32-reading batch is about 730
      // bytes), so whole records precede the tear.
      plan.short_write_at(writes_before_run, 1000);
    } else {
      plan.enospc_at(writes_before_run);
    }
    fault::DiskFaultInjector injector(std::move(plan));
    const fs::path root = fresh_root("vire_equivalence_journal_fault");
    InProcessShardRunner runner;
    ManualClock clock;
    auto fleet =
        make_fleet(capture, fleet_config(root, 2), runner, &clock, &injector);
    const std::uint32_t victim =
        fleet->router().route(capture.tracked[0].first);

    fleet->ingest(capture.segments[0]);
    EXPECT_THROW(fleet->ingest(as_run(batches)), std::runtime_error);
    EXPECT_EQ(injector.faults_imposed(), 1u);
    runner.kill(victim);
    fleet->ingest(as_run(batches));  // the client's retry

    expect_poll_identical(fleet->poll(capture.poll_times[0]), capture.golden[0],
                          0);
    EXPECT_EQ(fleet->restarts(), 1u);
    EXPECT_EQ(fleet->shard_state(victim), ShardState::kUp);
    fleet->ingest(capture.segments[2]);
    expect_poll_identical(fleet->poll(capture.poll_times[1]), capture.golden[1],
                          1);
    fleet->stop();
    fs::remove_all(root);
  }
}

}  // namespace
}  // namespace vire::service
