// RecoveryManager: in-process bit-identity. A persistent run is abandoned
// mid-scenario (writer simply dropped, as a crash would), recovered into a
// FRESH engine, caught up with the deterministic simulator, and every
// replayed + continued fix is compared against the uninterrupted golden run
// by bit pattern. The fork+SIGKILL variant lives in crash_drill_test.cpp /
// examples/crash_drill.cpp.
//
// The PruneFloor cases run the same pipeline with small WAL segments, a
// checkpoint store and WalWriter::retention_floor() pruning after every
// checkpoint, and check what the floor promises: recovery from the newest
// and from the oldest retained checkpoint stays bit-identical, a moved tag's
// window reads the same as from the unpruned log, and a reopened writer
// prunes exactly as the uninterrupted one does.

#include "persist/recovery.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
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
  std::vector<sim::TagId> tags;  ///< reference and tracked tags
};

Pipeline make_pipeline(sim::ReadingInterceptor* interceptor,
                       double window_s = 10.0) {
  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();
  sim::SimulatorConfig sim_config;
  sim_config.seed = kSeed;
  sim_config.middleware.window_s = window_s;

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
  p.tags = reference_ids;
  p.tags.push_back(pallet);
  p.tags.push_back(forklift);
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

std::vector<std::vector<engine::Fix>> run_golden(int poll_count = kPolls,
                                                 double window_s = 10.0) {
  Pipeline p = make_pipeline(nullptr, window_s);
  p.simulator->run_for(kWarmupS);
  std::vector<std::vector<engine::Fix>> polls;
  for (int poll = 0; poll < poll_count; ++poll) {
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

// The journaling form of recover() opens the writer first and replays what
// its reopen walk kept. Over a WAL with a torn tail it must report and
// replay exactly what the read-only form does, leave the writer where a
// writer opened after a read-only recovery would be, count the torn frame
// once, and walk the log once.
TEST_F(RecoveryTest, WriterFormMatchesReadOnlyFormOverATornTail) {
  run_and_abandon(dir_);
  fs::path newest;
  for (const auto& entry : fs::directory_iterator(dir_ / "wal")) {
    if (newest.empty() || entry.path() > newest) newest = entry.path();
  }
  ASSERT_FALSE(newest.empty());
  fs::resize_file(newest, fs::file_size(newest) - 3);
  const fs::path copy = dir_.string() + "_read_only";
  fs::remove_all(copy);
  fs::copy(dir_, copy, fs::copy_options::recursive);

  Pipeline read_only = make_pipeline(nullptr);
  RecoveryManager read_manager({copy / "wal", copy / "ckpt"});
  const RecoveryReport expected =
      read_manager.recover(*read_only.engine, read_only.simulator->middleware());
  WalConfig reopen_config;
  reopen_config.dir = copy / "wal";
  reopen_config.fsync = FsyncPolicy::kOff;
  const WalWriter reopened(reopen_config);
  fs::remove_all(copy);

  Pipeline p = make_pipeline(nullptr);
  p.engine->tracer().set_enabled(true);
  RecoveryManager manager({dir_ / "wal", dir_ / "ckpt"});
  WalConfig wal_config;
  wal_config.fsync = FsyncPolicy::kOff;
  std::unique_ptr<WalWriter> writer;
  const RecoveryReport report = manager.recover(
      *p.engine, p.simulator->middleware(), wal_config, writer);
  ASSERT_NE(writer, nullptr);

  EXPECT_EQ(expected.corrupt_frames, 1u);
  EXPECT_EQ(report.corrupt_frames, expected.corrupt_frames);
  EXPECT_EQ(report.frames_replayed, expected.frames_replayed);
  EXPECT_EQ(report.updates_replayed, expected.updates_replayed);
  EXPECT_EQ(report.last_ack_sequence, expected.last_ack_sequence);
  EXPECT_EQ(report.next_wal_sequence, expected.next_wal_sequence);
  EXPECT_EQ(bits(report.recovered_time), bits(expected.recovered_time));
  ASSERT_EQ(report.replayed_fixes.size(), expected.replayed_fixes.size());
  for (std::size_t i = 0; i < report.replayed_fixes.size(); ++i) {
    expect_bit_identical(report.replayed_fixes[i], expected.replayed_fixes[i],
                         static_cast<int>(i));
  }
  EXPECT_EQ(writer->next_sequence(), reopened.next_sequence());
  EXPECT_EQ(writer->next_sequence(), report.next_wal_sequence);
  EXPECT_EQ(read_wal(dir_ / "wal").corrupt_frames, 0u) << "tail truncated";

  const obs::Counter* corrupt =
      p.engine->metrics().find_counter("vire_persist_wal_corrupt_total", {});
  ASSERT_NE(corrupt, nullptr);
  EXPECT_EQ(corrupt->value(), 1u);
  const obs::Counter* expected_corrupt = read_only.engine->metrics().find_counter(
      "vire_persist_wal_corrupt_total", {});
  ASSERT_NE(expected_corrupt, nullptr);
  EXPECT_EQ(expected_corrupt->value(), 1u);

  int walks = 0;
  for (const obs::TraceEvent& event : p.engine->tracer().snapshot()) {
    if (event.name != "persist.wal_walk") continue;
    ++walks;
    EXPECT_NE(event.args.find("\"kept\":" +
                              std::to_string(report.frames_replayed)),
              std::string::npos)
        << event.args;
  }
  EXPECT_EQ(walks, 1);
}

// --- Checkpoint-bounded WAL ------------------------------------------------

/// One pruned run: the pipeline journals into small segments, checkpoints
/// every `checkpoint_every` polls and prunes to retention_floor() after each
/// checkpoint, then is abandoned as a crash would leave it.
struct PruneScenario {
  double window_s = 10.0;
  int checkpoint_every = 2;
  int polls = 12;
  bool prune = true;
  /// Poll after which the WAL writer is dropped and reopened (-1: never).
  int reopen_after = -1;
};

constexpr std::uint64_t kSmallSegment = 64;  // frames; a poll spans several

struct PrunedRun {
  std::vector<std::uint64_t> floors;  ///< floor applied at each checkpoint
  std::size_t segments_removed = 0;
  sim::SimTime last_poll = 0.0;
  std::vector<sim::TagId> tags;       ///< tracked and reference tags
};

PrunedRun run_pruned(const fs::path& dir, const PruneScenario& scenario) {
  Pipeline p = make_pipeline(nullptr, scenario.window_s);
  WalConfig wal_config;
  wal_config.dir = dir / "wal";
  wal_config.segment_max_frames = kSmallSegment;
  wal_config.fsync = FsyncPolicy::kOff;
  auto wal = std::make_unique<WalWriter>(wal_config);
  p.simulator->middleware().attach_journal(wal.get());

  CheckpointStoreConfig store_config;
  store_config.dir = dir / "ckpt";
  CheckpointStore store(store_config);

  PrunedRun run;
  run.tags = p.tags;
  p.simulator->run_for(kWarmupS);
  for (int poll = 0; poll < scenario.polls; ++poll) {
    p.simulator->run_for(kPollS);
    const sim::SimTime now = p.simulator->now();
    p.simulator->middleware().evict_stale(now);
    wal->append_update_marker(now);
    p.engine->update(p.simulator->middleware(), now);
    if ((poll + 1) % scenario.checkpoint_every == 0) {
      Checkpoint ckpt;
      ckpt.config_fingerprint = engine_config_fingerprint(p.engine->config());
      ckpt.wal_sequence = wal->next_sequence();
      ckpt.sim_time = now;
      ckpt.engine = p.engine->snapshot();
      ckpt.middleware = p.simulator->middleware().snapshot();
      ckpt.counters = sample_counters(p.engine->metrics());
      store.write(ckpt);
      if (scenario.prune) {
        const std::uint64_t floor =
            wal->retention_floor(store, now - scenario.window_s);
        run.floors.push_back(floor);
        run.segments_removed += wal->prune(floor);
      }
    }
    if (poll == scenario.reopen_after) {
      p.simulator->middleware().attach_journal(nullptr);
      wal.reset();  // a restarted writer relearns the floor from the log
      wal = std::make_unique<WalWriter>(wal_config);
      p.simulator->middleware().attach_journal(wal.get());
    }
    run.last_poll = now;
  }
  p.simulator->middleware().attach_journal(nullptr);  // "crash"
  return run;
}

std::vector<fs::path> sorted_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

void corrupt_file(const fs::path& file) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(fs::file_size(file) / 2));
  f.put('\x5a');
}

/// Recovers `dir` into a fresh pipeline and checks every replayed update
/// against the uninterrupted run; returns the loaded checkpoint's sequence.
std::uint64_t recover_and_compare(
    const fs::path& dir, const std::vector<std::vector<engine::Fix>>& golden,
    int polls) {
  CatchUpGate gate;
  gate.set_open(false);
  Pipeline p = make_pipeline(&gate);
  RecoveryManager manager({dir / "wal", dir / "ckpt"});
  const RecoveryReport report =
      manager.recover(*p.engine, p.simulator->middleware());
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_EQ(report.corrupt_frames, 0u);
  EXPECT_GT(report.updates_replayed, 0u);
  const int first = polls - static_cast<int>(report.replayed_fixes.size());
  for (std::size_t i = 0; i < report.replayed_fixes.size(); ++i) {
    const int poll = first + static_cast<int>(i);
    expect_bit_identical(report.replayed_fixes[i],
                         golden[static_cast<std::size_t>(poll)], poll);
  }
  return report.checkpoint_sequence;
}

/// The pruned log still holds every frame from the oldest retained
/// checkpoint on: recovery can fall back to any checkpoint the store keeps.
void expect_fallback_suffix_kept(const fs::path& dir) {
  CheckpointStoreConfig store_config;
  store_config.dir = dir / "ckpt";
  const auto stored = CheckpointStore(store_config).stored_sequences();
  ASSERT_FALSE(stored.empty());
  const WalReadResult wal = read_wal(dir / "wal");
  ASSERT_FALSE(wal.frames.empty());
  EXPECT_LE(wal.frames.front().sequence, stored.front())
      << "the prune removed frames the oldest retained checkpoint replays";
}

/// Every tag's window read from the pruned log equals the unpruned log's.
void expect_same_windows(const fs::path& pruned, const fs::path& full,
                         const PrunedRun& run, double window_s) {
  const sim::SimTime horizon = run.last_poll - window_s;
  for (const sim::TagId tag : run.tags) {
    const auto kept = wal_tag_window(pruned / "wal", tag, horizon);
    const auto all = wal_tag_window(full / "wal", tag, horizon);
    ASSERT_FALSE(all.empty()) << "tag " << tag;
    ASSERT_EQ(kept.size(), all.size()) << "tag " << tag;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      EXPECT_EQ(bits(kept[i].time), bits(all[i].time)) << "tag " << tag;
      EXPECT_EQ(kept[i].reader, all[i].reader) << "tag " << tag;
      EXPECT_EQ(bits(kept[i].rssi_dbm), bits(all[i].rssi_dbm)) << "tag " << tag;
    }
  }
}

TEST_F(RecoveryTest, PruneFloorKeepsNewestCheckpointRecoveryBitIdentical) {
  // The oldest checkpoint binds the floor. Abandoned one poll past the
  // newest checkpoint, so replay has work.
  PruneScenario scenario;
  scenario.polls += 1;
  const auto golden = run_golden(scenario.polls);
  const PrunedRun run = run_pruned(dir_, scenario);
  ASSERT_GT(run.segments_removed, 0u) << "small segments must really prune";
  EXPECT_FALSE(fs::exists(dir_ / "wal" / "wal-000000000001.log"));
  expect_fallback_suffix_kept(dir_);

  CheckpointStoreConfig store_config;
  store_config.dir = dir_ / "ckpt";
  const auto stored = CheckpointStore(store_config).stored_sequences();
  EXPECT_EQ(recover_and_compare(dir_, golden, scenario.polls), stored.back());
}

TEST_F(RecoveryTest, PruneFloorKeepsFallbackToOldestCheckpointBitIdentical) {
  PruneScenario scenario;
  scenario.polls += 1;
  const auto golden = run_golden(scenario.polls);
  const PrunedRun run = run_pruned(dir_, scenario);
  ASSERT_GT(run.segments_removed, 0u);

  // Corrupt every retained checkpoint but the oldest: recovery falls back
  // to it and replays the longest suffix the floor promises to keep.
  const auto checkpoints = sorted_files(dir_ / "ckpt");
  ASSERT_GE(checkpoints.size(), 2u);
  for (std::size_t i = 1; i < checkpoints.size(); ++i) corrupt_file(checkpoints[i]);
  CheckpointStoreConfig store_config;
  store_config.dir = dir_ / "ckpt";
  const auto stored = CheckpointStore(store_config).stored_sequences();
  EXPECT_EQ(recover_and_compare(dir_, golden, scenario.polls), stored.front());
}

TEST_F(RecoveryTest, PruneFloorKeepsTheMigrationWindow) {
  // A window longer than the checkpoints' reach: the window binds the floor.
  PruneScenario scenario;
  scenario.window_s = 20.0;
  scenario.checkpoint_every = 1;
  PruneScenario unpruned = scenario;
  unpruned.prune = false;
  const PrunedRun run = run_pruned(dir_ / "pruned", scenario);
  run_pruned(dir_ / "full", unpruned);
  ASSERT_GT(run.segments_removed, 0u);
  expect_same_windows(dir_ / "pruned", dir_ / "full", run, scenario.window_s);
}

TEST_F(RecoveryTest, PruneFloorSurvivesAWriterRestart) {
  for (const double window_s : {10.0, 20.0}) {
    SCOPED_TRACE("window " + std::to_string(window_s));
    PruneScenario scenario;
    scenario.window_s = window_s;
    scenario.checkpoint_every = window_s > 10.0 ? 1 : 2;
    PruneScenario restarted = scenario;
    restarted.reopen_after = 7;  // after prunes: the reopened log is partial
    PruneScenario unpruned = scenario;
    unpruned.prune = false;
    const fs::path base = dir_ / std::to_string(static_cast<int>(window_s));
    const PrunedRun live = run_pruned(base / "live", scenario);
    const PrunedRun reopened = run_pruned(base / "reopened", restarted);
    run_pruned(base / "full", unpruned);

    EXPECT_EQ(reopened.floors, live.floors);
    std::vector<std::string> live_segments, reopened_segments;
    for (const auto& f : sorted_files(base / "live" / "wal")) {
      live_segments.push_back(f.filename().string());
    }
    for (const auto& f : sorted_files(base / "reopened" / "wal")) {
      reopened_segments.push_back(f.filename().string());
    }
    EXPECT_EQ(reopened_segments, live_segments);
    expect_fallback_suffix_kept(base / "reopened");
    expect_same_windows(base / "reopened", base / "full", reopened, window_s);
  }
}

}  // namespace
}  // namespace vire::persist
