// Persistence overhead and recovery speed: how expensive is crash safety?
// Four headline numbers (docs/robustness.md, "Crash recovery"):
//
//   * checkpoint write  — serialize + atomic-rename of a live engine's full
//     state, the per-cadence cost of checkpointing;
//   * WAL append        — journaled readings/s, the steady-state tax on the
//     ingest path (measured with fsync off and with the every-64 default,
//     each one frame per write(2) and in 64-reading group writes, the
//     shard's batch);
//   * WAL replay        — readings/s through the real recovery path
//     (checkpoint load + Middleware::ingest/evict + engine updates), which
//     bounds restart time: downtime ~ WAL-suffix length / replay rate;
//   * bounded recovery  — recovery time of a run that checkpoints every 2
//     polls and prunes the WAL to its retention floor after each checkpoint,
//     as a shard does, after 10 and after 40 checkpoint intervals. Pruning
//     keeps the two flat; without it recovery reads the whole log.
//
// Env knobs: VIRE_RECOVERY_POLLS       scenario polls journaled (default 12)
//            VIRE_RECOVERY_READINGS    synthetic WAL appends (default 100000)
//            VIRE_RECOVERY_CHECKPOINTS checkpoint writes timed (default 10)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <vector>

#include "engine/localization_engine.h"
#include "env/environment.h"
#include "obs/bench_report.h"
#include "persist/checkpoint.h"
#include "persist/recovery.h"
#include "persist/wal.h"
#include "sim/simulator.h"

namespace {

using namespace vire;
namespace fs = std::filesystem;

int env_int(const char* name, int fallback) {
  if (const char* s = std::getenv(name)) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return fallback;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// The middleware window of every pipeline here.
constexpr double kWindowS = 10.0;

struct Pipeline {
  std::unique_ptr<sim::RfidSimulator> simulator;
  std::unique_ptr<engine::LocalizationEngine> engine;
};

Pipeline make_pipeline() {
  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();
  sim::SimulatorConfig sim_config;
  sim_config.seed = 11;
  sim_config.middleware.window_s = kWindowS;

  Pipeline p;
  p.simulator = std::make_unique<sim::RfidSimulator>(environment, deployment,
                                                     sim_config);
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

/// Readings the shard's worker journals per group write (kIngestBatch).
constexpr int kGroupReadings = 64;

/// Journaled readings/s; `grouped` appends them in kGroupReadings-reading
/// group writes, otherwise each frame is its own write(2).
double wal_append_rate(const fs::path& dir, int readings,
                       persist::FsyncPolicy policy, bool grouped) {
  fs::remove_all(dir);
  persist::WalConfig config;
  config.dir = dir;
  config.fsync = policy;
  persist::WalWriter wal(config);
  const auto append = [&wal](int i) {
    wal.on_accepted({0.01 * i, static_cast<sim::TagId>(100 + (i & 15)),
                     static_cast<sim::ReaderId>(i & 3), -55.0 - (i & 7)});
  };
  const auto start = std::chrono::steady_clock::now();
  if (grouped) {
    for (int first = 0; first < readings; first += kGroupReadings) {
      auto group = wal.batch();
      for (int i = first; i < std::min(readings, first + kGroupReadings); ++i) {
        append(i);
      }
      group.commit();
    }
  } else {
    for (int i = 0; i < readings; ++i) append(i);
  }
  wal.sync();
  const double elapsed = seconds_since(start);
  fs::remove_all(dir);
  return static_cast<double>(readings) / elapsed;
}

/// Polls per checkpoint interval in the bounded-recovery runs.
constexpr int kPollsPerCheckpoint = 2;
/// Frames per WAL segment in the bounded-recovery runs: small, so that even
/// the 10-interval log spans many segments, as a long-lived shard's does.
constexpr std::uint64_t kBoundedSegmentFrames = 256;
/// Timed recoveries per WAL length (the median is reported).
constexpr int kRecoveryReps = 5;

struct BoundedRecovery {
  double recover_ms = 0.0;  ///< median over kRecoveryReps
  std::uint64_t frames_replayed = 0;
  std::size_t segments = 0;  ///< WAL segments left on disk
};

/// Journals `intervals` checkpoint intervals with a checkpoint every
/// kPollsPerCheckpoint polls and the WAL pruned to its retention floor after
/// each, abandons the run one poll past its last checkpoint, and times the
/// recovery of what is left.
BoundedRecovery bounded_recovery(const fs::path& dir, int intervals) {
  fs::remove_all(dir);
  Pipeline live = make_pipeline();
  persist::WalConfig wal_config;
  wal_config.dir = dir / "wal";
  wal_config.segment_max_frames = kBoundedSegmentFrames;
  wal_config.fsync = persist::FsyncPolicy::kOff;
  persist::WalWriter wal(wal_config);
  live.simulator->middleware().attach_journal(&wal);
  persist::CheckpointStoreConfig store_config;
  store_config.dir = dir / "ckpt";
  persist::CheckpointStore store(store_config);

  live.simulator->run_for(40.0);
  for (int poll = 0; poll <= intervals * kPollsPerCheckpoint; ++poll) {
    live.simulator->run_for(5.0);
    const sim::SimTime now = live.simulator->now();
    live.simulator->middleware().evict_stale(now);
    wal.append_update_marker(now);
    live.engine->update(live.simulator->middleware(), now);
    if ((poll + 1) % kPollsPerCheckpoint != 0) continue;
    persist::Checkpoint checkpoint;
    checkpoint.config_fingerprint =
        persist::engine_config_fingerprint(live.engine->config());
    checkpoint.wal_sequence = wal.next_sequence();
    checkpoint.sim_time = now;
    checkpoint.engine = live.engine->snapshot();
    checkpoint.middleware = live.simulator->middleware().snapshot();
    checkpoint.counters = persist::sample_counters(live.engine->metrics());
    store.write(checkpoint);
    wal.prune(wal.retention_floor(store, now - kWindowS));
  }
  live.simulator->middleware().attach_journal(nullptr);

  BoundedRecovery result;
  std::vector<double> times;
  for (int rep = 0; rep < kRecoveryReps; ++rep) {
    Pipeline fresh = make_pipeline();
    persist::RecoveryManager manager({dir / "wal", dir / "ckpt"});
    const persist::RecoveryReport report =
        manager.recover(*fresh.engine, fresh.simulator->middleware());
    times.push_back(report.recovery_seconds * 1000.0);
    result.frames_replayed = report.frames_replayed;
  }
  std::sort(times.begin(), times.end());
  result.recover_ms = times[times.size() / 2];
  for (const auto& entry : fs::directory_iterator(dir / "wal")) {
    if (entry.path().extension() == ".log") ++result.segments;
  }
  fs::remove_all(dir);
  return result;
}

}  // namespace

int main() {
  const int polls = env_int("VIRE_RECOVERY_POLLS", 12);
  const int readings = env_int("VIRE_RECOVERY_READINGS", 100000);
  const int checkpoints = env_int("VIRE_RECOVERY_CHECKPOINTS", 10);
  const fs::path scratch = "bench_out/recovery_scratch";

  std::printf("=== Crash-safety overhead & recovery speed ===\n");
  std::printf("polls: %d, synthetic readings: %d, checkpoint reps: %d\n\n",
              polls, readings, checkpoints);

  // 1. A live scenario with the journal attached, to get a realistic engine
  // state for checkpointing and a realistic WAL for replay.
  fs::remove_all(scratch);
  Pipeline live = make_pipeline();
  persist::WalConfig wal_config;
  wal_config.dir = scratch / "wal";
  wal_config.fsync = persist::FsyncPolicy::kOff;
  auto wal = std::make_unique<persist::WalWriter>(wal_config);
  live.simulator->middleware().attach_journal(wal.get());

  persist::CheckpointStoreConfig store_config;
  store_config.dir = scratch / "ckpt";
  persist::CheckpointStore store(store_config);
  const std::uint64_t fingerprint =
      persist::engine_config_fingerprint(live.engine->config());

  live.simulator->run_for(40.0);
  persist::Checkpoint checkpoint;  // refreshed every poll; last one wins
  for (int poll = 0; poll < polls; ++poll) {
    live.simulator->run_for(5.0);
    const sim::SimTime now = live.simulator->now();
    live.simulator->middleware().evict_stale(now);
    wal->append_update_marker(now);
    live.engine->update(live.simulator->middleware(), now);
    if (poll == 0) {
      // Checkpoint once, early: recovery below replays the long suffix.
      checkpoint.config_fingerprint = fingerprint;
      checkpoint.wal_sequence = wal->next_sequence();
      checkpoint.sim_time = now;
      checkpoint.engine = live.engine->snapshot();
      checkpoint.middleware = live.simulator->middleware().snapshot();
      checkpoint.counters = persist::sample_counters(live.engine->metrics());
      store.write(checkpoint);
    }
  }
  // Refresh the snapshot to end-of-run state for the checkpoint timing.
  checkpoint.engine = live.engine->snapshot();
  checkpoint.middleware = live.simulator->middleware().snapshot();
  checkpoint.counters = persist::sample_counters(live.engine->metrics());
  const std::size_t checkpoint_bytes = persist::serialize(checkpoint).size();
  live.simulator->middleware().attach_journal(nullptr);
  wal.reset();  // close the segment cleanly

  // 2. Checkpoint write latency (serialize + atomic rename, fsync on).
  // A separate scratch store: these timing writes must not shadow the real
  // poll-0 checkpoint the recovery below loads.
  persist::CheckpointStoreConfig timing_config;
  timing_config.dir = scratch / "ckpt_timing";
  persist::CheckpointStore timing_store(timing_config);
  const auto ckpt_start = std::chrono::steady_clock::now();
  for (int i = 0; i < checkpoints; ++i) {
    checkpoint.wal_sequence += 1;  // distinct file names, keep-prune active
    timing_store.write(checkpoint);
  }
  const double checkpoint_ms =
      seconds_since(ckpt_start) * 1000.0 / checkpoints;

  // 3. Synthetic WAL append throughput.
  const double append_nofsync = wal_append_rate(
      scratch / "wal_bench", readings, persist::FsyncPolicy::kOff, false);
  const double append_fsync64 = wal_append_rate(
      scratch / "wal_bench", readings, persist::FsyncPolicy::kEveryN, false);
  const double grouped_nofsync = wal_append_rate(
      scratch / "wal_bench", readings, persist::FsyncPolicy::kOff, true);
  const double grouped_fsync64 = wal_append_rate(
      scratch / "wal_bench", readings, persist::FsyncPolicy::kEveryN, true);

  // 4. Replay speed through the real recovery path.
  Pipeline fresh = make_pipeline();
  persist::RecoveryManager manager({scratch / "wal", scratch / "ckpt"});
  const persist::RecoveryReport report =
      manager.recover(*fresh.engine, fresh.simulator->middleware());
  const double replay_rate =
      report.recovery_seconds > 0.0
          ? static_cast<double>(report.readings_replayed) / report.recovery_seconds
          : 0.0;

  // 5. Recovery of a checkpoint-bounded WAL at two run lengths.
  const BoundedRecovery short_run = bounded_recovery(scratch / "bounded", 10);
  const BoundedRecovery long_run = bounded_recovery(scratch / "bounded", 40);

  std::printf("checkpoint write   : %8.3f ms  (%zu bytes, %d reps)\n",
              checkpoint_ms, checkpoint_bytes, checkpoints);
  std::printf("WAL append (no fsync): %10.0f readings/s, grouped x%d: %10.0f\n",
              append_nofsync, kGroupReadings, grouped_nofsync);
  std::printf("WAL append (fsync/64): %10.0f readings/s, grouped x%d: %10.0f\n",
              append_fsync64, kGroupReadings, grouped_fsync64);
  for (const auto& [intervals, run] :
       {std::pair{10, short_run}, std::pair{40, long_run}}) {
    std::printf("bounded recovery, %2d checkpoint intervals: %7.3f ms "
                "(%llu frames replayed, %zu segments kept)\n",
                intervals, run.recover_ms,
                static_cast<unsigned long long>(run.frames_replayed),
                run.segments);
  }
  std::printf("WAL replay          : %10.0f readings/s  (%llu frames, %llu "
              "updates, %.3f s)\n",
              replay_rate,
              static_cast<unsigned long long>(report.frames_replayed),
              static_cast<unsigned long long>(report.updates_replayed),
              report.recovery_seconds);

  obs::BenchReport bench;
  bench.name = "recovery";
  bench.git_rev = VIRE_GIT_REV;
  bench.config = {{"polls", std::to_string(polls)},
                  {"synthetic_readings", std::to_string(readings)},
                  {"checkpoint_reps", std::to_string(checkpoints)},
                  {"checkpoint_bytes", std::to_string(checkpoint_bytes)}};
  bench.wall_ms = report.recovery_seconds * 1000.0;
  bench.throughput = replay_rate;
  bench.throughput_unit = "replayed_readings_per_sec";
  bench.results = {{"checkpoint_write_ms", checkpoint_ms},
                   {"wal_append_nofsync_per_sec", append_nofsync},
                   {"wal_append_fsync64_per_sec", append_fsync64},
                   {"wal_append_grouped_nofsync_per_sec", grouped_nofsync},
                   {"wal_append_grouped_fsync64_per_sec", grouped_fsync64},
                   {"recovery_ms_10_intervals", short_run.recover_ms},
                   {"recovery_ms_40_intervals", long_run.recover_ms},
                   {"wal_segments_10_intervals",
                    static_cast<double>(short_run.segments)},
                   {"wal_segments_40_intervals",
                    static_cast<double>(long_run.segments)},
                   {"replay_readings_per_sec", replay_rate},
                   {"frames_replayed", static_cast<double>(report.frames_replayed)}};
  const auto path = obs::write_bench_report(bench);
  std::printf("\nreport: %s\n", path.string().c_str());

  fs::remove_all(scratch);
  return report.checkpoint_loaded && report.frames_replayed > 0 ? 0 : 1;
}
