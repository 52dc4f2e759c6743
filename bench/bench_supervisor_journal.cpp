// Control-journal overhead and supervisor failover speed: what does the
// durable control plane cost, and how fast does a new incarnation rebuild?
// (docs/service.md, "Supervisor failover & elastic membership").
//
// Four headline numbers, file-I/O only — no engines, no shard processes, so
// the bench isolates the journal itself and runs anywhere (including the
// 1-core CI container):
//
//   * op append       — journaled ingest batches/s, the steady-state tax the
//     control journal adds to the supervisor ingest path (fsync off, the
//     production default: page-cache durability survives a supervisor
//     SIGKILL);
//   * checkpoint      — sync + fold + atomic-rename of the control state,
//     the per-cadence cost of bounding replay;
//   * recover         — cold-start latency of checkpoint load + suffix fold,
//     which bounds supervisor failover time: takeover ~ journal-suffix
//     length / recovery rate;
//   * revival read    — collect_oplog(), how a revived shard's un-acked
//     suffix comes back from the journal: shard 0 owes the newest 260
//     batches (one ingest_stream poll interval). It is read once by a
//     full-journal walk and once from the floor the supervisor passes (the
//     oldest entry its op-log indexes), which starts at the segment holding
//     the floor and leaves older segments unread. Both must return the same
//     suffix.
//
// Env knobs: VIRE_JOURNAL_OPS      journaled batches (default 20000)
//            VIRE_JOURNAL_BATCH    readings per batch (default 8)
//            VIRE_JOURNAL_RECOVERS recover() reps timed (default 5)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "obs/bench_report.h"
#include "service/control_journal.h"

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

std::vector<sim::RssiReading> make_batch(int index, int readings) {
  std::vector<sim::RssiReading> batch;
  batch.reserve(static_cast<std::size_t>(readings));
  for (int i = 0; i < readings; ++i) {
    batch.push_back({0.01 * index + 0.001 * i,
                     static_cast<sim::TagId>(100 + (i & 15)),
                     static_cast<sim::ReaderId>(i & 3), -55.0 - (i & 7)});
  }
  return batch;
}

}  // namespace

int main() {
  const int ops = env_int("VIRE_JOURNAL_OPS", 20000);
  const int per_batch = env_int("VIRE_JOURNAL_BATCH", 8);
  const int recovers = env_int("VIRE_JOURNAL_RECOVERS", 5);
  const fs::path scratch = "bench_out/journal_scratch";

  std::printf("=== Control-journal overhead & failover speed ===\n");
  std::printf("batches: %d, readings/batch: %d, recover reps: %d\n\n", ops,
              per_batch, recovers);

  fs::remove_all(scratch);
  service::ControlJournalConfig config;
  config.dir = scratch;

  // 1. Append throughput: the per-ingest tax. Two shards round-robin, plus
  // the occasional membership/breaker op a real stream carries.
  auto journal = std::make_unique<service::ControlJournal>(config);
  (void)journal->recover();
  journal->record_add_shard(0);
  journal->record_shard_active(0);
  journal->record_add_shard(1);
  journal->record_shard_active(1);
  // Shard 0 holds the odd batch sequences; it has acked all but its newest
  // `tail` batches, and the first un-acked one is the revival read's floor.
  const int tail = std::min(260, ops / 2);
  const auto last_ack = static_cast<std::uint64_t>(ops - 2 * tail);
  std::uint64_t floor = 0;
  const auto append_start = std::chrono::steady_clock::now();
  for (int i = 0; i < ops; ++i) {
    const auto journal_seq = journal->record_batch(
        static_cast<std::uint32_t>(i & 1), static_cast<std::uint64_t>(i + 1),
        make_batch(i, per_batch));
    if (static_cast<std::uint64_t>(i) == last_ack) floor = journal_seq;
  }
  const double append_elapsed = seconds_since(append_start);
  const double append_ops_rate = static_cast<double>(ops) / append_elapsed;
  const double append_readings_rate =
      static_cast<double>(ops) * per_batch / append_elapsed;

  // 2. Checkpoint latency: fold + sync + atomic rename. journal_floor stays
  // at 1 so the timing loop never prunes the suffix the recovery below folds.
  service::ControlCheckpoint state;
  state.ingest_sequence = static_cast<std::uint64_t>(ops);
  state.next_shard_id = 2;
  state.last_poll_time = 0.01 * ops;
  state.members = {{0, service::MemberPhase::kActive, 0, false, 0},
                   {1, service::MemberPhase::kActive, 0, false, 0}};
  for (sim::TagId tag = 100; tag < 116; ++tag) {
    state.tags.push_back({tag, "tag-" + std::to_string(tag), std::nullopt});
  }
  const auto ckpt_start = std::chrono::steady_clock::now();
  constexpr int kCheckpointReps = 10;
  for (int i = 0; i < kCheckpointReps; ++i) journal->checkpoint(state);
  const double checkpoint_ms =
      seconds_since(ckpt_start) * 1000.0 / kCheckpointReps;
  journal.reset();  // close the open segment cleanly

  // 3. Failover: a cold incarnation loads the checkpoint and folds the whole
  // un-acked suffix (last_ack 0: every batch is owed, the worst case).
  double recover_elapsed = 0.0;
  std::uint64_t replayed = 0;
  std::uint64_t owed = 0;
  for (int i = 0; i < recovers; ++i) {
    service::ControlJournal cold(config);
    const auto start = std::chrono::steady_clock::now();
    const service::RecoveredControlState recovered = cold.recover();
    recover_elapsed += seconds_since(start);
    replayed = recovered.replayed_ops;
    owed = 0;
    for (const auto& [shard, oplog] : recovered.oplogs) owed += oplog.size();
    if (!recovered.recovered) {
      std::printf("FAIL: recovery found nothing under %s\n",
                  scratch.string().c_str());
      return 1;
    }
  }
  const double recover_ms = recover_elapsed * 1000.0 / recovers;
  const double replay_rate =
      recover_elapsed > 0.0
          ? static_cast<double>(replayed) * recovers / recover_elapsed
          : 0.0;

  // 4. Revival read: one member's un-acked suffix read back from the journal
  // a live supervisor has open, from sequence 0 and from the floor.
  service::ControlJournal live(config);
  (void)live.recover();
  std::uint64_t full_records = 0;
  auto collect_start = std::chrono::steady_clock::now();
  const auto oplog = live.collect_oplog(0, last_ack, 0, 0, &full_records);
  const double collect_ms = seconds_since(collect_start) * 1000.0;
  std::uint64_t floor_records = 0;
  collect_start = std::chrono::steady_clock::now();
  const auto from_floor =
      live.collect_oplog(0, last_ack, 0, floor, &floor_records);
  const double collect_floor_ms = seconds_since(collect_start) * 1000.0;
  bool reads_match = from_floor.size() == oplog.size();
  for (std::size_t i = 0; reads_match && i < oplog.size(); ++i) {
    reads_match =
        from_floor[i].journal_sequence == oplog[i].journal_sequence &&
        from_floor[i].readings.size() == oplog[i].readings.size();
  }

  std::printf("op append        : %10.0f batches/s  (%0.0f readings/s)\n",
              append_ops_rate, append_readings_rate);
  std::printf("checkpoint write : %10.3f ms\n", checkpoint_ms);
  std::printf("recover          : %10.3f ms  (%llu ops folded, %llu owed, "
              "%0.0f ops/s)\n",
              recover_ms, static_cast<unsigned long long>(replayed),
              static_cast<unsigned long long>(owed), replay_rate);
  std::printf("revival read     : %10.3f ms  full walk (%llu records "
              "decoded, %zu entries kept for shard 0)\n",
              collect_ms, static_cast<unsigned long long>(full_records),
              oplog.size());
  std::printf("                   %10.3f ms  from the floor (%llu records "
              "decoded, %zu entries kept%s)\n",
              collect_floor_ms, static_cast<unsigned long long>(floor_records),
              from_floor.size(), reads_match ? "" : ", MISMATCH");

  obs::BenchReport bench;
  bench.name = "supervisor_journal";
  bench.git_rev = VIRE_GIT_REV;
  bench.config = {{"batches", std::to_string(ops)},
                  {"readings_per_batch", std::to_string(per_batch)},
                  {"recover_reps", std::to_string(recovers)}};
  bench.wall_ms = recover_ms;
  bench.throughput = append_ops_rate;
  bench.throughput_unit = "journaled_batches_per_sec";
  bench.results = {{"append_batches_per_sec", append_ops_rate},
                   {"append_readings_per_sec", append_readings_rate},
                   {"checkpoint_write_ms", checkpoint_ms},
                   {"recover_ms", recover_ms},
                   {"recover_ops_per_sec", replay_rate},
                   {"collect_oplog_ms", collect_ms},
                   {"collect_oplog_from_floor_ms", collect_floor_ms}};
  const auto path = obs::write_bench_report(bench);
  std::printf("\nreport: %s\n", path.string().c_str());

  fs::remove_all(scratch);
  return replayed > 0 && owed > 0 && !oplog.empty() && reads_match ? 0 : 1;
}
