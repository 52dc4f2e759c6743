// Unit tests for the supervisor's durable control journal
// (src/service/control_journal.h): op-record/recover roundtrips, checkpoint
// fold + prune, the per-member op-log suffix read (collect_oplog), and
// torn-tail / corrupt-checkpoint degradation. Pure file I/O — no processes,
// so these run everywhere (including the single-core CI box).

#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/control_journal.h"

namespace vire::service {
namespace {

namespace fs = std::filesystem;

ControlJournalConfig journal_config(const fs::path& dir) {
  ControlJournalConfig config;
  config.dir = dir;
  config.segment_max_records = 4;  // rotation + prune exercised by default
  return config;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir;
}

sim::RssiReading reading(double time, sim::TagId tag, double rssi) {
  sim::RssiReading r;
  r.time = time;
  r.tag = tag;
  r.reader = 2;
  r.rssi_dbm = rssi;
  return r;
}

TEST(ControlJournalTest, FreshDirectoryRecoversNothing) {
  const fs::path dir = fresh_dir("vire_cj_fresh");
  ControlJournal journal(journal_config(dir));
  const auto recovered = journal.recover();
  EXPECT_FALSE(recovered.recovered);
  EXPECT_TRUE(recovered.oplogs.empty());
  EXPECT_EQ(recovered.state.ingest_sequence, 0u);
}

TEST(ControlJournalTest, JournalSuffixFoldsWithoutCheckpoint) {
  const fs::path dir = fresh_dir("vire_cj_fold");
  {
    ControlJournal journal(journal_config(dir));
    (void)journal.recover();
    journal.record_add_shard(0);
    journal.record_shard_active(0);
    journal.record_track(7, "asset-7", 0);
    journal.record_track(9, "asset-9", std::nullopt);
    journal.record_set_reference({1, 2, 3});
    journal.record_batch(0, 1, std::vector{reading(1.0, 7, -50.0)});
    journal.record_batch(
        0, 2, std::vector{reading(1.5, 9, -48.0), reading(1.5, 7, -51.0)});
    journal.record_poll(0, 2.0);
    journal.record_breaker(0, true);
  }

  ControlJournal journal(journal_config(dir));
  const auto recovered = journal.recover();
  ASSERT_TRUE(recovered.recovered);
  const auto& state = recovered.state;
  EXPECT_EQ(state.ingest_sequence, 2u);
  EXPECT_EQ(state.next_shard_id, 1u);
  EXPECT_DOUBLE_EQ(state.last_poll_time, 2.0);
  ASSERT_EQ(state.members.size(), 1u);
  EXPECT_EQ(state.members[0].id, 0u);
  EXPECT_EQ(state.members[0].phase, MemberPhase::kActive);
  EXPECT_TRUE(state.members[0].breaker_open);
  ASSERT_EQ(state.tags.size(), 2u);
  EXPECT_EQ(state.tags[0].name, "asset-7");
  ASSERT_TRUE(state.tags[0].zone.has_value());
  EXPECT_EQ(*state.tags[0].zone, 0u);
  EXPECT_FALSE(state.tags[1].zone.has_value());
  EXPECT_EQ(state.reference_ids, (std::vector<sim::TagId>{1, 2, 3}));

  // No acks were recorded: the full suffix (2 batches + 1 poll) is owed.
  ASSERT_EQ(recovered.oplogs.size(), 1u);
  const auto& ops = recovered.oplogs.at(0);
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].kind, JournaledOp::Kind::kBatch);
  EXPECT_EQ(ops[0].batch_sequence, 1u);
  ASSERT_EQ(ops[1].readings.size(), 2u);
  EXPECT_EQ(ops[1].readings[0].tag, 9u);
  EXPECT_DOUBLE_EQ(ops[1].readings[0].rssi_dbm, -48.0);
  EXPECT_EQ(ops[2].kind, JournaledOp::Kind::kPoll);
  EXPECT_DOUBLE_EQ(ops[2].time, 2.0);
  EXPECT_EQ(recovered.replayed_ops, 9u);
  EXPECT_EQ(recovered.corrupt_records, 0u);
}

TEST(ControlJournalTest, CheckpointFoldsPrunesAndSuffixReplays) {
  const fs::path dir = fresh_dir("vire_cj_checkpoint");
  {
    ControlJournal journal(journal_config(dir));
    (void)journal.recover();
    journal.record_add_shard(0);
    journal.record_shard_active(0);
    for (std::uint64_t seq = 1; seq <= 6; ++seq) {
      journal.record_batch(0, seq,
                           std::vector{reading(0.1 * double(seq), 7, -50.0)});
    }
    EXPECT_EQ(journal.appends_since_checkpoint(), 8u);

    // Shard acked through batch 4: checkpoint with the floor at the journal
    // sequence of batch 5 (record 7 = 2 membership ops + 4 acked batches + 1).
    ControlCheckpoint state;
    state.journal_floor = 7;
    state.ingest_sequence = 6;
    state.next_shard_id = 1;
    state.last_poll_time = 0.6;
    ControlCheckpoint::Member member;
    member.id = 0;
    member.last_ack = 4;
    state.members.push_back(member);
    state.tags.push_back(ControlCheckpoint::Tag{7, "asset-7", std::nullopt});
    engine::Fix fix;
    fix.tag = 7;
    fix.name = "asset-7";
    fix.time = 0.4;
    fix.valid = true;
    fix.quality = engine::FixQuality::kOk;
    fix.position = {1.25, -2.5};
    fix.smoothed_position = {1.0, -2.0};
    fix.survivor_count = 4;
    fix.age_s = 0.0;
    state.latest.push_back(fix);
    journal.checkpoint(state);
    EXPECT_EQ(journal.appends_since_checkpoint(), 0u);
  }

  ControlJournal journal(journal_config(dir));
  const auto recovered = journal.recover();
  ASSERT_TRUE(recovered.recovered);
  EXPECT_EQ(recovered.state.ingest_sequence, 6u);
  ASSERT_EQ(recovered.state.members.size(), 1u);
  EXPECT_EQ(recovered.state.members[0].last_ack, 4u);
  ASSERT_EQ(recovered.state.latest.size(), 1u);
  const auto& fix = recovered.state.latest[0];
  EXPECT_EQ(fix.name, "asset-7");
  EXPECT_EQ(fix.quality, engine::FixQuality::kOk);
  EXPECT_DOUBLE_EQ(fix.position.x, 1.25);
  EXPECT_DOUBLE_EQ(fix.position.y, -2.5);
  EXPECT_EQ(fix.survivor_count, 4u);

  // Only the un-acked suffix (batches 5 and 6) is owed after recovery.
  ASSERT_EQ(recovered.oplogs.size(), 1u);
  const auto& ops = recovered.oplogs.at(0);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].batch_sequence, 5u);
  EXPECT_EQ(ops[1].batch_sequence, 6u);

  // The checkpoint pruned at least one wholly-covered segment (floor 7 with
  // 4-record segments covers segment 1-4).
  std::size_t segments = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".log") ++segments;
  }
  EXPECT_LT(segments, 3u);
}

TEST(ControlJournalTest, PollsDoneDropsExecutedPollsFromTheSuffix) {
  const fs::path dir = fresh_dir("vire_cj_pollsdone");
  std::uint64_t first_poll_seq = 0;
  {
    ControlJournal journal(journal_config(dir));
    (void)journal.recover();
    journal.record_add_shard(0);
    first_poll_seq = journal.record_poll(0, 1.0);
    journal.record_poll(0, 2.0);
    journal.record_polls_done(0, first_poll_seq);
  }
  ControlJournal journal(journal_config(dir));
  const auto recovered = journal.recover();
  ASSERT_EQ(recovered.oplogs.count(0), 1u);
  const auto& ops = recovered.oplogs.at(0);
  ASSERT_EQ(ops.size(), 1u) << "executed poll must not replay";
  EXPECT_DOUBLE_EQ(ops[0].time, 2.0);
  ASSERT_EQ(recovered.state.members.size(), 1u);
  EXPECT_EQ(recovered.state.members[0].polls_done, first_poll_seq);
}

TEST(ControlJournalTest, RemoveShardErasesMemberAndOplog) {
  const fs::path dir = fresh_dir("vire_cj_remove");
  {
    ControlJournal journal(journal_config(dir));
    (void)journal.recover();
    journal.record_add_shard(0);
    journal.record_add_shard(1);
    journal.record_shard_active(0);
    journal.record_shard_draining(1);
    journal.record_batch(1, 1, std::vector{reading(1.0, 7, -50.0)});
    journal.record_remove_shard(1);
  }
  ControlJournal journal(journal_config(dir));
  const auto recovered = journal.recover();
  ASSERT_EQ(recovered.state.members.size(), 1u);
  EXPECT_EQ(recovered.state.members[0].id, 0u);
  EXPECT_TRUE(recovered.oplogs.empty()) << "removed member owes nothing";
  EXPECT_EQ(recovered.state.next_shard_id, 2u)
      << "ids are never reused, even after a remove";
}

TEST(ControlJournalTest, CollectOplogRebuildsTheSuffixFromDisk) {
  const fs::path dir = fresh_dir("vire_cj_collect");
  ControlJournal journal(journal_config(dir));
  (void)journal.recover();
  journal.record_add_shard(0);
  journal.record_add_shard(1);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    journal.record_batch(seq % 2, seq,
                         std::vector{reading(0.1 * double(seq), 7, -50.0)});
  }
  const auto poll_seq = journal.record_poll(0, 9.0);
  journal.record_polls_done(0, poll_seq);

  // Shard 0 owns batches 2 and 4; acked through 2 → owes only batch 4. Its
  // only poll is marked done → no poll replays.
  const auto ops = journal.collect_oplog(0, /*last_ack=*/2, /*polls_done=*/0);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, JournaledOp::Kind::kBatch);
  EXPECT_EQ(ops[0].batch_sequence, 4u);

  // Shard 1 owns batches 1, 3, 5; nothing acked → owes all three, in order.
  const auto other = journal.collect_oplog(1, 0, 0);
  ASSERT_EQ(other.size(), 3u);
  EXPECT_EQ(other[0].batch_sequence, 1u);
  EXPECT_EQ(other[2].batch_sequence, 5u);
}

/// Writes 40 batches alternating between shards 0 and 1, one poll owed by
/// shard 0 after batch 30 and a track; returns the journal sequence of batch
/// 21, the first one shard 0 has not acked when it acked through batch 20.
std::uint64_t write_two_shard_log(ControlJournal& journal) {
  std::uint64_t floor = 0;
  journal.record_add_shard(0);
  journal.record_add_shard(1);
  for (std::uint64_t seq = 1; seq <= 40; ++seq) {
    const auto journal_seq = journal.record_batch(
        seq % 2, seq,
        std::vector{reading(0.1 * double(seq), 7, -50.0 - double(seq))});
    if (seq == 21) floor = journal_seq;
    if (seq == 30) (void)journal.record_poll(0, 3.0);
  }
  journal.record_track(7, "pallet", std::nullopt);
  return floor;
}

void expect_same_ops(const std::deque<JournaledOp>& got,
                     const std::deque<JournaledOp>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    EXPECT_EQ(got[i].journal_sequence, want[i].journal_sequence) << i;
    EXPECT_EQ(got[i].batch_sequence, want[i].batch_sequence) << i;
    EXPECT_EQ(got[i].time, want[i].time) << i;
    ASSERT_EQ(got[i].readings.size(), want[i].readings.size()) << i;
    for (std::size_t r = 0; r < want[i].readings.size(); ++r) {
      EXPECT_EQ(got[i].readings[r].rssi_dbm, want[i].readings[r].rssi_dbm);
    }
  }
}

// The supervisor reads a member's op-log back from the oldest entry it
// indexes, not from sequence 0: everything older is acked or done, so both
// reads return the same suffix, and each decodes only that member's
// records. Segments of 4 records put the floor mid-log.
TEST(ControlJournalTest, CollectOplogFromTheFloorMatchesTheFullScan) {
  const fs::path dir = fresh_dir("vire_cj_collect_floor");
  std::uint64_t floor = 0;
  {
    ControlJournal journal(journal_config(dir));
    (void)journal.recover();
    floor = write_two_shard_log(journal);
  }
  ASSERT_NE(floor, 0u);
  ControlJournal journal(journal_config(dir));
  (void)journal.recover();
  std::uint64_t full_records = 0;
  std::uint64_t floor_records = 0;
  const auto full = journal.collect_oplog(0, /*last_ack=*/20, /*polls_done=*/0,
                                          0, &full_records);
  const auto bounded = journal.collect_oplog(0, 20, 0, floor, &floor_records);
  ASSERT_EQ(full.size(), 11u) << "batches 22..40 of shard 0 plus one poll";
  expect_same_ops(bounded, full);
  EXPECT_EQ(full_records, 22u)
      << "shard 0's kAddShard, its 20 batches and its poll";
  EXPECT_EQ(floor_records, full.size())
      << "only shard 0's records at or above the floor are decoded";
}

// The live read starts at the segment holding its floor: a segment below it
// is never opened, so damage there cannot cut the suffix short. (recover()
// still walks every segment; this journal's writer validated them at open.)
TEST(ControlJournalTest, LiveCollectOplogSkipsSegmentsBelowTheFloor) {
  const fs::path dir = fresh_dir("vire_cj_collect_skip");
  ControlJournal journal(journal_config(dir));
  (void)journal.recover();
  (void)write_two_shard_log(journal);
  constexpr std::uint64_t kInThirdSegment = 10;  // segments hold 9..12
  ASSERT_TRUE(fs::exists(dir / "ops-000000000009.log"));
  const auto before = journal.collect_oplog(0, /*last_ack=*/20,
                                            /*polls_done=*/0, 0);
  ASSERT_EQ(before.size(), 11u);

  const fs::path first = dir / "ops-000000000001.log";
  ASSERT_TRUE(fs::exists(first));
  {
    std::fstream f(first, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(first)) - 8);
    f.put('!');
  }
  expect_same_ops(journal.collect_oplog(0, 20, 0, kInThirdSegment), before);
}

TEST(ControlJournalTest, CorruptCheckpointFallsBackToTheJournal) {
  const fs::path dir = fresh_dir("vire_cj_badckpt");
  {
    ControlJournal journal(journal_config(dir));
    (void)journal.recover();
    journal.record_add_shard(0);
    journal.record_shard_active(0);
    journal.record_batch(0, 1, std::vector{reading(1.0, 7, -50.0)});
    ControlCheckpoint state;
    state.journal_floor = 1;  // checkpoint does not advance past anything
    state.ingest_sequence = 1;
    state.next_shard_id = 1;
    ControlCheckpoint::Member member;
    member.id = 0;
    state.members.push_back(member);
    journal.checkpoint(state);
  }
  // Truncate checkpoint.bin mid-body: the CRC fails and recovery must fold
  // the full journal instead of trusting half a checkpoint.
  const fs::path checkpoint = dir / "checkpoint.bin";
  ASSERT_TRUE(fs::exists(checkpoint));
  fs::resize_file(checkpoint, fs::file_size(checkpoint) / 2);

  ControlJournal journal(journal_config(dir));
  const auto recovered = journal.recover();
  ASSERT_TRUE(recovered.recovered);
  EXPECT_EQ(recovered.state.ingest_sequence, 1u);
  ASSERT_EQ(recovered.state.members.size(), 1u);
  ASSERT_EQ(recovered.oplogs.count(0), 1u);
  EXPECT_EQ(recovered.oplogs.at(0).size(), 1u);
}

TEST(ControlJournalTest, TornJournalTailIsCountedAndDropped) {
  const fs::path dir = fresh_dir("vire_cj_torn");
  {
    ControlJournal journal(journal_config(dir));
    (void)journal.recover();
    journal.record_add_shard(0);
    journal.record_batch(0, 1, std::vector{reading(1.0, 7, -50.0)});
  }
  // Corrupt the last record's payload byte-for-byte like a torn write.
  fs::path last;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".log") last = entry.path();
  }
  ASSERT_FALSE(last.empty());
  {
    std::fstream f(last, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(last)) - 8);
    f.put('!');
  }
  ControlJournal journal(journal_config(dir));
  const auto recovered = journal.recover();
  ASSERT_TRUE(recovered.recovered);
  EXPECT_GE(recovered.corrupt_records, 1u);
  EXPECT_TRUE(recovered.oplogs.empty()) << "torn batch must not half-replay";
  ASSERT_EQ(recovered.state.members.size(), 1u);
  EXPECT_EQ(recovered.state.members[0].phase, MemberPhase::kJoining);
}

TEST(ControlJournalTest, MemberPhaseNamesAreStable) {
  EXPECT_EQ(to_string(MemberPhase::kJoining), "joining");
  EXPECT_EQ(to_string(MemberPhase::kActive), "active");
  EXPECT_EQ(to_string(MemberPhase::kDraining), "draining");
}

}  // namespace
}  // namespace vire::service
