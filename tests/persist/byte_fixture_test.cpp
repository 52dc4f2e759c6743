// Byte stability of the on-disk record formats. The files under
// tests/persist/fixtures/{wal,journal}/ are checked-in artifacts: two "VWAL"
// segments (rotation at 4 frames, all four frame types), one control-journal
// "VCJL" ops segment holding every op type, and one "VCJC" checkpoint.bin.
//
// Writing the same records today must reproduce those files byte for byte,
// and reading the files back must yield the same frames, ops and folded
// control state. A failure here means an on-disk format changed: existing
// WAL directories and supervisor journals would no longer recover. Fix the
// code, not the fixture.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/localization_engine.h"
#include "persist/framed_log.h"
#include "persist/wal.h"
#include "service/control_journal.h"

#ifndef VIRE_FIXTURE_DIR
#error "VIRE_FIXTURE_DIR must point at tests/persist/fixtures"
#endif

namespace vire::persist {
namespace {

namespace fs = std::filesystem;

fs::path fixture_dir() { return fs::path(VIRE_FIXTURE_DIR); }

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir;
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::set<std::string> file_names(const fs::path& dir) {
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  return names;
}

/// Every file of `expected_dir` exists in `actual_dir` with identical bytes,
/// and `actual_dir` holds nothing else.
void expect_same_files(const fs::path& expected_dir, const fs::path& actual_dir) {
  const auto names = file_names(expected_dir);
  ASSERT_FALSE(names.empty()) << expected_dir << " holds no fixture files";
  EXPECT_EQ(names, file_names(actual_dir));
  for (const auto& name : names) {
    EXPECT_EQ(read_bytes(expected_dir / name), read_bytes(actual_dir / name))
        << name << " no longer matches the checked-in bytes";
  }
}

// ---- the records every fixture file holds ------------------------------
// Values are chosen so each field has a distinctive byte pattern
// (fractional doubles, multi-byte ids).

std::vector<sim::RssiReading> batch_a() {
  return {{1.25, 100, 0, -61.5}, {1.5, 1, 3, -48.0625}};
}
std::vector<sim::RssiReading> batch_b() { return {{1.75, 101, 1, -55.25}}; }

void write_wal_records(const fs::path& dir) {
  WalConfig config;
  config.dir = dir;
  config.segment_max_frames = 4;  // frames 1-4, then 5-7 in a second segment
  config.fsync = FsyncPolicy::kOff;
  WalWriter wal(config);
  wal.on_accepted({1.25, 7, 0, -61.5});
  wal.on_accepted({1.5, 1000001, 3, -48.0625});
  wal.on_evict(1.0);
  wal.append_ack_marker(1);
  wal.on_accepted({2.75, 7, 2, -70.125});
  wal.append_update_marker(3.0);
  wal.append_ack_marker(0x0102030405060708ULL);
}

engine::Fix fixture_fix(sim::TagId tag, const std::string& name, bool valid) {
  engine::Fix fix;
  fix.tag = tag;
  fix.name = name;
  fix.time = 2.0;
  fix.valid = valid;
  fix.quality = valid ? engine::FixQuality::kOk : engine::FixQuality::kHold;
  fix.position = {1.125, 2.375};
  fix.smoothed_position = {1.0625, 2.5};
  fix.survivor_count = valid ? 17 : 0;
  fix.used_fallback = !valid;
  fix.age_s = valid ? 0.0 : 4.5;
  return fix;
}

service::ControlCheckpoint fixture_checkpoint() {
  service::ControlCheckpoint state;
  state.journal_floor = 8;  // the first kBatch record
  state.ingest_sequence = 0;
  state.next_shard_id = 2;
  state.last_poll_time = 0.5;
  service::ControlCheckpoint::Member m0;
  m0.id = 0;
  service::ControlCheckpoint::Member m1;
  m1.id = 1;
  m1.phase = service::MemberPhase::kJoining;
  m1.last_ack = 0;
  m1.breaker_open = true;
  m1.polls_done = 3;
  state.members = {m0, m1};
  state.reference_ids = {1, 2, 3, 4};
  state.tags = {{100, "forklift", std::nullopt}, {101, "pallet-7", 1u}};
  state.latest = {fixture_fix(100, "forklift", true),
                  fixture_fix(101, "pallet-7", false)};
  return state;
}

void write_journal_records(const fs::path& dir) {
  service::ControlJournalConfig config;
  config.dir = dir;
  service::ControlJournal journal(config);
  journal.record_add_shard(0);                          // 1
  journal.record_shard_active(0);                       // 2
  journal.record_add_shard(1);                          // 3
  journal.record_shard_active(1);                       // 4
  journal.record_set_reference({1, 2, 3, 4});           // 5
  journal.record_track(100, "forklift", std::nullopt);  // 6
  journal.record_track(101, "pallet-7", 1u);            // 7
  journal.record_batch(0, 1, batch_a());                // 8
  journal.record_batch(1, 2, batch_b());                // 9
  journal.record_poll(1, 2.0);                          // 10
  journal.record_breaker(1, true);                      // 11
  journal.record_breaker(1, false);                     // 12
  journal.record_polls_done(1, 10);                     // 13
  journal.record_shard_draining(1);                     // 14
  journal.record_remove_shard(1);                       // 15
  journal.checkpoint(fixture_checkpoint());
}

void expect_reading(const sim::RssiReading& actual,
                    const sim::RssiReading& expected) {
  EXPECT_EQ(actual.time, expected.time);
  EXPECT_EQ(actual.tag, expected.tag);
  EXPECT_EQ(actual.reader, expected.reader);
  EXPECT_EQ(actual.rssi_dbm, expected.rssi_dbm);
}

void expect_fix(const engine::Fix& actual, const engine::Fix& expected) {
  EXPECT_EQ(actual.tag, expected.tag);
  EXPECT_EQ(actual.name, expected.name);
  EXPECT_EQ(actual.time, expected.time);
  EXPECT_EQ(actual.valid, expected.valid);
  EXPECT_EQ(actual.quality, expected.quality);
  EXPECT_EQ(actual.position.x, expected.position.x);
  EXPECT_EQ(actual.position.y, expected.position.y);
  EXPECT_EQ(actual.smoothed_position.x, expected.smoothed_position.x);
  EXPECT_EQ(actual.smoothed_position.y, expected.smoothed_position.y);
  EXPECT_EQ(actual.survivor_count, expected.survivor_count);
  EXPECT_EQ(actual.used_fallback, expected.used_fallback);
  EXPECT_EQ(actual.age_s, expected.age_s);
}

// ---- writers reproduce the fixture -------------------------------------

TEST(ByteFixtureTest, WalWriterReproducesFixtureBytes) {
  const fs::path dir = fresh_dir("vire_byte_fixture_wal");
  write_wal_records(dir);
  expect_same_files(fixture_dir() / "wal", dir);
  fs::remove_all(dir);
}

TEST(ByteFixtureTest, ControlJournalReproducesFixtureBytes) {
  const fs::path dir = fresh_dir("vire_byte_fixture_journal");
  write_journal_records(dir);
  expect_same_files(fixture_dir() / "journal", dir);
  fs::remove_all(dir);
}

// ---- readers decode the fixture ----------------------------------------

TEST(ByteFixtureTest, ReadWalDecodesFixtureFrames) {
  const WalReadResult wal = read_wal(fixture_dir() / "wal");
  EXPECT_EQ(wal.corrupt_frames, 0u);
  EXPECT_EQ(wal.next_sequence, 8u);
  ASSERT_EQ(wal.frames.size(), 7u);
  const FrameType types[] = {FrameType::kReading, FrameType::kReading,
                             FrameType::kEvict,   FrameType::kAck,
                             FrameType::kReading, FrameType::kUpdate,
                             FrameType::kAck};
  for (std::size_t i = 0; i < wal.frames.size(); ++i) {
    EXPECT_EQ(wal.frames[i].type, types[i]) << "frame " << i;
    EXPECT_EQ(wal.frames[i].sequence, i + 1) << "frame " << i;
  }
  expect_reading(wal.frames[0].reading, {1.25, 7, 0, -61.5});
  expect_reading(wal.frames[1].reading, {1.5, 1000001, 3, -48.0625});
  EXPECT_EQ(wal.frames[2].time, 1.0);
  EXPECT_EQ(wal.frames[3].ack_sequence, 1u);
  expect_reading(wal.frames[4].reading, {2.75, 7, 2, -70.125});
  EXPECT_EQ(wal.frames[5].time, 3.0);
  EXPECT_EQ(wal.frames[6].ack_sequence, 0x0102030405060708ULL);

  const WalReadResult suffix = read_wal(fixture_dir() / "wal", 5);
  ASSERT_EQ(suffix.frames.size(), 3u);
  EXPECT_EQ(suffix.frames.front().sequence, 5u);
}

TEST(ByteFixtureTest, JournalSegmentHoldsEveryOpType) {
  FramedLogFormat format;
  format.magic[0] = 'V';
  format.magic[1] = 'C';
  format.magic[2] = 'J';
  format.magic[3] = 'L';
  format.version = 1;
  format.file_prefix = "ops";
  const auto log = read_framed_log(fixture_dir() / "journal", format);
  EXPECT_EQ(log.corrupt_records, 0u);
  EXPECT_EQ(log.next_sequence, 16u);
  // On-disk op type numbers (control_journal.cpp), in append order.
  const std::vector<std::uint8_t> expected = {5, 11, 5, 11, 2, 1, 1, 3,
                                              3, 4,  7, 8,  9, 10, 6};
  std::vector<std::uint8_t> types;
  for (const auto& record : log.records) types.push_back(record.type);
  EXPECT_EQ(types, expected);
}

TEST(ByteFixtureTest, ControlJournalRecoversFixtureState) {
  // Recover from a copy: opening the journal may truncate a torn tail.
  const fs::path dir = fresh_dir("vire_byte_fixture_recover");
  fs::copy(fixture_dir() / "journal", dir);
  service::ControlJournalConfig config;
  config.dir = dir;
  service::ControlJournal journal(config);
  const service::RecoveredControlState recovered = journal.recover();

  EXPECT_TRUE(recovered.recovered);
  EXPECT_EQ(recovered.corrupt_records, 0u);
  EXPECT_EQ(recovered.replayed_ops, 8u) << "records 8..15 lie above the floor";

  const service::ControlCheckpoint& state = recovered.state;
  const service::ControlCheckpoint expected = fixture_checkpoint();
  EXPECT_EQ(state.journal_floor, 8u);
  EXPECT_EQ(state.ingest_sequence, 2u) << "highest journaled batch sequence";
  EXPECT_EQ(state.next_shard_id, 2u);
  EXPECT_EQ(state.last_poll_time, 2.0);
  ASSERT_EQ(state.members.size(), 1u) << "kRemoveShard(1) folded in";
  EXPECT_EQ(state.members[0].id, 0u);
  EXPECT_EQ(state.members[0].phase, service::MemberPhase::kActive);
  EXPECT_EQ(state.reference_ids, expected.reference_ids);
  ASSERT_EQ(state.tags.size(), 2u);
  EXPECT_EQ(state.tags[0].name, "forklift");
  EXPECT_FALSE(state.tags[0].zone.has_value());
  EXPECT_EQ(state.tags[1].name, "pallet-7");
  EXPECT_EQ(state.tags[1].zone, std::optional<std::uint32_t>(1));
  ASSERT_EQ(state.latest.size(), 2u);
  expect_fix(state.latest[0], expected.latest[0]);
  expect_fix(state.latest[1], expected.latest[1]);

  ASSERT_EQ(recovered.oplogs.size(), 1u);
  const auto& ops = recovered.oplogs.at(0);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, service::JournaledOp::Kind::kBatch);
  EXPECT_EQ(ops[0].journal_sequence, 8u);
  EXPECT_EQ(ops[0].batch_sequence, 1u);
  const auto readings = batch_a();
  ASSERT_EQ(ops[0].readings.size(), readings.size());
  for (std::size_t i = 0; i < readings.size(); ++i) {
    expect_reading(ops[0].readings[i], readings[i]);
  }

  // A revival reads one live member's op-log back from the journal.
  const auto rebuilt = journal.collect_oplog(0, 0, 0);
  ASSERT_EQ(rebuilt.size(), 1u);
  EXPECT_EQ(rebuilt[0].journal_sequence, 8u);
  EXPECT_EQ(rebuilt[0].batch_sequence, 1u);
  ASSERT_EQ(rebuilt[0].readings.size(), readings.size());
  expect_reading(rebuilt[0].readings[1], readings[1]);
  EXPECT_TRUE(journal.collect_oplog(0, 1, 0).empty()) << "batch 1 is acked";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace vire::persist
