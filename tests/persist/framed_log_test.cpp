// Unit tests for the segmented CRC-framed log (src/persist/framed_log.h),
// the WAL discipline factored out for the supervisor's control journal:
// roundtrip, rotation, reopen-resume, torn-tail truncation, prune, the
// typed-payload validate hook, batched group writes (same bytes, one
// physical write, torn and failed batches) and the kEveryN fsync cadence.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fault/disk_fault.h"
#include "obs/trace.h"
#include "persist/binary_io.h"
#include "persist/framed_log.h"

namespace vire::persist {
namespace {

namespace fs = std::filesystem;

FramedLogFormat test_format() {
  FramedLogFormat format;
  format.magic[0] = 'T';
  format.magic[1] = 'L';
  format.magic[2] = 'O';
  format.magic[3] = 'G';
  format.version = 1;
  format.file_prefix = "t";
  return format;
}

FramedLogConfig test_config(const fs::path& dir) {
  FramedLogConfig config;
  config.dir = dir;
  config.format = test_format();
  config.segment_max_records = 4;  // small: rotation exercised by default
  return config;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir;
}

std::size_t segment_count(const fs::path& dir) {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".log") ++n;
  }
  return n;
}

TEST(FramedLogTest, RoundtripAcrossRotation) {
  const fs::path dir = fresh_dir("vire_framed_log_roundtrip");
  {
    FramedLog log(test_config(dir));
    for (std::uint8_t i = 1; i <= 10; ++i) {
      const auto seq = log.append(i, std::string(i, 'x'));
      EXPECT_EQ(seq, i) << "sequences are 1-based and dense";
    }
    EXPECT_EQ(log.next_sequence(), 11u);
    EXPECT_EQ(log.appended_count(), 10u);
  }
  EXPECT_GE(segment_count(dir), 3u) << "4 records/segment must rotate";

  const auto result = read_framed_log(dir, test_format());
  ASSERT_EQ(result.records.size(), 10u);
  EXPECT_EQ(result.corrupt_records, 0u);
  EXPECT_EQ(result.next_sequence, 11u);
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i].sequence, i + 1);
    EXPECT_EQ(result.records[i].type, static_cast<std::uint8_t>(i + 1));
    EXPECT_EQ(result.records[i].payload, std::string(i + 1, 'x'));
  }

  // from_sequence reads a suffix without disturbing numbering.
  const auto suffix = read_framed_log(dir, test_format(), 7);
  ASSERT_EQ(suffix.records.size(), 4u);
  EXPECT_EQ(suffix.records.front().sequence, 7u);
}

TEST(FramedLogTest, ReopenResumesSequencesAfterValidPrefix) {
  const fs::path dir = fresh_dir("vire_framed_log_reopen");
  {
    FramedLog log(test_config(dir));
    for (int i = 0; i < 6; ++i) log.append(1, "abc");
  }
  FramedLog log(test_config(dir));
  EXPECT_EQ(log.next_sequence(), 7u);
  EXPECT_EQ(log.truncated_records(), 0u);
  EXPECT_EQ(log.append(2, "tail"), 7u);
  const auto result = read_framed_log(dir, test_format());
  ASSERT_EQ(result.records.size(), 7u);
  EXPECT_EQ(result.records.back().payload, "tail");
}

TEST(FramedLogTest, TornTailIsTruncatedOnReopenAndSkippedOnRead) {
  const fs::path dir = fresh_dir("vire_framed_log_torn");
  {
    FramedLog log(test_config(dir));
    for (int i = 0; i < 3; ++i) log.append(1, "payload");
  }
  // Flip one byte inside the last record's payload: CRC now fails.
  fs::path segment;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".log") segment = entry.path();
  }
  ASSERT_FALSE(segment.empty());
  const auto size = fs::file_size(segment);
  {
    std::fstream f(segment, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(size) - 6);
    f.put('!');
  }

  const auto result = read_framed_log(dir, test_format());
  EXPECT_EQ(result.records.size(), 2u) << "reader stops at the torn record";
  EXPECT_EQ(result.corrupt_records, 1u);

  FramedLog log(test_config(dir));
  EXPECT_EQ(log.truncated_records(), 1u);
  EXPECT_EQ(log.next_sequence(), 3u) << "writer resumes where the tear began";
  log.append(1, "rewritten");
  const auto healed = read_framed_log(dir, test_format());
  ASSERT_EQ(healed.records.size(), 3u);
  EXPECT_EQ(healed.records.back().payload, "rewritten");
  EXPECT_EQ(healed.corrupt_records, 0u);
}

TEST(FramedLogTest, ValidateHookTreatsUndecodablePayloadAsTornTail) {
  const fs::path dir = fresh_dir("vire_framed_log_validate");
  {
    FramedLog log(test_config(dir));
    log.append(1, "good");
    log.append(2, "bad-for-type-2");
    log.append(1, "after");
  }
  // CRC is fine for all three, but the validator rejects type 2: the read
  // must stop there exactly as if the record were torn.
  const auto validate = [](std::uint64_t, std::uint8_t type, std::string_view) {
    return type != 2;
  };
  const auto result = read_framed_log(dir, test_format(), 0, validate);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.corrupt_records, 1u);

  auto config = test_config(dir);
  config.validate = validate;
  FramedLog log(config);
  EXPECT_EQ(log.truncated_records(), 1u) << "one torn-tail event";
  EXPECT_EQ(log.next_sequence(), 2u)
      << "writer truncates the undecodable record AND everything after it";
}

TEST(FramedLogTest, PruneDropsWholeSegmentsBelowTheFloor) {
  const fs::path dir = fresh_dir("vire_framed_log_prune");
  FramedLog log(test_config(dir));
  for (int i = 0; i < 10; ++i) log.append(1, "r");  // segments 1-4,5-8,9-10
  const auto before = segment_count(dir);
  ASSERT_GE(before, 3u);

  EXPECT_EQ(log.prune(5), 1u) << "only the 1-4 segment is wholly below 5";
  const auto mid = read_framed_log(dir, test_format());
  ASSERT_FALSE(mid.records.empty());
  EXPECT_EQ(mid.records.front().sequence, 5u);
  EXPECT_EQ(mid.next_sequence, 11u) << "numbering survives pruning";

  // A floor above everything removes all closed segments but never the open
  // one; appends continue with the same global numbering.
  log.prune(1000);
  EXPECT_GE(segment_count(dir), 1u);
  EXPECT_EQ(log.append(1, "z"), 11u);
}

TEST(FramedLogTest, MismatchedFormatReadsAsEmpty) {
  const fs::path dir = fresh_dir("vire_framed_log_format");
  {
    FramedLog log(test_config(dir));
    log.append(1, "data");
  }
  FramedLogFormat other = test_format();
  other.file_prefix = "other";
  EXPECT_TRUE(read_framed_log(dir, other).records.empty());
  EXPECT_TRUE(read_framed_log(dir / "missing", test_format()).records.empty())
      << "a missing directory is an empty log, not an error";
}

/// Whole log directory as name -> bytes, for byte-for-byte comparison.
std::vector<std::pair<std::string, std::string>> log_files(const fs::path& dir) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.emplace_back(entry.path().filename().string(),
                       *read_file(entry.path()));
  }
  std::sort(files.begin(), files.end());
  return files;
}

void append_numbered(FramedLog& log, int count) {
  for (int i = 0; i < count; ++i) {
    log.append(static_cast<std::uint8_t>(1 + i % 3),
               std::string(static_cast<std::size_t>(5 + i), 'a' + i % 26));
  }
}

TEST(FramedLogTest, BatchWritesTheSameBytesAsOneByOne) {
  const fs::path single = fresh_dir("vire_framed_log_batch_single");
  const fs::path batched = fresh_dir("vire_framed_log_batch_grouped");
  {
    FramedLog log(test_config(single));
    append_numbered(log, 11);
  }
  fault::DiskFaultInjector counter{fault::DiskFaultPlan{}};
  {
    auto config = test_config(batched);
    config.fault_hook = &counter;
    FramedLog log(config);
    FramedLog::Batch batch(log);
    append_numbered(log, 11);
    EXPECT_EQ(log.next_sequence(), 12u) << "sequences are assigned at append";
    batch.commit();
  }
  EXPECT_EQ(log_files(batched), log_files(single));
  // Segments 1-4, 5-8, 9-11: each rotation writes the pending records, then
  // the new header; the commit writes the rest.
  EXPECT_EQ(counter.writes_seen(), 6u) << "3 headers + 3 record writes";
}

TEST(FramedLogTest, BatchIsOnePhysicalWriteWithoutRotation) {
  const fs::path dir = fresh_dir("vire_framed_log_batch_one_write");
  fault::DiskFaultInjector counter{fault::DiskFaultPlan{}};
  auto config = test_config(dir);
  config.segment_max_records = 1000;
  config.fault_hook = &counter;
  FramedLog log(config);
  EXPECT_EQ(counter.writes_seen(), 1u) << "the segment header";
  {
    FramedLog::Batch batch(log);
    append_numbered(log, 40);
    EXPECT_EQ(counter.writes_seen(), 1u) << "nothing written before commit";
    batch.commit();
  }
  EXPECT_EQ(counter.writes_seen(), 2u);
  log.append(1, "single");
  EXPECT_EQ(counter.writes_seen(), 3u) << "outside a batch: a batch of one";
  EXPECT_EQ(read_framed_log(dir, test_format()).records.size(), 41u);
}

TEST(FramedLogTest, ShortWriteMidBatchLeavesWholeFramesUpToTheTear) {
  const fs::path dir = fresh_dir("vire_framed_log_batch_torn");
  // Each record is 9 bytes of framing plus its payload; cut the batch's one
  // write inside the third record.
  const std::size_t record = 9 + 10;
  fault::DiskFaultPlan plan;
  plan.short_write_at(/*at_write=*/1, /*offset=*/2 * record + 7);
  fault::DiskFaultInjector injector(std::move(plan));
  {
    auto config = test_config(dir);
    config.segment_max_records = 1000;
    config.fault_hook = &injector;
    FramedLog log(config);
    FramedLog::Batch batch(log);
    for (int i = 0; i < 5; ++i) log.append(1, std::string(10, 'p'));
    EXPECT_THROW(batch.commit(), std::runtime_error);
  }
  EXPECT_EQ(injector.faults_imposed(), 1u);
  const auto torn = read_framed_log(dir, test_format());
  EXPECT_EQ(torn.records.size(), 2u) << "whole frames before the tear";
  EXPECT_EQ(torn.corrupt_records, 1u);

  FramedLog log(test_config(dir));
  EXPECT_EQ(log.truncated_records(), 1u) << "reopen truncates the tear";
  EXPECT_EQ(log.next_sequence(), 3u);
  log.append(2, "after");
  const auto healed = read_framed_log(dir, test_format());
  EXPECT_EQ(healed.records.size(), 3u);
  EXPECT_EQ(healed.corrupt_records, 0u);
}

TEST(FramedLogTest, EnospcAtBatchEndSurfacesAsAnException) {
  const fs::path dir = fresh_dir("vire_framed_log_batch_enospc");
  fault::DiskFaultPlan plan;
  plan.enospc_at(1);
  fault::DiskFaultInjector injector(std::move(plan));
  auto config = test_config(dir);
  config.segment_max_records = 1000;
  config.fault_hook = &injector;
  FramedLog log(config);
  FramedLog::Batch batch(log);
  log.append(1, "one");
  log.append(1, "two");
  EXPECT_THROW(batch.commit(), std::runtime_error);
  EXPECT_TRUE(read_framed_log(dir, test_format()).records.empty());
}

/// Payloads of every record read_from() visits from `from_sequence`.
std::vector<std::string> read_payloads(const FramedLog& log,
                                       std::uint64_t from_sequence) {
  std::vector<std::string> payloads;
  log.read_from(from_sequence,
                [&](std::uint64_t, std::uint8_t, std::string_view payload) {
                  payloads.emplace_back(payload);
                  return true;
                });
  return payloads;
}

// A failed batch write takes its sequences back: the writer's reads stop
// before them at once, and its next append cuts the log back there, so the
// sequence append() returned names the record on disk. A full disk writes
// nothing; a short write leaves a torn record that the cut removes.
TEST(FramedLogTest, FailedBatchIsTakenBackAndCutAtTheNextAppend) {
  for (const bool torn : {false, true}) {
    SCOPED_TRACE(torn ? "short write" : "ENOSPC");
    const fs::path dir = fresh_dir("vire_framed_log_batch_taken_back");
    fault::DiskFaultPlan plan;
    // Write 0 is the header, write 1 the first record, write 2 the batch.
    if (torn) {
      plan.short_write_at(2, 9 + 10 + 4);
    } else {
      plan.enospc_at(2);
    }
    fault::DiskFaultInjector injector(std::move(plan));
    auto config = test_config(dir);
    config.segment_max_records = 1000;
    config.fault_hook = &injector;
    FramedLog log(config);
    EXPECT_EQ(log.append(1, "first"), 1u);
    {
      FramedLog::Batch batch(log);
      for (int i = 0; i < 3; ++i) log.append(1, std::string(10, 'p'));
      EXPECT_THROW(batch.commit(), std::runtime_error);
    }
    EXPECT_EQ(injector.faults_imposed(), 1u);
    EXPECT_EQ(log.next_sequence(), 2u);
    EXPECT_EQ(log.appended_count(), 1u);
    EXPECT_EQ(read_payloads(log, 0), (std::vector<std::string>{"first"}));

    EXPECT_EQ(log.append(2, "after"), 2u);
    EXPECT_EQ(read_payloads(log, 0),
              (std::vector<std::string>{"first", "after"}));
    const auto healed = read_framed_log(dir, test_format());
    ASSERT_EQ(healed.records.size(), 2u);
    EXPECT_EQ(healed.records[1].sequence, 2u);
    EXPECT_EQ(healed.records[1].payload, "after");
    EXPECT_EQ(healed.corrupt_records, 0u);
  }
}

// A batch that fails at a rotation loses the records it already wrote to the
// full segment too, and the new segment whose header failed is deleted.
TEST(FramedLogTest, BatchFailingAtRotationIsTakenBackWhole) {
  const fs::path dir = fresh_dir("vire_framed_log_batch_rotation");
  fault::DiskFaultPlan plan;
  // Write 0 is the first header, write 1 the batch's first four records and
  // write 2 the second segment's header.
  plan.enospc_at(2);
  fault::DiskFaultInjector injector(std::move(plan));
  auto config = test_config(dir);
  config.fault_hook = &injector;
  FramedLog log(config);
  {
    FramedLog::Batch batch(log);
    for (int i = 0; i < 4; ++i) log.append(1, "lost");
    EXPECT_THROW(log.append(1, "fails"), std::runtime_error);
  }
  EXPECT_EQ(log.next_sequence(), 1u);
  EXPECT_TRUE(read_payloads(log, 0).empty())
      << "the records already in the first segment are taken back too";

  EXPECT_EQ(log.append(2, "kept"), 1u);
  const auto healed = read_framed_log(dir, test_format());
  ASSERT_EQ(healed.records.size(), 1u);
  EXPECT_EQ(healed.records[0].payload, "kept");
  EXPECT_EQ(healed.corrupt_records, 0u);
  EXPECT_EQ(segment_count(dir), 1u);
}

// read_from() starts at the segment holding its floor: a record corrupted in
// an earlier segment neither ends nor changes the read.
TEST(FramedLogTest, ReadFromSkipsTheSegmentsBelowItsFloor) {
  const fs::path dir = fresh_dir("vire_framed_log_read_from");
  FramedLog log(test_config(dir));  // 4 records per segment
  for (int i = 1; i <= 10; ++i) log.append(1, "r" + std::to_string(i));
  const std::vector<std::string> tail{"r7", "r8", "r9", "r10"};
  ASSERT_EQ(read_payloads(log, 7), tail);

  const fs::path first = dir / "t-000000000001.log";
  std::fstream file(first, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(16 + 9);  // header + the first record's framing: its payload
  file.put('X');
  file.close();
  EXPECT_EQ(read_framed_log(dir, test_format()).records.size(), 0u)
      << "a full walk stops at the corrupt record";
  EXPECT_EQ(read_payloads(log, 7), tail);
}

TEST(FramedLogTest, AnExceptionInsideABatchStillWritesItsRecords) {
  const fs::path dir = fresh_dir("vire_framed_log_batch_unwind");
  {
    FramedLog log(test_config(dir));
    try {
      FramedLog::Batch batch(log);
      log.append(1, "kept");
      log.append(1, "also kept");
      throw std::logic_error("caller failed mid-batch");
    } catch (const std::logic_error&) {
    }
    EXPECT_EQ(log.append(2, "next"), 3u);
  }
  const auto result = read_framed_log(dir, test_format());
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.records[1].payload, "also kept");
}

/// Appends `count` records one by one under kEveryN and returns the 1-based
/// appends during which an fsync span was recorded.
std::vector<int> fsync_points(const fs::path& dir,
                              std::uint64_t segment_max_records, int count) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  auto config = test_config(dir);
  config.segment_max_records = segment_max_records;
  config.fsync = FsyncPolicy::kEveryN;
  FramedLog log(config);
  log.attach_tracer(&tracer, "test.fsync");
  std::vector<int> points;
  for (int i = 1; i <= count; ++i) {
    const std::uint64_t before = tracer.recorded();
    log.append(1, "r");
    if (tracer.recorded() != before) points.push_back(i);
  }
  return points;
}

TEST(FramedLogTest, EveryNFsyncsOncePer64Records) {
  const fs::path dir = fresh_dir("vire_framed_log_every_n");
  EXPECT_EQ(kFsyncEveryN, 64u);
  EXPECT_EQ(fsync_points(dir, 1000, 200), (std::vector<int>{64, 128, 192}));
}

TEST(FramedLogTest, RotationSyncsTheUnsyncedRecordsFirst) {
  // Records 65-100 are unsynced when record 101 opens the second segment:
  // the rotation syncs them, and the count of 64 starts again from there.
  const fs::path dir = fresh_dir("vire_framed_log_rotation_sync");
  EXPECT_EQ(fsync_points(dir, 100, 200), (std::vector<int>{64, 101, 164}));
  EXPECT_EQ(read_framed_log(dir, test_format()).records.size(), 200u);
}

}  // namespace
}  // namespace vire::persist
