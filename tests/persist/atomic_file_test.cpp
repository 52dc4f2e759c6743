// support::atomic_write_file under clean and faulty disks: the reader-facing
// guarantee is that `path` always holds either the complete old content or
// the complete new content, never a torn mix — even while ENOSPC and short
// writes are being imposed.

#include "support/atomic_file.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "fault/disk_fault.h"

namespace vire::support {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vire_atomic_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(AtomicFileTest, WritesAndReadsBack) {
  const fs::path path = dir_ / "note.txt";
  atomic_write_file(path, "hello world");
  EXPECT_EQ(slurp(path), "hello world");
}

TEST_F(AtomicFileTest, CreatesMissingParentDirectories) {
  const fs::path path = dir_ / "a" / "b" / "c.json";
  atomic_write_file(path, "{}");
  EXPECT_EQ(slurp(path), "{}");
}

TEST_F(AtomicFileTest, OverwriteReplacesContentCompletely) {
  const fs::path path = dir_ / "state.bin";
  atomic_write_file(path, "old content, rather long");
  atomic_write_file(path, "new");
  EXPECT_EQ(slurp(path), "new");
}

TEST_F(AtomicFileTest, LeavesNoTempFilesBehind) {
  const fs::path path = dir_ / "clean.txt";
  atomic_write_file(path, "payload");
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST_F(AtomicFileTest, EnospcOnEveryAttemptThrowsAndPreservesOldContent) {
  const fs::path path = dir_ / "ckpt.bin";
  atomic_write_file(path, "the good old checkpoint");

  fault::DiskFaultPlan plan;
  plan.enospc_at(0).enospc_at(1).enospc_at(2);
  fault::DiskFaultInjector injector(std::move(plan));
  EXPECT_THROW(atomic_write_file(path, "the replacement", &injector),
               std::runtime_error);
  EXPECT_EQ(injector.faults_imposed(), 3u);
  // The reader-facing file is byte-for-byte the previous version.
  EXPECT_EQ(slurp(path), "the good old checkpoint");
}

TEST_F(AtomicFileTest, RetrySucceedsWhenOnlyFirstAttemptsFault) {
  const fs::path path = dir_ / "retry.bin";

  fault::DiskFaultPlan plan;
  plan.enospc_at(0).short_write_at(1, /*offset=*/4);  // write 2 is clean
  fault::DiskFaultInjector injector(std::move(plan));
  atomic_write_file(path, "third time lucky", &injector);
  EXPECT_EQ(slurp(path), "third time lucky");
  EXPECT_EQ(injector.faults_imposed(), 2u);
  EXPECT_GE(injector.writes_seen(), 3u);
}

TEST_F(AtomicFileTest, CorruptByteIsSilentButAltersExactlyOneByte) {
  // Silent media corruption: the write "succeeds", only a later integrity
  // check (the checkpoint/WAL CRC) can notice. Here we just pin the fault
  // model itself: one byte differs, the rest round-trips.
  const fs::path path = dir_ / "corrupt.bin";
  const std::string payload = "0123456789abcdef";

  fault::DiskFaultPlan plan;
  plan.corrupt_byte_at(0, /*offset=*/5);
  fault::DiskFaultInjector injector(std::move(plan));
  atomic_write_file(path, payload, &injector);
  const std::string on_disk = slurp(path);
  ASSERT_EQ(on_disk.size(), payload.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (on_disk[i] != payload[i]) ++diffs;
  }
  EXPECT_EQ(diffs, 1u);
  EXPECT_NE(on_disk[5], payload[5]);
  EXPECT_EQ(injector.faults_imposed(), 1u);
}

}  // namespace
}  // namespace vire::support
