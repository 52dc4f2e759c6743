#pragma once
// Crash-safe file writing: write-temp-then-atomic-rename with bounded
// retry/backoff on transient IO errors (see docs/robustness.md, "Crash
// recovery"). A reader never observes a half-written file at `path`: either
// the old content is intact or the new content is complete, because the
// final step is a single rename(2) on the same filesystem. Used by the
// persistence layer (src/persist/) for engine checkpoints and by the
// engine's anomaly provenance dumps, which previously could leave truncated
// JSON behind a crash.
//
// The IoFaultHook seam lets the fault subsystem (fault::DiskFaultInjector)
// deterministically impose short writes, ENOSPC and silent byte corruption
// on any physical write, so the recovery paths are testable without a real
// failing disk.

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string_view>

namespace vire::support {

/// The disk failures the persistence tests care about (docs/robustness.md).
enum class IoFaultKind : std::uint8_t {
  kShortWrite,   ///< only a prefix of the buffer reaches the file (torn write)
  kEnospc,       ///< the write fails outright, as if the disk were full
  kCorruptByte,  ///< the write "succeeds" but one byte is flipped on media
};

/// One imposed fault. `offset` selects the short-write cut point or the
/// corrupted byte (clamped into the buffer).
struct IoFault {
  IoFaultKind kind = IoFaultKind::kEnospc;
  std::size_t offset = 0;
};

/// Consulted once per physical write by the persistence layer. Returning
/// nullopt lets the write through untouched. Implementations must be
/// deterministic (see fault::DiskFaultInjector); the hook exists for fault
/// drills and tests only and must never be installed in production paths.
class IoFaultHook {
 public:
  virtual ~IoFaultHook() = default;
  virtual std::optional<IoFault> on_write(std::size_t size) = 0;
};

/// Writes `contents` to `path` atomically: temp file in the same directory,
/// fsync, rename over `path`, fsync of the directory. Parent directories are
/// created. Transient failures (short write, ENOSPC, ...) are retried: 3
/// attempts, sleeping 5 ms before the first retry and twice as long before
/// each later one; std::runtime_error after that. `fault_hook` is a testing
/// seam (fault::DiskFaultInjector); nullptr in production.
void atomic_write_file(const std::filesystem::path& path, std::string_view contents,
                       IoFaultHook* fault_hook = nullptr);

}  // namespace vire::support
