#include "support/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>

#include "support/log.h"

namespace vire::support {

namespace {

constexpr int kMaxAttempts = 3;
constexpr double kInitialBackoffS = 0.005;

/// One write attempt: temp file, full write (with imposed faults), fsync,
/// rename. Returns false on a retryable failure, throws only on programmer
/// errors (unwritable parent that mkdir could not create).
bool try_write_once(const std::filesystem::path& path, std::string_view contents,
                    const std::filesystem::path& tmp, IoFaultHook* fault_hook,
                    std::string& error) {
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    error = "open(" + tmp.string() + "): " + std::strerror(errno);
    return false;
  }

  std::string buffer(contents);
  std::size_t write_len = buffer.size();
  bool fail_after_write = false;
  if (fault_hook != nullptr) {
    if (const auto fault = fault_hook->on_write(buffer.size())) {
      switch (fault->kind) {
        case IoFaultKind::kShortWrite:
          write_len = buffer.empty() ? 0 : fault->offset % buffer.size();
          fail_after_write = true;
          error = "short write (fault injected)";
          break;
        case IoFaultKind::kEnospc:
          ::close(fd);
          ::unlink(tmp.c_str());
          error = "write: No space left on device (fault injected)";
          return false;
        case IoFaultKind::kCorruptByte:
          // A silent media corruption: the write reports success. The caller
          // only finds out through its own CRC when reading back.
          if (!buffer.empty()) buffer[fault->offset % buffer.size()] ^= 0x40;
          break;
      }
    }
  }

  std::size_t written = 0;
  while (written < write_len) {
    const ssize_t n = ::write(fd, buffer.data() + written, write_len - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      error = std::string("write: ") + std::strerror(errno);
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  if (fail_after_write) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::fsync(fd) != 0) {
    error = std::string("fsync: ") + std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    error = std::string("close: ") + std::strerror(errno);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    error = std::string("rename: ") + std::strerror(errno);
    ::unlink(tmp.c_str());
    return false;
  }
  // Make the rename itself durable: fsync the containing directory.
  const std::filesystem::path dir = path.parent_path();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

}  // namespace

void atomic_write_file(const std::filesystem::path& path, std::string_view contents,
                       IoFaultHook* fault_hook) {
  const std::filesystem::path dir = path.parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir);
  const std::filesystem::path tmp =
      path.string() + ".tmp." + std::to_string(static_cast<long>(::getpid()));

  std::string error;
  double backoff_s = kInitialBackoffS;
  for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    if (try_write_once(path, contents, tmp, fault_hook, error)) return;
    if (attempt < kMaxAttempts) {
      log_warn("atomic_write_file(%s) attempt %d/%d failed (%s), retrying",
               path.string().c_str(), attempt, kMaxAttempts, error.c_str());
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
      backoff_s *= 2.0;
    }
  }
  throw std::runtime_error("atomic_write_file(" + path.string() + ") failed after " +
                           std::to_string(kMaxAttempts) +
                           " attempts: " + error);
}

}  // namespace vire::support
