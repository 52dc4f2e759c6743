#pragma once
// ShardRunner: how a supervised shard is hosted (docs/service.md,
// "Architecture"). The Supervisor talks to every shard the same way — a
// ServiceClient over the shard's Unix socket — so the only thing that
// differs between deployments is the shard's lifecycle, and a runner does
// nothing else:
//   * ProcessShardRunner forks + execs one vire_shardd per shard (what
//     vire_supervisord runs). A pidfile in the shard's data dir lets a later
//     supervisor adopt a shard its SIGKILLed predecessor left running.
//   * InProcessShardRunner hosts each shard as a one-engine ShardedService
//     behind a ServiceServer thread on the same socket path. Nothing forks,
//     so a whole fleet runs inside one test process (and under TSan).
//
// Both give a shard the same ServiceConfig (shard_service_config), so a
// shard computes the same fixes however it is hosted.
//
// A runner may outlive the supervisor that started its shards: the shards
// keep running, and the next supervisor over the same root and runner
// adopts them. Methods are keyed by shard id, so one runner serves one
// fleet root.

#include <sys/types.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "env/deployment.h"
#include "service/server.h"
#include "service/sharded_service.h"

namespace vire::service {

/// Time source seam. Production uses SteadyClock; the restart-storm test
/// injects a fake clock so backoff/breaker windows elapse instantly.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Monotonic seconds.
  virtual double now() = 0;
  virtual void sleep_for(double seconds) = 0;
};

class SteadyClock final : public Clock {
 public:
  double now() override;
  void sleep_for(double seconds) override;
};

/// Everything a runner needs to bring one shard up.
struct ShardLaunch {
  std::uint32_t id = 0;
  std::filesystem::path socket;
  /// The shard's persistence root (its WAL and checkpoints live under
  /// <data_dir>/shard-0/).
  std::filesystem::path data_dir;
  int engine_workers = 1;
  double middleware_window_s = 10.0;
  int checkpoint_every_updates = 8;
  /// Record engine spans for fleet trace aggregation.
  bool trace = false;
};

/// The one-engine host configuration of a supervised shard: recover mode
/// (the supervisor registers tags, then sends kRecover), persistence under
/// launch.data_dir, anomaly dumps under <data_dir>/obs.
[[nodiscard]] ServiceConfig shard_service_config(const ShardLaunch& launch);

class ShardRunner {
 public:
  virtual ~ShardRunner() = default;

  /// Starts a shard that is not running; the supervisor then connects to
  /// launch.socket (with retries — a process binds it some time later).
  /// False when the shard could not be started at all.
  virtual bool start(const ShardLaunch& launch) = 0;
  /// Takes over a shard an earlier supervisor left running. True when one
  /// is running; the supervisor then proves it serves with a handshake,
  /// and kills it when that fails.
  virtual bool adopt(const ShardLaunch& launch) = 0;
  /// True when the shard is not running (never started, exited or killed).
  virtual bool exited(std::uint32_t id) = 0;
  /// Ends the shard at once, as SIGKILL does: queued work is lost, peers
  /// see EOF, no checkpoint is written. No-op when it is not running.
  virtual void kill(std::uint32_t id) noexcept = 0;
  /// Asks the shard to shut down, then kills it if it has not done so
  /// within a grace period. No-op when it is not running.
  virtual void stop(std::uint32_t id) noexcept = 0;
  /// OS process id of the shard, or -1 when it does not run as a process
  /// of its own (not running, or hosted in-process).
  [[nodiscard]] virtual pid_t pid(std::uint32_t id) const = 0;
};

/// One vire_shardd child process per shard.
class ProcessShardRunner final : public ShardRunner {
 public:
  /// `extra_args` are appended to every spawn (test seams such as
  /// --abort-on-start). `clock` paces the shutdown and kill waits; null
  /// uses a built-in SteadyClock, otherwise it must outlive the runner.
  explicit ProcessShardRunner(std::filesystem::path shardd_binary,
                              std::vector<std::string> extra_args = {},
                              Clock* clock = nullptr);
  /// Stops every shard still running.
  ~ProcessShardRunner() override;

  ProcessShardRunner(const ProcessShardRunner&) = delete;
  ProcessShardRunner& operator=(const ProcessShardRunner&) = delete;

  /// Forks + execs vire_shardd and writes <data_dir>/shardd.pid.
  bool start(const ShardLaunch& launch) override;
  /// A child this runner still holds, else the pidfile's process when
  /// kill(pid, 0) finds it. Such an orphan is not our child, so its
  /// liveness is kill(pid, 0)/ESRCH instead of waitpid.
  bool adopt(const ShardLaunch& launch) override;
  /// waitpid for children (reaping a dead one), ESRCH for adoptees.
  bool exited(std::uint32_t id) override;
  void kill(std::uint32_t id) noexcept override;
  /// SIGTERM, up to 2 s for the exit, then SIGKILL.
  void stop(std::uint32_t id) noexcept override;
  [[nodiscard]] pid_t pid(std::uint32_t id) const override;

 private:
  struct Child {
    pid_t pid = -1;
    bool adopted = false;
  };

  /// Reaps a dead child as a side effect.
  [[nodiscard]] bool dead(Child& child) noexcept;
  /// SIGKILL, then waits for the process to be gone.
  void kill_child(Child& child) noexcept;

  std::filesystem::path binary_;
  std::vector<std::string> extra_args_;
  SteadyClock steady_clock_;
  Clock* clock_;
  std::map<std::uint32_t, Child> children_;
};

/// Each shard a one-engine ShardedService behind a ServiceServer thread.
/// Thread-safe: a test may kill a shard while a supervisor drives the rest.
class InProcessShardRunner final : public ShardRunner {
 public:
  explicit InProcessShardRunner(
      env::Deployment deployment = env::Deployment::paper_testbed());
  /// Stops every shard still running.
  ~InProcessShardRunner() override;

  InProcessShardRunner(const InProcessShardRunner&) = delete;
  InProcessShardRunner& operator=(const InProcessShardRunner&) = delete;

  /// Builds the shard and binds its socket before returning.
  bool start(const ShardLaunch& launch) override;
  /// True while the shard is hosted here.
  bool adopt(const ShardLaunch& launch) override;
  bool exited(std::uint32_t id) override;
  /// Closes every connection and discards the shard's queued work.
  void kill(std::uint32_t id) noexcept override;
  /// Closes every connection and lets the shard finish its queued work.
  void stop(std::uint32_t id) noexcept override;
  /// Always -1: the shard shares this process.
  [[nodiscard]] pid_t pid(std::uint32_t id) const override;

 private:
  struct Hosted {
    std::unique_ptr<ShardedService> service;
    std::unique_ptr<ServiceServer> server;
  };

  /// Removes the shard from the map and stops its server; with `discard`
  /// its queued work is dropped first. Called with mutex_ held.
  void end(std::uint32_t id, bool discard) noexcept;

  env::Deployment deployment_;
  mutable std::mutex mutex_;
  std::map<std::uint32_t, Hosted> shards_;
};

}  // namespace vire::service
