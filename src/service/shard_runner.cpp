#include "service/shard_runner.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/exporters.h"

namespace vire::service {

double SteadyClock::now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SteadyClock::sleep_for(double seconds) {
  if (seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

ServiceConfig shard_service_config(const ShardLaunch& launch) {
  ServiceConfig config;
  config.engine.parallel_workers = launch.engine_workers;
  config.engine.observability.enable_tracing = launch.trace;
  // Anomaly dumps default under the shard's own data dir, not the process
  // cwd: shards share a cwd under the supervisor, and a shared "obs_out"
  // would interleave their dumps.
  config.engine.observability.anomaly_dump_dir = launch.data_dir / "obs";
  config.middleware.window_s = launch.middleware_window_s;
  config.data_dir = launch.data_dir;
  config.checkpoint_every_updates = launch.checkpoint_every_updates;
  config.recover = true;
  return config;
}

// ---------------------------------------------------------------------------
// ProcessShardRunner

namespace {

constexpr double kStopGraceS = 2.0;

}  // namespace

ProcessShardRunner::ProcessShardRunner(std::filesystem::path shardd_binary,
                                       std::vector<std::string> extra_args,
                                       Clock* clock)
    : binary_(std::move(shardd_binary)),
      extra_args_(std::move(extra_args)),
      clock_(clock != nullptr ? clock : &steady_clock_) {
  if (binary_.empty()) {
    throw std::invalid_argument("ProcessShardRunner: shardd_binary is required");
  }
}

ProcessShardRunner::~ProcessShardRunner() {
  while (!children_.empty()) stop(children_.begin()->first);
}

bool ProcessShardRunner::start(const ShardLaunch& launch) {
  std::error_code ec;
  std::filesystem::create_directories(launch.data_dir, ec);
  std::vector<std::string> args = {
      binary_.string(),
      "--socket", launch.socket.string(),
      "--data-dir", launch.data_dir.string(),
      "--shard-id", std::to_string(launch.id),
      "--workers", std::to_string(launch.engine_workers),
      "--window", obs::format_double(launch.middleware_window_s),
      "--checkpoint-every", std::to_string(launch.checkpoint_every_updates),
  };
  args.insert(args.end(), extra_args_.begin(), extra_args_.end());
  if (launch.trace) args.emplace_back("--trace");
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // Child: only async-signal-safe calls between fork and exec.
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  children_[launch.id] = Child{pid, false};
  // Pidfile for adoption: a future supervisor finds the (by then orphaned)
  // process through it. Plain ofstream is fine — a torn pidfile just fails
  // adoption and falls back to respawn.
  std::ofstream pidfile(launch.data_dir / "shardd.pid", std::ios::trunc);
  pidfile << pid << '\n';
  return true;
}

bool ProcessShardRunner::adopt(const ShardLaunch& launch) {
  if (!exited(launch.id)) return true;  // still our child
  // A SIGKILLed supervisor's shardd children were reparented to init and
  // kept serving. We cannot waitpid a non-child, so liveness is kill(pid,0)
  // (ESRCH = gone); the caller's handshake proves it is actually serving.
  long pid = -1;
  {
    std::ifstream pidfile(launch.data_dir / "shardd.pid");
    if (!(pidfile >> pid) || pid <= 0) return false;
  }
  if (pid == static_cast<long>(::getpid())) return false;  // corrupt pidfile
  if (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) return false;
  children_[launch.id] = Child{static_cast<pid_t>(pid), true};
  return true;
}

bool ProcessShardRunner::exited(std::uint32_t id) {
  const auto it = children_.find(id);
  if (it == children_.end()) return true;
  if (!dead(it->second)) return false;
  children_.erase(it);
  return true;
}

void ProcessShardRunner::kill(std::uint32_t id) noexcept {
  const auto it = children_.find(id);
  if (it == children_.end()) return;
  kill_child(it->second);
  children_.erase(it);
}

void ProcessShardRunner::stop(std::uint32_t id) noexcept {
  const auto it = children_.find(id);
  if (it == children_.end()) return;
  Child& child = it->second;
  ::kill(child.pid, SIGTERM);
  const double deadline = clock_->now() + kStopGraceS;
  while (!dead(child)) {
    if (clock_->now() >= deadline) {
      kill_child(child);
      break;
    }
    clock_->sleep_for(0.01);
  }
  children_.erase(it);
}

pid_t ProcessShardRunner::pid(std::uint32_t id) const {
  const auto it = children_.find(id);
  return it == children_.end() ? -1 : it->second.pid;
}

bool ProcessShardRunner::dead(Child& child) noexcept {
  if (child.adopted) {
    return ::kill(child.pid, 0) != 0 && errno == ESRCH;
  }
  int status = 0;
  const pid_t reaped = ::waitpid(child.pid, &status, WNOHANG);
  return reaped == child.pid || (reaped == -1 && errno == ECHILD);
}

void ProcessShardRunner::kill_child(Child& child) noexcept {
  ::kill(child.pid, SIGKILL);
  if (child.adopted) {
    // Not our child: init reaps it; poll for ESRCH instead of waitpid.
    const double deadline = clock_->now() + kStopGraceS;
    while (::kill(child.pid, 0) == 0 && clock_->now() < deadline) {
      clock_->sleep_for(0.005);
    }
  } else {
    int status = 0;
    ::waitpid(child.pid, &status, 0);
  }
}

// ---------------------------------------------------------------------------
// InProcessShardRunner

InProcessShardRunner::InProcessShardRunner(env::Deployment deployment)
    : deployment_(std::move(deployment)) {}

InProcessShardRunner::~InProcessShardRunner() {
  std::lock_guard lock(mutex_);
  while (!shards_.empty()) end(shards_.begin()->first, /*discard=*/false);
}

bool InProcessShardRunner::start(const ShardLaunch& launch) {
  std::lock_guard lock(mutex_);
  try {
    std::error_code ec;
    std::filesystem::create_directories(launch.data_dir, ec);
    Hosted hosted;
    hosted.service =
        std::make_unique<ShardedService>(deployment_, shard_service_config(launch));
    ServerConfig server;
    server.socket_path = launch.socket;
    server.server_name = "vire-shardd-" + std::to_string(launch.id);
    hosted.server = std::make_unique<ServiceServer>(*hosted.service, server);
    hosted.server->start();
    shards_.emplace(launch.id, std::move(hosted));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool InProcessShardRunner::adopt(const ShardLaunch& launch) {
  std::lock_guard lock(mutex_);
  return shards_.count(launch.id) != 0;
}

bool InProcessShardRunner::exited(std::uint32_t id) {
  std::lock_guard lock(mutex_);
  return shards_.count(id) == 0;
}

void InProcessShardRunner::kill(std::uint32_t id) noexcept {
  std::lock_guard lock(mutex_);
  end(id, /*discard=*/true);
}

void InProcessShardRunner::stop(std::uint32_t id) noexcept {
  std::lock_guard lock(mutex_);
  end(id, /*discard=*/false);
}

pid_t InProcessShardRunner::pid(std::uint32_t /*id*/) const { return -1; }

void InProcessShardRunner::end(std::uint32_t id, bool discard) noexcept {
  const auto it = shards_.find(id);
  if (it == shards_.end()) return;
  Hosted hosted = std::move(it->second);
  shards_.erase(it);
  hosted.server->stop();  // peers see EOF
  if (discard) hosted.service->kill();
  // Destruction order: the server goes before the service it fronts.
}

}  // namespace vire::service
