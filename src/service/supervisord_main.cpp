// vire_supervisord: the self-healing multi-process deployment front door
// (docs/service.md, "Multi-process deployment").
//
// Spawns one vire_shardd process per shard under a Supervisor (heartbeats,
// exponential-backoff restarts, crash-loop circuit breaker, un-acked batch
// replay) and serves the same wire protocol clients already speak — a
// client cannot tell a supervised fleet from a monolithic service, except
// that shard crashes no longer lose data or stall polls.
//
//   vire_supervisord --socket PATH --root DIR --shardd PATH [--shards N]
//                    [--workers 1] [--window SECONDS] [--checkpoint-every N]
//                    [--seed N] [--trace] [--fleet-trace-out PATH]
//
// Each shard runs one serial engine. --workers accepts only 1, for launch
// scripts and benchmarks that still pass it; like ServiceConfig::shards it
// can go once those callers stop passing it.
//
// Runs until SIGTERM or SIGINT; ticks supervision between signals.
// --trace turns on fleet tracing (supervisor spans + every shardd spawned
// with --trace); --fleet-trace-out writes the merged clock-aligned Chrome
// trace there on shutdown.

#include <signal.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "env/deployment.h"
#include "service/server.h"
#include "service/supervisor.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH --root DIR --shardd PATH\n"
               "          [--shards N] [--workers 1] [--window SECONDS]\n"
               "          [--checkpoint-every N] [--seed N] [--trace]\n"
               "          [--fleet-trace-out PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vire;

  std::filesystem::path socket_path;
  std::filesystem::path fleet_trace_out;
  service::SupervisorConfig config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--socket" && (v = value()) != nullptr) {
      socket_path = v;
    } else if (arg == "--root" && (v = value()) != nullptr) {
      config.root_dir = v;
    } else if (arg == "--shardd" && (v = value()) != nullptr) {
      config.shardd_binary = v;
    } else if (arg == "--shards" && (v = value()) != nullptr) {
      config.shards = std::atoi(v);
    } else if (arg == "--workers" && (v = value()) != nullptr &&
               std::string(v) == "1") {
    } else if (arg == "--window" && (v = value()) != nullptr) {
      config.middleware_window_s = std::atof(v);
    } else if (arg == "--checkpoint-every" && (v = value()) != nullptr) {
      config.checkpoint_every_updates = std::atoi(v);
    } else if (arg == "--seed" && (v = value()) != nullptr) {
      config.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--trace") {
      config.fleet_tracing = true;
    } else if (arg == "--fleet-trace-out" && (v = value()) != nullptr) {
      fleet_trace_out = v;
    } else {
      std::fprintf(stderr, "vire_supervisord: bad argument '%s'\n",
                   arg.c_str());
      return usage(argv[0]);
    }
  }
  if (socket_path.empty() || config.root_dir.empty() ||
      config.shardd_binary.empty()) {
    return usage(argv[0]);
  }

  service::ignore_sigpipe();

  sigset_t shutdown_set;
  sigemptyset(&shutdown_set);
  sigaddset(&shutdown_set, SIGINT);
  sigaddset(&shutdown_set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &shutdown_set, nullptr);

  const env::Deployment deployment = env::Deployment::paper_testbed();
  service::Supervisor supervisor(deployment, config);
  supervisor.start();

  service::ServerConfig server_config;
  server_config.socket_path = socket_path;
  server_config.server_name = "vire-supervisord";
  service::ServiceServer server(supervisor, server_config);
  server.start();
  std::fprintf(stderr, "vire_supervisord: %d shard(s) behind %s (root %s)\n",
               supervisor.config().shards, socket_path.c_str(),
               supervisor.config().root_dir.c_str());

  // Tick twice per heartbeat interval; a shutdown signal ends the loop.
  const double tick_s = supervisor.config().heartbeat_interval_s / 2.0;
  struct timespec tick_ts;
  tick_ts.tv_sec = static_cast<time_t>(tick_s);
  tick_ts.tv_nsec =
      static_cast<long>((tick_s - std::floor(tick_s)) * 1e9);
  for (;;) {
    const int sig = sigtimedwait(&shutdown_set, nullptr, &tick_ts);
    if (sig == SIGINT || sig == SIGTERM) break;
    supervisor.tick();
  }

  std::fprintf(stderr, "vire_supervisord: stopping\n");
  server.stop();
  if (!fleet_trace_out.empty()) {
    try {
      supervisor.write_fleet_trace(fleet_trace_out);
      std::fprintf(stderr, "vire_supervisord: fleet trace -> %s\n",
                   fleet_trace_out.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "vire_supervisord: fleet trace failed: %s\n",
                   e.what());
    }
  }
  // stop() heartbeat-drains every reachable shard and checkpoints the
  // control journal, so a clean SIGTERM restart replays zero batches.
  supervisor.stop();
  std::fprintf(stderr, "vire_supervisord: stopped (journal checkpointed)\n");
  return 0;
}
