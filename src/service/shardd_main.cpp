// vire_shardd: one shard process of the multi-process deployment
// (docs/service.md, "Multi-process deployment").
//
// A thin main over the one-engine ShardedService: serves the wire protocol
// on --socket, journals to --data-dir/shard-0/{wal,checkpoints}. Built from
// the same shard_service_config as an in-process shard, so always in
// recover mode — the supervisor re-registers reference ids and tracked tags
// first, then sends kRecover to replay the WAL through the normal pipeline
// (registration is not journaled). Runs until SIGTERM or SIGINT.
//
//   vire_shardd --socket PATH --data-dir DIR [--shard-id N] [--workers N]
//               [--window SECONDS] [--checkpoint-every N] [--obs-dir DIR]
//               [--trace] [--trace-capacity N] [--clock-skew-us X]
//               [--abort-on-start]
//
// --abort-on-start is the crash-loop test seam: the process aborts before
// binding its socket, exactly like a shard with a corrupt install.
// --clock-skew-us is the clock-alignment test seam: shifts this process's
// trace clock so supervisor-side offset estimation has something to cancel.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "env/deployment.h"
#include "service/client.h"
#include "service/server.h"
#include "service/shard_runner.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH --data-dir DIR [--shard-id N]\n"
               "          [--workers N] [--window SECONDS]\n"
               "          [--checkpoint-every N] [--obs-dir DIR] [--trace]\n"
               "          [--trace-capacity N] [--clock-skew-us X]\n"
               "          [--abort-on-start]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vire;

  std::filesystem::path socket_path;
  std::filesystem::path data_dir;
  int shard_id = 0;
  int workers = 1;
  double window_s = 10.0;
  int checkpoint_every = 8;
  std::filesystem::path obs_dir;
  bool trace = false;
  long trace_capacity = 0;
  double clock_skew_us = 0.0;
  bool abort_on_start = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      socket_path = v;
    } else if (arg == "--data-dir") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      data_dir = v;
    } else if (arg == "--shard-id") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      shard_id = std::atoi(v);
    } else if (arg == "--workers") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      workers = std::atoi(v);
    } else if (arg == "--window") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      window_s = std::atof(v);
    } else if (arg == "--checkpoint-every") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      checkpoint_every = std::atoi(v);
    } else if (arg == "--obs-dir") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      obs_dir = v;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--trace-capacity") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      trace_capacity = std::atol(v);
    } else if (arg == "--clock-skew-us") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      clock_skew_us = std::atof(v);
    } else if (arg == "--abort-on-start") {
      abort_on_start = true;
    } else {
      std::fprintf(stderr, "vire_shardd: unknown argument '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (socket_path.empty() || data_dir.empty()) return usage(argv[0]);
  if (abort_on_start) std::abort();

  service::ignore_sigpipe();

  // Block shutdown signals before any thread spawns so every thread
  // inherits the mask and sigwait() below is the only consumer.
  sigset_t shutdown_set;
  sigemptyset(&shutdown_set);
  sigaddset(&shutdown_set, SIGINT);
  sigaddset(&shutdown_set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &shutdown_set, nullptr);

  const env::Deployment deployment = env::Deployment::paper_testbed();
  service::ShardLaunch launch;
  launch.id = static_cast<std::uint32_t>(shard_id);
  launch.socket = socket_path;
  launch.data_dir = data_dir;
  launch.engine_workers = workers;
  launch.middleware_window_s = window_s;
  launch.checkpoint_every_updates = checkpoint_every;
  launch.trace = trace;
  service::ServiceConfig config = service::shard_service_config(launch);
  if (!obs_dir.empty()) config.engine.observability.anomaly_dump_dir = obs_dir;
  if (trace_capacity > 0) {
    config.engine.observability.trace_capacity =
        static_cast<std::size_t>(trace_capacity);
  }
  config.obs_clock_skew_us = clock_skew_us;
  service::ShardedService service(deployment, config);

  service::ServerConfig server_config;
  server_config.socket_path = socket_path;
  server_config.server_name = "vire-shardd-" + std::to_string(shard_id);
  service::ServiceServer server(service, server_config);
  server.start();
  std::fprintf(stderr, "vire_shardd: shard %d serving %s (data %s)\n",
               shard_id, socket_path.c_str(), data_dir.c_str());

  int signal_number = 0;
  sigwait(&shutdown_set, &signal_number);
  std::fprintf(stderr, "vire_shardd: shard %d stopping (signal %d)\n",
               shard_id, signal_number);
  server.stop();
  return 0;
}
