// Performance: service ingest throughput and query latency vs shard count.
// One captured simulator stream is replayed at each shard count; readings/s
// covers ingest+poll, and the p99 latency is measured on latest_fix()
// queries interleaved with the load.
//   * shards=1 is the one-engine host (ShardedService: queue -> worker
//     thread -> middleware -> engine, persistence off) — the service-path
//     overhead over the bare engine, and the row perf_floor.json guards.
//   * shards=2, 4, ... go through the only multi-shard coordinator: a
//     Supervisor (router, reference broadcast, control journal, poll merge)
//     over an InProcessShardRunner, each shard a one-engine host behind a
//     server thread reached over its Unix socket. These rows include the
//     wire hop and the journal, so they price the fleet, not bare sharding.
//
// Honesty rules (docs/benchmarks.md): hardware_threads is reported raw, and
// on a single-hardware-thread machine the shard-count scaling curve is
// REFUSED — every shard worker would time-slice one core, so a "curve"
// would measure oversubscription, not sharding. Only shards=1 is measured
// there.
//
// Env knobs: VIRE_TAGS (default 48), VIRE_ROUNDS (poll rounds, default 12),
// VIRE_QUERIES (queries per round, default 200).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "env/environment.h"
#include "obs/bench_report.h"
#include "service/shard_runner.h"
#include "service/sharded_service.h"
#include "service/supervisor.h"
#include "sim/simulator.h"
#include "support/csv.h"
#include "support/rng.h"

namespace {

using namespace vire;

int env_int(const char* name, int fallback) {
  if (const char* s = std::getenv(name)) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return fallback;
}

}  // namespace

int main() {
  const int tag_count = env_int("VIRE_TAGS", 48);
  const int rounds = env_int("VIRE_ROUNDS", 12);
  const int queries = env_int("VIRE_QUERIES", 200);
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const bool can_scale = hw_raw > 1;

  std::printf("=== Service throughput vs shard count ===\n");
  std::printf("tags: %d, poll rounds: %d, queries/round: %d, hardware threads: %u%s\n\n",
              tag_count, rounds, queries, hw_raw,
              hw_raw == 0 ? " (undetected)" : "");
  if (!can_scale) {
    std::printf(
        "NOTE: single hardware thread — shard workers would time-slice one\n"
        "core, so the shard scaling curve is refused; only shards=1 (the\n"
        "service-path overhead datum) is measured.\n\n");
  }

  // Capture one reading stream; every shard count replays the identical one.
  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();
  sim::SimulatorConfig sim_config;
  sim_config.seed = 7;
  sim_config.middleware.window_s = 10.0;
  sim::RfidSimulator simulator(environment, deployment, sim_config);
  sim::ReadingRecorder recorder;
  simulator.set_interceptor(&recorder);
  const auto reference_ids = simulator.add_reference_tags();
  std::vector<sim::TagId> tags;
  std::uint64_t state = 0x243f6a8885a308d3ULL;
  for (int i = 0; i < tag_count; ++i) {
    const double x = -0.5 + 4.0 * (static_cast<double>(support::splitmix64(state) >> 11) /
                                   9007199254740992.0);
    const double y = -0.5 + 4.0 * (static_cast<double>(support::splitmix64(state) >> 11) /
                                   9007199254740992.0);
    tags.push_back(simulator.add_tag({x, y}));
  }
  simulator.run_for(40.0);
  const std::vector<sim::RssiReading> warmup = recorder.take();
  std::vector<std::vector<sim::RssiReading>> segments;
  std::vector<sim::SimTime> poll_times;
  for (int r = 0; r < rounds; ++r) {
    simulator.run_for(5.0);
    segments.push_back(recorder.take());
    poll_times.push_back(simulator.now());
  }
  std::size_t total_readings = warmup.size();
  for (const auto& s : segments) total_readings += s.size();

  std::vector<int> shard_counts = {1};
  if (can_scale) {
    for (int s = 2; static_cast<unsigned>(s) <= std::min(8u, hw_raw); s *= 2) {
      shard_counts.push_back(s);
    }
  }

  obs::BenchReport report;
  report.name = "service_scale";
  report.git_rev = VIRE_GIT_REV;
  report.config = {{"tags", std::to_string(tag_count)},
                   {"rounds", std::to_string(rounds)},
                   {"queries_per_round", std::to_string(queries)},
                   {"readings", std::to_string(total_readings)},
                   {"hardware_threads", std::to_string(hw_raw)},
                   {"scaling_curve",
                    can_scale ? "measured" : "refused: single hardware thread"}};
  report.throughput_unit = "readings_per_sec";

  support::CsvWriter csv("bench_out/service_scale.csv");
  csv.header({"shards", "readings_per_sec", "query_p99_us"});
  std::printf("%8s %18s %14s\n", "shards", "readings/sec", "query p99 us");

  const std::filesystem::path fleet_root =
      std::filesystem::temp_directory_path() / "vire_bench_service_scale";
  const auto bench_start = std::chrono::steady_clock::now();
  for (const int shards : shard_counts) {
    // Both paths answer the same Frontend calls the timed loop makes.
    std::unique_ptr<service::ShardedService> host;
    std::unique_ptr<service::InProcessShardRunner> runner;
    std::unique_ptr<service::Supervisor> supervisor;
    service::Frontend* frontend = nullptr;
    if (shards == 1) {
      service::ServiceConfig config;
      config.middleware.window_s = 10.0;
      host = std::make_unique<service::ShardedService>(deployment, config);
      frontend = host.get();
    } else {
      std::filesystem::remove_all(fleet_root);
      runner = std::make_unique<service::InProcessShardRunner>(deployment);
      service::SupervisorConfig config;
      config.shards = shards;
      config.root_dir = fleet_root;
      config.middleware_window_s = 10.0;
      supervisor = std::make_unique<service::Supervisor>(deployment, config,
                                                         nullptr, runner.get());
      supervisor->start();
      frontend = supervisor.get();
    }
    frontend->set_reference_ids(reference_ids);
    for (const auto id : tags) frontend->track(id, {}, std::nullopt);

    std::vector<double> query_us;
    query_us.reserve(static_cast<std::size_t>(rounds) * queries);
    const auto start = std::chrono::steady_clock::now();
    frontend->ingest(warmup);
    for (int r = 0; r < rounds; ++r) {
      frontend->ingest(segments[static_cast<std::size_t>(r)]);
      (void)frontend->poll(poll_times[static_cast<std::size_t>(r)]);
      for (int q = 0; q < queries; ++q) {
        const auto t0 = std::chrono::steady_clock::now();
        (void)frontend->latest_fix(tags[static_cast<std::size_t>(q) % tags.size()]);
        query_us.push_back(1e6 * std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count());
      }
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const double readings_per_sec =
        static_cast<double>(total_readings) / std::max(1e-12, seconds);
    std::sort(query_us.begin(), query_us.end());
    const double p99 =
        query_us[static_cast<std::size_t>(0.99 * (query_us.size() - 1))];
    if (supervisor != nullptr) supervisor->stop();

    std::printf("%8d %18.0f %14.2f\n", shards, readings_per_sec, p99);
    csv.row({std::to_string(shards), std::to_string(readings_per_sec),
             std::to_string(p99)});
    report.results.emplace_back("readings_per_sec_shards_" + std::to_string(shards),
                                readings_per_sec);
    report.results.emplace_back("query_p99_us_shards_" + std::to_string(shards),
                                p99);
    report.throughput = std::max(report.throughput, readings_per_sec);
  }

  std::filesystem::remove_all(fleet_root);
  report.wall_ms = 1e3 * std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - bench_start)
                             .count();
  const auto json_path = obs::write_bench_report(report);
  std::printf("\nCSV written to bench_out/service_scale.csv\n");
  std::printf("JSON report written to %s\n", json_path.string().c_str());
  return 0;
}
