// Service demo: a 4-shard localization fleet behind its Unix-socket wire
// protocol, fed a faulted warehouse stream. A Supervisor coordinates four
// one-engine shards that an InProcessShardRunner hosts as server threads in
// this process (vire_supervisord runs the same supervisor over vire_shardd
// processes). One simulator run (reader 2 dies mid-run, reader 1 drops 10%
// of reads) is captured through a ReadingRecorder, streamed to the
// supervisor over its socket, and polled for merged fixes; then one tag's
// fix provenance is pulled with `explain`, and the fleet's Prometheus
// scrape (each shard's series labelled process="shard-N") is printed and
// written to bench_out/service_demo_metrics.prom.
//
//   ./build/examples/service_demo
//
// Everything is deterministic: same seeds, same fixes, every run.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "env/environment.h"
#include "fault/fault_injector.h"
#include "service/client.h"
#include "service/server.h"
#include "service/shard_runner.h"
#include "service/supervisor.h"
#include "sim/simulator.h"

namespace {

/// Quadrant zone of a position within the deployment's sensing area (2x2
/// zones, row-major: 0 = lower-left .. 3 = upper-right), registered with
/// each tag as its zone-affinity hint.
std::uint32_t zone_for_position(const vire::env::Deployment& deployment,
                                vire::geom::Vec2 position) noexcept {
  const vire::geom::Aabb area = deployment.sensing_area();
  const double cx = 0.5 * (area.lo.x + area.hi.x);
  const double cy = 0.5 * (area.lo.y + area.hi.y);
  const std::uint32_t col = position.x >= cx ? 1 : 0;
  const std::uint32_t row = position.y >= cy ? 1 : 0;
  return row * 2 + col;
}

}  // namespace

int main() {
  using namespace vire;
  namespace fs = std::filesystem;

  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();

  // ---- Capture a faulted warehouse stream ------------------------------
  sim::SimulatorConfig sim_config;
  sim_config.seed = 11;
  sim_config.middleware.window_s = 10.0;
  sim::RfidSimulator simulator(environment, deployment, sim_config);

  fault::FaultPlan plan;
  plan.kill_reader(2, 60.0, 140.0);
  plan.drop_links(1, /*drop_rate=*/0.10);
  fault::FaultInjector injector(plan, /*seed=*/42);
  sim::ReadingRecorder recorder(&injector);  // records the post-fault stream
  simulator.set_interceptor(&recorder);

  const auto reference_ids = simulator.add_reference_tags();
  struct Asset {
    sim::TagId tag;
    const char* name;
    geom::Vec2 position;
  };
  std::vector<Asset> assets;
  assets.push_back({simulator.add_tag({1.4, 1.8}), "pallet-a", {1.4, 1.8}});
  assets.push_back({simulator.add_tag({2.3, 1.1}), "pallet-b", {2.3, 1.1}});
  assets.push_back({simulator.add_tag({0.9, 2.6}), "forklift", {0.9, 2.6}});
  assets.push_back({simulator.add_tag({3.1, 2.9}), "scanner-cart", {3.1, 2.9}});

  constexpr double kWarmupS = 40.0;
  constexpr double kPollS = 10.0;
  constexpr int kPolls = 16;
  simulator.run_for(kWarmupS);
  std::vector<std::vector<sim::RssiReading>> segments;
  segments.push_back(recorder.take());
  std::vector<sim::SimTime> poll_times;
  for (int poll = 0; poll < kPolls; ++poll) {
    simulator.run_for(kPollS);
    segments.push_back(recorder.take());
    poll_times.push_back(simulator.now());
  }

  // ---- Bring up the 4-shard fleet + the supervisor's UDS server ---------
  // Shards keep their WALs, checkpoints and anomaly dumps under the root.
  const fs::path root = fs::temp_directory_path() / "vire_service_demo";
  fs::remove_all(root);
  service::InProcessShardRunner runner(deployment);
  service::SupervisorConfig config;
  config.shards = 4;
  config.root_dir = root;
  config.middleware_window_s = 10.0;
  service::Supervisor supervisor(deployment, config, nullptr, &runner);
  supervisor.start();
  supervisor.set_reference_ids(reference_ids);
  std::printf("fleet: supervisor + 4 shards under %s\n", root.string().c_str());
  for (const auto& asset : assets) {
    const std::uint32_t zone = zone_for_position(deployment, asset.position);
    supervisor.track(asset.tag, asset.name, zone);
    std::printf("  %-12s zone %u -> shard %u\n", asset.name, zone,
                supervisor.router().route(asset.tag, zone));
  }

  const fs::path socket_path = fs::temp_directory_path() / "vire_service_demo.sock";
  service::ServerConfig server_config;
  server_config.socket_path = socket_path;
  service::ServiceServer server(supervisor, server_config);
  server.start();
  std::printf("supervisor socket %s\n", socket_path.string().c_str());

  // ---- Stream + poll over the wire -------------------------------------
  service::ServiceClient client(socket_path);
  client.stream(segments[0]);
  std::printf("\n  time    tag           quality    fix\n");
  for (int poll = 0; poll < kPolls; ++poll) {
    client.stream(segments[static_cast<std::size_t>(poll) + 1]);
    const auto fixes = client.poll(poll_times[static_cast<std::size_t>(poll)]);
    if (poll % 4 != 3) continue;  // print every 4th poll
    for (const auto& fix : fixes) {
      const char* quality = fix.quality == engine::FixQuality::kOk ? "OK"
                            : fix.quality == engine::FixQuality::kDegraded
                                ? "DEGRADED"
                            : fix.quality == engine::FixQuality::kHold ? "HOLD"
                                                                       : "INVALID";
      std::printf("%6.0f    %-12s  %-9s  (%.2f, %.2f)\n",
                  poll_times[static_cast<std::size_t>(poll)], fix.name.c_str(),
                  quality, fix.smoothed_position.x, fix.smoothed_position.y);
    }
  }

  // ---- Explain one tag over the wire ------------------------------------
  const auto explained = client.explain(assets[2].tag);
  std::printf("\nexplain %s (flight-recorder provenance over the wire):\n",
              assets[2].name);
  if (explained.has_value()) {
    const std::string& json = *explained;
    std::printf("%.*s%s\n", static_cast<int>(std::min<std::size_t>(json.size(), 600)),
                json.c_str(), json.size() > 600 ? " ..." : "");
  } else {
    std::printf("  (no record)\n");
  }

  // ---- Fleet metrics scrape ----------------------------------------------
  const std::string prom = client.snapshot_prometheus();
  fs::create_directories("bench_out");
  std::ofstream out("bench_out/service_demo_metrics.prom");
  out << prom;
  out.close();
  int shown = 0;
  std::printf("\nfleet Prometheus scrape (first shard service lines; full copy "
              "in bench_out/service_demo_metrics.prom):\n");
  std::size_t pos = 0;
  while (pos < prom.size() && shown < 14) {
    const std::size_t eol = prom.find('\n', pos);
    const std::string line = prom.substr(pos, eol - pos);
    pos = (eol == std::string::npos) ? prom.size() : eol + 1;
    if (line.find("vire_service_") != std::string::npos) {
      std::printf("  %s\n", line.c_str());
      ++shown;
    }
  }

  server.stop();
  supervisor.stop();
  fs::remove_all(root);
  std::printf("\ndemo complete: %d polls, %zu tracked tags, 4 shards, 0 "
              "determinism excuses\n",
              kPolls, assets.size());
  return 0;
}
