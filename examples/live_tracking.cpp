// Live tracking service: the LocalizationEngine polled the way a deployment
// would run it — reference grid refreshed from the middleware on a rate
// limit, every registered tag localized and track-filtered on each poll.
//
//   ./build/examples/live_tracking [metrics-dir]
//
// Metrics, the Prometheus snapshot and the session trace land in
// metrics-dir (argv[1], else $VIRE_METRICS_DIR, else bench_out).

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "engine/localization_engine.h"
#include "env/environment.h"
#include "obs/exporters.h"
#include "sim/simulator.h"
#include "support/stats.h"

int main(int argc, char** argv) {
  using namespace vire;

  const char* env_dir = std::getenv("VIRE_METRICS_DIR");
  const std::filesystem::path out_dir =
      argc > 1 ? argv[1] : (env_dir != nullptr && *env_dir != '\0' ? env_dir
                                                                   : "bench_out");

  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv2Spacious);
  const env::Deployment deployment = env::Deployment::paper_testbed();

  sim::SimulatorConfig sim_config;
  sim_config.seed = 321;
  sim_config.middleware.window_s = 12.0;
  sim::RfidSimulator simulator(environment, deployment, sim_config);
  const auto reference_ids = simulator.add_reference_tags();

  // One parked asset and one cart circling the sensing area.
  const sim::TagId crate = simulator.add_tag({2.2, 0.9});
  const sim::TagId cart = simulator.add_mobile_tag(
      sim::make_waypoint_trajectory(
          {{0.5, 0.5}, {2.5, 0.5}, {2.5, 2.5}, {0.5, 2.5}, {0.5, 0.5}},
          /*speed=*/0.12, /*start=*/30.0),
      sim::TagConfig{});

  engine::EngineConfig engine_config;
  engine_config.min_refresh_interval_s = 20.0;
  engine_config.tracking.alpha = 0.45;
  engine_config.tracking.beta = 0.05;
  // Trace the session too: the engine stages nest under engine.update (see
  // docs/observability.md).
  engine_config.observability.enable_tracing = true;
  engine_config.observability.anomaly_dump_dir = out_dir;
  engine::LocalizationEngine engine(deployment, engine_config);
  simulator.middleware().attach_tracer(&engine.tracer());
  simulator.middleware().attach_metrics(engine.metrics());
  engine.set_reference_ids(reference_ids);
  engine.track(crate, "crate");
  engine.track(cart, "cart");

  std::printf("live tracking: 2 tags, poll every 4 s, grid refresh every %.0f s\n\n",
              engine_config.min_refresh_interval_s);
  std::printf("  time   tag     fix               smoothed          truth"
              "             err\n");

  simulator.run_for(30.0);  // warm-up
  support::RunningStats crate_err, cart_err;
  for (int poll = 0; poll < 30; ++poll) {
    simulator.run_for(4.0);
    const auto fixes = engine.update(simulator.middleware(), simulator.now());
    for (const auto& fix : fixes) {
      if (!fix.valid) continue;
      const geom::Vec2 truth =
          simulator.tag(fix.tag).position(simulator.now());
      const double error = geom::distance(fix.smoothed_position, truth);
      (fix.tag == crate ? crate_err : cart_err).add(error);
      if (poll % 5 == 0) {
        std::printf("  %4.0fs  %-6s  %-16s  %-16s  %-16s  %.2f m\n",
                    simulator.now(), fix.name.c_str(),
                    fix.position.to_string().c_str(),
                    fix.smoothed_position.to_string().c_str(),
                    truth.to_string().c_str(), error);
      }
    }
  }
  std::printf("\n  crate (static): mean %.2f m over %zu fixes\n", crate_err.mean(),
              crate_err.count());
  std::printf("  cart  (mobile): mean %.2f m over %zu fixes\n", cart_err.mean(),
              cart_err.count());
  std::printf("  virtual-grid rebuilds: %d (rate-limited)\n", engine.grid_rebuilds());

  // Full pipeline metrics snapshot (engine + middleware) plus the
  // session trace on exit.
  obs::write_json_snapshot(engine.metrics(),
                           out_dir / "live_tracking_metrics.json");
  obs::write_prometheus_snapshot(engine.metrics(),
                                 out_dir / "live_tracking_metrics.prom");
  engine.tracer().write_chrome_json(out_dir / "live_tracking_trace.json");
  std::printf("  metrics snapshot: %s/live_tracking_metrics.{json,prom}\n",
              out_dir.string().c_str());
  std::printf("  session trace:    %s/live_tracking_trace.json\n",
              out_dir.string().c_str());
  return crate_err.mean() < 1.0 && cart_err.mean() < 1.2 ? 0 : 1;
}
