// Site survey / deployment planning: characterises the RF channel of each
// paper locale (RSSI-vs-distance curve, shadowing roughness, proximity-map
// rendering) and auto-tunes the VIRE elimination threshold for the room by
// sweeping a held-out calibration tag. This is the workflow an integrator
// would run before commissioning a deployment.
//
// Run: ./build/examples/site_survey

#include <cstdio>
#include <vector>

#include "core/vire_localizer.h"
#include "env/deployment.h"
#include "env/environment.h"
#include "eval/runner.h"
#include "eval/testbed.h"
#include "support/ascii_chart.h"
#include "support/stats.h"

namespace {

using namespace vire;

void survey_channel(env::PaperEnvironment which) {
  const env::Environment environment = env::make_paper_environment(which);
  rf::RfChannel channel(environment.extent(), environment.surfaces(),
                        environment.channel_config, 11);
  const int reader = channel.add_reader({-0.7, -0.7});

  // Roughness: how much does the field move per 10 cm? This is the quantity
  // that bounds how well a 1 m reference grid can be interpolated.
  support::RunningStats roughness;
  for (double x = 0.0; x < 3.0; x += 0.1) {
    for (double y = 0.0; y < 3.0; y += 0.1) {
      roughness.add(std::abs(channel.mean_rssi_dbm(reader, {x + 0.1, y}) -
                             channel.mean_rssi_dbm(reader, {x, y})));
    }
  }
  std::printf("  %-24s field roughness %.2f dB / 10 cm, noise sigma %.1f dB\n",
              environment.name().c_str(), roughness.mean(),
              environment.channel_config.noise_sigma_db);
}

double tune_threshold(env::PaperEnvironment which) {
  // Hold out one calibration tag at a known position; sweep the fixed
  // threshold and keep the best. A real deployment would use a handful of
  // surveyed positions exactly like this.
  const geom::Vec2 calibration_point{1.6, 1.4};
  double best_threshold = 1.0;
  double best_error = 1e9;
  for (double threshold = 0.5; threshold <= 5.0; threshold += 0.5) {
    support::RunningStats error;
    for (int trial = 0; trial < 6; ++trial) {
      eval::ObservationOptions options;
      options.seed = 31000 + static_cast<std::uint64_t>(trial) * 37;
      options.survey_duration_s = 40.0;
      const auto obs = eval::observe_testbed(which, {calibration_point}, options);
      core::VireConfig config = core::recommended_vire_config();
      config.elimination.mode = core::ThresholdMode::kFixed;
      config.elimination.fixed_threshold_db = threshold;
      const auto errs = eval::vire_errors(obs, config, options.deployment);
      if (!std::isnan(errs[0])) error.add(errs[0]);
    }
    if (error.mean() < best_error) {
      best_error = error.mean();
      best_threshold = threshold;
    }
  }
  std::printf("  %-24s best fixed threshold %.1f dB (calibration error %.2f m)\n",
              std::string(env::name(which)).c_str(), best_threshold, best_error);
  return best_threshold;
}

void render_proximity_maps(env::PaperEnvironment which) {
  eval::ObservationOptions options;
  options.seed = 2024;
  options.survey_duration_s = 60.0;
  const geom::Vec2 truth{1.35, 1.7};
  const auto obs = eval::observe_testbed(which, {truth}, options);

  const env::Deployment deployment = env::Deployment::paper_testbed();
  core::VireConfig config = core::recommended_vire_config();
  config.virtual_grid.boundary_extension_cells = 0;  // compact rendering
  core::VireLocalizer localizer(deployment.reference_grid(), config);
  localizer.set_reference_rssi(obs.reference_rssi);
  const auto result = localizer.locate(obs.tracking_rssi[0]);
  if (!result) {
    std::printf("  (no estimate)\n");
    return;
  }
  const auto& grid = localizer.virtual_grid().grid();
  const auto maps = core::proximity_maps(localizer.virtual_grid(), obs.tracking_rssi[0],
                                         result->elimination);
  for (std::size_t m = 0; m < maps.size() && m < 2; ++m) {
    const auto& map = maps[m];
    char title[80];
    std::snprintf(title, sizeof(title), "reader %d proximity map (threshold %.2f dB)",
                  map.reader(), map.threshold_db());
    std::printf("%s\n", support::render_mask(map.mask().to_bools(), grid.rows(), grid.cols(),
                                             title)
                            .c_str());
  }
  std::printf("%s\n",
              support::render_mask(result->elimination.survivors.to_bools(), grid.rows(),
                                   grid.cols(),
                                   "intersection after elimination (Fig. 5)")
                  .c_str());
  std::printf("  true %s  estimate %s  error %.2f m\n", truth.to_string().c_str(),
              result->position.to_string().c_str(),
              geom::distance(result->position, truth));
}

}  // namespace

int main() {
  std::printf("=== channel characterisation ===\n");
  for (auto which : env::all_paper_environments()) survey_channel(which);

  std::printf("\n=== per-room threshold auto-tuning ===\n");
  for (auto which : env::all_paper_environments()) tune_threshold(which);

  std::printf("\n=== proximity maps, Env3 office ===\n");
  render_proximity_maps(env::PaperEnvironment::kEnv3Office);
  return 0;
}
