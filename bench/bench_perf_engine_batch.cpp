// Performance: batch localization throughput of one serial
// LocalizationEngine. One simulated testbed, a fleet of static tags, and
// repeated update() rounds with the virtual grid built once and then cached
// (a long refresh interval), so the measurement isolates the per-tag work,
// which is the server's hot path. Fleets scale by shard processes, not
// inside the engine.
//
// The engine skips a tag's locate when neither the grid nor the tag's RSSI
// bits changed since its last one (docs/algorithm.md, "Reused locates").
// The gated rate, tags_per_sec, therefore alternates two middleware windows
// taken 5 simulated seconds apart, so that every tag's vector changes and
// every round runs every locate; the bench exits non-zero if any of those
// rounds reused a locate. tags_per_sec_reused then repeats rounds on one
// window, where every locate is reused: the cost of the per-tag wrapper
// alone.
//
// Then it times every tag's locate on its own and splits the cost between
// intersection locates and those that fall back to the union of the reader
// maps. The throughput is gated in CI (bench/perf_floor.json), so the bench
// exits non-zero when no locate in the batch takes the union fallback: a
// gate that never runs that path cannot see it regress.
//
// The header line and the JSON report's config name the instruction set the
// locate kernels ran on ("avx2" or "baseline").
//
// Env knobs: VIRE_TAGS (default 529, the dense_fleet density, where about a
// third of the locates fall back), VIRE_ROUNDS (default 30).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/vire_localizer.h"
#include "engine/localization_engine.h"
#include "env/environment.h"
#include "obs/bench_report.h"
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
  const int tag_count = env_int("VIRE_TAGS", 529);
  const int rounds = env_int("VIRE_ROUNDS", 30);

  std::printf("=== Engine batch throughput (serial engine) ===\n");
  // The locate kernels run on the instruction set the CPU offers (fixes are
  // the same bits either way): a number from an AVX2 host is not comparable
  // with one from a baseline host, so the run says which it was.
  const std::string isa(core::locate_kernel_isa());
  std::printf("tags: %d, update rounds: %d, locate kernels: %s\n\n", tag_count, rounds,
              isa.c_str());

  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();
  sim::SimulatorConfig sim_config;
  sim_config.seed = 7;
  sim::RfidSimulator simulator(environment, deployment, sim_config);
  const auto reference_ids = simulator.add_reference_tags();

  // Deterministic pseudo-random fleet over the deployment area (plus a
  // fringe outside the reference lattice, the hard boundary cases).
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
  const sim::SimTime now = simulator.now();
  const sim::Middleware middleware = simulator.middleware();
  simulator.run_for(5.0);
  const sim::Middleware next_window = simulator.middleware();

  obs::BenchReport report;
  report.name = "perf_engine_batch";
  report.git_rev = VIRE_GIT_REV;
  report.config = {{"tags", std::to_string(tag_count)},
                   {"rounds", std::to_string(rounds)},
                   {"kernel_isa", isa}};
  report.throughput_unit = "tags_per_sec";

  const auto bench_start = std::chrono::steady_clock::now();
  engine::EngineConfig config;
  config.min_refresh_interval_s = 1000.0;  // grid built once, then cached
  engine::LocalizationEngine engine(deployment, config);
  engine.set_reference_ids(reference_ids);
  for (const auto id : tags) engine.track(id);
  const obs::Counter& reused =
      engine.metrics().counter("vire_engine_locates_reused_total", {});

  // Each phase's update times advance by one second a round; they only feed
  // the trackers and the health monitor, never the cached grid.
  sim::SimTime t = now;
  (void)engine.update(middleware, t);  // warm-up: builds the grid
  struct Phase {
    double seconds = 0.0;
    std::uint64_t reused = 0;
  };
  const auto run_phase = [&](bool alternate) {
    const std::uint64_t reused_before = reused.value();
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
      t += 1.0;
      (void)engine.update(alternate && r % 2 == 0 ? next_window : middleware, t);
    }
    const auto stop = std::chrono::steady_clock::now();
    return Phase{std::chrono::duration<double>(stop - start).count(),
                 reused.value() - reused_before};
  };
  const Phase fresh = run_phase(true);
  if (rounds % 2 == 1) (void)engine.update(middleware, t += 1.0);
  const Phase repeat = run_phase(false);

  const auto rate = [&](const Phase& phase) {
    return static_cast<double>(tag_count) * rounds / std::max(1e-12, phase.seconds);
  };
  const double mean_update_ms = 1e3 * fresh.seconds / rounds;
  const double tags_per_sec = rate(fresh);
  const double tags_per_sec_reused = rate(repeat);
  std::printf("%-26s %16s %14s %16s\n", "rounds", "mean update ms", "tags/sec",
              "locates reused");
  std::printf("%-26s %16.3f %14.0f %16llu\n", "alternating windows (gated)",
              mean_update_ms, tags_per_sec,
              static_cast<unsigned long long>(fresh.reused));
  std::printf("%-26s %16.3f %14.0f %16llu\n", "one window (all reused)",
              1e3 * repeat.seconds / rounds, tags_per_sec_reused,
              static_cast<unsigned long long>(repeat.reused));
  report.results.emplace_back("tags_per_sec", tags_per_sec);
  report.results.emplace_back("tags_per_sec_reused", tags_per_sec_reused);
  report.throughput = tags_per_sec;

  // Per-locate cost split. Elimination falls back to the union of the reader
  // maps when the intersection is empty, and that path keeps most of the
  // grid alive, so the mean locate sits well above the median. Each tag's
  // locate is timed best of 3 (warm caches) on the engine's configuration.
  core::VireLocalizer localizer(deployment.reference_grid(), config.vire);
  {
    std::vector<sim::RssiVector> refs;
    for (const auto id : reference_ids) refs.push_back(middleware.rssi_vector(id));
    localizer.set_reference_rssi(refs);
  }
  std::vector<double> all_us, fallback_us, intersection_us;
  for (const auto id : tags) {
    const sim::RssiVector rssi = middleware.rssi_vector(id);
    double best_us = 0.0;
    std::optional<core::LocateSummary> located;
    for (int rep = 0; rep < 3; ++rep) {
      const auto locate_start = std::chrono::steady_clock::now();
      located = localizer.locate_summary(rssi);
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - locate_start)
                            .count();
      best_us = rep == 0 ? us : std::min(best_us, us);
    }
    if (!located) continue;
    all_us.push_back(best_us);
    const bool union_fallback = !located->survivors_per_step.empty() &&
                                located->survivors_per_step.back() == 0;
    (union_fallback ? fallback_us : intersection_us).push_back(best_us);
  }
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const auto median = [](std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double fallback_pct =
      all_us.empty() ? 0.0
                     : 100.0 * static_cast<double>(fallback_us.size()) /
                           static_cast<double>(all_us.size());
  std::printf("\nPer-locate cost (locate_summary, best of 3, %zu valid locates):\n",
              all_us.size());
  std::printf("  all            mean %8.2f us  median %8.2f us\n", mean(all_us),
              median(all_us));
  std::printf("  intersection   mean %8.2f us  (%zu locates)\n", mean(intersection_us),
              intersection_us.size());
  std::printf("  union fallback mean %8.2f us  (%zu locates, %.1f%%)\n",
              mean(fallback_us), fallback_us.size(), fallback_pct);
  report.results.emplace_back("locate_mean_us", mean(all_us));
  report.results.emplace_back("locate_median_us", median(all_us));
  report.results.emplace_back("intersection_locate_mean_us", mean(intersection_us));
  report.results.emplace_back("union_fallback_locate_mean_us", mean(fallback_us));
  report.results.emplace_back("union_fallback_pct", fallback_pct);

  report.wall_ms = 1e3 * std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - bench_start)
                             .count();
  support::CsvWriter csv("bench_out/perf_engine_batch.csv");
  csv.header({"tags", "rounds", "mean_update_ms", "tags_per_sec",
              "union_fallback_pct"});
  csv.row({std::to_string(tag_count), std::to_string(rounds),
           std::to_string(mean_update_ms), std::to_string(tags_per_sec),
           std::to_string(fallback_pct)});
  const auto json_path = obs::write_bench_report(report);
  std::printf("\nCSV written to bench_out/perf_engine_batch.csv\n");
  std::printf("JSON report written to %s\n", json_path.string().c_str());
  if (fresh.reused != 0) {
    std::printf(
        "\nLOCATES REUSED in the alternating rounds: tags_per_sec does not price\n"
        "every locate. The two windows must differ for every tag.\n");
    return 1;
  }
  if (fallback_us.empty()) {
    std::printf(
        "\nNO UNION-FALLBACK LOCATE in this batch: the throughput above does not\n"
        "cover the fallback path. Raise VIRE_TAGS (529 gives about a third).\n");
    return 1;
  }
  return 0;
}
