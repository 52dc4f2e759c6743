// Tracing + flight-recorder acceptance for the faulted pipeline (the
// observability side of docs/robustness.md's degradation scenario):
//   * fixes are bit-identical with tracing/recording on or off, and the
//     flight records with tracing on or off — instrumentation is a pure
//     side channel;
//   * the trace timeline shows cause before effect: the injector's fault.*
//     instants precede the engine.quality_transition to "degraded";
//   * the flight record of the first degraded fix explains it — per-reader
//     RSSI + health verdicts, the threshold-refinement walk, and the
//     surviving clusters with their weights;
//   * the OK->DEGRADED transition auto-dumps trace + flight JSON once.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <optional>
#include <string>
#include <vector>
#include <unistd.h>

#include "engine/localization_engine.h"
#include "env/environment.h"
#include "fault/fault_injector.h"
#include "sim/simulator.h"

namespace vire::engine {
namespace {

constexpr double kKillTime = 60.0;
constexpr int kRounds = 20;
constexpr double kRoundStep = 5.0;

const std::vector<geom::Vec2>& truths() {
  static const std::vector<geom::Vec2> positions = {
      {1.4, 1.8}, {1.5, 1.5}, {2.2, 2.2}};
  return positions;
}

struct Observability {
  bool tracing = false;
  std::size_t recorder_fixes = 0;
  std::filesystem::path dump_dir;  ///< empty => auto-dumping disabled
};

struct ScenarioRun {
  std::vector<std::vector<Fix>> rounds;  ///< [round][tag]
  std::vector<obs::TraceEvent> trace;
  std::vector<obs::FixRecord> records;
  int auto_dumps = 0;
  std::uint64_t anomaly_quality_dumps = 0;
};

/// The degradation scenario (reader 2 dies at t=60) with the observability
/// side channel configured per `o`. Seeds are fixed, so any two runs may
/// differ only in what the instrumentation says.
ScenarioRun run_scenario(const Observability& o) {
  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();
  sim::SimulatorConfig sim_config;
  sim_config.seed = 7;
  sim_config.middleware.window_s = 10.0;
  sim::RfidSimulator simulator(environment, deployment, sim_config);

  fault::FaultPlan plan;
  plan.kill_reader(2, kKillTime);
  fault::FaultInjector injector(plan, 7);
  simulator.set_interceptor(&injector);

  const auto reference_ids = simulator.add_reference_tags();
  std::vector<sim::TagId> tags;
  for (const auto& p : truths()) tags.push_back(simulator.add_tag(p));

  EngineConfig config;
  config.min_refresh_interval_s = 10.0;
  config.degradation.health.quarantine_after = 2;
  config.degradation.health.recover_after = 2;
  config.observability.enable_tracing = o.tracing;
  config.observability.flight_recorder_fixes = o.recorder_fixes;
  if (o.dump_dir.empty()) {
    config.observability.max_auto_dumps = 0;
  } else {
    config.observability.anomaly_dump_dir = o.dump_dir;
    config.observability.max_auto_dumps = 2;
  }
  LocalizationEngine engine(deployment, config);
  injector.attach_metrics(engine.metrics());
  injector.attach_tracer(&engine.tracer());
  simulator.middleware().attach_tracer(&engine.tracer());
  engine.set_reference_ids(reference_ids);
  for (std::size_t i = 0; i < tags.size(); ++i) {
    engine.track(tags[i], "tag-" + std::to_string(i));
  }

  simulator.run_for(40.0);  // warm-up: fill the window before round 0

  ScenarioRun run;
  for (int r = 0; r < kRounds; ++r) {
    simulator.run_for(kRoundStep);
    const sim::SimTime now = simulator.now();
    simulator.middleware().evict_stale(now);
    run.rounds.push_back(engine.update(simulator.middleware(), now));
  }
  run.trace = engine.tracer().snapshot();
  run.records = engine.flight_recorder().snapshot();
  run.auto_dumps = engine.auto_dump_count();
  if (const obs::Counter* c = engine.metrics().find_counter(
          "vire_engine_anomaly_dumps_total", "trigger=\"quality_drop\"")) {
    run.anomaly_quality_dumps = c->value();
  }
  // Detach before the simulator outlives the engine's tracer.
  simulator.middleware().attach_tracer(nullptr);
  return run;
}

void expect_bit_identical(const ScenarioRun& a, const ScenarioRun& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    ASSERT_EQ(a.rounds[r].size(), b.rounds[r].size());
    for (std::size_t i = 0; i < a.rounds[r].size(); ++i) {
      const Fix& x = a.rounds[r][i];
      const Fix& y = b.rounds[r][i];
      EXPECT_EQ(x.valid, y.valid);
      EXPECT_EQ(x.quality, y.quality);
      EXPECT_EQ(x.used_fallback, y.used_fallback);
      // Bit-pattern comparison: == would also accept -0.0 vs 0.0.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x.position.x),
                std::bit_cast<std::uint64_t>(y.position.x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x.position.y),
                std::bit_cast<std::uint64_t>(y.position.y));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x.smoothed_position.x),
                std::bit_cast<std::uint64_t>(y.smoothed_position.x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x.smoothed_position.y),
                std::bit_cast<std::uint64_t>(y.smoothed_position.y));
      EXPECT_EQ(x.survivor_count, y.survivor_count);
    }
  }
}

TEST(TracePipeline, InstrumentationOnOrOffIsBitIdentical) {
  const ScenarioRun off = run_scenario({});
  const ScenarioRun on = run_scenario({true, 256, {}});
  expect_bit_identical(off, on);
  EXPECT_TRUE(off.trace.empty());
  EXPECT_FALSE(on.trace.empty());
}

TEST(TracePipeline, FlightRecordsAreIdenticalWithTracingOnOrOff) {
  const ScenarioRun untraced = run_scenario({false, 256, {}});
  const ScenarioRun traced = run_scenario({true, 256, {}});
  expect_bit_identical(untraced, traced);
  // Identical provenance, too: tracing never feeds the flight recorder.
  ASSERT_EQ(untraced.records.size(), traced.records.size());
  for (std::size_t i = 0; i < untraced.records.size(); ++i) {
    const obs::FixRecord& x = untraced.records[i];
    const obs::FixRecord& y = traced.records[i];
    EXPECT_EQ(x.tag, y.tag);
    EXPECT_EQ(x.quality, y.quality);
    EXPECT_EQ(x.decision, y.decision);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.x), std::bit_cast<std::uint64_t>(y.x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.y), std::bit_cast<std::uint64_t>(y.y));
    EXPECT_EQ(x.refinement.survivors_per_step, y.refinement.survivors_per_step);
    EXPECT_EQ(x.survivor_count, y.survivor_count);
  }
}

TEST(TracePipeline, FaultInstantsPrecedeTheDegradedTransition) {
  const ScenarioRun run = run_scenario({true, 256, {}});

  std::optional<double> first_fault_ts;
  std::optional<double> first_degraded_ts;
  std::vector<std::string> names;
  for (const obs::TraceEvent& e : run.trace) {
    names.push_back(e.name);
    if (e.name.rfind("fault.", 0) == 0 && !first_fault_ts) {
      EXPECT_EQ(e.ph, 'i');
      EXPECT_EQ(e.scope, 'g');
      first_fault_ts = e.ts_us;
    }
    if (e.name == "engine.quality_transition" && !first_degraded_ts &&
        e.args.find("\"to\":\"degraded\"") != std::string::npos) {
      first_degraded_ts = e.ts_us;
    }
  }
  ASSERT_TRUE(first_fault_ts.has_value()) << "no fault.* instant in the trace";
  ASSERT_TRUE(first_degraded_ts.has_value())
      << "no engine.quality_transition to degraded in the trace";
  EXPECT_LT(*first_fault_ts, *first_degraded_ts);

  // The pipeline stages are all on the same timeline.
  for (const char* span :
       {"engine.update", "engine.health", "engine.interpolation",
        "engine.locate", "engine.locate_tag", "engine.elimination",
        "engine.weighting", "engine.merge", "middleware.evict_stale"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), span), names.end())
        << "missing span: " << span;
  }
}

TEST(TracePipeline, FirstDegradedFixRecordExplainsTheFix) {
  const ScenarioRun run = run_scenario({true, 256, {}});
  const auto it =
      std::find_if(run.records.begin(), run.records.end(),
                   [](const obs::FixRecord& r) {
                     return r.quality == obs::FixQuality::kDegraded;
                   });
  ASSERT_NE(it, run.records.end()) << "no degraded fix was recorded";
  const obs::FixRecord& rec = *it;

  // Per-reader verdicts: all four readers are present and the dead one is
  // flagged unhealthy.
  ASSERT_EQ(rec.readers.size(), 4u);
  EXPECT_FALSE(rec.readers[2].healthy);
  int healthy = 0;
  for (const auto& r : rec.readers) healthy += r.healthy ? 1 : 0;
  EXPECT_EQ(healthy, 3);

  // Three healthy readers still satisfy the VIRE quorum: the degraded fix
  // came from the subset pipeline, with a full refinement walk.
  EXPECT_EQ(rec.decision, obs::FixDecision::kVire);
  EXPECT_TRUE(rec.valid);
  EXPECT_GT(rec.refinement.initial_threshold_db, 0.0);
  EXPECT_GT(rec.refinement.final_threshold_db, 0.0);
  EXPECT_LE(rec.refinement.final_threshold_db, rec.refinement.initial_threshold_db);
  ASSERT_FALSE(rec.refinement.survivors_per_step.empty());
  EXPECT_EQ(rec.refinement.survivors_per_step.size(),
            static_cast<std::size_t>(rec.refinement.steps) + 1);
  EXPECT_EQ(rec.refinement.survivors_per_step.back(), rec.survivor_count);

  // Cluster provenance: at least one surviving cluster, sizes sum to the
  // survivor count, normalised weights sum to 1.
  ASSERT_FALSE(rec.clusters.empty());
  std::uint64_t region_total = 0;
  double weight_total = 0.0;
  for (const auto& c : rec.clusters) {
    region_total += c.size;
    weight_total += c.weight;
  }
  EXPECT_EQ(region_total, rec.survivor_count);
  EXPECT_NEAR(weight_total, 1.0, 1e-9);

  EXPECT_GE(rec.elimination_seconds, 0.0);
  EXPECT_GE(rec.weighting_seconds, 0.0);
  EXPECT_FALSE(obs::to_text(rec).empty());
}

class TraceDumpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vire_trace_pipeline_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(TraceDumpTest, QualityDropAutoDumpsTraceAndFlightOnce) {
  const ScenarioRun run = run_scenario({true, 256, dir_});
  // One quality-drop anomaly (the OK->DEGRADED transition); the reader stays
  // dead, so there is no second drop and the cap is not exhausted.
  EXPECT_EQ(run.auto_dumps, 1);
  EXPECT_EQ(run.anomaly_quality_dumps, 1u);
  for (const char* name : {"anomaly_0_trace.json", "anomaly_0_flight.json"}) {
    const auto path = dir_ / name;
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
    EXPECT_GT(std::filesystem::file_size(path), 2u) << path;
  }
  EXPECT_FALSE(std::filesystem::exists(dir_ / "anomaly_1_trace.json"));
}

TEST_F(TraceDumpTest, DumpProvenanceOnDemandWritesBothFiles) {
  const env::Deployment deployment = env::Deployment::paper_testbed();
  EngineConfig config;
  config.observability.enable_tracing = true;
  LocalizationEngine engine(deployment, config);
  engine.tracer().instant("manual");
  const auto [trace_path, flight_path] =
      engine.dump_provenance(dir_ / "nested", "ondemand");
  EXPECT_EQ(trace_path.filename(), "ondemand_trace.json");
  EXPECT_EQ(flight_path.filename(), "ondemand_flight.json");
  EXPECT_TRUE(std::filesystem::exists(trace_path));
  EXPECT_TRUE(std::filesystem::exists(flight_path));
}

}  // namespace
}  // namespace vire::engine
