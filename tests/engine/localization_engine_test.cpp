#include "engine/localization_engine.h"

#include <gtest/gtest.h>

#include <cmath>

#include "env/environment.h"
#include "sim/simulator.h"

namespace vire::engine {
namespace {

struct Rig {
  env::Environment environment = env::make_paper_environment(
      env::PaperEnvironment::kEnv1SemiOpen);
  env::Deployment deployment = env::Deployment::paper_testbed();
  sim::RfidSimulator simulator;
  std::vector<sim::TagId> reference_ids;

  explicit Rig(std::uint64_t seed = 7)
      : simulator(environment, deployment, [seed] {
          sim::SimulatorConfig config;
          config.seed = seed;
          return config;
        }()) {
    reference_ids = simulator.add_reference_tags();
  }
};

TEST(Engine, UpdateWithoutReferencesThrows) {
  Rig rig;
  LocalizationEngine engine(rig.deployment);
  rig.simulator.run_for(10.0);
  EXPECT_THROW((void)engine.update(rig.simulator.middleware(), 10.0),
               std::logic_error);
}

TEST(Engine, WrongReferenceCountThrows) {
  Rig rig;
  LocalizationEngine engine(rig.deployment);
  EXPECT_THROW(engine.set_reference_ids({1, 2, 3}), std::invalid_argument);
}

TEST(Engine, ProducesValidFixes) {
  Rig rig;
  const geom::Vec2 truth{1.4, 1.8};
  const sim::TagId asset = rig.simulator.add_tag(truth);
  rig.simulator.run_for(40.0);

  LocalizationEngine engine(rig.deployment);
  engine.set_reference_ids(rig.reference_ids);
  engine.track(asset, "asset");
  const auto fixes = engine.update(rig.simulator.middleware(), rig.simulator.now());
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_TRUE(fixes[0].valid);
  EXPECT_EQ(fixes[0].name, "asset");
  EXPECT_LT(geom::distance(fixes[0].position, truth), 1.0);
  EXPECT_GT(fixes[0].survivor_count, 0u);
}

TEST(Engine, RefreshIntervalRateLimitsGridRebuilds) {
  Rig rig;
  const sim::TagId asset = rig.simulator.add_tag({1.5, 1.5});
  rig.simulator.run_for(30.0);

  EngineConfig config;
  config.min_refresh_interval_s = 20.0;
  LocalizationEngine engine(rig.deployment, config);
  engine.set_reference_ids(rig.reference_ids);
  engine.track(asset);

  for (int i = 0; i < 5; ++i) {
    rig.simulator.run_for(5.0);
    (void)engine.update(rig.simulator.middleware(), rig.simulator.now());
  }
  // 25 s of updates at a 20 s refresh interval: initial build + one refresh.
  EXPECT_EQ(engine.grid_rebuilds(), 2);
}

TEST(Engine, ZeroIntervalRebuildsEveryUpdate) {
  Rig rig;
  const sim::TagId asset = rig.simulator.add_tag({1.5, 1.5});
  rig.simulator.run_for(30.0);
  EngineConfig config;
  config.min_refresh_interval_s = 0.0;
  LocalizationEngine engine(rig.deployment, config);
  engine.set_reference_ids(rig.reference_ids);
  engine.track(asset);
  for (int i = 0; i < 3; ++i) {
    rig.simulator.run_for(1.0);
    (void)engine.update(rig.simulator.middleware(), rig.simulator.now());
  }
  EXPECT_EQ(engine.grid_rebuilds(), 3);
}

TEST(Engine, StaticReferencesSkipGridRebuild) {
  // Unchanged reference readings must not trigger a rebuild even when the
  // refresh interval says one is due — the skip is content-based, not
  // rate-limited.
  Rig rig;
  const sim::TagId asset = rig.simulator.add_tag({1.5, 1.5});
  rig.simulator.run_for(30.0);
  EngineConfig config;
  config.min_refresh_interval_s = 0.0;  // every update is "due"
  LocalizationEngine engine(rig.deployment, config);
  engine.set_reference_ids(rig.reference_ids);
  engine.track(asset);

  // The simulator does not advance, so the middleware snapshot is frozen.
  for (int i = 0; i < 5; ++i) {
    (void)engine.update(rig.simulator.middleware(), rig.simulator.now());
    EXPECT_EQ(engine.grid_rebuilds(), 1);
  }

  // Fresh readings arrive: the rebuild fires again.
  rig.simulator.run_for(5.0);
  (void)engine.update(rig.simulator.middleware(), rig.simulator.now());
  EXPECT_EQ(engine.grid_rebuilds(), 2);
}

TEST(Engine, FewValidReadersYieldsInvalidFixAndLeavesTrackerAlone) {
  // Synthetic middleware: 16 reference tags heard by all 4 readers, one
  // tracked tag heard by too few. The tag must come back invalid and its
  // TrackingFilter state must not be created or disturbed.
  const env::Deployment deployment = env::Deployment::paper_testbed();
  const geom::Vec2 readers[4] = {{-0.7, -0.7}, {3.7, -0.7}, {3.7, 3.7}, {-0.7, 3.7}};
  auto field = [&](geom::Vec2 p, int k) {
    return -40.0 - 20.0 * std::log10(std::max(0.1, geom::distance(p, readers[k])));
  };

  sim::Middleware middleware(4);
  std::vector<sim::TagId> reference_ids;
  for (int j = 0; j < deployment.reference_count(); ++j) {
    const sim::TagId id = 100 + static_cast<sim::TagId>(j);
    reference_ids.push_back(id);
    for (sim::ReaderId k = 0; k < 4; ++k) {
      middleware.ingest({0.5, id, k,
                         field(deployment.reference_positions()[static_cast<std::size_t>(j)], k)});
    }
  }
  const sim::TagId asset = 1;
  const geom::Vec2 truth{1.4, 1.8};
  for (sim::ReaderId k = 0; k < 2; ++k) {  // only 2 of 4 readers hear it
    middleware.ingest({0.5, asset, k, field(truth, k)});
  }

  EngineConfig config;
  config.min_refresh_interval_s = 1000.0;
  ASSERT_EQ(config.min_valid_readers, 3);
  LocalizationEngine engine(deployment, config);
  engine.set_reference_ids(reference_ids);
  engine.track(asset);

  auto fixes = engine.update(middleware, 1.0);
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_FALSE(fixes[0].valid);
  EXPECT_EQ(engine.tracker(asset), nullptr);  // no tracker materialized

  // Now all 4 readers hear it: a valid fix initializes the tracker.
  for (sim::ReaderId k = 2; k < 4; ++k) {
    middleware.ingest({1.5, asset, k, field(truth, k)});
  }
  fixes = engine.update(middleware, 2.0);
  ASSERT_TRUE(fixes[0].valid);
  ASSERT_NE(engine.tracker(asset), nullptr);
  const geom::Vec2 tracked_position = engine.tracker(asset)->position();
  const sim::SimTime tracked_time = engine.tracker(asset)->last_update();

  // Readers 2 and 3 fall silent again: invalid fix, tracker untouched.
  middleware.clear();
  for (sim::ReaderId k = 0; k < 2; ++k) {
    middleware.ingest({2.5, asset, k, field(truth, k)});
  }
  fixes = engine.update(middleware, 3.0);
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_FALSE(fixes[0].valid);
  ASSERT_NE(engine.tracker(asset), nullptr);
  EXPECT_EQ(engine.tracker(asset)->position(), tracked_position);
  EXPECT_EQ(engine.tracker(asset)->last_update(), tracked_time);
}

TEST(Engine, AllLinksBelowMinSamplesYieldInvalidQualityNotNaN) {
  // Satellite regression: when every reader link of a tag is below the
  // middleware's min_samples gate (rssi_vector all NaN), the engine must
  // emit a quality-kInvalid fix with finite coordinates — never a silent
  // NaN position — even with min_valid_readers lowered to 0.
  const env::Deployment deployment = env::Deployment::paper_testbed();
  const geom::Vec2 readers[4] = {{-0.7, -0.7}, {3.7, -0.7}, {3.7, 3.7}, {-0.7, 3.7}};
  auto field = [&](geom::Vec2 p, int k) {
    return -40.0 - 20.0 * std::log10(std::max(0.1, geom::distance(p, readers[k])));
  };

  sim::MiddlewareConfig mw_config;
  mw_config.min_samples = 2;
  sim::Middleware middleware(4, mw_config);
  std::vector<sim::TagId> reference_ids;
  for (int j = 0; j < deployment.reference_count(); ++j) {
    const sim::TagId id = 100 + static_cast<sim::TagId>(j);
    reference_ids.push_back(id);
    for (sim::ReaderId k = 0; k < 4; ++k) {
      const geom::Vec2 p = deployment.reference_positions()[static_cast<std::size_t>(j)];
      middleware.ingest({0.4, id, k, field(p, k)});
      middleware.ingest({0.6, id, k, field(p, k)});
    }
  }
  const sim::TagId asset = 1;
  for (sim::ReaderId k = 0; k < 4; ++k) {
    middleware.ingest({0.5, asset, k, field({1.4, 1.8}, k)});  // 1 < min_samples
  }

  EngineConfig config;
  config.min_valid_readers = 0;  // even the degenerate config must not NaN
  LocalizationEngine engine(deployment, config);
  engine.set_reference_ids(reference_ids);
  engine.track(asset);
  const auto fixes = engine.update(middleware, 1.0);
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_FALSE(fixes[0].valid);
  EXPECT_EQ(fixes[0].quality, FixQuality::kInvalid);
  EXPECT_TRUE(std::isfinite(fixes[0].position.x));
  EXPECT_TRUE(std::isfinite(fixes[0].position.y));
  EXPECT_TRUE(std::isfinite(fixes[0].smoothed_position.x));
  EXPECT_TRUE(std::isfinite(fixes[0].smoothed_position.y));
  const auto* invalid = engine.metrics().find_counter(
      "vire_engine_fixes_by_quality_total", "quality=\"invalid\"");
  ASSERT_NE(invalid, nullptr);
  EXPECT_EQ(invalid->value(), 1u);
}

TEST(Engine, HoldServesLastGoodFixWithinStalenessCap) {
  const env::Deployment deployment = env::Deployment::paper_testbed();
  const geom::Vec2 readers[4] = {{-0.7, -0.7}, {3.7, -0.7}, {3.7, 3.7}, {-0.7, 3.7}};
  auto field = [&](geom::Vec2 p, int k) {
    return -40.0 - 20.0 * std::log10(std::max(0.1, geom::distance(p, readers[k])));
  };
  auto ingest_references = [&](sim::Middleware& mw, double t,
                               std::vector<sim::TagId>& ids) {
    ids.clear();
    for (int j = 0; j < deployment.reference_count(); ++j) {
      const sim::TagId id = 100 + static_cast<sim::TagId>(j);
      ids.push_back(id);
      const geom::Vec2 p = deployment.reference_positions()[static_cast<std::size_t>(j)];
      for (sim::ReaderId k = 0; k < 4; ++k) mw.ingest({t, id, k, field(p, k)});
    }
  };

  sim::Middleware middleware(4);
  std::vector<sim::TagId> reference_ids;
  ingest_references(middleware, 0.5, reference_ids);
  const sim::TagId asset = 1;
  const geom::Vec2 truth{1.4, 1.8};
  for (sim::ReaderId k = 0; k < 4; ++k) {
    middleware.ingest({0.5, asset, k, field(truth, k)});
  }

  EngineConfig config;
  config.min_refresh_interval_s = 1000.0;
  config.degradation.hold_max_age_s = 3.0;
  LocalizationEngine engine(deployment, config);
  engine.set_reference_ids(reference_ids);
  engine.track(asset);

  const auto first = engine.update(middleware, 1.0);
  ASSERT_TRUE(first[0].valid);
  ASSERT_EQ(first[0].quality, FixQuality::kOk);
  EXPECT_DOUBLE_EQ(first[0].age_s, 0.0);

  // The asset falls silent (references stay up): within the cap the engine
  // re-serves the last good estimate as kHold, flagged stale via valid=false.
  middleware.clear();
  ingest_references(middleware, 1.5, reference_ids);
  const auto held = engine.update(middleware, 2.0);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_FALSE(held[0].valid);
  EXPECT_EQ(held[0].quality, FixQuality::kHold);
  EXPECT_EQ(held[0].position, first[0].position);
  EXPECT_EQ(held[0].smoothed_position, first[0].smoothed_position);
  EXPECT_DOUBLE_EQ(held[0].age_s, 1.0);

  // Past the staleness cap the hold expires into kInvalid.
  ingest_references(middleware, 5.5, reference_ids);
  const auto expired = engine.update(middleware, 6.0);
  EXPECT_FALSE(expired[0].valid);
  EXPECT_EQ(expired[0].quality, FixQuality::kInvalid);

  // untrack() forgets the held state too.
  engine.untrack(asset);
  engine.track(asset);
  const auto fresh = engine.update(middleware, 6.5);
  EXPECT_EQ(fresh[0].quality, FixQuality::kInvalid);
}

TEST(Engine, FixQualityToStringCoversAllLevels) {
  EXPECT_EQ(to_string(FixQuality::kOk), "ok");
  EXPECT_EQ(to_string(FixQuality::kDegraded), "degraded");
  EXPECT_EQ(to_string(FixQuality::kHold), "hold");
  EXPECT_EQ(to_string(FixQuality::kInvalid), "invalid");
}

TEST(Engine, TrackerSmoothsAcrossUpdates) {
  Rig rig;
  const geom::Vec2 truth{1.5, 1.5};
  const sim::TagId asset = rig.simulator.add_tag(truth);
  rig.simulator.run_for(30.0);

  EngineConfig config;
  config.tracking.alpha = 0.3;
  config.tracking.beta = 0.05;
  LocalizationEngine engine(rig.deployment, config);
  engine.set_reference_ids(rig.reference_ids);
  engine.track(asset);

  Fix last;
  for (int i = 0; i < 8; ++i) {
    rig.simulator.run_for(5.0);
    last = engine.update(rig.simulator.middleware(), rig.simulator.now()).front();
  }
  ASSERT_TRUE(last.valid);
  ASSERT_NE(engine.tracker(asset), nullptr);
  EXPECT_TRUE(engine.tracker(asset)->initialized());
  EXPECT_LT(geom::distance(last.smoothed_position, truth), 0.8);
}

TEST(Engine, TrackingDisabledPassesRawThrough) {
  Rig rig;
  const sim::TagId asset = rig.simulator.add_tag({2.0, 1.0});
  rig.simulator.run_for(30.0);
  EngineConfig config;
  config.enable_tracking = false;
  LocalizationEngine engine(rig.deployment, config);
  engine.set_reference_ids(rig.reference_ids);
  engine.track(asset);
  const auto fix = engine.update(rig.simulator.middleware(), rig.simulator.now()).front();
  ASSERT_TRUE(fix.valid);
  EXPECT_EQ(fix.position, fix.smoothed_position);
  EXPECT_EQ(engine.tracker(asset), nullptr);
}

TEST(Engine, UnknownTagYieldsInvalidFix) {
  Rig rig;
  rig.simulator.run_for(20.0);
  LocalizationEngine engine(rig.deployment);
  engine.set_reference_ids(rig.reference_ids);
  engine.track(999, "ghost");  // never beacons
  const auto fixes = engine.update(rig.simulator.middleware(), rig.simulator.now());
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_FALSE(fixes[0].valid);
}

TEST(Engine, UntrackRemovesTagAndTracker) {
  Rig rig;
  const sim::TagId asset = rig.simulator.add_tag({1.5, 1.5});
  rig.simulator.run_for(20.0);
  LocalizationEngine engine(rig.deployment);
  engine.set_reference_ids(rig.reference_ids);
  engine.track(asset);
  (void)engine.update(rig.simulator.middleware(), rig.simulator.now());
  EXPECT_EQ(engine.tracked_count(), 1u);
  engine.untrack(asset);
  EXPECT_EQ(engine.tracked_count(), 0u);
  EXPECT_EQ(engine.tracker(asset), nullptr);
  EXPECT_TRUE(engine.update(rig.simulator.middleware(), rig.simulator.now()).empty());
}

TEST(Engine, MultipleTagsEachGetAFix) {
  Rig rig;
  const sim::TagId a = rig.simulator.add_tag({0.8, 0.8});
  const sim::TagId b = rig.simulator.add_tag({2.2, 2.2});
  rig.simulator.run_for(40.0);
  LocalizationEngine engine(rig.deployment);
  engine.set_reference_ids(rig.reference_ids);
  engine.track(a, "a");
  engine.track(b, "b");
  const auto fixes = engine.update(rig.simulator.middleware(), rig.simulator.now());
  ASSERT_EQ(fixes.size(), 2u);
  EXPECT_TRUE(fixes[0].valid);
  EXPECT_TRUE(fixes[1].valid);
  EXPECT_LT(geom::distance(fixes[0].position, {0.8, 0.8}), 1.0);
  EXPECT_LT(geom::distance(fixes[1].position, {2.2, 2.2}), 1.0);
}

}  // namespace
}  // namespace vire::engine
