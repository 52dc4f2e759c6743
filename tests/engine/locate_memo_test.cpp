// The engine's locate memo against an independent oracle.
//
// A tag whose RSSI bits and grid generation are unchanged since its last
// locate reuses that locate instead of running elimination and weighting
// again (docs/algorithm.md, "Reused locates"). This suite checks every fix
// of a scripted static-tag run against a separate core::VireLocalizer, built
// from the engine's post-mask reference readings
// (snapshot().last_reference_rssi) and fed the middleware's own tag vectors.
// The script walks through the memo's boundaries: full and partial
// (dirty-reader) grid refreshes, a reader quarantine and its release,
// untrack/retrack, import_tag and restore() mid-run.
//
// The readings are synthetic and exact: every sample is a multiple of
// 1/16 dB, so a window of identical samples averages to the same bits
// however many it holds, and a tag whose samples do not change keeps its
// vector bit for bit from poll to poll.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/vire_localizer.h"
#include "engine/localization_engine.h"
#include "env/deployment.h"
#include "sim/middleware.h"

namespace vire::engine {
namespace {

constexpr double kBeaconS = 2.0;
constexpr int kTags = 12;
constexpr sim::TagId kFirstTag = 100;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Log-distance field rounded to 1/16 dB.
double field_rssi(geom::Vec2 reader, geom::Vec2 tag) {
  const double d = std::max(0.1, geom::distance(reader, tag));
  return std::round(16.0 * (-40.0 - 25.0 * std::log10(d))) / 16.0;
}

struct Scene {
  env::Deployment deployment = env::Deployment::paper_testbed();
  sim::Middleware middleware{deployment.reader_count(), [] {
                               sim::MiddlewareConfig config;
                               config.window_s = 10.0;
                               config.aggregation = sim::Aggregation::kMean;
                               return config;
                             }()};
  std::vector<sim::TagId> reference_ids;
  std::vector<sim::TagId> tags;
  std::vector<geom::Vec2> tag_positions;
  /// Offsets (dB) added to the reference readings, per reader.
  std::vector<double> reference_offset_db;
  bool reader2_alive = true;

  Scene() : reference_offset_db(static_cast<std::size_t>(deployment.reader_count()), 0.0) {
    for (int j = 0; j < deployment.reference_count(); ++j) {
      reference_ids.push_back(static_cast<sim::TagId>(1 + j));
    }
    for (int i = 0; i < kTags; ++i) {
      tags.push_back(kFirstTag + static_cast<sim::TagId>(i));
      tag_positions.push_back({0.3 + 0.25 * i, 2.7 - 0.2 * i});
    }
  }

  /// One beacon of every tag to every live reader at time `t`.
  void beacon(sim::SimTime t) {
    const auto& readers = deployment.reader_positions();
    for (int k = 0; k < deployment.reader_count(); ++k) {
      if (k == 2 && !reader2_alive) continue;
      const auto reader = static_cast<sim::ReaderId>(k);
      for (std::size_t j = 0; j < reference_ids.size(); ++j) {
        middleware.ingest({t, reference_ids[j], reader,
                           field_rssi(readers[static_cast<std::size_t>(k)],
                                      deployment.reference_positions()[j]) +
                               reference_offset_db[static_cast<std::size_t>(k)]});
      }
      for (std::size_t i = 0; i < tags.size(); ++i) {
        middleware.ingest({t, tags[i], reader,
                           field_rssi(readers[static_cast<std::size_t>(k)],
                                      tag_positions[i])});
      }
    }
  }
};

EngineConfig memo_config() {
  EngineConfig config;
  // The readings are static on purpose; the staleness check would
  // quarantine every reader of a field that never moves.
  config.degradation.health.stale_after_s = 0.0;
  return config;
}

std::uint64_t counter(const LocalizationEngine& engine, const char* name,
                      const char* labels = "") {
  return const_cast<LocalizationEngine&>(engine).metrics().counter(name, labels).value();
}

std::uint64_t reused(const LocalizationEngine& engine) {
  return counter(engine, "vire_engine_locates_reused_total");
}

/// Checks every fix of one poll against a separate localizer built from the
/// engine's post-mask reference readings and the middleware's tag vectors.
class Oracle {
 public:
  explicit Oracle(const Scene& scene, const EngineConfig& config)
      : scene_(scene), config_(config),
        localizer_(scene.deployment.reference_grid(), config.vire) {}

  void check(const LocalizationEngine& engine, const std::vector<Fix>& fixes,
             sim::SimTime now) {
    const EngineStateSnapshot snap = engine.snapshot();
    if (!built_ || !same(snap.last_reference_rssi, references_)) {
      references_ = snap.last_reference_rssi;
      localizer_.set_reference_rssi(references_);
      built_ = true;
    }
    const std::vector<bool>& mask = engine.health().healthy_mask();
    ASSERT_EQ(fixes.size(), scene_.tags.size());
    for (std::size_t i = 0; i < fixes.size(); ++i) {
      const Fix& fix = fixes[i];
      ASSERT_EQ(fix.tag, scene_.tags[i]);
      sim::RssiVector rssi = scene_.middleware.rssi_vector(fix.tag);
      int valid = 0;
      for (std::size_t k = 0; k < rssi.size(); ++k) {
        if (!mask[k]) rssi[k] = std::numeric_limits<double>::quiet_NaN();
        if (!std::isnan(rssi[k])) ++valid;
      }
      std::optional<core::VireResult> expected;
      if (valid >= config_.min_valid_readers) expected = localizer_.locate(rssi);
      const bool vire_fix = fix.valid && !fix.used_fallback;
      ASSERT_EQ(vire_fix, expected.has_value()) << "tag " << fix.tag << " t=" << now;
      if (!expected) continue;
      EXPECT_EQ(bits(fix.position.x), bits(expected->position.x))
          << "tag " << fix.tag << " t=" << now;
      EXPECT_EQ(bits(fix.position.y), bits(expected->position.y))
          << "tag " << fix.tag << " t=" << now;
      EXPECT_EQ(fix.survivor_count, expected->survivor_count())
          << "tag " << fix.tag << " t=" << now;
      ++checked_;
    }
  }

  [[nodiscard]] int checked() const noexcept { return checked_; }

 private:
  static bool same(const std::vector<sim::RssiVector>& a,
                   const std::vector<sim::RssiVector>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t j = 0; j < a.size(); ++j) {
      if (a[j].size() != b[j].size()) return false;
      for (std::size_t k = 0; k < a[j].size(); ++k) {
        if (bits(a[j][k]) != bits(b[j][k])) return false;
      }
    }
    return true;
  }

  const Scene& scene_;
  EngineConfig config_;
  core::VireLocalizer localizer_;
  std::vector<sim::RssiVector> references_;
  bool built_ = false;
  int checked_ = 0;
};

TEST(LocateMemo, EveryFixMatchesAnIndependentLocalizer) {
  Scene scene;
  const EngineConfig config = memo_config();
  LocalizationEngine engine(scene.deployment, config);
  engine.set_reference_ids(scene.reference_ids);
  for (const sim::TagId tag : scene.tags) engine.track(tag);
  Oracle oracle(scene, config);

  std::optional<LocalizationEngine> restored;
  std::uint64_t static_reuse = 0;
  int rebuild_polls = 0;
  bool saw_quarantine = false;
  bool saw_release = false;
  for (int second = 0; second <= 150; ++second) {
    const auto now = static_cast<sim::SimTime>(second);
    if (second == 30) {
      for (double& offset : scene.reference_offset_db) offset = 1.5;  // full refresh
    }
    if (second == 55) scene.reference_offset_db[1] = -2.0;  // reader 1 only: partial
    if (second == 75) scene.reader2_alive = false;           // reader 2 dies
    if (second == 100) scene.reader2_alive = true;           // and comes back
    if (second % static_cast<int>(kBeaconS) == 0) scene.beacon(now);
    scene.middleware.evict_stale(now);

    if (second == 120) {
      engine.untrack(scene.tags[3]);
      engine.track(scene.tags[3]);
    }
    if (second == 125) {
      const auto state = engine.export_tag(scene.tags[5]);
      ASSERT_TRUE(state.has_value());
      engine.import_tag(scene.tags[5], *state);
    }
    if (second == 130) {
      restored.emplace(scene.deployment, config);
      restored->restore(engine.snapshot());
    }

    const int rebuilds_before = engine.grid_rebuilds();
    const bool healthy_before = engine.health().all_healthy();
    const std::uint64_t reused_before = reused(engine);
    const std::vector<Fix> fixes = engine.update(scene.middleware, now);
    const std::uint64_t reused_now = reused(engine) - reused_before;
    oracle.check(engine, fixes, now);
    if (HasFatalFailure()) return;

    if (engine.grid_rebuilds() != rebuilds_before) {
      ++rebuild_polls;
      EXPECT_EQ(reused_now, 0u) << "a rebuilt grid reused a locate at t=" << now;
    }
    if (healthy_before && !engine.health().all_healthy()) saw_quarantine = true;
    if (!healthy_before && engine.health().all_healthy()) saw_release = true;
    if (second > 1 && second < 30) static_reuse += reused_now;

    if (second == 120 || second == 125) {
      const sim::TagId fresh = scene.tags[second == 120 ? 3 : 5];
      const auto rec = engine.flight_recorder().last_for_tag(fresh);
      ASSERT_TRUE(rec.has_value());
      EXPECT_FALSE(rec->locate_reused) << "a new slot must start without a memo";
      EXPECT_EQ(reused_now, scene.tags.size() - 1);
    }
    for (const Fix& fix : fixes) {
      const auto rec = engine.flight_recorder().last_for_tag(fix.tag);
      ASSERT_TRUE(rec.has_value());
      if (rec->locate_reused) {
        EXPECT_EQ(rec->elimination_seconds, 0.0);
        EXPECT_EQ(rec->weighting_seconds, 0.0);
      }
    }

    if (restored) {
      const std::uint64_t restored_before = reused(*restored);
      const std::vector<Fix> again = restored->update(scene.middleware, now);
      if (second == 130) {
        EXPECT_EQ(reused(*restored) - restored_before, 0u);
      }
      ASSERT_EQ(again.size(), fixes.size());
      for (std::size_t i = 0; i < fixes.size(); ++i) {
        EXPECT_EQ(again[i].quality, fixes[i].quality);
        EXPECT_EQ(bits(again[i].position.x), bits(fixes[i].position.x));
        EXPECT_EQ(bits(again[i].position.y), bits(fixes[i].position.y));
        EXPECT_EQ(bits(again[i].smoothed_position.x), bits(fixes[i].smoothed_position.x));
        EXPECT_EQ(bits(again[i].smoothed_position.y), bits(fixes[i].smoothed_position.y));
        EXPECT_EQ(again[i].survivor_count, fixes[i].survivor_count);
      }
    }
  }

  EXPECT_GT(static_reuse, 0u) << "static tags never reused a locate";
  EXPECT_GE(rebuild_polls, 3);
  EXPECT_GT(counter(engine, "vire_engine_grid_partial_rebuilds_total"), 0u);
  EXPECT_TRUE(saw_quarantine);
  EXPECT_TRUE(saw_release);
  ASSERT_TRUE(restored.has_value());
  EXPECT_GT(reused(*restored), 0u);
  EXPECT_GT(oracle.checked(), 0);
}

TEST(LocateMemo, RestoreRejectsStateForAnUntrackedTag) {
  Scene scene;
  LocalizationEngine engine(scene.deployment, memo_config());
  EngineStateSnapshot snap = engine.snapshot();
  snap.reference_ids = scene.reference_ids;
  snap.last_quality.push_back({kFirstTag, FixQuality::kOk});
  EXPECT_THROW(engine.restore(snap), std::invalid_argument);
}

}  // namespace
}  // namespace vire::engine
