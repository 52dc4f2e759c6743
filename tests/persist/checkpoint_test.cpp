// Checkpoints: bit-identical serialize/deserialize round trips, CRC
// rejection of corruption, the config fingerprint's invariants (pure side
// channels excluded, algorithm knobs included), and the store's keep/prune +
// newest-valid-with-fallback loading.

#include "persist/checkpoint.h"

#include <cstring>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace vire::persist {
namespace {

namespace fs = std::filesystem;

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// A checkpoint exercising every field, including degraded-engine state
/// (quarantined reader, holds, non-kOk qualities) and awkward doubles.
Checkpoint make_rich_checkpoint() {
  Checkpoint ckpt;
  ckpt.config_fingerprint = 0xFEEDFACECAFEBEEFull;
  ckpt.wal_sequence = 4242;
  ckpt.sim_time = 133.2500000001;

  ckpt.engine.reference_ids = {10, 11, 12, 13};
  ckpt.engine.tracked = {{100, "pallet"}, {101, ""}};
  ckpt.engine.health.readers.resize(4);
  ckpt.engine.health.readers[2].quarantined = true;
  ckpt.engine.health.readers[2].suspect_streak = 3;
  ckpt.engine.health.readers[2].last_rssi = {-51.25, -60.0 + 1.0 / 3.0};
  ckpt.engine.health.readers[2].last_change = 90.0;
  ckpt.engine.health.readers[2].seen = true;
  ckpt.engine.health.quarantines = 2;
  ckpt.engine.health.recoveries = 1;
  ckpt.engine.has_last_refresh = true;
  ckpt.engine.last_refresh = 120.0;
  ckpt.engine.last_reference_rssi = {{-50.5, -51.5}, {-48.0, -49.0}};
  ckpt.engine.grid_rebuilds = 7;
  ckpt.engine.fix_sequence = 99;
  ckpt.engine.auto_dumps = 1;
  ckpt.engine.trackers.resize(1);
  ckpt.engine.trackers[0].tag = 100;
  ckpt.engine.trackers[0].state.initialized = true;
  ckpt.engine.trackers[0].state.position = {1.375, 2.8125};
  ckpt.engine.trackers[0].state.velocity = {-0.01, 0.02};
  ckpt.engine.trackers[0].state.last_time = 130.0;
  ckpt.engine.trackers[0].state.consecutive_outliers = 1;
  ckpt.engine.last_good.resize(1);
  ckpt.engine.last_good[0] = {101, 125.0, {3.0, 4.0}, {3.1, 4.1}};
  ckpt.engine.last_quality = {{100, engine::FixQuality::kOk},
                              {101, engine::FixQuality::kHold}};

  ckpt.middleware.links.resize(2);
  ckpt.middleware.links[0] = {10, 0, {{130.25, -52.0}, {131.5, -52.5}}};
  ckpt.middleware.links[1] = {100, 3, {{132.0, -61.0}}};

  ckpt.counters = {{"vire_fixes_total", "", 42},
                   {"vire_engine_grid_rebuilds_total", "", 7}};
  return ckpt;
}

void expect_round_trip_equal(const Checkpoint& a, const Checkpoint& b) {
  EXPECT_EQ(b.config_fingerprint, a.config_fingerprint);
  EXPECT_EQ(b.wal_sequence, a.wal_sequence);
  EXPECT_EQ(bits(b.sim_time), bits(a.sim_time));

  EXPECT_EQ(b.engine.reference_ids, a.engine.reference_ids);
  EXPECT_EQ(b.engine.tracked, a.engine.tracked);
  ASSERT_EQ(b.engine.health.readers.size(), a.engine.health.readers.size());
  for (std::size_t i = 0; i < a.engine.health.readers.size(); ++i) {
    const auto& ra = a.engine.health.readers[i];
    const auto& rb = b.engine.health.readers[i];
    EXPECT_EQ(rb.quarantined, ra.quarantined);
    EXPECT_EQ(rb.suspect_streak, ra.suspect_streak);
    EXPECT_EQ(rb.clean_streak, ra.clean_streak);
    ASSERT_EQ(rb.last_rssi.size(), ra.last_rssi.size());
    for (std::size_t j = 0; j < ra.last_rssi.size(); ++j) {
      EXPECT_EQ(bits(rb.last_rssi[j]), bits(ra.last_rssi[j]));
    }
    EXPECT_EQ(bits(rb.last_change), bits(ra.last_change));
    EXPECT_EQ(rb.seen, ra.seen);
  }
  EXPECT_EQ(b.engine.health.quarantines, a.engine.health.quarantines);
  EXPECT_EQ(b.engine.health.recoveries, a.engine.health.recoveries);
  EXPECT_EQ(b.engine.has_last_refresh, a.engine.has_last_refresh);
  EXPECT_EQ(bits(b.engine.last_refresh), bits(a.engine.last_refresh));
  ASSERT_EQ(b.engine.last_reference_rssi.size(),
            a.engine.last_reference_rssi.size());
  for (std::size_t i = 0; i < a.engine.last_reference_rssi.size(); ++i) {
    ASSERT_EQ(b.engine.last_reference_rssi[i].size(),
              a.engine.last_reference_rssi[i].size());
    for (std::size_t j = 0; j < a.engine.last_reference_rssi[i].size(); ++j) {
      EXPECT_EQ(bits(b.engine.last_reference_rssi[i][j]),
                bits(a.engine.last_reference_rssi[i][j]));
    }
  }
  EXPECT_EQ(b.engine.grid_rebuilds, a.engine.grid_rebuilds);
  EXPECT_EQ(b.engine.fix_sequence, a.engine.fix_sequence);
  EXPECT_EQ(b.engine.auto_dumps, a.engine.auto_dumps);
  ASSERT_EQ(b.engine.trackers.size(), a.engine.trackers.size());
  for (std::size_t i = 0; i < a.engine.trackers.size(); ++i) {
    const auto& ta = a.engine.trackers[i];
    const auto& tb = b.engine.trackers[i];
    EXPECT_EQ(tb.tag, ta.tag);
    EXPECT_EQ(tb.state.initialized, ta.state.initialized);
    EXPECT_EQ(bits(tb.state.position.x), bits(ta.state.position.x));
    EXPECT_EQ(bits(tb.state.position.y), bits(ta.state.position.y));
    EXPECT_EQ(bits(tb.state.velocity.x), bits(ta.state.velocity.x));
    EXPECT_EQ(bits(tb.state.last_time), bits(ta.state.last_time));
    EXPECT_EQ(tb.state.consecutive_outliers, ta.state.consecutive_outliers);
  }
  ASSERT_EQ(b.engine.last_good.size(), a.engine.last_good.size());
  for (std::size_t i = 0; i < a.engine.last_good.size(); ++i) {
    EXPECT_EQ(b.engine.last_good[i].tag, a.engine.last_good[i].tag);
    EXPECT_EQ(bits(b.engine.last_good[i].time), bits(a.engine.last_good[i].time));
    EXPECT_EQ(bits(b.engine.last_good[i].position.x),
              bits(a.engine.last_good[i].position.x));
    EXPECT_EQ(bits(b.engine.last_good[i].smoothed.y),
              bits(a.engine.last_good[i].smoothed.y));
  }
  ASSERT_EQ(b.engine.last_quality.size(), a.engine.last_quality.size());
  for (std::size_t i = 0; i < a.engine.last_quality.size(); ++i) {
    EXPECT_EQ(b.engine.last_quality[i].tag, a.engine.last_quality[i].tag);
    EXPECT_EQ(b.engine.last_quality[i].quality, a.engine.last_quality[i].quality);
  }

  ASSERT_EQ(b.middleware.links.size(), a.middleware.links.size());
  for (std::size_t i = 0; i < a.middleware.links.size(); ++i) {
    EXPECT_EQ(b.middleware.links[i].tag, a.middleware.links[i].tag);
    EXPECT_EQ(b.middleware.links[i].reader, a.middleware.links[i].reader);
    ASSERT_EQ(b.middleware.links[i].samples.size(),
              a.middleware.links[i].samples.size());
    for (std::size_t j = 0; j < a.middleware.links[i].samples.size(); ++j) {
      EXPECT_EQ(bits(b.middleware.links[i].samples[j].time),
                bits(a.middleware.links[i].samples[j].time));
      EXPECT_EQ(bits(b.middleware.links[i].samples[j].rssi_dbm),
                bits(a.middleware.links[i].samples[j].rssi_dbm));
    }
  }

  ASSERT_EQ(b.counters.size(), a.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(b.counters[i].name, a.counters[i].name);
    EXPECT_EQ(b.counters[i].labels, a.counters[i].labels);
    EXPECT_EQ(b.counters[i].value, a.counters[i].value);
  }
}

TEST(CheckpointSerializeTest, RichRoundTripIsBitIdentical) {
  const Checkpoint original = make_rich_checkpoint();
  const std::string blob = serialize(original);
  const auto back = deserialize(blob);
  ASSERT_TRUE(back.has_value());
  expect_round_trip_equal(original, *back);
}

TEST(CheckpointSerializeTest, EmptyCheckpointRoundTrips) {
  const Checkpoint empty;
  const auto back = deserialize(serialize(empty));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->wal_sequence, 0u);
  EXPECT_TRUE(back->engine.reference_ids.empty());
  EXPECT_TRUE(back->middleware.links.empty());
}

TEST(CheckpointSerializeTest, AnySingleByteFlipIsRejected) {
  const std::string blob = serialize(make_rich_checkpoint());
  // Spot-check flips across the file: magic, body, and CRC regions.
  for (const std::size_t pos :
       {std::size_t{0}, std::size_t{2}, blob.size() / 3, blob.size() / 2,
        blob.size() - 2, blob.size() - 1}) {
    std::string bad = blob;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x01);
    EXPECT_EQ(deserialize(bad), std::nullopt) << "flip at byte " << pos;
  }
}

TEST(CheckpointSerializeTest, TruncationIsRejected) {
  const std::string blob = serialize(make_rich_checkpoint());
  EXPECT_EQ(deserialize(std::string_view(blob).substr(0, blob.size() - 5)),
            std::nullopt);
  EXPECT_EQ(deserialize(""), std::nullopt);
  EXPECT_EQ(deserialize("VCKP"), std::nullopt);
}

TEST(CheckpointFingerprintTest, SideChannelsAreExcluded) {
  engine::EngineConfig base;
  const std::uint64_t fp = engine_config_fingerprint(base);

  engine::EngineConfig obs = base;
  obs.observability.trace_capacity = 123456;
  EXPECT_EQ(engine_config_fingerprint(obs), fp)
      << "observability never affects fix values";
}

TEST(CheckpointFingerprintTest, AlgorithmKnobsAreIncluded) {
  engine::EngineConfig base;
  const std::uint64_t fp = engine_config_fingerprint(base);

  engine::EngineConfig grid = base;
  grid.vire.virtual_grid.subdivision += 1;
  EXPECT_NE(engine_config_fingerprint(grid), fp);

  engine::EngineConfig degradation = base;
  degradation.degradation.health.max_median_jump_db += 1.0;
  EXPECT_NE(engine_config_fingerprint(degradation), fp);

  engine::EngineConfig tracking = base;
  tracking.enable_tracking = !tracking.enable_tracking;
  EXPECT_NE(engine_config_fingerprint(tracking), fp);

  engine::EngineConfig fallback = base;
  fallback.degradation.fallback.k_nearest += 1;
  EXPECT_NE(engine_config_fingerprint(fallback), fp);
}

class CheckpointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vire_ckpt_" + std::string(::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  CheckpointStore make_store(std::size_t keep = 3) {
    CheckpointStoreConfig config;
    config.dir = dir_;
    config.keep = keep;
    return CheckpointStore(config);
  }

  static Checkpoint at_sequence(std::uint64_t wal_sequence) {
    Checkpoint ckpt = make_rich_checkpoint();
    ckpt.wal_sequence = wal_sequence;
    return ckpt;
  }

  fs::path dir_;
};

TEST_F(CheckpointStoreTest, WriteThenLoadNewestValid) {
  CheckpointStore store = make_store();
  store.write(at_sequence(100));
  store.write(at_sequence(200));

  const auto [checkpoint, rejected] =
      store.load_newest_valid(make_rich_checkpoint().config_fingerprint);
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->wal_sequence, 200u);
  EXPECT_EQ(rejected, 0u);
}

TEST_F(CheckpointStoreTest, KeepsOnlyTheNewestN) {
  CheckpointStore store = make_store(/*keep=*/2);
  for (const std::uint64_t seq : {10u, 20u, 30u, 40u}) {
    store.write(at_sequence(seq));
  }
  EXPECT_EQ(store.stored_sequences(),
            (std::vector<std::uint64_t>{30u, 40u}));
}

TEST_F(CheckpointStoreTest, FallsBackPastACorruptNewest) {
  CheckpointStore store = make_store();
  store.write(at_sequence(100));
  store.write(at_sequence(200));
  // Corrupt the newest file in the middle of its body.
  const fs::path newest = dir_ / "checkpoint_000000000200.ckpt";
  ASSERT_TRUE(fs::exists(newest));
  {
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(newest) / 2));
    f.put('\x7f');
  }

  const auto [checkpoint, rejected] =
      store.load_newest_valid(make_rich_checkpoint().config_fingerprint);
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->wal_sequence, 100u);
  EXPECT_EQ(rejected, 1u);
}

TEST_F(CheckpointStoreTest, RejectsConfigFingerprintMismatch) {
  CheckpointStore store = make_store();
  store.write(at_sequence(100));
  const auto [checkpoint, rejected] =
      store.load_newest_valid(/*expected_config_fingerprint=*/1);
  EXPECT_EQ(checkpoint, std::nullopt);
  EXPECT_EQ(rejected, 1u);
}

TEST_F(CheckpointStoreTest, EmptyStoreLoadsNothing) {
  CheckpointStore store = make_store();
  const auto [checkpoint, rejected] = store.load_newest_valid(0);
  EXPECT_EQ(checkpoint, std::nullopt);
  EXPECT_EQ(rejected, 0u);
}

TEST_F(CheckpointStoreTest, MetricsCountWritesLoadsAndRejections) {
  obs::MetricsRegistry registry;
  CheckpointStore store = make_store();
  store.attach_metrics(registry);
  store.write(at_sequence(100));
  (void)store.load_newest_valid(make_rich_checkpoint().config_fingerprint);
  (void)store.load_newest_valid(/*expected_config_fingerprint=*/1);

  EXPECT_EQ(registry.find_counter("vire_persist_checkpoint_written_total", {})
                ->value(),
            1u);
  EXPECT_EQ(registry.find_counter("vire_persist_checkpoint_loaded_total", {})
                ->value(),
            1u);
  EXPECT_EQ(registry.find_counter("vire_persist_checkpoint_rejected_total", {})
                ->value(),
            1u);
}

TEST(CounterRestoreTest, RaisesCountersAndRespectsMonotonicity) {
  obs::MetricsRegistry registry;
  obs::Counter& fixes = registry.counter("vire_fixes_total", {}, "");
  fixes.inc(5);
  obs::Counter& ahead = registry.counter("vire_already_ahead_total", {}, "");
  ahead.inc(10);

  restore_counters(registry, {{"vire_fixes_total", "", 42},
                              {"vire_already_ahead_total", "", 3},
                              {"vire_fresh_total", "", 7}});
  EXPECT_EQ(fixes.value(), 42u);
  EXPECT_EQ(ahead.value(), 10u);  // monotonic: never lowered
  EXPECT_EQ(registry.find_counter("vire_fresh_total", {})->value(), 7u);
}

}  // namespace
}  // namespace vire::persist
