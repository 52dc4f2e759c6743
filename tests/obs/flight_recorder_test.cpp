// FlightRecorder unit tests: ring retention/overwrite, per-tag lookup, the
// zero-capacity kill switch, and the JSON/text renderings (NaN-as-null,
// escaping, the {"records":[...]} document shape) plus the on-disk dump.

#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <unistd.h>

namespace vire::obs {
namespace {

FixRecord sample_record(std::uint64_t sequence, std::uint32_t tag) {
  FixRecord rec;
  rec.sequence = sequence;
  rec.time = 45.0;
  rec.tag = tag;
  rec.name = "pallet";
  rec.quality = FixQuality::kDegraded;
  rec.decision = FixDecision::kVire;
  rec.valid = true;
  rec.x = 1.5;
  rec.y = 2.25;
  rec.readers = {{-52.5, true},
                 {std::numeric_limits<double>::quiet_NaN(), false},
                 {-61.0, true}};
  rec.refinement.initial_threshold_db = 2.0;
  rec.refinement.final_threshold_db = 0.5;
  rec.refinement.steps = 3;
  rec.refinement.survivors_per_step = {24, 9, 4, 2};
  rec.survivor_count = 2;
  rec.clusters = {{2, 0.75}, {1, 0.25}};
  rec.elimination_seconds = 0.001;
  rec.weighting_seconds = 0.0005;
  return rec;
}

TEST(FlightRecorder, ZeroCapacityDisablesRecording) {
  FlightRecorder recorder(0);
  recorder.record(sample_record(0, 7));
  EXPECT_EQ(recorder.capacity(), 0u);
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
  EXPECT_FALSE(recorder.last_for_tag(7).has_value());
}

TEST(FlightRecorder, RetainsNewestOldestFirst) {
  FlightRecorder recorder(3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    recorder.record(sample_record(i, static_cast<std::uint32_t>(i)));
  }
  EXPECT_EQ(recorder.total_recorded(), 5u);
  EXPECT_EQ(recorder.size(), 3u);
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].sequence, 2u);
  EXPECT_EQ(records[1].sequence, 3u);
  EXPECT_EQ(records[2].sequence, 4u);
  // The overwritten fixes are gone.
  EXPECT_FALSE(recorder.last_for_tag(0).has_value());
  EXPECT_TRUE(recorder.last_for_tag(4).has_value());
}

TEST(FlightRecorder, LastForTagReturnsMostRecentMatch) {
  FlightRecorder recorder(8);
  recorder.record(sample_record(0, 7));
  recorder.record(sample_record(1, 9));
  recorder.record(sample_record(2, 7));
  const auto rec = recorder.last_for_tag(7);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->sequence, 2u);
  EXPECT_FALSE(recorder.last_for_tag(123).has_value());
}

TEST(FlightRecorder, ClearEmptiesTheRing) {
  FlightRecorder recorder(4);
  recorder.record(sample_record(0, 1));
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
  EXPECT_FALSE(recorder.last_for_tag(1).has_value());
}

TEST(FlightRecorderJson, RecordRendersAllProvenanceFields) {
  const std::string json = to_json(sample_record(11, 7));
  EXPECT_NE(json.find("\"sequence\":11"), std::string::npos);
  EXPECT_NE(json.find("\"tag\":7"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pallet\""), std::string::npos);
  EXPECT_NE(json.find("\"quality\":\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"decision\":\"vire\""), std::string::npos);
  EXPECT_NE(json.find("\"position\":[1.5,2.25]"), std::string::npos);
  // NaN RSSI is JSON null; the verdict rides alongside.
  EXPECT_NE(json.find("{\"rssi_dbm\":null,\"healthy\":false}"), std::string::npos);
  EXPECT_NE(json.find("{\"rssi_dbm\":-52.5,\"healthy\":true}"), std::string::npos);
  EXPECT_NE(json.find("\"refinement\":{\"initial_threshold_db\":2"), std::string::npos);
  EXPECT_NE(json.find("\"final_threshold_db\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"survivors_per_step\":[24,9,4,2]"), std::string::npos);
  EXPECT_NE(json.find("\"clusters\":[{\"size\":2,\"weight\":0.75},"
                      "{\"size\":1,\"weight\":0.25}]"),
            std::string::npos);
  EXPECT_NE(json.find("\"stage_seconds\":{\"elimination\":0.001"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("NaN"), std::string::npos);
}

TEST(FlightRecorderJson, EscapesTagNames) {
  FixRecord rec = sample_record(0, 1);
  rec.name = "pallet \"7\"\nbay\\3";
  const std::string json = to_json(rec);
  EXPECT_NE(json.find(R"(pallet \"7\"\nbay\\3)"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(FlightRecorderJson, RecorderDocumentWrapsRecordsOldestFirst) {
  FlightRecorder recorder(2);
  recorder.record(sample_record(0, 1));
  recorder.record(sample_record(1, 2));
  recorder.record(sample_record(2, 3));
  const std::string json = to_json(recorder);
  EXPECT_EQ(json.rfind("{\"total_recorded\":3,\"capacity\":2,\"records\":[", 0), 0u);
  EXPECT_LT(json.find("\"sequence\":1"), json.find("\"sequence\":2"));
  EXPECT_EQ(json.find("\"sequence\":0,"), std::string::npos);
}

TEST(FlightRecorderText, ExplainsTheFixHumanReadably) {
  const std::string text = to_text(sample_record(11, 7));
  EXPECT_NE(text.find("fix #11  tag 7 (pallet)"), std::string::npos);
  EXPECT_NE(text.find("quality: degraded  decision: vire"), std::string::npos);
  EXPECT_NE(text.find("reader 0: -52.5 dBm  healthy"), std::string::npos);
  EXPECT_NE(text.find("reader 1: undetected  QUARANTINED"), std::string::npos);
  EXPECT_NE(text.find("threshold refinement: 2 dB -> 0.5 dB in 3 steps"),
            std::string::npos);
  EXPECT_NE(text.find("(survivors: 24 9 4 2)"), std::string::npos);
  EXPECT_NE(text.find("2 regions in 2 clusters"), std::string::npos);
  EXPECT_NE(text.find("cluster 0: 2 regions, weight 0.75"), std::string::npos);
}

TEST(FlightRecorderText, HoldFixShowsAge) {
  FixRecord rec = sample_record(3, 1);
  rec.quality = FixQuality::kHold;
  rec.decision = FixDecision::kHold;
  rec.age_s = 12.5;
  const std::string text = to_text(rec);
  EXPECT_NE(text.find("quality: hold  decision: hold  age 12.5 s"),
            std::string::npos);
}

TEST(FlightRecorderText, ReusedLocateIsMarked) {
  FixRecord rec = sample_record(4, 1);
  rec.locate_reused = true;
  EXPECT_NE(to_text(rec).find("quality: degraded  decision: vire  [locate reused]"),
            std::string::npos);
  // The JSON export has no field for it: its bytes are those of a locate
  // that ran.
  EXPECT_EQ(to_json(rec), to_json(sample_record(4, 1)));
}

class FlightDumpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vire_obs_flight_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(FlightDumpTest, WritesJsonDumpCreatingParents) {
  FlightRecorder recorder(4);
  recorder.record(sample_record(0, 1));
  const auto path = dir_ / "nested" / "flight.json";
  write_flight_dump(recorder, path);

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), to_json(recorder) + "\n");
}

TEST_F(FlightDumpTest, ThrowsOnUnwritablePath) {
  FlightRecorder recorder(4);
  EXPECT_THROW(write_flight_dump(recorder, dir_), std::runtime_error);
}

}  // namespace
}  // namespace vire::obs
