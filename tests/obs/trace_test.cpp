// Tracer unit tests: disabled-by-default inertness, ring overwrite
// semantics, stable thread ids, the Chrome trace-event JSON rendering
// (schema keys, metadata, escaping), and the TraceSpan RAII helper. The
// concurrency test doubles as the TSan target for the mutex-guarded ring.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

namespace vire::obs {
namespace {

TEST(Tracer, StartsDisabledAndRecordsNothing) {
  Tracer tracer(16);
  EXPECT_FALSE(tracer.enabled());
  tracer.complete("span", 0.0, 10.0);
  tracer.instant("marker");
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Tracer, RecordsCompleteAndInstantEventsWhenEnabled) {
  Tracer tracer(16);
  tracer.set_enabled(true);
  tracer.complete("stage", 5.0, 30.0, R"({"tag":3})");
  tracer.instant("fault", R"({"reader":2})", 'g');

  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "stage");
  EXPECT_EQ(events[0].ph, 'X');
  EXPECT_DOUBLE_EQ(events[0].ts_us, 5.0);
  EXPECT_DOUBLE_EQ(events[0].dur_us, 25.0);
  EXPECT_EQ(events[0].args, R"({"tag":3})");
  EXPECT_EQ(events[1].name, "fault");
  EXPECT_EQ(events[1].ph, 'i');
  EXPECT_EQ(events[1].scope, 'g');
  EXPECT_GE(events[1].ts_us, 0.0);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST(Tracer, NegativeDurationClampsToZero) {
  Tracer tracer(4);
  tracer.set_enabled(true);
  tracer.complete("backwards", 10.0, 5.0);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].dur_us, 0.0);
}

TEST(Tracer, RingOverwriteKeepsNewestOldestFirst) {
  Tracer tracer(3);
  tracer.set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    tracer.instant("e" + std::to_string(i));
  }
  EXPECT_EQ(tracer.recorded(), 5u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "e2");
  EXPECT_EQ(events[1].name, "e3");
  EXPECT_EQ(events[2].name, "e4");
}

TEST(Tracer, ZeroCapacityClampsToOne) {
  Tracer tracer(0);
  EXPECT_EQ(tracer.capacity(), 1u);
  tracer.set_enabled(true);
  tracer.instant("a");
  tracer.instant("b");
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "b");
}

TEST(Tracer, ClearDropsRetainedEvents) {
  Tracer tracer(8);
  tracer.set_enabled(true);
  tracer.instant("a");
  tracer.clear();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Tracer, CapacityIsKnownBeforeTheFirstEvent) {
  Tracer tracer(16);
  EXPECT_EQ(tracer.capacity(), 16u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Tracer, OrderHoldsAcrossSeveralWraparounds) {
  Tracer tracer(4);
  tracer.set_enabled(true);
  for (int i = 0; i < 11; ++i) tracer.instant("e" + std::to_string(i));
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.recorded(), 11u);
  EXPECT_EQ(tracer.dropped(), 7u);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].name, "e" + std::to_string(7 + i));
  }
  EXPECT_EQ(tracer.dump(2).events.front().name, "e9");
}

TEST(Tracer, ClearOnAPartlyFilledRingStartsOver) {
  Tracer tracer(8);
  tracer.set_enabled(true);
  for (int i = 0; i < 3; ++i) tracer.instant("old" + std::to_string(i));
  tracer.clear();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());

  tracer.instant("a");
  tracer.instant("b");
  auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");

  // The cleared ring fills and wraps exactly like a fresh one.
  for (int i = 0; i < 9; ++i) tracer.instant("n" + std::to_string(i));
  EXPECT_EQ(tracer.recorded(), 11u);
  EXPECT_EQ(tracer.dropped(), 3u);
  events = tracer.snapshot();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().name, "n1");
  EXPECT_EQ(events.back().name, "n8");
}

TEST(Tracer, ThreadIdsAreStablePerThreadAndDistinctAcrossThreads) {
  Tracer tracer(8);
  const std::uint32_t mine = tracer.thread_id();
  EXPECT_EQ(tracer.thread_id(), mine);
  std::uint32_t other = mine;
  std::thread([&] { other = tracer.thread_id(); }).join();
  EXPECT_NE(other, mine);
}

TEST(Tracer, NowIsMonotonic) {
  Tracer tracer;
  const double a = tracer.now_us();
  const double b = tracer.now_us();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(Tracer, ChromeJsonCarriesSchemaKeysAndMetadata) {
  Tracer tracer(8);
  tracer.set_enabled(true);
  tracer.set_thread_name("engine");
  tracer.complete("engine.update", 1.0, 2.5, R"({"tags":3})");
  tracer.instant("engine.quality_transition", {}, 'g');

  const std::string json = tracer.to_chrome_json();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"process_name\",\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"engine\"}"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"engine.update\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find(",\"ts\":1.000,\"dur\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"tags\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"g\""), std::string::npos);
  // Every event — metadata included — carries ph/ts/tid, so consumers can
  // assert a uniform schema: process_name + thread_name + 2 events = 4.
  const auto occurrences = [&json](const char* needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences("\"ph\":"), 4u);
  EXPECT_EQ(occurrences("\"ts\":"), 4u);
  EXPECT_EQ(occurrences("\"tid\":"), 4u);
}

TEST(Tracer, ChromeJsonEscapesNamesAndThreadNames) {
  Tracer tracer(8);
  tracer.set_enabled(true);
  tracer.set_thread_name("line1\nline2");
  tracer.instant("quote\"back\\slash");
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find(R"(quote\"back\\slash)"), std::string::npos);
  EXPECT_NE(json.find(R"(line1\nline2)"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(Tracer, SetThreadNameOverwritesPreviousName) {
  Tracer tracer(8);
  tracer.set_thread_name("first");
  tracer.set_thread_name("second");
  const std::string json = tracer.to_chrome_json();
  EXPECT_EQ(json.find("\"name\":\"first\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"second\"}"), std::string::npos);
}

TEST(Tracer, ConcurrentEmittersLoseNothingBelowCapacity) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 256;
  Tracer tracer(kThreads * kPerThread);
  tracer.set_enabled(true);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const double start = tracer.now_us();
        tracer.complete("w" + std::to_string(t), start, tracer.now_us());
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(tracer.recorded(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.snapshot().size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(TraceSpan, NullTracerAndDisabledTracerAreInert) {
  { TraceSpan span(nullptr, "noop"); }
  Tracer tracer(8);
  { TraceSpan span(&tracer, "disabled"); }
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(TraceSpan, RecordsOneCompleteEventOnDestruction) {
  Tracer tracer(8);
  tracer.set_enabled(true);
  {
    TraceSpan span(&tracer, "scoped", R"({"k":1})");
    EXPECT_EQ(tracer.recorded(), 0u);  // not yet — records on destruction
  }
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "scoped");
  EXPECT_EQ(events[0].ph, 'X');
  EXPECT_EQ(events[0].args, R"({"k":1})");
  EXPECT_GE(events[0].dur_us, 0.0);
}

TEST(TraceSpan, DisableMidSpanDropsTheEvent) {
  // complete() rechecks enabled() at destruction, so flipping the tracer off
  // mid-span suppresses the event instead of recording a half-configured one.
  Tracer tracer(8);
  tracer.set_enabled(true);
  {
    TraceSpan span(&tracer, "latched");
    tracer.set_enabled(false);
  }
  EXPECT_EQ(tracer.recorded(), 0u);  // complete() checks enabled() again
  tracer.set_enabled(true);
  {
    TraceSpan span(&tracer, "live");
  }
  EXPECT_EQ(tracer.recorded(), 1u);
}

TEST(Tracer, DumpTrimsToNewestAndStampsNowLast) {
  Tracer tracer(16);
  tracer.set_enabled(true);
  tracer.set_thread_name("worker");
  for (int i = 0; i < 6; ++i) tracer.instant("e" + std::to_string(i));

  const TraceDump all = tracer.dump();
  EXPECT_EQ(all.events.size(), 6u);
  ASSERT_EQ(all.thread_names.size(), 1u);
  EXPECT_EQ(all.thread_names[0].second, "worker");

  const TraceDump trimmed = tracer.dump(2);
  ASSERT_EQ(trimmed.events.size(), 2u);
  EXPECT_EQ(trimmed.events[0].name, "e4");
  EXPECT_EQ(trimmed.events[1].name, "e5");
  // now_us is stamped after the snapshot: every exported timestamp is <= it,
  // which offset-rebasing consumers rely on.
  for (const TraceEvent& e : trimmed.events) EXPECT_LE(e.ts_us, trimmed.now_us);
}

TEST(Tracer, ClockSkewShiftsSpansAndReportedClockTogether) {
  Tracer tracer(8);
  tracer.set_enabled(true);
  const double before = tracer.now_us();
  tracer.set_clock_skew_us(5e6);
  const double skewed = tracer.now_us();
  EXPECT_GE(skewed - before, 5e6 - 1e3);
  tracer.instant("after_skew");
  const TraceDump dump = tracer.dump();
  ASSERT_EQ(dump.events.size(), 1u);
  // The skew lands on recorded timestamps AND on dump.now_us, so a rebase
  // that cancels the reported clock also cancels the event timestamps.
  EXPECT_GE(dump.events[0].ts_us, 5e6 - 1e3);
  EXPECT_LE(dump.events[0].ts_us, dump.now_us);
}

TEST(Rebase, SubtractsOffsetFromEventsAndClock) {
  TraceDump dump;
  dump.now_us = 1000.0;
  TraceEvent e;
  e.name = "x";
  e.ts_us = 400.0;
  dump.events.push_back(e);
  rebase(dump, 150.0);
  EXPECT_DOUBLE_EQ(dump.events[0].ts_us, 250.0);
  EXPECT_DOUBLE_EQ(dump.now_us, 850.0);
}

TEST(ClockOffsetEstimator, FirstSampleInitializesThenEwmaSmooths) {
  ClockOffsetEstimator est(0.25);
  EXPECT_FALSE(est.valid());
  EXPECT_DOUBLE_EQ(est.offset_us(), 0.0);

  // Midpoint rule: peer read its clock halfway through [t0, t1].
  est.observe(100.0, 120.0, 5000.0);
  EXPECT_TRUE(est.valid());
  EXPECT_EQ(est.samples(), 1u);
  EXPECT_DOUBLE_EQ(est.offset_us(), 5000.0 - 110.0);
  EXPECT_DOUBLE_EQ(est.last_rtt_us(), 20.0);

  est.observe(200.0, 220.0, 5310.0);  // sample = 5100
  EXPECT_DOUBLE_EQ(est.offset_us(), 0.75 * 4890.0 + 0.25 * 5100.0);
  EXPECT_EQ(est.samples(), 2u);

  est.reset();
  EXPECT_FALSE(est.valid());
  EXPECT_DOUBLE_EQ(est.offset_us(), 0.0);
  EXPECT_EQ(est.samples(), 0u);
}

TEST(ClockOffsetEstimator, CancelsInjectedSkewWithinHalfRtt) {
  // A local "supervisor" tracer and a "shard" tracer skewed by seconds: the
  // estimator's offset must land rebased shard spans inside the supervisor's
  // observation envelope, the fleet-merge invariant the chaos drill asserts
  // across real processes.
  Tracer supervisor(16);
  Tracer shard(16);
  supervisor.set_enabled(true);
  shard.set_enabled(true);
  shard.set_clock_skew_us(-7e6);  // negative skew: shard clock runs behind

  ClockOffsetEstimator est;
  for (int i = 0; i < 3; ++i) {
    const double t0 = supervisor.now_us();
    const double peer = shard.now_us();
    const double t1 = supervisor.now_us();
    est.observe(t0, t1, peer);
  }
  ASSERT_TRUE(est.valid());

  const double envelope_start = supervisor.now_us();
  const double span_start = shard.now_us();
  shard.complete("shard.work", span_start, shard.now_us());
  const double envelope_end = supervisor.now_us();

  TraceDump dump = shard.dump();
  rebase(dump, est.offset_us());
  ASSERT_EQ(dump.events.size(), 1u);
  const double rtt = est.last_rtt_us();
  EXPECT_GE(dump.events[0].ts_us, envelope_start - rtt);
  EXPECT_LE(dump.events[0].ts_us + dump.events[0].dur_us, envelope_end + rtt);
}

TEST(FleetChromeJson, TagsEventsWithOwningProcessMetadata) {
  Tracer a(8);
  Tracer b(8);
  a.set_enabled(true);
  b.set_enabled(true);
  a.set_thread_name("supervisor-loop");
  a.complete("supervisor.batch_e2e", 10.0, 20.0, R"({"shard":0})");
  b.instant("engine.update_marker");

  std::vector<FleetProcess> processes;
  processes.push_back(FleetProcess{1, "vire-supervisord", a.dump()});
  processes.push_back(FleetProcess{2, "vire-shardd-0", b.dump()});
  const std::string json = fleet_chrome_json(processes);

  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                      "\"tid\":0,\"ts\":0,\"args\":{\"name\":\"vire-"
                      "supervisord\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2"),
            std::string::npos);
  // Thread names keep their owning pid, and events carry their process's pid.
  EXPECT_NE(json.find("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"supervisor.batch_e2e\",\"ph\":\"X\","
                      "\"pid\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"engine.update_marker\",\"ph\":\"i\","
                      "\"pid\":2"),
            std::string::npos);
}

class TraceFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vire_obs_trace_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(TraceFileTest, WriteChromeJsonCreatesParentDirectories) {
  Tracer tracer(8);
  tracer.set_enabled(true);
  tracer.instant("marker");
  const auto path = dir_ / "nested" / "trace.json";
  tracer.write_chrome_json(path);

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), tracer.to_chrome_json() + "\n");
}

TEST_F(TraceFileTest, WriteChromeJsonThrowsOnUnwritablePath) {
  Tracer tracer(8);
  EXPECT_THROW(tracer.write_chrome_json(dir_), std::runtime_error);
}

}  // namespace
}  // namespace vire::obs
