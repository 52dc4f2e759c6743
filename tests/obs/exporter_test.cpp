// Exporter golden-output tests: the Prometheus text exposition and JSON
// snapshot of a small registry with hand-set values are locked byte for
// byte, so a formatting regression (bucket cumulation, label merging, le
// spelling, number round-tripping) fails loudly.

#include "obs/exporters.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <unistd.h>

#include "eval/report.h"
#include "obs/bench_report.h"

namespace vire::obs {
namespace {

/// Small deterministic registry shared by the golden tests.
void populate(MetricsRegistry& registry) {
  Counter& requests = registry.counter("demo_requests_total", "code=\"200\"",
                                       "Requests served");
  requests.inc(3);
  registry.counter("demo_requests_total", "code=\"500\"").inc();
  Gauge& depth = registry.gauge("demo_queue_depth", "", "Queue depth");
  depth.set(2.5);
  Histogram& latency =
      registry.histogram("demo_latency_seconds", {0.25, 1.0}, "", "Latency");
  // Exactly-representable values: the golden sum has no rounding wiggle.
  latency.observe(0.125);
  latency.observe(0.25);
  latency.observe(0.5);
  latency.observe(2.0);
}

TEST(PrometheusExporter, GoldenOutput) {
  MetricsRegistry registry;
  populate(registry);
  const std::string expected =
      "# HELP demo_requests_total Requests served\n"
      "# TYPE demo_requests_total counter\n"
      "demo_requests_total{code=\"200\"} 3\n"
      "demo_requests_total{code=\"500\"} 1\n"
      "# HELP demo_queue_depth Queue depth\n"
      "# TYPE demo_queue_depth gauge\n"
      "demo_queue_depth 2.5\n"
      "# HELP demo_latency_seconds Latency\n"
      "# TYPE demo_latency_seconds histogram\n"
      "demo_latency_seconds_bucket{le=\"0.25\"} 2\n"
      "demo_latency_seconds_bucket{le=\"1\"} 3\n"
      "demo_latency_seconds_bucket{le=\"+Inf\"} 4\n"
      "demo_latency_seconds_sum 2.875\n"
      "demo_latency_seconds_count 4\n";
  EXPECT_EQ(to_prometheus(registry), expected);
}

TEST(JsonExporter, GoldenOutput) {
  MetricsRegistry registry;
  populate(registry);
  const std::string expected =
      "{\"counters\":["
      "{\"name\":\"demo_requests_total\",\"labels\":\"code=\\\"200\\\"\",\"value\":3},"
      "{\"name\":\"demo_requests_total\",\"labels\":\"code=\\\"500\\\"\",\"value\":1}"
      "],\"gauges\":["
      "{\"name\":\"demo_queue_depth\",\"labels\":\"\",\"value\":2.5}"
      "],\"histograms\":["
      "{\"name\":\"demo_latency_seconds\",\"labels\":\"\",\"count\":4,\"sum\":2.875,"
      "\"buckets\":[{\"le\":\"0.25\",\"count\":2},{\"le\":\"1\",\"count\":3},"
      "{\"le\":\"+Inf\",\"count\":4}]}"
      "]}";
  EXPECT_EQ(to_json(registry), expected);
}

TEST(Exporters, FormatDoubleRoundTrips) {
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(2.5), "2.5");
  // Shortest round-trip form; scientific is valid in both export formats.
  EXPECT_EQ(format_double(1e-4), "1e-04");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "+Inf");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()), "-Inf");
  EXPECT_EQ(format_double(std::nan("")), "NaN");
}

TEST(Exporters, EscapeLabelValueHandlesPrometheusSpecials) {
  // Text exposition format: backslash, double quote and newline are the
  // three characters that must be escaped inside a label value.
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value(R"(back\slash)"), R"(back\\slash)");
  EXPECT_EQ(escape_label_value(R"(say "hi")"), R"(say \"hi\")");
  EXPECT_EQ(escape_label_value("line1\nline2"), R"(line1\nline2)");
  EXPECT_EQ(escape_label_value("a\\\"b\nc"), R"(a\\\"b\nc)");
  EXPECT_EQ(escape_label_value(""), "");
}

TEST(Exporters, LabelPairFormatsAndEscapes) {
  EXPECT_EQ(label_pair("tag", "pallet-7"), "tag=\"pallet-7\"");
  EXPECT_EQ(label_pair("path", R"(C:\tmp)"), R"(path="C:\\tmp")");
  EXPECT_EQ(label_pair("name", "a\"b\nc"), R"(name="a\"b\nc")");
}

TEST(PrometheusExporter, EscapedLabelValuesSurviveExport) {
  MetricsRegistry registry;
  registry
      .counter("demo_files_total",
               label_pair("path", "dir\\file \"x\"\ny"), "Files seen")
      .inc();
  const std::string out = to_prometheus(registry);
  EXPECT_NE(out.find("demo_files_total{path=\"dir\\\\file \\\"x\\\"\\ny\"} 1"),
            std::string::npos)
      << out;
  // The physical newline never leaks into the series line.
  EXPECT_EQ(out.find("\ny\"}"), std::string::npos);
}

TEST(PrometheusExporter, ObservationsPastTheLastBoundLandInInfBucket) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("demo_big_seconds", {1.0}, "", "Big");
  h.observe(100.0);
  h.observe(1000.0);
  const std::string out = to_prometheus(registry);
  // The +Inf bucket is cumulative (== _count) even when every finite bucket
  // is empty, and the le spelling is exactly "+Inf".
  EXPECT_NE(out.find("demo_big_seconds_bucket{le=\"1\"} 0"), std::string::npos);
  EXPECT_NE(out.find("demo_big_seconds_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(out.find("demo_big_seconds_count 2"), std::string::npos);
}

TEST(Exporters, EmptyRegistryExportsEmptyDocuments) {
  MetricsRegistry registry;
  EXPECT_EQ(to_prometheus(registry), "");
  EXPECT_EQ(to_json(registry),
            "{\"counters\":[],\"gauges\":[],\"histograms\":[]}");
}

class ExporterFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vire_obs_exporter_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(ExporterFileTest, WritesSnapshotsToDisk) {
  MetricsRegistry registry;
  populate(registry);
  const auto json_path = dir_ / "nested" / "metrics.json";
  const auto prom_path = dir_ / "nested" / "metrics.prom";
  write_json_snapshot(registry, json_path);
  write_prometheus_snapshot(registry, prom_path);

  std::ifstream json_in(json_path);
  std::stringstream json_text;
  json_text << json_in.rdbuf();
  EXPECT_EQ(json_text.str(), to_json(registry) + "\n");

  std::ifstream prom_in(prom_path);
  std::stringstream prom_text;
  prom_text << prom_in.rdbuf();
  EXPECT_NE(prom_text.str().find("demo_requests_total{code=\"200\"} 3"),
            std::string::npos);
}

TEST_F(ExporterFileTest, BenchReportGoldenJson) {
  BenchReport report;
  report.name = "unit";
  report.git_rev = "abc1234";
  report.config = {{"tags", "64"}, {"rounds", "30"}};
  report.wall_ms = 125.5;
  report.throughput = 2048.0;
  report.throughput_unit = "tags_per_sec";
  report.results = {{"workers_1", 1024.0}, {"workers_4", 2048.0}};
  const std::string expected =
      "{\n"
      "  \"name\": \"unit\",\n"
      "  \"git_rev\": \"abc1234\",\n"
      "  \"config\": {\"tags\": \"64\", \"rounds\": \"30\"},\n"
      "  \"wall_ms\": 125.5,\n"
      "  \"throughput\": 2048,\n"
      "  \"throughput_unit\": \"tags_per_sec\",\n"
      "  \"results\": {\"workers_1\": 1024, \"workers_4\": 2048}\n"
      "}";
  EXPECT_EQ(to_json(report), expected);

  const auto path = write_bench_report(report, dir_);
  EXPECT_EQ(path.filename(), "BENCH_unit.json");
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), expected + "\n");
}

TEST(PrometheusExporter, RelabelInjectsLabelIntoEverySeries) {
  const std::string text =
      "# HELP demo_requests_total Requests served\n"
      "# TYPE demo_requests_total counter\n"
      "demo_requests_total{code=\"200\"} 3\n"
      "demo_bare_total 7\n"
      "demo_empty_braces_total{} 1\n"
      "\n"
      "not a metric line\n";
  const std::string out =
      merge_prometheus({{text, label_pair("process", "shard-0")}});
  // Labelled series: the new pair joins the existing set.
  EXPECT_NE(out.find("demo_requests_total{process=\"shard-0\",code=\"200\"} 3"),
            std::string::npos)
      << out;
  // Bare series: a brace set is created.
  EXPECT_NE(out.find("demo_bare_total{process=\"shard-0\"} 7"),
            std::string::npos)
      << out;
  // Empty brace set: no trailing comma.
  EXPECT_NE(out.find("demo_empty_braces_total{process=\"shard-0\"} 1"),
            std::string::npos)
      << out;
  // Comments, blanks and unparseable lines pass through untouched.
  EXPECT_NE(out.find("# HELP demo_requests_total Requests served\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE demo_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("\n\n"), std::string::npos);
  // "not a metric line" has spaces, so the first token gains the label set —
  // lock the exact behavior either way by checking it is still present.
  EXPECT_NE(out.find("not"), std::string::npos);
  // One part comes back line for line, in its own order.
  EXPECT_EQ(out,
            "# HELP demo_requests_total Requests served\n"
            "# TYPE demo_requests_total counter\n"
            "demo_requests_total{process=\"shard-0\",code=\"200\"} 3\n"
            "demo_bare_total{process=\"shard-0\"} 7\n"
            "demo_empty_braces_total{process=\"shard-0\"} 1\n"
            "\n"
            "not{process=\"shard-0\"} a metric line\n");
  // Idempotence of shape: relabelling exporter output still scrapes clean
  // (every series line keeps exactly one '{' and one '}').
  MetricsRegistry registry;
  registry.counter("demo_merge_total", label_pair("shard", "1")).inc(2);
  const std::string merged = merge_prometheus(
      {{to_prometheus(registry), label_pair("process", "shard-1")}});
  EXPECT_NE(
      merged.find("demo_merge_total{process=\"shard-1\",shard=\"1\"} 2"),
      std::string::npos)
      << merged;
}

TEST(PrometheusExporter, RelabelPreservesEscapedLabelValues) {
  // Existing label values may contain escaped quotes and backslashes (the
  // exporter's own escaping); injection must splice BEFORE them without
  // re-escaping or truncating at the inner quote.
  const std::string text =
      "demo_path_total{path=\"say \\\"hi\\\"\"} 1\n"
      "demo_dir_total{dir=\"C:\\\\tmp\\\\\"} 2\n";
  const std::string out =
      merge_prometheus({{text, label_pair("process", "s0")}});
  EXPECT_NE(out.find("demo_path_total{process=\"s0\",path=\"say \\\"hi\\\"\"} 1"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("demo_dir_total{process=\"s0\",dir=\"C:\\\\tmp\\\\\"} 2"),
            std::string::npos)
      << out;
}

TEST(PrometheusExporter, RelabelEscapesInjectedValueViaLabelPair) {
  // label_pair escapes the injected value, so a hostile process name cannot
  // break the series syntax.
  const std::string out = merge_prometheus(
      {{"demo_total 1\n", label_pair("process", "sh\"ard\\0")}});
  EXPECT_NE(out.find("demo_total{process=\"sh\\\"ard\\\\0\"} 1"),
            std::string::npos)
      << out;
}

TEST(PrometheusExporter, RelabelPrependsToExistingProcessLabel) {
  // A series that already carries a process label (e.g. a shard scraped
  // through two supervisors) gains the outer pair FIRST — last-writer-wins
  // dedup is the scraper's problem; relabel must not drop either.
  const std::string out = merge_prometheus(
      {{"demo_total{process=\"inner\"} 4\n", label_pair("process", "outer")}});
  EXPECT_NE(
      out.find("demo_total{process=\"outer\",process=\"inner\"} 4"),
      std::string::npos)
      << out;
}

TEST(PrometheusExporter, RelabelPassthroughAndFinalLineWithoutNewline) {
  // HELP/TYPE/blank lines pass through byte-identical; empty input stays
  // empty; a final line without a trailing newline is still relabelled and
  // gains no newline.
  EXPECT_EQ(merge_prometheus({{"", label_pair("p", "x")}}), "");
  EXPECT_EQ(merge_prometheus(
                {{"# HELP a b\n# TYPE a counter\n\n", label_pair("p", "x")}}),
            "# HELP a b\n# TYPE a counter\n\n");
  EXPECT_EQ(merge_prometheus({{"demo_total 9", label_pair("p", "x")}}),
            "demo_total{p=\"x\"} 9");
}

TEST(PrometheusExporter, MergeDeclaresEachFamilyOnceWithSamplesInPartOrder) {
  // Two shard scrapes of the same families: each # HELP / # TYPE appears
  // once, every sample of a family follows it (histogram _bucket/_sum/_count
  // lines stay with their family), parts in order; a family only the second
  // part has comes last.
  const std::string shard =
      "# HELP demo_total Requests\n"
      "# TYPE demo_total counter\n"
      "demo_total{code=\"200\"} N\n"
      "# TYPE demo_seconds histogram\n"
      "demo_seconds_bucket{le=\"1\"} N\n"
      "demo_seconds_bucket{le=\"+Inf\"} N\n"
      "demo_seconds_sum N\n"
      "demo_seconds_count N\n";
  const auto with = [](std::string text, char value) {
    for (char& c : text) {
      if (c == 'N') c = value;
    }
    return text;
  };
  const std::string merged = merge_prometheus(
      {{with(shard, '1'), label_pair("process", "shard-0")},
       {with(shard, '2') + "# TYPE demo_extra gauge\ndemo_extra 5\n",
        label_pair("process", "shard-1")}});
  EXPECT_EQ(merged,
            "# HELP demo_total Requests\n"
            "# TYPE demo_total counter\n"
            "demo_total{process=\"shard-0\",code=\"200\"} 1\n"
            "demo_total{process=\"shard-1\",code=\"200\"} 2\n"
            "# TYPE demo_seconds histogram\n"
            "demo_seconds_bucket{process=\"shard-0\",le=\"1\"} 1\n"
            "demo_seconds_bucket{process=\"shard-0\",le=\"+Inf\"} 1\n"
            "demo_seconds_sum{process=\"shard-0\"} 1\n"
            "demo_seconds_count{process=\"shard-0\"} 1\n"
            "demo_seconds_bucket{process=\"shard-1\",le=\"1\"} 2\n"
            "demo_seconds_bucket{process=\"shard-1\",le=\"+Inf\"} 2\n"
            "demo_seconds_sum{process=\"shard-1\"} 2\n"
            "demo_seconds_count{process=\"shard-1\"} 2\n"
            "# TYPE demo_extra gauge\n"
            "demo_extra{process=\"shard-1\"} 5\n");
}

TEST(RenderMetrics, TabulatesAllKinds) {
  MetricsRegistry registry;
  populate(registry);
  const std::string table = eval::render_metrics(registry);
  EXPECT_NE(table.find("demo_requests_total{code=\"200\"}"), std::string::npos);
  EXPECT_NE(table.find("demo_queue_depth"), std::string::npos);
  EXPECT_NE(table.find("demo_latency_seconds"), std::string::npos);
  EXPECT_NE(table.find("0.71875"), std::string::npos);  // histogram mean 2.875/4
}

}  // namespace
}  // namespace vire::obs
