#pragma once
// Machine-readable perf-bench output. Every perf bench writes one
// bench_out/BENCH_<name>.json per run so the throughput trajectory of the
// repo accumulates across commits (schema: name, config, wall_ms,
// throughput, git_rev — plus free-form extra sections).

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace vire::obs {

struct BenchReport {
  std::string name;  ///< bench identifier; file is BENCH_<name>.json
  std::string git_rev = "unknown";
  /// Bench configuration (key, already-formatted value) — emitted as strings.
  std::vector<std::pair<std::string, std::string>> config;
  double wall_ms = 0.0;     ///< total measured wall time of the bench
  double throughput = 0.0;  ///< headline rate in `throughput_unit`
  std::string throughput_unit = "items_per_sec";
  /// Optional named sub-results, e.g. one throughput per shard count.
  std::vector<std::pair<std::string, double>> results;
};

/// Serialises the report to JSON (stable key order, round-trip doubles).
[[nodiscard]] std::string to_json(const BenchReport& report);

/// Writes `<dir>/BENCH_<name>.json`, creating the directory; returns the
/// path written. Throws std::runtime_error on I/O failure.
std::filesystem::path write_bench_report(const BenchReport& report,
                                         const std::filesystem::path& dir = "bench_out");

}  // namespace vire::obs
