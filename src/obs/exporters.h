#pragma once
// Exporters for MetricsRegistry snapshots:
//  * Prometheus text exposition format (v0.0.4) — the string a /metrics
//    endpoint would serve; histograms expand to cumulative _bucket{le=...}
//    series plus _sum and _count;
//  * JSON snapshot — one self-describing document for offline analysis and
//    the bench trajectory tooling.
//
// Both operate on a point-in-time snapshot, so they can run concurrently
// with hot-path updates.

#include <filesystem>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace vire::obs {

/// Renders the whole registry in Prometheus text exposition format.
[[nodiscard]] std::string to_prometheus(const MetricsRegistry& registry);

/// Renders the whole registry as a JSON document:
/// {"counters":[...],"gauges":[...],"histograms":[...]}.
[[nodiscard]] std::string to_json(const MetricsRegistry& registry);

/// Same renderings over an explicit snapshot vector, for callers that merge
/// several registries into one export (e.g. the sharded service appending a
/// shard label to every per-shard series before concatenating). Families
/// with the same name need not be contiguous in `snaps`; the Prometheus
/// renderer groups them by first appearance.
[[nodiscard]] std::string to_prometheus(const std::vector<MetricSnapshot>& snaps);
[[nodiscard]] std::string to_json(const std::vector<MetricSnapshot>& snaps);

/// Writes to_json() to `path`, creating parent directories. Throws
/// std::runtime_error on I/O failure.
void write_json_snapshot(const MetricsRegistry& registry,
                         const std::filesystem::path& path);

/// Writes to_prometheus() to `path`, creating parent directories. Throws
/// std::runtime_error on I/O failure.
void write_prometheus_snapshot(const MetricsRegistry& registry,
                               const std::filesystem::path& path);

/// Shortest round-trip decimal formatting ("0.1", not "0.10000000000000001").
/// Non-finite values render as "NaN"/"+Inf"/"-Inf" (Prometheus spelling).
[[nodiscard]] std::string format_double(double v);

/// Escapes a raw string for use inside a Prometheus label value (text
/// exposition format): backslash, double quote and newline become \\, \"
/// and \n. Use when a label value comes from free-form input (tag names,
/// file paths) rather than a fixed enum.
[[nodiscard]] std::string escape_label_value(const std::string& value);

/// Formats one `name="value"` label pair with the value escaped.
[[nodiscard]] std::string label_pair(const std::string& name,
                                     const std::string& value);

/// One exposition document of a merge: Prometheus `text` plus the `label`
/// (a label_pair(), e.g. `process="shard-0"`) its series lines gain. An
/// empty label leaves the series as they are.
struct PrometheusPart {
  std::string text;
  std::string label;
};

/// Merges Prometheus text expositions into one document that declares each
/// family once. Each part is cut into header blocks (a run of # lines)
/// with the lines that follow them; blocks are grouped by the family their
/// # HELP / # TYPE header names, in order of first appearance. Each family
/// keeps the first header seen, followed by all of its lines in part order,
/// so histogram _bucket/_sum/_count lines stay with their family. Series
/// lines gain their part's label: `m 1` becomes `m{process="shard-0"} 1`,
/// `m{a="b"} 1` becomes `m{process="shard-0",a="b"} 1`; blank and
/// unparseable lines pass through untouched. A single part comes back
/// relabelled line for line, and the document ends with a newline exactly
/// when the last non-empty part does. Used by the supervisor to merge the
/// scrapes of shard processes that each export the same families.
[[nodiscard]] std::string merge_prometheus(
    const std::vector<PrometheusPart>& parts);

}  // namespace vire::obs
