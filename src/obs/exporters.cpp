#include "obs/exporters.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace vire::obs {

namespace {

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

/// "name" or "name{labels}" / "name{labels,extra}".
std::string series(const std::string& name, const std::string& labels,
                   const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return name;
  std::string out = name + "{";
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ",";
  out += extra;
  out += "}";
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// JSON has no NaN/Inf literals; encode non-finite values as null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return format_double(v);
}

}  // namespace

std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string label_pair(const std::string& name, const std::string& value) {
  return name + "=\"" + escape_label_value(value) + "\"";
}

std::string format_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

std::string to_prometheus(const MetricsRegistry& registry) {
  return to_prometheus(registry.snapshot());
}

std::string to_prometheus(const std::vector<MetricSnapshot>& snaps) {
  std::ostringstream out;
  // Prometheus requires all series of one family to be contiguous; emit in
  // first-registration order of each family name.
  std::unordered_set<std::string> done;
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    if (!done.insert(snaps[i].name).second) continue;
    bool typed = false;
    for (std::size_t j = i; j < snaps.size(); ++j) {
      const MetricSnapshot& m = snaps[j];
      if (m.name != snaps[i].name) continue;
      if (!typed) {
        if (!m.help.empty()) out << "# HELP " << m.name << ' ' << m.help << '\n';
        out << "# TYPE " << m.name << ' ' << kind_name(m.kind) << '\n';
        typed = true;
      }
      switch (m.kind) {
        case MetricKind::kCounter:
          out << series(m.name, m.labels) << ' ' << m.counter_value << '\n';
          break;
        case MetricKind::kGauge:
          out << series(m.name, m.labels) << ' ' << format_double(m.gauge_value)
              << '\n';
          break;
        case MetricKind::kHistogram: {
          std::uint64_t cumulative = 0;
          for (std::size_t b = 0; b < m.bucket_counts.size(); ++b) {
            cumulative += m.bucket_counts[b];
            const std::string le =
                b < m.bounds.size() ? format_double(m.bounds[b]) : "+Inf";
            out << series(m.name + "_bucket", m.labels, "le=\"" + le + "\"") << ' '
                << cumulative << '\n';
          }
          out << series(m.name + "_sum", m.labels) << ' ' << format_double(m.hist_sum)
              << '\n';
          out << series(m.name + "_count", m.labels) << ' ' << m.hist_count << '\n';
          break;
        }
      }
    }
  }
  return out.str();
}

std::string to_json(const MetricsRegistry& registry) {
  return to_json(registry.snapshot());
}

std::string to_json(const std::vector<MetricSnapshot>& snaps) {
  std::ostringstream counters, gauges, histograms;
  bool first_counter = true, first_gauge = true, first_histogram = true;
  for (const MetricSnapshot& m : snaps) {
    const std::string id = "\"name\":\"" + json_escape(m.name) + "\",\"labels\":\"" +
                           json_escape(m.labels) + "\"";
    switch (m.kind) {
      case MetricKind::kCounter:
        counters << (first_counter ? "" : ",") << "{" << id
                 << ",\"value\":" << m.counter_value << "}";
        first_counter = false;
        break;
      case MetricKind::kGauge:
        gauges << (first_gauge ? "" : ",") << "{" << id
               << ",\"value\":" << json_number(m.gauge_value) << "}";
        first_gauge = false;
        break;
      case MetricKind::kHistogram: {
        histograms << (first_histogram ? "" : ",") << "{" << id
                   << ",\"count\":" << m.hist_count
                   << ",\"sum\":" << json_number(m.hist_sum) << ",\"buckets\":[";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < m.bucket_counts.size(); ++b) {
          cumulative += m.bucket_counts[b];
          const std::string le =
              b < m.bounds.size() ? format_double(m.bounds[b]) : "+Inf";
          histograms << (b == 0 ? "" : ",") << "{\"le\":\"" << le
                     << "\",\"count\":" << cumulative << "}";
        }
        histograms << "]}";
        first_histogram = false;
        break;
      }
    }
  }
  std::ostringstream out;
  out << "{\"counters\":[" << counters.str() << "],\"gauges\":[" << gauges.str()
      << "],\"histograms\":[" << histograms.str() << "]}";
  return out.str();
}

namespace {

void write_text(const std::string& text, const std::filesystem::path& path,
                const char* what) {
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error(std::string(what) + ": cannot open " + path.string());
  }
  out << text << '\n';
}

}  // namespace

void write_json_snapshot(const MetricsRegistry& registry,
                         const std::filesystem::path& path) {
  write_text(to_json(registry), path, "write_json_snapshot");
}

void write_prometheus_snapshot(const MetricsRegistry& registry,
                               const std::filesystem::path& path) {
  write_text(to_prometheus(registry), path, "write_prometheus_snapshot");
}

namespace {

/// Appends `line`, with `label` spliced into its label set when it is a
/// series line (merge_prometheus).
void append_relabelled(std::string& out, std::string_view line,
                       const std::string& label) {
  const std::size_t space = line.find(' ');
  if (label.empty() || line.empty() || line.front() == '#' ||
      space == std::string_view::npos) {
    out.append(line);  // comment/blank/unparseable: pass through untouched
    return;
  }
  const std::size_t brace = line.find('{');
  if (brace != std::string_view::npos && brace < space) {
    out.append(line.substr(0, brace + 1));
    out.append(label);
    if (brace + 1 < line.size() && line[brace + 1] != '}') out.push_back(',');
    out.append(line.substr(brace + 1));
  } else {
    out.append(line.substr(0, space));
    out.push_back('{');
    out.append(label);
    out.push_back('}');
    out.append(line.substr(space));
  }
}

/// The family a `# HELP name ...` / `# TYPE name ...` line names; empty for
/// any other line.
std::string_view declared_family(std::string_view line) {
  for (const std::string_view prefix : {"# HELP ", "# TYPE "}) {
    if (line.substr(0, prefix.size()) == prefix) {
      const std::string_view rest = line.substr(prefix.size());
      return rest.substr(0, rest.find_first_of(" \n"));
    }
  }
  return {};
}

/// Position just past the line that starts at `pos`.
std::size_t line_end(std::string_view text, std::size_t pos) {
  const std::size_t eol = text.find('\n', pos);
  return eol == std::string_view::npos ? text.size() : eol + 1;
}

/// Calls fn(line) for every line of `text`, without its newline.
template <typename Fn>
void for_each_line(std::string_view text, Fn fn) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    fn(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
}

}  // namespace

std::string merge_prometheus(const std::vector<PrometheusPart>& parts) {
  // Views into the parts: the merge copies each line once, into `out`.
  struct Block {
    std::string_view lines;  ///< one part's lines after one header
    const std::string* label;
  };
  struct Family {
    std::string_view header;  ///< the first part's # lines
    std::vector<Block> blocks;
  };
  std::vector<Family> families;  // first-appearance order
  std::unordered_map<std::string_view, std::size_t> index;
  bool final_newline = true;
  for (const PrometheusPart& part : parts) {
    if (part.text.empty()) continue;
    final_newline = part.text.back() == '\n';
    const std::string_view text(part.text);
    std::size_t pos = 0;
    while (pos < text.size()) {
      const std::size_t header_start = pos;
      std::string_view key;
      for (; pos < text.size() && text[pos] == '#'; pos = line_end(text, pos)) {
        if (key.empty()) key = declared_family(text.substr(pos));
      }
      const std::string_view header =
          text.substr(header_start, pos - header_start);
      const std::size_t lines_start = pos;
      while (pos < text.size() && text[pos] != '#') pos = line_end(text, pos);
      // A header naming no family (or no header at all) groups by its text.
      const auto [it, added] =
          index.try_emplace(key.empty() ? header : key, families.size());
      if (added) families.push_back(Family{header, {}});
      families[it->second].blocks.push_back(
          {text.substr(lines_start, pos - lines_start), &part.label});
    }
  }
  std::string out;
  for (const Family& family : families) {
    out.append(family.header);  // only a part's last line lacks its newline
    if (!out.empty() && out.back() != '\n') out.push_back('\n');
    for (const Block& block : family.blocks) {
      for_each_line(block.lines, [&](std::string_view line) {
        append_relabelled(out, line, *block.label);
        out.push_back('\n');
      });
    }
  }
  if (!final_newline && !out.empty()) out.pop_back();
  return out;
}

}  // namespace vire::obs
