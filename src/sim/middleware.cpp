#include "sim/middleware.h"

#include <algorithm>

namespace vire::sim {

namespace {
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
}

Middleware::Middleware(int reader_count, MiddlewareConfig config)
    : reader_count_(reader_count), config_(config) {}

void Middleware::attach_metrics(obs::MetricsRegistry& registry) {
  readings_ingested_ =
      &registry.counter("vire_middleware_readings_ingested_total", {},
                        "RSSI readings accepted into the sliding window");
  samples_evicted_ =
      &registry.counter("vire_middleware_samples_evicted_total", {},
                        "Buffered samples dropped after ageing out of the window");
  rejected_non_finite_ =
      &registry.counter("vire_middleware_readings_rejected_total",
                        "reason=\"non_finite\"",
                        "Readings rejected at ingest, by reason");
  rejected_reader_range_ =
      &registry.counter("vire_middleware_readings_rejected_total",
                        "reason=\"reader_out_of_range\"",
                        "Readings rejected at ingest, by reason");
  duplicates_metric_ = &registry.counter(
      "vire_middleware_duplicates_total", {},
      "Readings that replaced a buffered sample with the same "
      "(tag, reader, time) — last-write-wins duplicate policy");
  nan_links_served_ =
      &registry.counter("vire_middleware_nan_links_served_total", {},
                        "link_rssi() queries answered with NaN (undetected link)");
}

void Middleware::ingest(const RssiReading& reading) {
  if (!std::isfinite(reading.time) || !std::isfinite(reading.rssi_dbm)) {
    ++rejected_;
    if (rejected_non_finite_ != nullptr) rejected_non_finite_->inc();
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->instant("middleware.reject",
                       "{\"reason\":\"non_finite\",\"tag\":" +
                           std::to_string(reading.tag) + "}");
    }
    return;
  }
  if (static_cast<int>(reading.reader) >= reader_count_) {
    ++rejected_;
    if (rejected_reader_range_ != nullptr) rejected_reader_range_->inc();
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->instant("middleware.reject",
                       "{\"reason\":\"reader_out_of_range\",\"tag\":" +
                           std::to_string(reading.tag) + ",\"reader\":" +
                           std::to_string(reading.reader) + "}");
    }
    return;
  }
  auto& samples = links_[{reading.tag, reading.reader}];
  // Last-write-wins duplicate policy: an identical (tag, reader, time)
  // observation replaces the buffered sample in place, keeping at-least-once
  // delivery and crash-recovery replay idempotent. Per-link times are
  // non-decreasing except for delayed redeliveries, so the reverse scan
  // usually stops at the first comparison.
  bool replaced = false;
  for (auto it = samples.rbegin(); it != samples.rend() && it->time >= reading.time;
       ++it) {
    if (it->time == reading.time) {
      it->rssi_dbm = reading.rssi_dbm;
      replaced = true;
      break;
    }
  }
  if (!replaced) samples.push_back({reading.time, reading.rssi_dbm});
  if (replaced) {
    ++duplicates_;
    if (duplicates_metric_ != nullptr) duplicates_metric_->inc();
  }
  if (readings_ingested_ != nullptr) readings_ingested_->inc();
  if (journal_ != nullptr) journal_->on_accepted(reading);
  // Opportunistic per-link eviction keeps windows short without a global
  // scan. Same strict half-open window rule as evict_stale().
  evict_front(samples, reading.time - config_.window_s);
}

void Middleware::evict_front(Window& samples, SimTime cutoff) {
  const auto keep = std::find_if(samples.begin(), samples.end(),
                                 [cutoff](const Sample& s) { return s.time > cutoff; });
  const auto evicted = static_cast<std::uint64_t>(keep - samples.begin());
  if (evicted == 0) return;
  samples.erase(samples.begin(), keep);
  if (samples_evicted_ != nullptr) samples_evicted_->inc(evicted);
}

void Middleware::evict_stale(SimTime now) {
  obs::TraceSpan span(tracer_, "middleware.evict_stale");
  if (journal_ != nullptr) journal_->on_evict(now);
  // Window is (now - window_s, now]: strict `<=` so a sample exactly
  // window_s old is evicted, never served.
  const SimTime cutoff = now - config_.window_s;
  for (auto it = links_.begin(); it != links_.end();) {
    auto& samples = it->second;
    evict_front(samples, cutoff);
    if (samples.empty()) {
      it = links_.erase(it);
    } else {
      ++it;
    }
  }
}

double Middleware::aggregate(const Window& samples) const {
  if (samples.size() < config_.min_samples || samples.empty()) return kNan;
  std::vector<double> values;
  values.reserve(samples.size());
  for (const auto& s : samples) values.push_back(s.rssi_dbm);
  switch (config_.aggregation) {
    case Aggregation::kMean: {
      double sum = 0.0;
      for (double v : values) sum += v;
      return sum / static_cast<double>(values.size());
    }
    case Aggregation::kMedian: {
      const auto mid = values.size() / 2;
      std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                       values.end());
      if (values.size() % 2 == 1) return values[mid];
      const double upper = values[mid];
      const double lower =
          *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
      return 0.5 * (lower + upper);
    }
    case Aggregation::kTrimmedMean: {
      std::sort(values.begin(), values.end());
      const auto trim = values.size() / 5;  // 20% per side
      if (values.size() <= 2 * trim) {
        double sum = 0.0;
        for (double v : values) sum += v;
        return sum / static_cast<double>(values.size());
      }
      double sum = 0.0;
      std::size_t count = 0;
      for (std::size_t i = trim; i < values.size() - trim; ++i) {
        sum += values[i];
        ++count;
      }
      return sum / static_cast<double>(count);
    }
  }
  return kNan;
}

double Middleware::link_rssi(TagId tag, ReaderId reader) const {
  const auto it = links_.find({tag, reader});
  const double rssi = it == links_.end() ? kNan : aggregate(it->second);
  if (std::isnan(rssi) && nan_links_served_ != nullptr) nan_links_served_->inc();
  return rssi;
}

RssiVector Middleware::rssi_vector(TagId tag) const {
  RssiVector out(static_cast<std::size_t>(reader_count_), kNan);
  for (int k = 0; k < reader_count_; ++k) {
    out[static_cast<std::size_t>(k)] = link_rssi(tag, static_cast<ReaderId>(k));
  }
  return out;
}

std::vector<TagId> Middleware::known_tags() const {
  std::vector<TagId> tags;
  for (const auto& [key, samples] : links_) {
    if (tags.empty() || tags.back() != key.first) tags.push_back(key.first);
  }
  return tags;
}

std::size_t Middleware::sample_count(TagId tag, ReaderId reader) const {
  const auto it = links_.find({tag, reader});
  return it == links_.end() ? 0 : it->second.size();
}

void Middleware::clear() { links_.clear(); }

Middleware::Snapshot Middleware::snapshot() const {
  Snapshot snap;
  snap.links.reserve(links_.size());
  for (const auto& [key, samples] : links_) {
    Snapshot::Link link;
    link.tag = key.first;
    link.reader = key.second;
    link.samples.assign(samples.begin(), samples.end());
    snap.links.push_back(std::move(link));
  }
  return snap;
}

void Middleware::restore(const Snapshot& snap) {
  links_.clear();
  for (const Snapshot::Link& link : snap.links) {
    auto& samples = links_[{link.tag, link.reader}];
    samples.assign(link.samples.begin(), link.samples.end());
  }
}


}  // namespace vire::sim
