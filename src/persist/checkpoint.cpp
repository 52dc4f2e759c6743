#include "persist/checkpoint.h"

#include <algorithm>
#include <cstdio>

#include "persist/binary_io.h"
#include "support/log.h"

namespace vire::persist {

namespace {

constexpr std::string_view kMagic = "VCKP";

// ---- config fingerprint -----------------------------------------------

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::string_view data) noexcept {
  std::uint64_t hash = kFnvOffset;
  for (const char ch : data) {
    hash ^= static_cast<std::uint8_t>(ch);
    hash *= kFnvPrime;
  }
  return hash;
}

// ---- engine/middleware state encoding ---------------------------------

void write_vec2(ByteWriter& w, const geom::Vec2& v) {
  w.f64(v.x);
  w.f64(v.y);
}

std::optional<geom::Vec2> read_vec2(ByteReader& r) {
  const auto x = r.f64();
  const auto y = r.f64();
  if (!x || !y) return std::nullopt;
  return geom::Vec2{*x, *y};
}

void write_rssi_rows(ByteWriter& w, const std::vector<sim::RssiVector>& rows) {
  w.u32(static_cast<std::uint32_t>(rows.size()));
  for (const sim::RssiVector& row : rows) {
    w.u32(static_cast<std::uint32_t>(row.size()));
    for (const double v : row) w.f64(v);
  }
}

bool read_rssi_rows(ByteReader& r, std::vector<sim::RssiVector>& rows) {
  const auto count = r.u32();
  if (!count) return false;
  rows.clear();
  rows.reserve(*count);
  for (std::uint32_t j = 0; j < *count; ++j) {
    const auto len = r.u32();
    if (!len) return false;
    sim::RssiVector row;
    row.reserve(*len);
    for (std::uint32_t k = 0; k < *len; ++k) {
      const auto v = r.f64();
      if (!v) return false;
      row.push_back(*v);
    }
    rows.push_back(std::move(row));
  }
  return true;
}

}  // namespace

// ---- reusable state codecs ---------------------------------------------
// Exposed in the header: the wire layer reuses them for cross-process tag
// migration (kExportTag/kImportTag) and reference seeding (kSeedExport), so
// a shard's exported state is byte-compatible with its checkpoints.

void write_engine_state(ByteWriter& w, const engine::EngineStateSnapshot& s) {
  w.u32(static_cast<std::uint32_t>(s.reference_ids.size()));
  for (const sim::TagId id : s.reference_ids) w.u32(id);

  w.u32(static_cast<std::uint32_t>(s.tracked.size()));
  for (const auto& [id, name] : s.tracked) {
    w.u32(id);
    w.str(name);
  }

  w.u32(static_cast<std::uint32_t>(s.health.readers.size()));
  for (const auto& reader : s.health.readers) {
    w.u8(reader.quarantined ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(reader.suspect_streak));
    w.u32(static_cast<std::uint32_t>(reader.clean_streak));
    w.u32(static_cast<std::uint32_t>(reader.last_rssi.size()));
    for (const double v : reader.last_rssi) w.f64(v);
    w.f64(reader.last_change);
    w.u8(reader.seen ? 1 : 0);
  }
  w.u64(s.health.quarantines);
  w.u64(s.health.recoveries);

  w.u8(s.has_last_refresh ? 1 : 0);
  w.f64(s.last_refresh);
  write_rssi_rows(w, s.last_reference_rssi);
  w.u32(static_cast<std::uint32_t>(s.grid_rebuilds));
  w.u64(s.fix_sequence);
  w.u32(static_cast<std::uint32_t>(s.auto_dumps));

  w.u32(static_cast<std::uint32_t>(s.trackers.size()));
  for (const auto& t : s.trackers) {
    w.u32(t.tag);
    w.u8(t.state.initialized ? 1 : 0);
    write_vec2(w, t.state.position);
    write_vec2(w, t.state.velocity);
    w.f64(t.state.last_time);
    write_vec2(w, t.state.last_measurement);
    w.f64(t.state.last_measurement_time);
    w.u32(static_cast<std::uint32_t>(t.state.consecutive_outliers));
  }

  w.u32(static_cast<std::uint32_t>(s.last_good.size()));
  for (const auto& h : s.last_good) {
    w.u32(h.tag);
    w.f64(h.time);
    write_vec2(w, h.position);
    write_vec2(w, h.smoothed);
  }

  w.u32(static_cast<std::uint32_t>(s.last_quality.size()));
  for (const auto& q : s.last_quality) {
    w.u32(q.tag);
    w.u8(static_cast<std::uint8_t>(q.quality));
  }
}

bool read_engine_state(ByteReader& r, engine::EngineStateSnapshot& s) {
  const auto n_refs = r.u32();
  if (!n_refs) return false;
  s.reference_ids.clear();
  for (std::uint32_t i = 0; i < *n_refs; ++i) {
    const auto id = r.u32();
    if (!id) return false;
    s.reference_ids.push_back(*id);
  }

  const auto n_tracked = r.u32();
  if (!n_tracked) return false;
  s.tracked.clear();
  for (std::uint32_t i = 0; i < *n_tracked; ++i) {
    const auto id = r.u32();
    auto name = r.str();
    if (!id || !name) return false;
    s.tracked.emplace_back(*id, std::move(*name));
  }

  const auto n_readers = r.u32();
  if (!n_readers) return false;
  s.health.readers.clear();
  for (std::uint32_t i = 0; i < *n_readers; ++i) {
    engine::HealthMonitorState::Reader reader;
    const auto quarantined = r.u8();
    const auto suspect = r.u32();
    const auto clean = r.u32();
    const auto n_rssi = r.u32();
    if (!quarantined || !suspect || !clean || !n_rssi) return false;
    reader.quarantined = *quarantined != 0;
    reader.suspect_streak = static_cast<int>(*suspect);
    reader.clean_streak = static_cast<int>(*clean);
    for (std::uint32_t k = 0; k < *n_rssi; ++k) {
      const auto v = r.f64();
      if (!v) return false;
      reader.last_rssi.push_back(*v);
    }
    const auto last_change = r.f64();
    const auto seen = r.u8();
    if (!last_change || !seen) return false;
    reader.last_change = *last_change;
    reader.seen = *seen != 0;
    s.health.readers.push_back(std::move(reader));
  }
  const auto quarantines = r.u64();
  const auto recoveries = r.u64();
  if (!quarantines || !recoveries) return false;
  s.health.quarantines = *quarantines;
  s.health.recoveries = *recoveries;

  const auto has_refresh = r.u8();
  const auto last_refresh = r.f64();
  if (!has_refresh || !last_refresh) return false;
  s.has_last_refresh = *has_refresh != 0;
  s.last_refresh = *last_refresh;
  if (!read_rssi_rows(r, s.last_reference_rssi)) return false;
  const auto rebuilds = r.u32();
  const auto fix_sequence = r.u64();
  const auto auto_dumps = r.u32();
  if (!rebuilds || !fix_sequence || !auto_dumps) return false;
  s.grid_rebuilds = static_cast<int>(*rebuilds);
  s.fix_sequence = *fix_sequence;
  s.auto_dumps = static_cast<int>(*auto_dumps);

  const auto n_trackers = r.u32();
  if (!n_trackers) return false;
  s.trackers.clear();
  for (std::uint32_t i = 0; i < *n_trackers; ++i) {
    engine::EngineStateSnapshot::Tracker t;
    const auto tag = r.u32();
    const auto initialized = r.u8();
    const auto position = read_vec2(r);
    const auto velocity = read_vec2(r);
    const auto last_time = r.f64();
    const auto last_measurement = read_vec2(r);
    const auto last_measurement_time = r.f64();
    const auto outliers = r.u32();
    if (!tag || !initialized || !position || !velocity || !last_time ||
        !last_measurement || !last_measurement_time || !outliers) {
      return false;
    }
    t.tag = *tag;
    t.state.initialized = *initialized != 0;
    t.state.position = *position;
    t.state.velocity = *velocity;
    t.state.last_time = *last_time;
    t.state.last_measurement = *last_measurement;
    t.state.last_measurement_time = *last_measurement_time;
    t.state.consecutive_outliers = static_cast<int>(*outliers);
    s.trackers.push_back(t);
  }

  const auto n_holds = r.u32();
  if (!n_holds) return false;
  s.last_good.clear();
  for (std::uint32_t i = 0; i < *n_holds; ++i) {
    engine::EngineStateSnapshot::Hold h;
    const auto tag = r.u32();
    const auto time = r.f64();
    const auto position = read_vec2(r);
    const auto smoothed = read_vec2(r);
    if (!tag || !time || !position || !smoothed) return false;
    h.tag = *tag;
    h.time = *time;
    h.position = *position;
    h.smoothed = *smoothed;
    s.last_good.push_back(h);
  }

  const auto n_quality = r.u32();
  if (!n_quality) return false;
  s.last_quality.clear();
  for (std::uint32_t i = 0; i < *n_quality; ++i) {
    const auto tag = r.u32();
    const auto quality = r.u8();
    if (!tag || !quality) return false;
    s.last_quality.push_back(
        {*tag, static_cast<engine::FixQuality>(*quality)});
  }
  return true;
}

void write_middleware_snapshot(ByteWriter& w, const sim::Middleware::Snapshot& s) {
  w.u32(static_cast<std::uint32_t>(s.links.size()));
  for (const auto& link : s.links) {
    w.u32(link.tag);
    w.u16(link.reader);
    w.u32(static_cast<std::uint32_t>(link.samples.size()));
    for (const auto& sample : link.samples) {
      w.f64(sample.time);
      w.f64(sample.rssi_dbm);
    }
  }
}

bool read_middleware_snapshot(ByteReader& r, sim::Middleware::Snapshot& s) {
  const auto n_links = r.u32();
  if (!n_links) return false;
  s.links.clear();
  s.links.reserve(*n_links);
  for (std::uint32_t i = 0; i < *n_links; ++i) {
    sim::Middleware::Snapshot::Link link;
    const auto tag = r.u32();
    const auto reader = r.u16();
    const auto n_samples = r.u32();
    if (!tag || !reader || !n_samples) return false;
    link.tag = *tag;
    link.reader = *reader;
    link.samples.reserve(*n_samples);
    for (std::uint32_t k = 0; k < *n_samples; ++k) {
      const auto time = r.f64();
      const auto rssi = r.f64();
      if (!time || !rssi) return false;
      link.samples.push_back({*time, *rssi});
    }
    s.links.push_back(std::move(link));
  }
  return true;
}

void write_tag_state(ByteWriter& w, const engine::TagStateSnapshot& s) {
  w.str(s.name);
  w.u8(s.has_tracker ? 1 : 0);
  w.u8(s.tracker.initialized ? 1 : 0);
  write_vec2(w, s.tracker.position);
  write_vec2(w, s.tracker.velocity);
  w.f64(s.tracker.last_time);
  write_vec2(w, s.tracker.last_measurement);
  w.f64(s.tracker.last_measurement_time);
  w.u32(static_cast<std::uint32_t>(s.tracker.consecutive_outliers));
  w.u8(s.has_last_good ? 1 : 0);
  w.f64(s.last_good_time);
  write_vec2(w, s.last_good_position);
  write_vec2(w, s.last_good_smoothed);
  w.u8(s.has_last_quality ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(s.last_quality));
}

bool read_tag_state(ByteReader& r, engine::TagStateSnapshot& s) {
  auto name = r.str();
  const auto has_tracker = r.u8();
  const auto initialized = r.u8();
  const auto position = read_vec2(r);
  const auto velocity = read_vec2(r);
  const auto last_time = r.f64();
  const auto last_measurement = read_vec2(r);
  const auto last_measurement_time = r.f64();
  const auto outliers = r.u32();
  const auto has_last_good = r.u8();
  const auto last_good_time = r.f64();
  const auto last_good_position = read_vec2(r);
  const auto last_good_smoothed = read_vec2(r);
  const auto has_last_quality = r.u8();
  const auto last_quality = r.u8();
  if (!name || !has_tracker || !initialized || !position || !velocity ||
      !last_time || !last_measurement || !last_measurement_time || !outliers ||
      !has_last_good || !last_good_time || !last_good_position ||
      !last_good_smoothed || !has_last_quality || !last_quality) {
    return false;
  }
  s.name = std::move(*name);
  s.has_tracker = *has_tracker != 0;
  s.tracker.initialized = *initialized != 0;
  s.tracker.position = *position;
  s.tracker.velocity = *velocity;
  s.tracker.last_time = *last_time;
  s.tracker.last_measurement = *last_measurement;
  s.tracker.last_measurement_time = *last_measurement_time;
  s.tracker.consecutive_outliers = static_cast<int>(*outliers);
  s.has_last_good = *has_last_good != 0;
  s.last_good_time = *last_good_time;
  s.last_good_position = *last_good_position;
  s.last_good_smoothed = *last_good_smoothed;
  s.has_last_quality = *has_last_quality != 0;
  s.last_quality = static_cast<engine::FixQuality>(*last_quality);
  return true;
}

namespace {

std::filesystem::path checkpoint_path(const std::filesystem::path& dir,
                                      std::uint64_t wal_sequence) {
  char name[48];
  std::snprintf(name, sizeof(name), "checkpoint_%012llu.ckpt",
                static_cast<unsigned long long>(wal_sequence));
  return dir / name;
}

std::optional<std::uint64_t> checkpoint_sequence(const std::filesystem::path& path) {
  const std::string name = path.filename().string();
  constexpr std::string_view prefix = "checkpoint_";
  constexpr std::string_view suffix = ".ckpt";
  if (name.size() <= prefix.size() + suffix.size() ||
      name.rfind(prefix, 0) != 0 ||
      name.substr(name.size() - suffix.size()) != suffix) {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return std::stoull(digits);
}

}  // namespace

std::uint64_t engine_config_fingerprint(
    const engine::EngineConfig& config) noexcept {
  // Canonical byte encoding of every fix-affecting field. parallel_workers
  // and observability are excluded on purpose (see header).
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(config.vire.virtual_grid.subdivision));
  w.u8(static_cast<std::uint8_t>(config.vire.virtual_grid.method));
  w.u32(static_cast<std::uint32_t>(
      config.vire.virtual_grid.boundary_extension_cells));
  w.u8(static_cast<std::uint8_t>(config.vire.elimination.mode));
  w.f64(config.vire.elimination.fixed_threshold_db);
  w.f64(config.vire.elimination.initial_threshold_db);
  w.f64(config.vire.elimination.step_db);
  w.f64(config.vire.elimination.min_threshold_db);
  w.f64(config.vire.elimination.min_area_cell_fraction);
  w.u8(static_cast<std::uint8_t>(config.vire.weighting));
  w.f64(config.vire.w1_exponent);
  w.f64(config.tracking.alpha);
  w.f64(config.tracking.beta);
  w.f64(config.tracking.outlier_gate_m);
  w.f64(config.tracking.outlier_gain_scale);
  w.u32(static_cast<std::uint32_t>(config.tracking.outlier_relock_count));
  w.f64(config.tracking.max_speed_mps);
  w.u8(config.enable_tracking ? 1 : 0);
  w.f64(config.min_refresh_interval_s);
  w.u32(static_cast<std::uint32_t>(config.min_valid_readers));
  const engine::DegradationConfig& d = config.degradation;
  w.u8(d.health.enabled ? 1 : 0);
  w.f64(d.health.min_valid_fraction);
  w.f64(d.health.max_median_jump_db);
  w.f64(d.health.stale_after_s);
  w.u32(static_cast<std::uint32_t>(d.health.quarantine_after));
  w.u32(static_cast<std::uint32_t>(d.health.recover_after));
  w.u8(d.enable_fallback ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(d.fallback.k_nearest));
  w.f64(d.fallback.epsilon);
  w.u32(static_cast<std::uint32_t>(d.fallback.min_common_readers));
  w.u32(static_cast<std::uint32_t>(d.fallback_min_readers));
  w.f64(d.hold_max_age_s);
  return fnv1a(w.bytes());
}

std::string serialize(const Checkpoint& checkpoint) {
  ByteWriter body;
  body.u32(kCheckpointVersion);
  body.u64(checkpoint.config_fingerprint);
  body.u64(checkpoint.wal_sequence);
  body.f64(checkpoint.sim_time);
  write_engine_state(body, checkpoint.engine);
  write_middleware_snapshot(body, checkpoint.middleware);
  body.u32(static_cast<std::uint32_t>(checkpoint.counters.size()));
  for (const auto& sample : checkpoint.counters) {
    body.str(sample.name);
    body.str(sample.labels);
    body.u64(sample.value);
  }
  return seal(kMagic, body.bytes());
}

namespace {

std::optional<Checkpoint> decode_body(std::string_view body) {
  ByteReader r(body);
  const auto version = r.u32();
  if (!version || *version != kCheckpointVersion) return std::nullopt;

  Checkpoint ckpt;
  const auto fingerprint = r.u64();
  const auto wal_sequence = r.u64();
  const auto sim_time = r.f64();
  if (!fingerprint || !wal_sequence || !sim_time) return std::nullopt;
  ckpt.config_fingerprint = *fingerprint;
  ckpt.wal_sequence = *wal_sequence;
  ckpt.sim_time = *sim_time;
  if (!read_engine_state(r, ckpt.engine)) return std::nullopt;
  if (!read_middleware_snapshot(r, ckpt.middleware)) return std::nullopt;
  const auto n_counters = r.u32();
  if (!n_counters) return std::nullopt;
  for (std::uint32_t i = 0; i < *n_counters; ++i) {
    auto name = r.str();
    auto labels = r.str();
    const auto value = r.u64();
    if (!name || !labels || !value) return std::nullopt;
    ckpt.counters.push_back({std::move(*name), std::move(*labels), *value});
  }
  if (!r.exhausted()) return std::nullopt;
  return ckpt;
}

}  // namespace

std::optional<Checkpoint> deserialize(std::string_view data) {
  const auto body = unseal(kMagic, data);
  if (!body) return std::nullopt;
  return decode_body(*body);
}

std::vector<Checkpoint::CounterSample> sample_counters(
    const obs::MetricsRegistry& registry) {
  std::vector<Checkpoint::CounterSample> samples;
  for (const obs::MetricSnapshot& metric : registry.snapshot()) {
    if (metric.kind != obs::MetricKind::kCounter) continue;
    samples.push_back({metric.name, metric.labels, metric.counter_value});
  }
  return samples;
}

void restore_counters(obs::MetricsRegistry& registry,
                      const std::vector<Checkpoint::CounterSample>& samples) {
  for (const auto& sample : samples) {
    obs::Counter& counter = registry.counter(sample.name, sample.labels);
    const std::uint64_t current = counter.value();
    if (current > sample.value) {
      // A zero sample just means the counter only started moving in THIS
      // process (e.g. the recovery's own vire_persist_* metrics) — normal,
      // not worth a warning. A non-zero mismatch is a real anomaly.
      if (sample.value == 0) continue;
      support::log_warn(
          "restore_counters: %s{%s} already at %llu > checkpointed %llu, "
          "leaving it",
          sample.name.c_str(), sample.labels.c_str(),
          static_cast<unsigned long long>(current),
          static_cast<unsigned long long>(sample.value));
      continue;
    }
    counter.inc(sample.value - current);
  }
}

CheckpointStore::CheckpointStore(CheckpointStoreConfig config)
    : config_(std::move(config)) {
  if (config_.dir.empty()) {
    throw std::invalid_argument("CheckpointStore: dir must be set");
  }
  if (config_.keep == 0) {
    throw std::invalid_argument("CheckpointStore: keep must be >= 1");
  }
  std::filesystem::create_directories(config_.dir);
}

void CheckpointStore::attach_metrics(obs::MetricsRegistry& registry) {
  written_metric_ = &registry.counter("vire_persist_checkpoint_written_total", {},
                                      "Checkpoints written (atomic rename)");
  loaded_metric_ = &registry.counter("vire_persist_checkpoint_loaded_total", {},
                                     "Checkpoints successfully loaded");
  rejected_metric_ = &registry.counter(
      "vire_persist_checkpoint_rejected_total", {},
      "Checkpoint files rejected at load (CRC/version/config mismatch)");
}

void CheckpointStore::write(const Checkpoint& checkpoint) {
  support::atomic_write_file(checkpoint_path(config_.dir, checkpoint.wal_sequence),
                             serialize(checkpoint), config_.write_options);
  if (written_metric_ != nullptr) written_metric_->inc();

  auto sequences = stored_sequences();
  while (sequences.size() > config_.keep) {
    std::filesystem::remove(checkpoint_path(config_.dir, sequences.front()));
    sequences.erase(sequences.begin());
  }
}

std::vector<std::uint64_t> CheckpointStore::stored_sequences() const {
  std::vector<std::uint64_t> sequences;
  if (!std::filesystem::exists(config_.dir)) return sequences;
  for (const auto& entry : std::filesystem::directory_iterator(config_.dir)) {
    if (!entry.is_regular_file()) continue;
    if (const auto seq = checkpoint_sequence(entry.path())) {
      sequences.push_back(*seq);
    }
  }
  std::sort(sequences.begin(), sequences.end());
  return sequences;
}

CheckpointStore::LoadResult CheckpointStore::load_newest_valid(
    std::uint64_t expected_config_fingerprint) const {
  LoadResult result;
  auto sequences = stored_sequences();
  for (auto it = sequences.rbegin(); it != sequences.rend(); ++it) {
    const std::filesystem::path path = checkpoint_path(config_.dir, *it);
    const auto body = read_sealed_file(path, kMagic);
    auto ckpt = body ? decode_body(*body) : std::nullopt;
    if (!ckpt || ckpt->config_fingerprint != expected_config_fingerprint) {
      support::log_warn("CheckpointStore: rejecting %s (%s)",
                        path.string().c_str(),
                        !ckpt ? "corrupt or wrong version"
                              : "config fingerprint mismatch");
      ++result.rejected;
      continue;
    }
    result.checkpoint = std::move(ckpt);
    break;
  }
  if (loaded_metric_ != nullptr && result.checkpoint.has_value()) {
    loaded_metric_->inc();
  }
  if (rejected_metric_ != nullptr) rejected_metric_->inc(result.rejected);
  return result;
}

}  // namespace vire::persist
