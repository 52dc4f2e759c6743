#include "service/sharded_service.h"

#include <algorithm>
#include <bit>
#include <exception>
#include <future>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "obs/exporters.h"

namespace vire::service {

namespace {

/// Runs `fn` on the shard's worker thread (FIFO behind everything already
/// queued) and returns its result. The wait doubles as a queue drain: when
/// this returns, every previously enqueued op has executed.
template <typename Fn>
auto run_on(ShardQueue& queue, Fn fn) {
  using R = std::invoke_result_t<Fn>;
  std::promise<R> done;
  auto future = done.get_future();
  queue.push_control([&] {
    try {
      if constexpr (std::is_void_v<R>) {
        fn();
        done.set_value();
      } else {
        done.set_value(fn());
      }
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  return future.get();
}

std::uint64_t time_key(sim::SimTime t) noexcept {
  return std::bit_cast<std::uint64_t>(t);
}

}  // namespace

std::uint32_t zone_for_position(const env::Deployment& deployment,
                                geom::Vec2 position) noexcept {
  const geom::Aabb area = deployment.sensing_area();
  const double cx = 0.5 * (area.lo.x + area.hi.x);
  const double cy = 0.5 * (area.lo.y + area.hi.y);
  const std::uint32_t col = position.x >= cx ? 1 : 0;
  const std::uint32_t row = position.y >= cy ? 1 : 0;
  return row * 2 + col;
}

ShardedService::Shard::~Shard() {
  if (worker.joinable()) {
    queue->push_stop();
    worker.join();
  }
}

ShardedService::ShardedService(const env::Deployment& deployment,
                               ServiceConfig config)
    : deployment_(deployment), config_(std::move(config)), router_(config_.router) {
  if (config_.shards <= 0) {
    throw std::invalid_argument("ShardedService: shards must be positive");
  }
  if (config_.recover && !persistence_enabled()) {
    throw std::invalid_argument("ShardedService: recover requires a data_dir");
  }
  readings_total_ = &metrics_.counter("vire_service_readings_total", {},
                                      "Readings accepted by the service front door");
  broadcasts_total_ =
      &metrics_.counter("vire_service_reference_broadcasts_total", {},
                        "Reference-tag readings broadcast to every shard");
  batches_total_ = &metrics_.counter("vire_service_batches_total", {},
                                     "Reading batches enqueued to shard queues");
  batches_dropped_ =
      &metrics_.counter("vire_service_batches_dropped_total", {},
                        "Reading batches discarded under the drop-oldest policy");
  ingest_blocked_ =
      &metrics_.counter("vire_service_ingest_blocked_total", {},
                        "Enqueues that waited for queue room under the block policy");
  readings_gated_ =
      &metrics_.counter("vire_service_readings_gated_total", {},
                        "Re-fed readings dropped by a recovered shard's resume gate");
  readings_lost_ = &metrics_.counter("vire_service_readings_lost_total", {},
                                     "Readings addressed to a crashed shard");
  polls_total_ = &metrics_.counter("vire_service_polls_total", {},
                                   "poll() barriers executed");
  polls_substituted_ =
      &metrics_.counter("vire_service_poll_substituted_total", {},
                        "Per-shard poll contributions served from replayed fixes");
  rebalance_moved_tags_ = &metrics_.counter("vire_service_rebalance_moved_tags_total",
                                            {}, "Tags migrated between shards");
  rebalance_replayed_ =
      &metrics_.counter("vire_service_rebalance_replayed_readings_total", {},
                        "Readings replayed into a moved tag's new owner");
  recoveries_total_ = &metrics_.counter("vire_service_recoveries_total", {},
                                        "Shard recoveries completed");
  checkpoint_failures_ =
      &metrics_.counter("vire_service_checkpoint_failures_total", {},
                        "Shard checkpoints that failed to write");
  shards_gauge_ = &metrics_.gauge("vire_service_shards", {}, "Live shard count");
  queue_high_water_ = &metrics_.gauge("vire_service_queue_high_water", {},
                                      "Deepest shard queue observed (ops)");
  poll_seconds_ = &metrics_.histogram("vire_service_poll_seconds",
                                      obs::default_latency_buckets_s(), {},
                                      "Wall time of the poll barrier");

  for (int i = 0; i < config_.shards; ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    router_.add_shard(id);
    shards_.emplace(id, make_shard(id, /*defer_wal=*/config_.recover));
  }
  next_shard_id_ = static_cast<std::uint32_t>(config_.shards);
  shards_gauge_->set(static_cast<double>(shards_.size()));
}

ShardedService::~ShardedService() {
  // Shard::~Shard stops each worker; flush nothing — queued readings are
  // only buffered state, and persistence already journaled them on ingest.
  shards_.clear();
}

std::filesystem::path ShardedService::shard_dir(std::uint32_t id) const {
  return config_.data_dir / ("shard-" + std::to_string(id));
}
std::filesystem::path ShardedService::wal_dir(std::uint32_t id) const {
  return shard_dir(id) / "wal";
}
std::filesystem::path ShardedService::checkpoint_dir(std::uint32_t id) const {
  return shard_dir(id) / "checkpoints";
}

void ShardedService::ensure_ready() const {
  if (config_.recover && !recovered_) {
    throw std::logic_error(
        "ShardedService: constructed for recovery — call recover() first");
  }
}

void ShardedService::init_shard_core(Shard& shard) {
  shard.engine = std::make_unique<engine::LocalizationEngine>(deployment_,
                                                              config_.engine);
  if (config_.obs_clock_skew_us != 0.0) {
    shard.engine->tracer().set_clock_skew_us(config_.obs_clock_skew_us);
  }
  shard.middleware = std::make_unique<sim::Middleware>(deployment_.reader_count(),
                                                       config_.middleware);
  shard.middleware->attach_metrics(shard.engine->metrics());
  if (!reference_ids_.empty()) shard.engine->set_reference_ids(reference_ids_);
  if (persistence_enabled()) {
    persist::CheckpointStoreConfig store;
    store.dir = checkpoint_dir(shard.id);
    shard.checkpoints = std::make_unique<persist::CheckpointStore>(store);
    shard.checkpoints->attach_metrics(shard.engine->metrics());
  }
}

void ShardedService::attach_wal(Shard& shard) {
  persist::WalConfig wal;
  wal.dir = wal_dir(shard.id);
  wal.fsync = config_.fsync;
  shard.wal = std::make_unique<persist::WalWriter>(wal);
  shard.wal->attach_metrics(shard.engine->metrics());
  shard.middleware->attach_journal(shard.wal.get());
}

std::unique_ptr<ShardedService::Shard> ShardedService::make_shard(std::uint32_t id,
                                                                  bool defer_wal) {
  auto shard = std::make_unique<Shard>();
  shard->id = id;
  init_shard_core(*shard);
  if (persistence_enabled() && !defer_wal) attach_wal(*shard);
  shard->awaiting_recovery = defer_wal;
  shard->queue = std::make_unique<ShardQueue>(config_.queue_capacity,
                                              config_.overflow);
  shard->worker = std::thread([this, s = shard.get()] { worker_loop(*s); });
  return shard;
}

void ShardedService::worker_loop(Shard& shard) {
  for (;;) {
    ShardQueue::Op op = shard.queue->pop();
    switch (op.kind) {
      case ShardQueue::Op::Kind::kReadings:
        for (const auto& reading : op.readings) shard.middleware->ingest(reading);
        break;
      case ShardQueue::Op::Kind::kEvict:
        shard.middleware->evict_stale(op.time);
        break;
      case ShardQueue::Op::Kind::kUpdate:
        try {
          // Marker journaled BEFORE the update, mirroring the single-engine
          // persistence protocol: a crash mid-update replays it.
          if (shard.wal != nullptr) shard.wal->append_update_marker(op.time);
          auto fixes = shard.engine->update(*shard.middleware, op.time);
          maybe_checkpoint(shard, op.time);
          op.fixes.set_value(std::move(fixes));
        } catch (...) {
          op.fixes.set_exception(std::current_exception());
        }
        break;
      case ShardQueue::Op::Kind::kControl:
        op.control();
        break;
      case ShardQueue::Op::Kind::kStop:
        return;
    }
  }
}

void ShardedService::maybe_checkpoint(Shard& shard, sim::SimTime now) {
  if (shard.checkpoints == nullptr || config_.checkpoint_every_updates <= 0) return;
  if (++shard.updates_since_checkpoint < config_.checkpoint_every_updates) return;
  shard.updates_since_checkpoint = 0;
  write_checkpoint(shard, now);
}

void ShardedService::write_checkpoint(Shard& shard, sim::SimTime now) {
  if (shard.checkpoints == nullptr) return;
  try {
    persist::Checkpoint ckpt;
    ckpt.config_fingerprint = persist::engine_config_fingerprint(config_.engine);
    ckpt.wal_sequence = shard.wal != nullptr ? shard.wal->next_sequence() : 0;
    ckpt.sim_time = now;
    ckpt.engine = shard.engine->snapshot();
    ckpt.middleware = shard.middleware->snapshot();
    ckpt.counters = persist::sample_counters(shard.engine->metrics());
    shard.checkpoints->write(ckpt);
  } catch (const std::exception&) {
    // A failed checkpoint only lengthens a future replay; never fail the
    // update over it.
    checkpoint_failures_->inc();
  }
}

void ShardedService::set_reference_ids(std::vector<sim::TagId> ids) {
  reference_ids_ = std::move(ids);
  reference_set_.clear();
  reference_set_.insert(reference_ids_.begin(), reference_ids_.end());
  for (auto& [id, shard] : shards_) {
    if (shard->awaiting_recovery) continue;  // applied again by recovery
    run_on(*shard->queue, [&s = *shard, this] {
      s.engine->set_reference_ids(reference_ids_);
    });
  }
}

void ShardedService::track(sim::TagId tag, std::string name,
                           std::optional<std::uint32_t> zone) {
  TrackedTag info;
  info.name = std::move(name);
  info.zone = zone;
  tags_[tag] = info;
  Shard& owner = *shards_.at(router_.route(tag, zone));
  if (!owner.awaiting_recovery) {
    run_on(*owner.queue, [&] { owner.engine->track(tag, info.name); });
  }
}

void ShardedService::untrack(sim::TagId tag) {
  const auto it = tags_.find(tag);
  if (it == tags_.end()) return;
  Shard& owner = *shards_.at(router_.route(tag, it->second.zone));
  if (!owner.awaiting_recovery) {
    run_on(*owner.queue, [&] { owner.engine->untrack(tag); });
  }
  tags_.erase(it);
  latest_.erase(tag);
}

void ShardedService::pin_zone(std::uint32_t zone, std::uint32_t shard) {
  router_.pin_zone(zone, shard);
}

void ShardedService::pin_tag(sim::TagId tag, std::uint32_t shard) {
  router_.pin_tag(tag, shard);
}

void ShardedService::enqueue_reading(Shard& shard, const sim::RssiReading& reading) {
  if (shard.awaiting_recovery) {
    readings_lost_->inc();
    return;
  }
  if (shard.gated && reading.time <= shard.resume_time) {
    readings_gated_->inc();
    return;
  }
  shard.pending.push_back(reading);
  if (shard.pending.size() >= config_.ingest_batch) flush_pending(shard);
}

void ShardedService::flush_pending(Shard& shard) {
  if (shard.pending.empty()) return;
  const std::uint64_t blocked_before = shard.queue->blocked();
  const std::size_t dropped = shard.queue->push_readings(std::move(shard.pending));
  shard.pending = {};
  batches_total_->inc();
  if (dropped > 0) batches_dropped_->inc(dropped);
  if (shard.queue->blocked() != blocked_before) ingest_blocked_->inc();
}

void ShardedService::ingest(const sim::RssiReading& reading) {
  ensure_ready();
  readings_total_->inc();
  if (reference_set_.count(reading.tag) != 0) {
    broadcasts_total_->inc();
    for (auto& [id, shard] : shards_) enqueue_reading(*shard, reading);
    return;
  }
  std::optional<std::uint32_t> zone;
  if (const auto it = tags_.find(reading.tag); it != tags_.end()) {
    zone = it->second.zone;
  }
  enqueue_reading(*shards_.at(router_.route(reading.tag, zone)), reading);
}

void ShardedService::ingest(const std::vector<sim::RssiReading>& readings,
                            std::uint64_t sequence,
                            const obs::TraceContext& ctx) {
  ensure_ready();
  // Capture-only adoption: note the propagated context on each receiving
  // shard's timeline (no-op while tracing is disabled).
  if (ctx.trace_id != 0) {
    for (auto& [id, shard] : shards_) {
      if (shard->awaiting_recovery) continue;
      if (!shard->engine->tracer().enabled()) continue;
      shard->engine->tracer().instant(
          "wire.ingest_batch",
          "{\"trace_id\":" + std::to_string(ctx.trace_id) +
              ",\"parent_span\":" + std::to_string(ctx.parent_span_id) +
              ",\"sequence\":" + std::to_string(sequence) + "}");
    }
  }
  // Redelivery of a batch every live shard already journaled an ack for:
  // drop it whole. (A batch past the cursor re-ingests; the middleware's
  // last-write-wins duplicate policy and the resume gates absorb overlap.)
  if (sequence != 0 && sequence <= last_ack_sequence()) return;
  for (const auto& reading : readings) ingest(reading);
  if (sequence == 0) return;
  for (auto& [id, shard] : shards_) {
    if (shard->awaiting_recovery) continue;
    // Ack marker strictly AFTER the batch's readings: flush them into the
    // FIFO queue first, then append the marker behind them on the worker.
    flush_pending(*shard);
    Shard* s = shard.get();
    shard->queue->push_control([s, sequence] {
      if (s->wal != nullptr) s->wal->append_ack_marker(sequence);
      s->acked.store(sequence, std::memory_order_release);
    });
  }
}

std::uint64_t ShardedService::last_ack_sequence() const {
  std::uint64_t min_ack = std::numeric_limits<std::uint64_t>::max();
  bool any = false;
  for (const auto& [id, shard] : shards_) {
    if (shard->awaiting_recovery) continue;
    any = true;
    min_ack = std::min(min_ack, shard->acked.load(std::memory_order_acquire));
  }
  return any ? min_ack : 0;
}

HeartbeatInfo ShardedService::heartbeat() {
  HeartbeatInfo info;
  info.last_ack_sequence = last_ack_sequence();
  for (auto& [id, shard] : shards_) {
    if (shard->awaiting_recovery || shard->wal == nullptr) continue;
    flush_pending(*shard);
    const std::uint64_t next =
        run_on(*shard->queue, [&s = *shard] { return s.wal->next_sequence(); });
    info.wal_next_sequence = std::max(info.wal_next_sequence, next);
  }
  // The drain above also executed any queued ack markers; re-read so the
  // cursor covers every batch enqueued before this probe.
  info.last_ack_sequence = last_ack_sequence();
  for (auto& [id, shard] : shards_) {
    if (shard->awaiting_recovery) continue;
    if (info.mono_now_us == 0.0) {
      info.mono_now_us = shard->engine->tracer().now_us();
    }
    // auto_dump_count is written on the worker thread; read it there.
    const int dumps =
        run_on(*shard->queue,
               [&s = *shard] { return s.engine->auto_dump_count(); });
    info.anomaly_dumps += static_cast<std::uint64_t>(std::max(0, dumps));
  }
  return info;
}

obs::TraceDump ShardedService::trace_dump(std::size_t max_events) {
  for (auto& [id, shard] : shards_) {
    if (shard->awaiting_recovery) continue;
    return shard->engine->tracer().dump(max_events);
  }
  return {};
}

std::optional<std::string> ShardedService::provenance_json() {
  std::string out = "{\"shards\":[";
  bool first = true;
  for (auto& [id, shard] : shards_) {
    if (shard->awaiting_recovery) continue;
    const std::string records = run_on(*shard->queue, [&s = *shard] {
      return obs::to_json(s.engine->flight_recorder());
    });
    if (!first) out += ",";
    first = false;
    out += "{\"shard\":" + std::to_string(id) + ",\"provenance\":" + records + "}";
  }
  out += "]}";
  return out;
}

std::vector<engine::Fix> ShardedService::poll(sim::SimTime now,
                                              const obs::TraceContext& /*ctx*/) {
  ensure_ready();
  const obs::ScopedTimer timer(poll_seconds_);
  for (auto& [id, shard] : shards_) flush_pending(*shard);

  struct PendingShard {
    Shard* shard = nullptr;
    std::optional<std::future<std::vector<engine::Fix>>> future;
  };
  std::vector<PendingShard> pending;
  pending.reserve(shards_.size());
  for (auto& [id, shard] : shards_) {
    if (shard->awaiting_recovery) continue;
    PendingShard entry;
    entry.shard = shard.get();
    if (!(shard->gated && now <= shard->resume_time)) {
      shard->queue->push_evict(now);
      entry.future = shard->queue->push_update(now);
    }
    pending.push_back(std::move(entry));
  }

  std::vector<engine::Fix> merged;
  for (auto& entry : pending) {
    if (entry.future.has_value()) {
      auto fixes = entry.future->get();
      merged.insert(merged.end(), std::make_move_iterator(fixes.begin()),
                    std::make_move_iterator(fixes.end()));
    } else {
      // Replayed poll: this shard already executed the update before the
      // crash; serve the recovered fixes instead of re-running it.
      polls_substituted_->inc();
      const auto it = entry.shard->replayed.find(time_key(now));
      if (it != entry.shard->replayed.end()) {
        merged.insert(merged.end(), it->second.begin(), it->second.end());
      }
    }
  }
  // Tag order — exactly the order a single engine (iterating its tag map)
  // emits, so the merged vector is directly diffable against it.
  std::sort(merged.begin(), merged.end(),
            [](const engine::Fix& a, const engine::Fix& b) { return a.tag < b.tag; });

  for (auto& [id, shard] : shards_) {
    if (shard->gated && now > shard->resume_time) {
      shard->gated = false;
      shard->replayed.clear();
    }
    queue_high_water_->record_max(static_cast<double>(shard->queue->high_water()));
  }
  for (const auto& fix : merged) latest_[fix.tag] = fix;
  last_poll_time_ = now;
  polls_total_->inc();
  return merged;
}

std::optional<engine::Fix> ShardedService::latest_fix(sim::TagId tag) const {
  const auto it = latest_.find(tag);
  if (it == latest_.end()) return std::nullopt;
  return it->second;
}

std::optional<obs::FixRecord> ShardedService::explain(sim::TagId tag) {
  const auto info = tags_.find(tag);
  if (info == tags_.end()) return std::nullopt;
  Shard& owner = *shards_.at(router_.route(tag, info->second.zone));
  if (owner.awaiting_recovery) return std::nullopt;
  return run_on(*owner.queue, [&]() -> std::optional<obs::FixRecord> {
    return owner.engine->flight_recorder().last_for_tag(tag);
  });
}

std::optional<std::string> ShardedService::explain_json(sim::TagId tag) {
  const auto record = explain(tag);
  if (!record.has_value()) return std::nullopt;
  return obs::to_json(*record);
}

void ShardedService::barrier() {
  for (auto& [id, shard] : shards_) {
    flush_pending(*shard);
    if (shard->awaiting_recovery) continue;
    run_on(*shard->queue, [] {});
  }
}

ServiceRecoveryReport::ShardRecovery ShardedService::recover_one(Shard& shard) {
  auto report = run_on(*shard.queue, [&]() -> persist::RecoveryReport {
    // The fresh engine must know the reference ids and this shard's slice of
    // the tag registry BEFORE replay: registration is not journaled, and a
    // cold start (no checkpoint yet) replays the WAL through whatever is
    // registered here. When a checkpoint loads, its own tracked set — the
    // same tags — replaces this.
    if (!reference_ids_.empty() && shard.engine->reference_ids().empty()) {
      shard.engine->set_reference_ids(reference_ids_);
    }
    for (const auto& [tag, info] : tags_) {
      if (router_.route(tag, info.zone) == shard.id) {
        shard.engine->track(tag, info.name);
      }
    }
    persist::RecoveryManager manager({wal_dir(shard.id), checkpoint_dir(shard.id)});
    auto rep = manager.recover(*shard.engine, *shard.middleware);
    attach_wal(shard);  // resumes after the valid prefix replay stopped at
    return rep;
  });

  shard.resume_time = report.recovered_time;
  shard.gated = report.checkpoint_loaded || report.frames_replayed > 0;
  shard.acked.store(report.last_ack_sequence, std::memory_order_release);
  shard.replayed.clear();
  for (auto& fixes : report.replayed_fixes) {
    if (!fixes.empty()) shard.replayed.emplace(time_key(fixes[0].time), fixes);
  }
  shard.awaiting_recovery = false;
  shard.updates_since_checkpoint = 0;
  recoveries_total_->inc();

  ServiceRecoveryReport::ShardRecovery out;
  out.shard = shard.id;
  out.resume_time = shard.resume_time;
  out.report = std::move(report);
  return out;
}

ServiceRecoveryReport ShardedService::recover() {
  if (!config_.recover) {
    throw std::logic_error("ShardedService::recover: not constructed for recovery");
  }
  if (recovered_) {
    throw std::logic_error("ShardedService::recover: already recovered");
  }
  ServiceRecoveryReport report;
  for (auto& [id, shard] : shards_) report.shards.push_back(recover_one(*shard));
  recovered_ = true;
  return report;
}

std::uint64_t ShardedService::recover_now() {
  if (config_.recover && !recovered_) recover();
  return last_ack_sequence();
}

void ShardedService::crash_shard(std::uint32_t shard_id) {
  ensure_ready();
  if (!persistence_enabled()) {
    throw std::logic_error("ShardedService::crash_shard: requires persistence");
  }
  Shard& shard = *shards_.at(shard_id);
  // Everything queued but unexecuted is lost — exactly the loss profile of a
  // killed process (journaled state stays on disk, in-memory state is gone).
  shard.queue->discard_pending();
  shard.queue->push_stop();
  shard.worker.join();
  shard.pending.clear();
  shard.middleware.reset();  // holds the journal pointer; drop before the WAL
  shard.wal.reset();
  shard.checkpoints.reset();
  shard.engine.reset();
  init_shard_core(shard);
  shard.awaiting_recovery = true;
  shard.gated = false;
  shard.resume_time = -std::numeric_limits<double>::infinity();
  shard.replayed.clear();
  shard.worker = std::thread([this, s = &shard] { worker_loop(*s); });
}

persist::RecoveryReport ShardedService::recover_shard(std::uint32_t shard_id) {
  ensure_ready();
  Shard& shard = *shards_.at(shard_id);
  if (!shard.awaiting_recovery) {
    throw std::logic_error("ShardedService::recover_shard: shard is not crashed");
  }
  return recover_one(shard).report;
}

std::vector<sim::RssiReading> ShardedService::migration_readings(Shard& source,
                                                                 sim::TagId tag) {
  const double horizon = last_poll_time_ - config_.middleware.window_s;
  if (persistence_enabled()) {
    // The moved tag's WAL suffix: every journaled reading still inside the
    // middleware window, so the replayed set is exactly the source's buffer.
    return persist::wal_tag_window(wal_dir(source.id), tag, horizon);
  }
  std::vector<sim::RssiReading> readings;
  // No WAL: lift the tag's window straight out of the source middleware.
  const auto snapshot =
      run_on(*source.queue, [&] { return source.middleware->snapshot(); });
  for (const auto& link : snapshot.links) {
    if (link.tag != tag) continue;
    for (const auto& sample : link.samples) {
      if (sample.time <= horizon) continue;
      sim::RssiReading reading;
      reading.time = sample.time;
      reading.tag = link.tag;
      reading.reader = link.reader;
      reading.rssi_dbm = sample.rssi_dbm;
      readings.push_back(reading);
    }
  }
  return readings;
}

void ShardedService::migrate_tag(sim::TagId tag, const TrackedTag& info,
                                 Shard& source, Shard& destination,
                                 RebalanceReport& report) {
  auto state = run_on(*source.queue,
                      [&]() -> std::optional<engine::TagStateSnapshot> {
                        auto exported = source.engine->export_tag(tag);
                        source.engine->untrack(tag);
                        return exported;
                      });
  if (!state.has_value()) {
    engine::TagStateSnapshot fresh;
    fresh.name = info.name;
    state = fresh;
  }
  auto readings = migration_readings(source, tag);
  run_on(*destination.queue, [&] {
    // The normal update path: readings re-enter through ingest (journaled
    // into the destination's WAL), then the exported per-tag state lands.
    for (const auto& reading : readings) destination.middleware->ingest(reading);
    destination.engine->import_tag(tag, *state);
  });
  report.moved_tags += 1;
  report.replayed_readings += readings.size();
  rebalance_moved_tags_->inc();
  rebalance_replayed_->inc(readings.size());
}

std::pair<engine::EngineStateSnapshot, sim::Middleware::Snapshot>
ShardedService::reference_seed(Shard& donor) {
  auto seed = run_on(*donor.queue, [&] {
    return std::make_pair(donor.engine->snapshot(), donor.middleware->snapshot());
  });
  // Every shard carries identical reference/health/grid state (reference
  // readings are broadcast), so any donor seeds the newcomer. Per-tag state
  // stays behind — migration moves it tag by tag.
  engine::EngineStateSnapshot engine_seed = std::move(seed.first);
  engine_seed.tracked.clear();
  engine_seed.trackers.clear();
  engine_seed.last_good.clear();
  engine_seed.last_quality.clear();
  sim::Middleware::Snapshot middleware_seed;
  for (auto& link : seed.second.links) {
    if (reference_set_.count(link.tag) != 0) {
      middleware_seed.links.push_back(std::move(link));
    }
  }
  return {std::move(engine_seed), std::move(middleware_seed)};
}

void ShardedService::seed_reference_state(Shard& destination) {
  if (shards_.empty()) return;
  Shard& donor = *shards_.begin()->second;
  if (donor.id == destination.id) return;
  auto [engine_seed, middleware_seed] = reference_seed(donor);
  run_on(*destination.queue, [&] {
    destination.engine->restore(engine_seed);
    destination.middleware->restore(middleware_seed);
  });
}

void ShardedService::checkpoint_on_thread(Shard& shard) {
  if (!persistence_enabled()) return;
  run_on(*shard.queue, [&] {
    write_checkpoint(shard, last_poll_time_);
    shard.updates_since_checkpoint = 0;
  });
}

std::pair<std::uint32_t, RebalanceReport> ShardedService::add_shard() {
  ensure_ready();
  barrier();
  std::map<sim::TagId, std::uint32_t> old_owner;
  for (const auto& [tag, info] : tags_) {
    old_owner[tag] = router_.route(tag, info.zone);
  }
  const std::uint32_t id = next_shard_id_++;
  router_.add_shard(id);
  auto created = make_shard(id, /*defer_wal=*/false);
  Shard& destination = *created;
  shards_.emplace(id, std::move(created));
  seed_reference_state(destination);

  RebalanceReport report;
  report.shard = id;
  std::set<std::uint32_t> touched;
  for (const auto& [tag, info] : tags_) {
    const std::uint32_t now_owner = router_.route(tag, info.zone);
    if (now_owner == old_owner.at(tag)) continue;
    migrate_tag(tag, info, *shards_.at(old_owner.at(tag)), *shards_.at(now_owner),
                report);
    touched.insert(old_owner.at(tag));
    touched.insert(now_owner);
  }
  touched.insert(id);  // the seeded reference state must survive a crash too
  for (const auto t : touched) checkpoint_on_thread(*shards_.at(t));
  shards_gauge_->set(static_cast<double>(shards_.size()));
  return {id, report};
}

RebalanceReport ShardedService::remove_shard(std::uint32_t shard_id) {
  ensure_ready();
  if (shards_.count(shard_id) == 0) {
    throw std::invalid_argument("ShardedService::remove_shard: unknown shard");
  }
  if (shards_.size() <= 1) {
    throw std::logic_error("ShardedService::remove_shard: last shard");
  }
  barrier();
  std::vector<sim::TagId> moved;
  for (const auto& [tag, info] : tags_) {
    if (router_.route(tag, info.zone) == shard_id) moved.push_back(tag);
  }
  router_.remove_shard(shard_id);

  Shard& source = *shards_.at(shard_id);
  RebalanceReport report;
  report.shard = shard_id;
  std::set<std::uint32_t> touched;
  for (const auto tag : moved) {
    const TrackedTag& info = tags_.at(tag);
    const std::uint32_t dest = router_.route(tag, info.zone);
    migrate_tag(tag, info, source, *shards_.at(dest), report);
    touched.insert(dest);
  }
  for (const auto t : touched) checkpoint_on_thread(*shards_.at(t));
  shards_.erase(shard_id);  // Shard dtor stops the worker; disk state remains
  shards_gauge_->set(static_cast<double>(shards_.size()));
  return report;
}

std::optional<engine::TagStateSnapshot> ShardedService::export_tag_state(
    sim::TagId tag) {
  ensure_ready();
  const auto it = tags_.find(tag);
  if (it == tags_.end()) {
    throw std::invalid_argument("ShardedService::export_tag_state: unknown tag");
  }
  barrier();  // queued ingest must land before the state leaves
  Shard& source = *shards_.at(router_.route(tag, it->second.zone));
  auto state = run_on(*source.queue,
                      [&]() -> std::optional<engine::TagStateSnapshot> {
                        auto exported = source.engine->export_tag(tag);
                        source.engine->untrack(tag);
                        return exported;
                      });
  tags_.erase(it);
  return state;
}

void ShardedService::import_tag_state(sim::TagId tag,
                                      std::optional<std::uint32_t> zone,
                                      const engine::TagStateSnapshot& state) {
  ensure_ready();
  track(tag, state.name, zone);
  Shard& owner = *shards_.at(router_.route(tag, zone));
  run_on(*owner.queue, [&] { owner.engine->import_tag(tag, state); });
}

std::pair<engine::EngineStateSnapshot, sim::Middleware::Snapshot>
ShardedService::seed_export() {
  ensure_ready();
  barrier();
  return reference_seed(*shards_.begin()->second);
}

void ShardedService::seed_import(const engine::EngineStateSnapshot& engine_seed,
                                 const sim::Middleware::Snapshot& middleware_seed) {
  ensure_ready();
  barrier();
  // Reference state is identical on every shard by the broadcast invariant,
  // so the seed restores into each one (a vire_shardd process has exactly
  // one).
  for (auto& [id, shard] : shards_) {
    Shard& destination = *shard;
    run_on(*destination.queue, [&] {
      destination.engine->restore(engine_seed);
      destination.middleware->restore(middleware_seed);
    });
  }
}

std::uint64_t ShardedService::admin_add_shard() { return add_shard().first; }

std::uint64_t ShardedService::admin_remove_shard(std::uint32_t id) {
  return remove_shard(id).moved_tags;
}

std::vector<std::uint32_t> ShardedService::shard_ids() const {
  std::vector<std::uint32_t> ids;
  ids.reserve(shards_.size());
  for (const auto& [id, shard] : shards_) ids.push_back(id);
  return ids;
}

std::uint32_t ShardedService::owner_of(sim::TagId tag) const {
  std::optional<std::uint32_t> zone;
  if (const auto it = tags_.find(tag); it != tags_.end()) zone = it->second.zone;
  return router_.route(tag, zone);
}

std::string ShardedService::merged_prometheus() const {
  auto snaps = metrics_.snapshot();
  for (const auto& [id, shard] : shards_) {
    const std::string label = "shard=\"" + std::to_string(id) + "\"";
    for (auto& snap : shard->engine->metrics().snapshot()) {
      snap.labels = snap.labels.empty() ? label : snap.labels + "," + label;
      snaps.push_back(std::move(snap));
    }
  }
  return obs::to_prometheus(snaps);
}

std::string ShardedService::merged_json() const {
  auto snaps = metrics_.snapshot();
  for (const auto& [id, shard] : shards_) {
    const std::string label = "shard=\"" + std::to_string(id) + "\"";
    for (auto& snap : shard->engine->metrics().snapshot()) {
      snap.labels = snap.labels.empty() ? label : snap.labels + "," + label;
      snaps.push_back(std::move(snap));
    }
  }
  return obs::to_json(snaps);
}

std::uint64_t ShardedService::dropped_batches() const {
  std::uint64_t total = 0;
  for (const auto& [id, shard] : shards_) total += shard->queue->dropped();
  return total;
}

std::uint64_t ShardedService::blocked_pushes() const {
  std::uint64_t total = 0;
  for (const auto& [id, shard] : shards_) total += shard->queue->blocked();
  return total;
}

}  // namespace vire::service
