#include "service/sharded_service.h"

#include <algorithm>
#include <bit>
#include <exception>
#include <future>
#include <stdexcept>
#include <type_traits>

#include "obs/exporters.h"

namespace vire::service {

namespace {

/// Reading batches the queue buffers before ingest waits for room.
constexpr std::size_t kQueueCapacity = 1024;
/// Readings per enqueued batch; a partial batch is flushed by poll().
constexpr std::size_t kIngestBatch = 64;

std::uint64_t time_key(sim::SimTime t) noexcept {
  return std::bit_cast<std::uint64_t>(t);
}

}  // namespace

template <typename Fn>
auto ShardedService::run_on_worker(Fn fn) {
  using R = std::invoke_result_t<Fn>;
  flush_pending();  // the closure must run behind every buffered reading
  std::promise<R> done;
  auto future = done.get_future();
  queue_.push_control([&] {
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

ShardedService::ShardedService(const env::Deployment& deployment,
                               ServiceConfig config)
    : config_(std::move(config)),
      engine_(deployment, config_.engine),
      middleware_(deployment.reader_count(), config_.middleware),
      queue_(kQueueCapacity) {
  if (config_.shards != 1) {
    throw std::invalid_argument(
        "ShardedService: hosts exactly one engine (shards must be 1); a "
        "multi-shard fleet is coordinated by the Supervisor");
  }
  if (config_.recover && !persistence_enabled()) {
    throw std::invalid_argument("ShardedService: recover requires a data_dir");
  }
  readings_total_ = &metrics_.counter("vire_service_readings_total", {},
                                      "Readings accepted by the service front door");
  broadcasts_total_ =
      &metrics_.counter("vire_service_reference_broadcasts_total", {},
                        "Reference-tag readings received (the coordinator "
                        "broadcasts them to every shard)");
  batches_total_ = &metrics_.counter("vire_service_batches_total", {},
                                     "Reading batches enqueued to the shard queue");
  ingest_blocked_ =
      &metrics_.counter("vire_service_ingest_blocked_total", {},
                        "Enqueues that waited for queue room");
  readings_gated_ =
      &metrics_.counter("vire_service_readings_gated_total", {},
                        "Re-fed readings dropped by the recovered resume gate");
  polls_total_ = &metrics_.counter("vire_service_polls_total", {},
                                   "poll() barriers executed");
  polls_substituted_ =
      &metrics_.counter("vire_service_poll_substituted_total", {},
                        "Polls served from replayed fixes");
  recoveries_total_ = &metrics_.counter("vire_service_recoveries_total", {},
                                        "Crash recoveries completed");
  checkpoint_failures_ =
      &metrics_.counter("vire_service_checkpoint_failures_total", {},
                        "Checkpoints that failed to write");
  queue_high_water_ = &metrics_.gauge("vire_service_queue_high_water", {},
                                      "Deepest queue observed (ops)");
  poll_seconds_ = &metrics_.histogram("vire_service_poll_seconds",
                                      obs::default_latency_buckets_s(), {},
                                      "Wall time of the poll barrier");

  if (config_.obs_clock_skew_us != 0.0) {
    engine_.tracer().set_clock_skew_us(config_.obs_clock_skew_us);
  }
  middleware_.attach_metrics(engine_.metrics());
  if (persistence_enabled()) {
    persist::CheckpointStoreConfig store;
    store.dir = checkpoint_dir();
    checkpoints_ = std::make_unique<persist::CheckpointStore>(store);
    checkpoints_->attach_metrics(engine_.metrics());
    if (!config_.recover) attach_wal();
  }
  worker_ = std::thread([this] { worker_loop(); });
}

ShardedService::~ShardedService() {
  // Runs everything already queued, then stops. Readings still in pending_
  // were never handed to the worker and are dropped.
  if (worker_.joinable()) {
    queue_.push_stop();
    worker_.join();
  }
}

void ShardedService::kill() {
  if (!worker_.joinable()) return;
  queue_.discard_pending();
  pending_.clear();
  queue_.push_stop();
  worker_.join();
}

std::filesystem::path ShardedService::wal_dir() const {
  return config_.data_dir / "shard-0" / "wal";
}
std::filesystem::path ShardedService::checkpoint_dir() const {
  return config_.data_dir / "shard-0" / "checkpoints";
}

void ShardedService::ensure_ready() const {
  if (!ready()) {
    throw std::logic_error(
        "ShardedService: constructed for recovery — call recover() first");
  }
}

void ShardedService::attach_wal() {
  persist::WalConfig wal;
  wal.dir = wal_dir();
  wal.fsync = config_.fsync;
  wal_ = std::make_unique<persist::WalWriter>(wal);
  wal_->attach_metrics(engine_.metrics());
  middleware_.attach_journal(wal_.get());
}

void ShardedService::worker_loop() {
  for (;;) {
    ShardQueue::Op op = queue_.pop();
    switch (op.kind) {
      case ShardQueue::Op::Kind::kReadings:
        for (const auto& reading : op.readings) middleware_.ingest(reading);
        break;
      case ShardQueue::Op::Kind::kEvict:
        middleware_.evict_stale(op.time);
        break;
      case ShardQueue::Op::Kind::kUpdate:
        try {
          // Marker journaled BEFORE the update, mirroring the single-engine
          // persistence protocol: a crash mid-update replays it.
          if (wal_ != nullptr) wal_->append_update_marker(op.time);
          auto fixes = engine_.update(middleware_, op.time);
          maybe_checkpoint(op.time);
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

void ShardedService::maybe_checkpoint(sim::SimTime now) {
  if (checkpoints_ == nullptr || config_.checkpoint_every_updates <= 0) return;
  if (++updates_since_checkpoint_ < config_.checkpoint_every_updates) return;
  updates_since_checkpoint_ = 0;
  try {
    persist::Checkpoint ckpt;
    ckpt.config_fingerprint = persist::engine_config_fingerprint(config_.engine);
    ckpt.wal_sequence = wal_ != nullptr ? wal_->next_sequence() : 0;
    ckpt.sim_time = now;
    ckpt.engine = engine_.snapshot();
    ckpt.middleware = middleware_.snapshot();
    ckpt.counters = persist::sample_counters(engine_.metrics());
    checkpoints_->write(ckpt);
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
  if (!ready()) return;  // applied by recover()
  run_on_worker([this] { engine_.set_reference_ids(reference_ids_); });
}

void ShardedService::track(sim::TagId tag, std::string name,
                           std::optional<std::uint32_t> /*zone*/) {
  tags_[tag] = name;
  if (!ready()) return;  // applied by recover()
  run_on_worker([&] { engine_.track(tag, name); });
}

void ShardedService::enqueue(const sim::RssiReading& reading) {
  readings_total_->inc();
  if (reference_set_.count(reading.tag) != 0) broadcasts_total_->inc();
  if (gated_ && reading.time <= resume_time_) {
    readings_gated_->inc();
    return;
  }
  pending_.push_back(reading);
  if (pending_.size() >= kIngestBatch) flush_pending();
}

void ShardedService::flush_pending() {
  if (pending_.empty()) return;
  const std::uint64_t blocked_before = queue_.blocked();
  queue_.push_readings(std::move(pending_));
  pending_ = {};
  batches_total_->inc();
  if (queue_.blocked() != blocked_before) ingest_blocked_->inc();
}

void ShardedService::ingest(const std::vector<sim::RssiReading>& readings,
                            std::uint64_t sequence,
                            const obs::TraceContext& ctx) {
  ensure_ready();
  // Capture-only adoption: note the propagated context on the engine's
  // timeline (no-op while tracing is disabled).
  if (ctx.trace_id != 0 && engine_.tracer().enabled()) {
    engine_.tracer().instant(
        "wire.ingest_batch",
        "{\"trace_id\":" + std::to_string(ctx.trace_id) +
            ",\"parent_span\":" + std::to_string(ctx.parent_span_id) +
            ",\"sequence\":" + std::to_string(sequence) + "}");
  }
  // Redelivery of a batch already acked: drop it whole. (A batch past the
  // cursor re-ingests; the middleware's last-write-wins duplicate policy
  // and the resume gate absorb overlap.)
  if (sequence != 0 && sequence <= last_ack_sequence()) return;
  for (const auto& reading : readings) enqueue(reading);
  if (sequence == 0) return;
  // Ack marker strictly AFTER the batch's readings: flush them into the
  // FIFO queue first, then append the marker behind them on the worker.
  flush_pending();
  queue_.push_control([this, sequence] {
    if (wal_ != nullptr) wal_->append_ack_marker(sequence);
    acked_.store(sequence, std::memory_order_release);
  });
}

std::uint64_t ShardedService::last_ack_sequence() const {
  return acked_.load(std::memory_order_acquire);
}

HeartbeatInfo ShardedService::heartbeat() {
  // One drain answers everything the worker owns; it also executes any
  // queued ack markers, so the cursor read after it covers every batch
  // enqueued before this probe.
  const auto [wal_next, dumps] = run_on_worker([this] {
    return std::make_pair(wal_ != nullptr ? wal_->next_sequence() : 0,
                          engine_.auto_dump_count());
  });
  HeartbeatInfo info;
  info.wal_next_sequence = wal_next;
  info.last_ack_sequence = last_ack_sequence();
  info.mono_now_us = engine_.tracer().now_us();
  info.anomaly_dumps = static_cast<std::uint64_t>(std::max(0, dumps));
  return info;
}

obs::TraceDump ShardedService::trace_dump(std::size_t max_events) {
  return engine_.tracer().dump(max_events);
}

std::optional<std::string> ShardedService::provenance_json() {
  return run_on_worker([this] { return obs::to_json(engine_.flight_recorder()); });
}

std::vector<engine::Fix> ShardedService::poll(sim::SimTime now,
                                              const obs::TraceContext& /*ctx*/) {
  ensure_ready();
  const obs::ScopedTimer timer(poll_seconds_);
  std::vector<engine::Fix> fixes;
  if (gated_ && now <= resume_time_) {
    // Replayed poll: the engine already executed this update before the
    // crash; serve the recovered fixes instead of re-running it.
    polls_substituted_->inc();
    const auto it = replayed_.find(time_key(now));
    if (it != replayed_.end()) fixes = it->second;
  } else {
    flush_pending();
    queue_.push_evict(now);
    fixes = queue_.push_update(now).get();
    gated_ = false;
    replayed_.clear();
  }
  queue_high_water_->record_max(static_cast<double>(queue_.high_water()));
  for (const auto& fix : fixes) latest_[fix.tag] = fix;
  polls_total_->inc();
  return fixes;
}

std::optional<engine::Fix> ShardedService::latest_fix(sim::TagId tag) const {
  const auto it = latest_.find(tag);
  if (it == latest_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> ShardedService::explain_json(sim::TagId tag) {
  if (!ready() || tags_.count(tag) == 0) return std::nullopt;
  return run_on_worker([&]() -> std::optional<std::string> {
    const auto record = engine_.flight_recorder().last_for_tag(tag);
    if (!record.has_value()) return std::nullopt;
    return obs::to_json(*record);
  });
}

persist::RecoveryReport ShardedService::recover() {
  if (!config_.recover) {
    throw std::logic_error("ShardedService::recover: not constructed for recovery");
  }
  if (recovered_) {
    throw std::logic_error("ShardedService::recover: already recovered");
  }
  auto report = run_on_worker([this] {
    // The engine must know the reference ids and the tag registry BEFORE
    // replay: registration is not journaled, and a cold start (no
    // checkpoint yet) replays the WAL through whatever is registered here.
    // When a checkpoint loads, its own tracked set — the same tags —
    // replaces this.
    if (!reference_ids_.empty()) engine_.set_reference_ids(reference_ids_);
    for (const auto& [tag, name] : tags_) engine_.track(tag, name);
    persist::RecoveryManager manager({wal_dir(), checkpoint_dir()});
    auto rep = manager.recover(engine_, middleware_);
    attach_wal();  // resumes after the valid prefix replay stopped at
    return rep;
  });
  resume_time_ = report.recovered_time;
  gated_ = report.checkpoint_loaded || report.frames_replayed > 0;
  acked_.store(report.last_ack_sequence, std::memory_order_release);
  replayed_.clear();
  for (const auto& fixes : report.replayed_fixes) {
    if (!fixes.empty()) replayed_.emplace(time_key(fixes[0].time), fixes);
  }
  recovered_ = true;
  recoveries_total_->inc();
  return report;
}

std::uint64_t ShardedService::recover_now() {
  if (!ready()) recover();
  return last_ack_sequence();
}

std::optional<engine::TagStateSnapshot> ShardedService::export_tag_state(
    sim::TagId tag) {
  ensure_ready();
  const auto it = tags_.find(tag);
  if (it == tags_.end()) {
    throw std::invalid_argument("ShardedService::export_tag_state: unknown tag");
  }
  // Queued ingest lands before the state leaves (run_on_worker flushes).
  auto state = run_on_worker([&]() -> std::optional<engine::TagStateSnapshot> {
    auto exported = engine_.export_tag(tag);
    engine_.untrack(tag);
    return exported;
  });
  tags_.erase(it);
  return state;
}

void ShardedService::import_tag_state(sim::TagId tag,
                                      std::optional<std::uint32_t> /*zone*/,
                                      const engine::TagStateSnapshot& state) {
  ensure_ready();
  tags_[tag] = state.name;
  run_on_worker([&] {
    engine_.track(tag, state.name);
    engine_.import_tag(tag, state);
  });
}

std::pair<engine::EngineStateSnapshot, sim::Middleware::Snapshot>
ShardedService::seed_export() {
  ensure_ready();
  auto seed = run_on_worker(
      [this] { return std::make_pair(engine_.snapshot(), middleware_.snapshot()); });
  // Every shard carries identical reference/health/grid state (the
  // coordinator broadcasts reference readings), so any shard seeds a
  // newcomer. Per-tag state stays behind — migration moves it tag by tag.
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

void ShardedService::seed_import(const engine::EngineStateSnapshot& engine_seed,
                                 const sim::Middleware::Snapshot& middleware_seed) {
  ensure_ready();
  run_on_worker([&] {
    engine_.restore(engine_seed);
    middleware_.restore(middleware_seed);
  });
}

std::string ShardedService::snapshot_prometheus() const {
  auto snaps = metrics_.snapshot();
  for (auto& snap : engine_.metrics().snapshot()) snaps.push_back(std::move(snap));
  return obs::to_prometheus(snaps);
}

std::string ShardedService::snapshot_json() const {
  auto snaps = metrics_.snapshot();
  for (auto& snap : engine_.metrics().snapshot()) snaps.push_back(std::move(snap));
  return obs::to_json(snaps);
}

}  // namespace vire::service
