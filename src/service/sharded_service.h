#pragma once
// ShardedService: the one-engine shard host (docs/service.md). vire_shardd
// serves one over the wire protocol, and InProcessShardRunner hosts one per
// shard behind a ServiceServer thread; the Supervisor is the only
// coordinator of a multi-shard fleet (routing, reference broadcast, poll
// merge, migration and crash recovery all live there).
//
// Architecture:
//   ingest(batch) -> bounded ShardQueue -> one worker thread:
//     Middleware (journals to the WAL) -> LocalizationEngine
//   poll(now) -> evict + update on the worker -> fixes in tag order
//   latest_fix / explain / metrics -> query API
//
// Determinism: the queue is FIFO with a single consumer, so the engine sees
// ingest/evict/update in exactly the stream order, and poll() answers what
// a bare engine fed the same stream answers, bit for bit, at any
// parallel_workers (tests/service/shard_equivalence_test.cpp).
//
// Threading model: the service spawns one worker thread; all public methods
// must be called from ONE driver thread (the UDS server's event loop in
// production). Metrics export is the exception — registries are internally
// synchronized, so snapshot_prometheus()/snapshot_json() may be called from
// anywhere.
//
// Crash recovery: construct with ServiceConfig::recover = true over the
// same data_dir, register reference ids and tags, and call recover() before
// use. The engine restores its newest checkpoint and replays its WAL suffix
// through the normal pipeline. The recovered service carries a resume gate:
// re-fed readings at or before its resume time are dropped (the engine
// already holds them), and a poll at or before it is answered from the
// replayed fixes instead of re-running the update. Tag registration is not
// journaled — register tags before streaming; recover() re-applies the
// registry to the engine before replay.
//
// On-disk layout: <data_dir>/shard-0/{wal,checkpoints}.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/localization_engine.h"
#include "env/deployment.h"
#include "obs/metrics.h"
#include "persist/checkpoint.h"
#include "persist/recovery.h"
#include "persist/wal.h"
#include "service/frontend.h"
#include "service/shard_queue.h"
#include "sim/middleware.h"
#include "sim/types.h"

namespace vire::service {

struct ServiceConfig {
  /// Engines hosted. Must be 1: the Supervisor shards a fleet.
  int shards = 1;
  engine::EngineConfig engine;
  sim::MiddlewareConfig middleware;
  /// Persistence root (shard-0/{wal,checkpoints} under it); empty disables
  /// persistence.
  std::filesystem::path data_dir;
  /// Checkpoint every N update boundaries (0 = never; the WAL alone still
  /// recovers, just with a longer replay).
  int checkpoint_every_updates = 8;
  persist::FsyncPolicy fsync = persist::FsyncPolicy::kEveryN;
  /// Construct for crash recovery: the WAL writer stays detached until
  /// recover() has replayed (requires a non-empty data_dir).
  bool recover = false;
  /// Test seam for fleet clock alignment: shifts the engine's trace clock by
  /// this constant (obs::Tracer::set_clock_skew_us), simulating a host whose
  /// monotonic clock disagrees with the supervisor's.
  double obs_clock_skew_us = 0.0;
};

class ShardedService : public Frontend {
 public:
  ShardedService(const env::Deployment& deployment, ServiceConfig config);
  ~ShardedService() override;

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  void set_reference_ids(std::vector<sim::TagId> ids) override;

  /// Registers a tag for localization. The zone is a routing hint for the
  /// coordinator and is ignored here. Register tags before streaming
  /// readings — registration is not journaled.
  void track(sim::TagId tag, std::string name = {},
             std::optional<std::uint32_t> zone = std::nullopt) override;

  /// Queues a reading batch for the worker. Readings at or before a
  /// recovered service's resume time are dropped by the resume gate. A
  /// nonzero `sequence` (kIngestSeq) also journals a FrameType::kAck marker
  /// behind the batch's readings — so heartbeat()'s last_ack_sequence
  /// reports exactly the batches whose readings are durably journaled. A
  /// batch at or below the ack cursor is dropped whole (idempotent
  /// redelivery after a sender retry). A trace context is noted as a
  /// capture-only "wire.ingest_batch" instant on the engine's tracer;
  /// localization output is bit-identical with or without one.
  void ingest(const std::vector<sim::RssiReading>& readings,
              std::uint64_t sequence = 0,
              const obs::TraceContext& ctx = {}) override;

  /// Runs evict_stale + update at `now` behind everything queued and
  /// returns the fixes in tag order. Blocks until the worker finished.
  std::vector<engine::Fix> poll(sim::SimTime now,
                                const obs::TraceContext& ctx = {}) override;

  /// Latest fix of a tag from the most recent poll that produced one.
  [[nodiscard]] std::optional<engine::Fix> latest_fix(
      sim::TagId tag) const override;

  /// Flight-recorder provenance of the tag's most recent fix as JSON
  /// (nullopt when the tag is unknown or has no record).
  std::optional<std::string> explain_json(sim::TagId tag) override;

  /// Recovers after a crash (ServiceConfig::recover must be set). Call
  /// once, before any ingest/poll.
  persist::RecoveryReport recover();
  /// Idempotent wire-facing recovery (kRecover): runs recover() when this
  /// service was constructed for recovery and has not recovered yet, then
  /// returns last_ack_sequence(). Safe to call on an already-live service.
  std::uint64_t recover_now() override;

  /// Durability cursor: highest kAck marker durably journaled (0 when none).
  /// Batches at or below it survive any crash.
  [[nodiscard]] std::uint64_t last_ack_sequence() const;
  /// Liveness + durability cursor served to kHeartbeat. Drains the queue
  /// once to read the WAL frontier and the anomaly auto-dump count, so the
  /// answer reflects every op enqueued before the probe. Also reports the
  /// engine's trace clock (for supervisor clock alignment).
  HeartbeatInfo heartbeat() override;

  /// The engine tracer's span ring (kTraceDump).
  obs::TraceDump trace_dump(std::size_t max_events) override;

  /// The engine's flight-recorder provenance (kProvenanceDump).
  std::optional<std::string> provenance_json() override;

  /// Stops the worker the way a SIGKILL would: every queued op is
  /// discarded and no checkpoint is written (the WAL and checkpoints stay
  /// on disk for a later recovery). Only destruction may follow.
  void kill();

  /// Tag state moves for the supervisor's cross-shard migration (wire v4):
  /// export_tag_state atomically exports and untracks one tag;
  /// import_tag_state registers the tag and adopts the state;
  /// seed_export/seed_import carry the reference-only seed a joining shard
  /// starts from.
  std::optional<engine::TagStateSnapshot> export_tag_state(
      sim::TagId tag) override;
  void import_tag_state(sim::TagId tag, std::optional<std::uint32_t> zone,
                        const engine::TagStateSnapshot& state) override;
  std::pair<engine::EngineStateSnapshot, sim::Middleware::Snapshot> seed_export()
      override;
  void seed_import(const engine::EngineStateSnapshot& engine_seed,
                   const sim::Middleware::Snapshot& middleware_seed) override;

  /// Service-level metrics (ingest, queue, polls, recovery). The engine's
  /// own registry is exported beside it by snapshot_*.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept override {
    return metrics_;
  }
  std::string snapshot_prometheus() const override;
  std::string snapshot_json() const override;

 private:
  [[nodiscard]] bool persistence_enabled() const noexcept {
    return !config_.data_dir.empty();
  }
  /// False between a recover-mode construction and recover().
  [[nodiscard]] bool ready() const noexcept {
    return !config_.recover || recovered_;
  }
  [[nodiscard]] std::filesystem::path wal_dir() const;
  [[nodiscard]] std::filesystem::path checkpoint_dir() const;

  void ensure_ready() const;
  void attach_wal();
  void worker_loop();
  void maybe_checkpoint(sim::SimTime now);
  void enqueue(const sim::RssiReading& reading);
  void flush_pending();
  /// Runs `fn` on the worker thread behind everything already queued and
  /// returns its result; on return the queue is drained.
  template <typename Fn>
  auto run_on_worker(Fn fn);

  ServiceConfig config_;
  obs::MetricsRegistry metrics_;
  /// Owns the engine's metrics registry; declared before every component
  /// that registers metrics in it, so it is destroyed after them.
  engine::LocalizationEngine engine_;
  std::unique_ptr<persist::CheckpointStore> checkpoints_;
  std::unique_ptr<persist::WalWriter> wal_;
  /// Holds the WAL as its journal, so it is destroyed before the WAL.
  sim::Middleware middleware_;
  ShardQueue queue_;
  std::thread worker_;

  std::vector<sim::TagId> reference_ids_;
  std::unordered_set<sim::TagId> reference_set_;
  std::map<sim::TagId, std::string> tags_;
  std::map<sim::TagId, engine::Fix> latest_;
  bool recovered_ = false;

  /// Driver-thread ingest buffer (flushed at a full batch, by poll() and by
  /// every worker round trip).
  std::vector<sim::RssiReading> pending_;
  /// Worker-thread checkpoint cadence counter.
  int updates_since_checkpoint_ = 0;
  /// Resume gate (see file comment); -inf when the service never recovered.
  sim::SimTime resume_time_ = -std::numeric_limits<double>::infinity();
  bool gated_ = false;
  /// Highest kAck marker durably journaled (written by the worker thread,
  /// read by the driver thread — hence atomic).
  std::atomic<std::uint64_t> acked_{0};
  /// Replayed update fixes keyed by the update time's bit pattern.
  std::map<std::uint64_t, std::vector<engine::Fix>> replayed_;

  obs::Counter* readings_total_ = nullptr;
  obs::Counter* broadcasts_total_ = nullptr;
  obs::Counter* batches_total_ = nullptr;
  obs::Counter* ingest_blocked_ = nullptr;
  obs::Counter* readings_gated_ = nullptr;
  obs::Counter* polls_total_ = nullptr;
  obs::Counter* polls_substituted_ = nullptr;
  obs::Counter* recoveries_total_ = nullptr;
  obs::Counter* checkpoint_failures_ = nullptr;
  obs::Gauge* queue_high_water_ = nullptr;
  obs::Histogram* poll_seconds_ = nullptr;
};

}  // namespace vire::service
