#pragma once
// ShardedService: N LocalizationEngine shards behind one ingest + query
// front door (docs/service.md) — the scale-out layer the ROADMAP calls the
// "logistics network" leap.
//
// Architecture:
//   ingest(reading) -> ShardRouter -> per-shard bounded ShardQueue
//     -> one worker thread per shard: Middleware -> LocalizationEngine
//          (each shard owns its own WAL segment dir + CheckpointStore)
//   poll(now) -> evict+update barrier on every shard -> k-merged fixes
//   latest_fix / explain / merged metrics -> query API
//
// Determinism contract (the core acceptance bar, locked by
// tests/service/shard_equivalence_test.cpp): a sharded run's poll() output
// is fix-for-fix BIT-IDENTICAL to a single-engine run over the same reading
// stream and poll schedule, at any shard count and any parallel_workers —
// including after crash+recovery and across live rebalances. Mechanism:
//   * reference-tag readings are broadcast to every shard, so every shard
//     evolves the same reader-health state and the same virtual grid;
//   * tracked-tag readings are partitioned by the router, and per-tag
//     locate() depends only on the grid plus that tag's own window;
//   * each shard's queue is FIFO with a single consumer, so the shard's
//     engine sees ingest/evict/update in exactly the stream order;
//   * poll() merges the per-shard fix vectors in tag order — the same order
//     a single engine (which iterates its tag map) would emit.
//
// Threading model: the service spawns one worker thread per shard; all
// public methods must be called from ONE driver thread (the UDS server's
// event loop in production). Metrics export is the exception — registries
// are internally synchronized, so merged_prometheus()/merged_json() may be
// called from anywhere.
//
// Crash recovery: construct with ServiceConfig::recover = true over the
// same data_dir and call recover() before use. Each shard restores its
// newest checkpoint and replays its own WAL suffix through the normal
// pipeline. Shards crash with skewed progress, so each recovered shard
// carries a resume gate: re-fed readings at or before its resume time are
// dropped (the shard already holds them), and a poll at or before it is
// answered from the replayed fixes instead of re-running the update. Tag
// registration is not journaled — register tags before streaming; the
// service re-applies its registry to recovered shards before replay.

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
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "persist/checkpoint.h"
#include "persist/recovery.h"
#include "persist/wal.h"
#include "service/frontend.h"
#include "service/shard_queue.h"
#include "service/shard_router.h"
#include "sim/middleware.h"
#include "sim/types.h"

namespace vire::service {

/// Quadrant zone of a position within the deployment's sensing area (2x2
/// zones, row-major: 0 = lower-left .. 3 = upper-right). The default zone id
/// source for zone-affinity pins; callers with richer floor plans can supply
/// their own ids — the router only matches them.
[[nodiscard]] std::uint32_t zone_for_position(const env::Deployment& deployment,
                                              geom::Vec2 position) noexcept;

struct ServiceConfig {
  int shards = 1;
  engine::EngineConfig engine;
  sim::MiddlewareConfig middleware;
  ShardRouterConfig router;
  /// Reading batches a shard queue buffers before backpressure engages.
  std::size_t queue_capacity = 1024;
  /// Readings per enqueued batch; a partial batch is flushed by poll().
  std::size_t ingest_batch = 64;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Per-shard persistence root (shard-<id>/{wal,checkpoints} under it);
  /// empty disables persistence.
  std::filesystem::path data_dir;
  /// Checkpoint every N update boundaries per shard (0 = never; the WAL
  /// alone still recovers, just with a longer replay).
  int checkpoint_every_updates = 8;
  persist::FsyncPolicy fsync = persist::FsyncPolicy::kEveryN;
  /// Construct for crash recovery: WAL writers stay detached until
  /// recover() has replayed each shard (requires a non-empty data_dir).
  bool recover = false;
  /// Test seam for fleet clock alignment: shifts every shard engine's trace
  /// clock by this constant (obs::Tracer::set_clock_skew_us), simulating a
  /// host whose monotonic clock disagrees with the supervisor's.
  double obs_clock_skew_us = 0.0;
};

struct RebalanceReport {
  /// The shard added or removed.
  std::uint32_t shard = 0;
  std::size_t moved_tags = 0;
  /// Readings replayed from source WALs (or middleware windows when
  /// persistence is off) into the moved tags' new owners.
  std::uint64_t replayed_readings = 0;
};

struct ServiceRecoveryReport {
  struct ShardRecovery {
    std::uint32_t shard = 0;
    persist::RecoveryReport report;
    /// The shard's resume gate: polls at or before this time are served
    /// from replayed fixes; later polls run live.
    sim::SimTime resume_time = 0.0;
  };
  std::vector<ShardRecovery> shards;
};

class ShardedService : public Frontend {
 public:
  ShardedService(const env::Deployment& deployment, ServiceConfig config);
  ~ShardedService() override;

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  /// Reference tag ids (broadcast set), forwarded to every shard engine.
  void set_reference_ids(std::vector<sim::TagId> ids) override;

  /// Registers a tag for localization. `zone` (see zone_for_position) makes
  /// the tag eligible for zone-affinity pins. Register tags and pins before
  /// streaming readings — registration is not journaled.
  void track(sim::TagId tag, std::string name = {},
             std::optional<std::uint32_t> zone = std::nullopt) override;
  void untrack(sim::TagId tag);

  /// Affinity pins (ShardRouter precedence: tag pin > zone pin > ring).
  void pin_zone(std::uint32_t zone, std::uint32_t shard);
  void pin_tag(sim::TagId tag, std::uint32_t shard);

  /// Routes one reading (or a batch) to its shard's queue — reference-tag
  /// readings broadcast to every shard. Readings to a crashed shard are
  /// counted as lost; readings at or before a recovered shard's resume time
  /// are dropped by the resume gate (the shard already holds them).
  void ingest(const sim::RssiReading& reading);
  /// A nonzero `sequence` (kIngestSeq) also journals a FrameType::kAck
  /// marker behind the batch's readings on every live shard's WAL — so
  /// heartbeat()'s last_ack_sequence reports exactly the batches whose
  /// readings are durably journaled. A batch at or below the current ack
  /// cursor is dropped whole (idempotent redelivery after a sender retry).
  /// A trace context is noted as a capture-only "wire.ingest_batch" instant
  /// on each receiving shard's tracer; localization output is bit-identical
  /// with or without one.
  void ingest(const std::vector<sim::RssiReading>& readings,
              std::uint64_t sequence = 0,
              const obs::TraceContext& ctx = {}) override;

  /// Flushes pending batches, runs evict_stale + update on every shard at
  /// `now`, and returns the merged fixes in tag order — bit-identical to a
  /// single engine polled at the same times over the same stream. Blocks
  /// until every shard finished (poll is the service's barrier).
  std::vector<engine::Fix> poll(sim::SimTime now,
                                const obs::TraceContext& ctx = {}) override;

  /// Latest fix of a tag from the most recent poll that produced one.
  [[nodiscard]] std::optional<engine::Fix> latest_fix(
      sim::TagId tag) const override;

  /// Flight-recorder provenance of the tag's most recent fix, fetched from
  /// the owning shard (nullopt when unknown/disabled/crashed).
  [[nodiscard]] std::optional<obs::FixRecord> explain(sim::TagId tag);
  std::optional<std::string> explain_json(sim::TagId tag) override;

  /// Recovers every shard after a crash (ServiceConfig::recover must be
  /// set). Call once, before any ingest/poll.
  ServiceRecoveryReport recover();
  /// Idempotent wire-facing recovery (kRecover): runs recover() when this
  /// service was constructed for recovery and has not recovered yet, then
  /// returns last_ack_sequence(). Safe to call on an already-live service.
  std::uint64_t recover_now() override;

  /// Durability cursor: highest kAck marker durably journaled by EVERY live
  /// shard (0 when none). Batches at or below it survive any crash.
  [[nodiscard]] std::uint64_t last_ack_sequence() const;
  /// Liveness + durability cursor served to kHeartbeat. Drains each shard
  /// queue to read the WAL frontier, so the answer reflects every op
  /// enqueued before the probe. Also reports the first shard engine's trace
  /// clock (for supervisor clock alignment) and the fleet-visible anomaly
  /// auto-dump count.
  HeartbeatInfo heartbeat() override;

  /// Span ring of the first live shard's engine tracer (kTraceDump). In a
  /// vire_shardd process there is exactly one shard, so this is the whole
  /// process's timeline; multi-shard in-process services export their first
  /// shard only (each engine tracer has its own epoch — mixing them would
  /// interleave unrelated clocks).
  obs::TraceDump trace_dump(std::size_t max_events) override;

  /// Flight-recorder provenance of every shard, merged as
  /// {"shards":[{"shard":N,"provenance":{...}},...]} (kProvenanceDump).
  std::optional<std::string> provenance_json() override;

  /// Simulates a hard shard failure: queued work and in-memory state are
  /// discarded (exactly what a SIGKILL loses); the shard's WAL/checkpoints
  /// stay on disk and the shard stops contributing until recover_shard().
  void crash_shard(std::uint32_t shard);
  /// Rebuilds a crashed shard from its own disk state and re-arms it.
  persist::RecoveryReport recover_shard(std::uint32_t shard);

  /// Live rebalancing. add_shard() brings up a new shard (seeded with the
  /// fleet's reference/health state), moves every tag the ring now assigns
  /// to it, and replays each moved tag's WAL suffix through the new owner's
  /// normal ingest path. remove_shard() migrates the doomed shard's tags
  /// out, then retires it (its data dir is left on disk). Post-rebalance
  /// fixes stay bit-identical to the single-engine run.
  std::pair<std::uint32_t, RebalanceReport> add_shard();
  RebalanceReport remove_shard(std::uint32_t shard);

  /// Elastic membership over the wire (wire v4 Frontend overrides). The
  /// supervisor drives these against vire_shardd processes to move tag state
  /// across process boundaries: export_tag_state atomically exports and
  /// untracks one tag on its owner's thread; import_tag_state registers the
  /// tag and adopts the state; seed_export/seed_import carry the same
  /// reference-only seed seed_reference_state uses in-process. The admin_*
  /// calls expose the in-process add_shard()/remove_shard() rebalancers.
  std::optional<engine::TagStateSnapshot> export_tag_state(
      sim::TagId tag) override;
  void import_tag_state(sim::TagId tag, std::optional<std::uint32_t> zone,
                        const engine::TagStateSnapshot& state) override;
  std::pair<engine::EngineStateSnapshot, sim::Middleware::Snapshot> seed_export()
      override;
  void seed_import(const engine::EngineStateSnapshot& engine_seed,
                   const sim::Middleware::Snapshot& middleware_seed) override;
  std::uint64_t admin_add_shard() override;
  std::uint64_t admin_remove_shard(std::uint32_t id) override;

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::vector<std::uint32_t> shard_ids() const;
  /// Current owner of a tag (tracked tags use their registered zone).
  [[nodiscard]] std::uint32_t owner_of(sim::TagId tag) const;
  [[nodiscard]] const ShardRouter& router() const noexcept { return router_; }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t tracked_count() const noexcept { return tags_.size(); }

  /// Service-level metrics (routing, queues, polls, rebalances). Per-shard
  /// engine metrics live in each shard's own registry; merged_* exports
  /// concatenate them with a shard="<id>" label appended to every series.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept override {
    return metrics_;
  }
  [[nodiscard]] std::string merged_prometheus() const;
  [[nodiscard]] std::string merged_json() const;
  std::string snapshot_prometheus() const override { return merged_prometheus(); }
  std::string snapshot_json() const override { return merged_json(); }

  /// Aggregated queue-pressure counters across shards.
  [[nodiscard]] std::uint64_t dropped_batches() const;
  [[nodiscard]] std::uint64_t blocked_pushes() const;

 private:
  struct TrackedTag {
    std::string name;
    std::optional<std::uint32_t> zone;
  };

  struct Shard {
    ~Shard();

    std::uint32_t id = 0;
    /// Owns the shard's metrics registry; declared first so every component
    /// that registered metrics is destroyed before it.
    std::unique_ptr<engine::LocalizationEngine> engine;
    std::unique_ptr<persist::WalWriter> wal;
    std::unique_ptr<persist::CheckpointStore> checkpoints;
    std::unique_ptr<sim::Middleware> middleware;
    std::unique_ptr<ShardQueue> queue;
    std::thread worker;

    /// Service-thread ingest buffer (flushed at ingest_batch / by poll()).
    std::vector<sim::RssiReading> pending;
    int updates_since_checkpoint = 0;
    /// True between crash_shard() and recover_shard(), and from a
    /// recover-mode construction until recover().
    bool awaiting_recovery = false;
    /// Resume gate (see file comment); -inf when the shard never recovered.
    sim::SimTime resume_time = -std::numeric_limits<double>::infinity();
    bool gated = false;
    /// Highest kAck marker durably journaled (written by the worker thread,
    /// read by heartbeat() on the driver thread — hence atomic).
    std::atomic<std::uint64_t> acked{0};
    /// Replayed update fixes keyed by the update time's bit pattern.
    std::map<std::uint64_t, std::vector<engine::Fix>> replayed;
  };

  [[nodiscard]] bool persistence_enabled() const noexcept {
    return !config_.data_dir.empty();
  }
  [[nodiscard]] std::filesystem::path shard_dir(std::uint32_t id) const;
  [[nodiscard]] std::filesystem::path wal_dir(std::uint32_t id) const;
  [[nodiscard]] std::filesystem::path checkpoint_dir(std::uint32_t id) const;

  void ensure_ready() const;
  std::unique_ptr<Shard> make_shard(std::uint32_t id, bool defer_wal);
  void init_shard_core(Shard& shard);
  void attach_wal(Shard& shard);
  void worker_loop(Shard& shard);
  void maybe_checkpoint(Shard& shard, sim::SimTime now);
  void write_checkpoint(Shard& shard, sim::SimTime now);
  void enqueue_reading(Shard& shard, const sim::RssiReading& reading);
  void flush_pending(Shard& shard);
  /// Drains every shard queue (round-trip no-op control op per shard); on
  /// return all workers are idle and shard state is safe to orchestrate.
  void barrier();
  ServiceRecoveryReport::ShardRecovery recover_one(Shard& shard);
  void migrate_tag(sim::TagId tag, const TrackedTag& info, Shard& source,
                   Shard& destination, RebalanceReport& report);
  [[nodiscard]] std::vector<sim::RssiReading> migration_readings(Shard& source,
                                                                 sim::TagId tag);
  void seed_reference_state(Shard& destination);
  /// Donor's engine+middleware snapshot stripped to reference-only state
  /// (shared by seed_reference_state and seed_export).
  [[nodiscard]] std::pair<engine::EngineStateSnapshot, sim::Middleware::Snapshot>
  reference_seed(Shard& donor);
  void checkpoint_on_thread(Shard& shard);

  env::Deployment deployment_;
  ServiceConfig config_;
  ShardRouter router_;
  std::map<std::uint32_t, std::unique_ptr<Shard>> shards_;  ///< id order
  std::uint32_t next_shard_id_ = 0;
  std::vector<sim::TagId> reference_ids_;
  std::unordered_set<sim::TagId> reference_set_;
  std::map<sim::TagId, TrackedTag> tags_;
  std::map<sim::TagId, engine::Fix> latest_;
  sim::SimTime last_poll_time_ = 0.0;
  bool recovered_ = false;

  obs::MetricsRegistry metrics_;
  obs::Counter* readings_total_ = nullptr;
  obs::Counter* broadcasts_total_ = nullptr;
  obs::Counter* batches_total_ = nullptr;
  obs::Counter* batches_dropped_ = nullptr;
  obs::Counter* ingest_blocked_ = nullptr;
  obs::Counter* readings_gated_ = nullptr;
  obs::Counter* readings_lost_ = nullptr;
  obs::Counter* polls_total_ = nullptr;
  obs::Counter* polls_substituted_ = nullptr;
  obs::Counter* rebalance_moved_tags_ = nullptr;
  obs::Counter* rebalance_replayed_ = nullptr;
  obs::Counter* recoveries_total_ = nullptr;
  obs::Counter* checkpoint_failures_ = nullptr;
  obs::Gauge* shards_gauge_ = nullptr;
  obs::Gauge* queue_high_water_ = nullptr;
  obs::Histogram* poll_seconds_ = nullptr;
};

}  // namespace vire::service
