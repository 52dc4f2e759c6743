#pragma once
// Frontend: the request-handling surface the wire server drives
// (docs/service.md). Two implementations exist — ShardedService (one
// engine: a shard) and Supervisor (the coordinator of a fleet of shards) —
// and ServiceServer speaks to either one, so a shard and vire_supervisord
// share a single server/event-loop implementation.
//
// Threading: like ShardedService, every mutating call comes from ONE driver
// thread (the server's event loop); snapshot_* must additionally be safe
// from any thread (metrics registries are internally synchronized).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/localization_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/wire.h"
#include "sim/middleware.h"
#include "sim/types.h"

namespace vire::service {

/// Durability cursor reported by kHeartbeatAck: how far the implementation's
/// journal has advanced, and the highest ingest-batch sequence whose readings
/// are durably journaled (see persist::FrameType::kAck). The observability
/// fields ride along so every heartbeat doubles as a clock-alignment and
/// anomaly-surfacing probe (docs/observability.md, "Fleet observability").
struct HeartbeatInfo {
  std::uint64_t wal_next_sequence = 0;
  std::uint64_t last_ack_sequence = 0;
  /// Implementation's monotonic trace clock (obs::Tracer::now_us) at answer
  /// time; 0 when the implementation has no tracer.
  double mono_now_us = 0.0;
  /// Cumulative engine anomaly auto-dumps since process start.
  std::uint64_t anomaly_dumps = 0;
};

class Frontend {
 public:
  virtual ~Frontend() = default;

  /// A run of reading batches in (kIngest, kIngestSeq), in stream order:
  /// the server hands over every ingest frame one socket read delivered up
  /// to the first other frame, so an implementation pays its fixed per-call
  /// costs once per run. Each batch keeps its own identity: a nonzero
  /// `sequence` keys the sender's resend window (0 = unsequenced;
  /// implementations without ack plumbing ignore it), and `ctx` is the
  /// propagated trace context, capture-only: implementations may record it
  /// for trace correlation but must never let it affect localization. The
  /// readings are borrowed for the call; nothing may keep a view of them.
  virtual void ingest(std::span<const IngestBatch> run) = 0;

  /// One batch: a run of one. Implementations bring it into scope with
  /// `using Frontend::ingest;`.
  void ingest(const std::vector<sim::RssiReading>& readings,
              std::uint64_t sequence = 0, const obs::TraceContext& ctx = {}) {
    const IngestBatch batch{readings, sequence, ctx};
    ingest(std::span<const IngestBatch>(&batch, 1));
  }

  /// Evict + update at `now` (kPoll); `ctx` is capture-only like ingest's.
  virtual std::vector<engine::Fix> poll(sim::SimTime now,
                                        const obs::TraceContext& ctx = {}) = 0;
  [[nodiscard]] virtual std::optional<engine::Fix> latest_fix(
      sim::TagId tag) const = 0;
  /// Flight-recorder provenance as JSON; nullopt when there is none.
  virtual std::optional<std::string> explain_json(sim::TagId tag) = 0;

  virtual std::string snapshot_prometheus() const = 0;
  virtual std::string snapshot_json() const = 0;

  virtual void set_reference_ids(std::vector<sim::TagId> ids) = 0;
  virtual void track(sim::TagId tag, std::string name,
                     std::optional<std::uint32_t> zone) = 0;

  /// kRecover: run checkpoint+WAL recovery now; returns the recovered
  /// last-ack sequence. Only meaningful for implementations that journal.
  virtual std::uint64_t recover_now() {
    throw std::runtime_error("recovery not supported by this frontend");
  }

  /// kHeartbeat: liveness + durability cursor. The default (all zeros) is a
  /// valid "alive, nothing journaled" answer.
  virtual HeartbeatInfo heartbeat() { return {}; }

  /// kTraceDump: export the implementation's span ring (most recent
  /// `max_events`, 0 = all retained) for fleet-trace aggregation. The
  /// default empty dump is valid for implementations without a tracer.
  virtual obs::TraceDump trace_dump(std::size_t max_events) {
    (void)max_events;
    return {};
  }

  /// kProvenanceDump: flight-recorder provenance of every tracked tag as
  /// JSON; nullopt when the implementation records none.
  virtual std::optional<std::string> provenance_json() { return std::nullopt; }

  // -- elastic membership (wire v4) --------------------------------------
  // Implemented by ShardedService (a shard's tag and seed state moves) and
  // by Supervisor (admin_* drive the add/remove state machine). Defaults
  // throw; the server surfaces that as kError, so frontends that cannot
  // migrate state refuse cleanly instead of silently dropping tags.

  /// kExportTag: atomically export and untrack one tag's engine state.
  /// Inner nullopt: the tag held no state (never updated) — still untracked.
  virtual std::optional<engine::TagStateSnapshot> export_tag_state(
      sim::TagId tag) {
    (void)tag;
    throw std::runtime_error("tag export not supported by this frontend");
  }

  /// kImportTag: register `tag` (name from the snapshot, optional zone pin)
  /// and adopt its exported engine state.
  virtual void import_tag_state(sim::TagId tag,
                                std::optional<std::uint32_t> zone,
                                const engine::TagStateSnapshot& state) {
    (void)tag;
    (void)zone;
    (void)state;
    throw std::runtime_error("tag import not supported by this frontend");
  }

  /// kSeedExport: reference-only engine + middleware seed (tracked tags and
  /// their state stripped) for bootstrapping a joining shard.
  virtual std::pair<engine::EngineStateSnapshot, sim::Middleware::Snapshot>
  seed_export() {
    throw std::runtime_error("seed export not supported by this frontend");
  }

  /// kSeedImport: restore a reference-only seed produced by seed_export.
  virtual void seed_import(const engine::EngineStateSnapshot& engine_seed,
                           const sim::Middleware::Snapshot& middleware_seed) {
    (void)engine_seed;
    (void)middleware_seed;
    throw std::runtime_error("seed import not supported by this frontend");
  }

  /// kAddShard: join one shard and rebalance; returns the new shard id.
  virtual std::uint64_t admin_add_shard() {
    throw std::runtime_error("add-shard not supported by this frontend");
  }

  /// kRemoveShard: drain and retire shard `id`; returns tags moved away.
  virtual std::uint64_t admin_remove_shard(std::uint32_t id) {
    (void)id;
    throw std::runtime_error("remove-shard not supported by this frontend");
  }

  /// Registry the server parks connection decoder counters in.
  [[nodiscard]] virtual obs::MetricsRegistry& metrics() = 0;
};

}  // namespace vire::service
