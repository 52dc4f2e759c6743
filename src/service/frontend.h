#pragma once
// Frontend: the request protocol both service hosts serve (docs/service.md,
// "Who serves what"). Two implementations exist — ShardedService (one
// engine: a shard) and Supervisor (the coordinator of a fleet of shards) —
// and ServiceServer speaks to either one, so a shard and vire_supervisord
// share a single server/event-loop implementation. Requests only one host
// serves are plain members of that host: the shard's recovery and
// tag/seed state moves (kRecover, kExportTag, kImportTag, kSeedExport,
// kSeedImport) on ShardedService, and the membership changes (kAddShard,
// kRemoveShard) on Supervisor. ServiceServer reaches them through the
// typed host it was constructed over and answers kError on the other one.
//
// Threading: like ShardedService, every mutating call comes from ONE driver
// thread (the server's event loop); snapshot_* must additionally be safe
// from any thread (metrics registries are internally synchronized).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "engine/localization_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/wire.h"
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

  /// Registry the server parks connection decoder counters in.
  [[nodiscard]] virtual obs::MetricsRegistry& metrics() = 0;
};

}  // namespace vire::service
