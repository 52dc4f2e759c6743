#pragma once
// Wire-protocol clients of the localization service (docs/service.md).
//
// ServiceClient is a minimal blocking client: one connection, one
// outstanding request per connection. A caller driving several connections
// may split a poll into send_poll() and receive_poll() to have every peer
// working at once, as long as each connection's reply is read before that
// connection carries another request. Robustness hardening lives here
// rather than in callers:
//   * every read is bounded by ClientConfig::read_timeout_s via poll(2) —
//     a hung or wedged server surfaces as TimeoutError, never an infinite
//     block;
//   * every connection opens with a version/hello handshake, so a peer
//     speaking a different kWireVersion fails fast with a clear error
//     instead of limping through CRC resyncs;
//   * writes use MSG_NOSIGNAL — a peer dying mid-write is a TransportError
//     return, not SIGPIPE process death.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/localization_engine.h"
#include "service/wire.h"
#include "sim/types.h"

namespace vire::service {

/// Socket-level failure (connect, send, read, handshake transport). Retry
/// may help; the request's effect on the server is unknown.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A read exceeded ClientConfig::read_timeout_s.
class TimeoutError : public TransportError {
 public:
  using TransportError::TransportError;
};

struct ClientConfig {
  /// Per-read deadline in seconds; <= 0 blocks forever (legacy behavior).
  double read_timeout_s = 5.0;
  /// Name sent in the kHello frame every connection opens with (diagnostics
  /// only). A version skew throws TransportError with the server's reason.
  std::string peer_name = "client";
};

/// Installs SIG_IGN for SIGPIPE, so a peer dying mid-write surfaces as an
/// EPIPE error return instead of killing the process. Call once from main();
/// idempotent. (The clients/server also pass MSG_NOSIGNAL on every send —
/// this guards third-party code writing to sockets.)
void ignore_sigpipe() noexcept;

class ServiceClient {
 public:
  /// Connects immediately; throws TransportError on failure.
  explicit ServiceClient(const std::filesystem::path& socket_path,
                         ClientConfig config = {});
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Fire-and-forget reading batch.
  void stream(const std::vector<sim::RssiReading>& readings);
  /// Fire-and-forget sequenced batch (kIngestSeq); the server acks it
  /// durably via its WAL, observable through heartbeat().
  void stream_sequenced(std::uint64_t sequence,
                        const std::vector<sim::RssiReading>& readings);
  /// A run of sequenced batches, each with the trace context the server
  /// records capture-only: one kIngestSeq frame each, all in one send.
  void stream_sequenced(std::span<const IngestBatch> run);

  /// Round trips. Each throws TransportError (TimeoutError on deadline) on
  /// a transport failure, std::runtime_error on a kError response (message
  /// = the server's error text).
  std::vector<engine::Fix> poll(sim::SimTime now, const obs::TraceContext& ctx = {});
  /// poll() in two halves: send_poll() writes the request and returns at
  /// once; receive_poll() blocks for its reply. poll() is the two in
  /// sequence. Nothing else may be sent on this client in between.
  void send_poll(sim::SimTime now, const obs::TraceContext& ctx = {});
  std::vector<engine::Fix> receive_poll();
  std::optional<engine::Fix> latest_fix(sim::TagId tag);
  /// Flight-recorder JSON for the tag, or nullopt when the server has none.
  std::optional<std::string> explain(sim::TagId tag);
  std::string snapshot_prometheus();
  std::string snapshot_json();

  /// Liveness probe: sends kHeartbeat with `seq`, returns the server's
  /// durability cursor.
  HeartbeatAck heartbeat(std::uint64_t seq);
  void track(const TrackRequest& request);
  void set_reference_ids(const std::vector<sim::TagId>& ids);
  /// Asks the server to run checkpoint+WAL recovery; returns the recovered
  /// last-ack batch sequence.
  std::uint64_t recover_now();
  /// Pulls the server's span ring (kTraceDump) for fleet-trace aggregation;
  /// `max_events` bounds the reply (0 = everything retained).
  obs::TraceDump trace_dump(std::uint32_t max_events);
  /// Pulls flight-recorder provenance JSON (kProvenanceDump), or nullopt
  /// when the server records none.
  std::optional<std::string> provenance();

  // Elastic-membership round trips (wire v4). Each surfaces a refusing
  // frontend (kError) as std::runtime_error, like the calls above.
  /// Export + untrack one tag's state; nullopt = tag held no state.
  std::optional<engine::TagStateSnapshot> export_tag_state(sim::TagId tag);
  /// Register `tag` on the server and adopt its exported state.
  void import_tag_state(sim::TagId tag, std::optional<std::uint32_t> zone,
                        const engine::TagStateSnapshot& state);
  /// Pull the server's reference-only seed (kSeedExport).
  SeedState seed_export();
  /// Restore a reference-only seed (kSeedImport).
  void seed_import(const SeedState& seed);
  /// Supervisor admin: join one shard; returns the new shard id.
  std::uint64_t add_shard();
  /// Supervisor admin: drain + retire shard `id`; returns tags moved.
  std::uint64_t remove_shard(std::uint32_t id);

  [[nodiscard]] const std::string& server_name() const noexcept {
    return server_name_;
  }

 private:
  void connect(const std::filesystem::path& socket_path);
  void handshake();
  void send_all(std::string_view bytes);
  /// Blocks until one complete frame arrives or the deadline expires.
  Frame read_frame();
  std::string snapshot(std::uint8_t format);
  /// One round trip expecting `expected`: send, then receive().
  Frame request(MsgType type, std::string_view payload, MsgType expected,
                const char* what);
  /// Reads one reply expecting `expected` (kError → runtime_error).
  Frame receive(MsgType expected, const char* what);

  ClientConfig config_;
  int fd_ = -1;
  FrameDecoder decoder_;
  std::string server_name_;
};

}  // namespace vire::service
