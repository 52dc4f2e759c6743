#pragma once
// Unix-domain-socket front end of a service host (docs/service.md).
//
// ServiceServer accepts stream connections on a UDS path and speaks the
// wire protocol (service/wire.h): clients stream kIngest/kIngestSeq batches
// in (fire-and-forget; the ingest frames one read delivers reach the
// frontend as one run) and issue kPoll / kLatestFix / kExplain / kSnapshot /
// kHeartbeat / kTrack / kSetReference / ... requests that each get exactly
// one response frame. The server runs its own event-loop thread, which
// doubles as the host's single driver thread — while the server is running,
// do not call the host's mutating API from elsewhere (snapshot exports stay
// safe from any thread).
//
// The same server fronts both hosts: the one-engine ShardedService of a
// shard (vire_shardd, InProcessShardRunner) and the Supervisor that
// coordinates a fleet of them (vire_supervisord). Both serve the Frontend
// protocol; the constructor over each typed host also serves the requests
// only that host serves (frontend.h; docs/service.md, "Who serves what").
// Such a request reaching a server over any other host draws kError.
//
// Robustness: each connection owns a FrameDecoder registered with the
// frontend's metrics registry, so every rejected frame lands in
// vire_service_rejected_frames_total{reason=...}. A frame that resyncs
// (bad CRC / unknown type) is skipped; a payload that fails typed decode
// draws a kError response; a poisoned stream (garbage length prefix) drops
// the connection; a kHello with a different kWireVersion draws a
// reason-labelled kError and the connection is closed after the reply.
// A frontend method that throws is answered with kError — a handler
// exception never kills the server. A response too large for one frame is
// answered with kError instead of a frame the peer's decoder would reject
// as hostile (and a supervising client would misread as a shard death).
// A closing connection (version skew, peer EOF) keeps its fd in the poll
// set until queued reply bytes drain or 1 s passes, so the final
// kError/response is not dropped on EAGAIN. Hostile bytes never
// crash the server or desync other connections
// (tests/service/service_server_test.cpp).

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "service/frontend.h"
#include "service/wire.h"

namespace vire::service {

class ShardedService;
class Supervisor;

struct ServerConfig {
  std::filesystem::path socket_path;
  /// Name returned in kHelloAck (diagnostics only).
  std::string server_name = "vire-service";
};

class ServiceServer {
 public:
  /// The host must outlive the server. The socket path is (re)created on
  /// start() and unlinked on stop(). A server over a plain Frontend serves
  /// only the shared protocol.
  ServiceServer(Frontend& frontend, ServerConfig config);
  ServiceServer(ShardedService& shard, ServerConfig config);
  /// Defined in supervisor.cpp, so that only a binary that links the
  /// Supervisor links its membership calls (vire_shardd links neither).
  ServiceServer(Supervisor& supervisor, ServerConfig config);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds + listens + spawns the event loop. Throws std::runtime_error on
  /// socket errors (path too long, bind failure).
  void start();
  /// Stops the loop, closes every connection, unlinks the socket. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }

 private:
  struct Connection {
    int fd = -1;
    FrameDecoder decoder;
    std::string outbox;  ///< bytes queued for send
    /// Flush the outbox, then drop the connection (hello version skew).
    bool close_after_reply = false;
    /// Closing, but the outbox still has bytes the peer is owed: poll only
    /// POLLOUT until it drains or drain_deadline passes, then close.
    bool draining = false;
    std::chrono::steady_clock::time_point drain_deadline{};
  };

  void loop();
  /// Handles every frame the connection's decoder holds, in order. A
  /// maximal run of well-formed kIngest/kIngestSeq frames reaches the
  /// frontend as one ingest call; a malformed one ends the run and draws
  /// its kError.
  void handle_frames(Connection& conn);
  /// Hands `run` to the frontend as one ingest call, then empties it.
  void ingest_run(Connection& conn, std::vector<SequencedBatch>& run);
  /// Handles one decoded request frame; appends its response to the outbox.
  void handle(Connection& conn, const Frame& frame);
  void send_frame(Connection& conn, MsgType type, std::string_view payload);
  /// Fleet membership (kAddShard / kRemoveShard), installed only by the
  /// Supervisor constructor.
  struct Membership {
    std::function<std::uint64_t()> add_shard;
    std::function<std::uint64_t(std::uint32_t)> remove_shard;
  };

  /// What a host-specific request needs; throws (answered with kError) when
  /// this server fronts another host.
  [[nodiscard]] ShardedService& shard_host() const;
  [[nodiscard]] const Membership& membership() const;
  static void flush_outbox(Connection& conn);

  Frontend& frontend_;
  /// The shard host behind frontend_, when it is one (else null).
  ShardedService* shard_ = nullptr;
  /// Empty unless frontend_ is a Supervisor.
  Membership membership_;
  ServerConfig config_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe to interrupt poll() on stop
  std::thread loop_thread_;
  /// Written by start()/stop(), read by the event-loop thread.
  std::atomic<bool> running_{false};
};

}  // namespace vire::service
