#pragma once
// Unix-domain-socket front end of a service Frontend (docs/service.md).
//
// ServiceServer accepts stream connections on a UDS path and speaks the
// wire protocol (service/wire.h): clients stream kIngest/kIngestSeq batches
// in (fire-and-forget) and issue kPoll / kLatestFix / kExplain / kSnapshot /
// kHeartbeat / kTrack / kSetReference / kRecover requests that each get
// exactly one response frame. The server runs its own event-loop thread,
// which doubles as the frontend's single driver thread — while the server
// is running, do not call the frontend's mutating API from elsewhere
// (snapshot exports stay safe from any thread).
//
// The same server fronts both Frontend implementations: the one-engine
// ShardedService of a shard (vire_shardd, InProcessShardRunner) and the
// Supervisor that coordinates a fleet of them (vire_supervisord).
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
// set until queued reply bytes drain or close_drain_timeout_s passes, so
// the final kError/response is not dropped on EAGAIN. Hostile bytes never
// crash the server or desync other connections
// (tests/service/service_server_test.cpp).

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "service/frontend.h"
#include "service/wire.h"

namespace vire::service {

struct ServerConfig {
  std::filesystem::path socket_path;
  /// Frame payload cap handed to each connection's decoder.
  std::size_t max_payload = kMaxFramePayload;
  /// Name returned in kHelloAck (diagnostics only).
  std::string server_name = "vire-service";
  /// How long a closing connection may keep its fd around to finish sending
  /// queued reply bytes (the version-mismatch kError, a response the peer
  /// requested before EOF) once the socket stops accepting writes.
  double close_drain_timeout_s = 1.0;
};

class ServiceServer {
 public:
  /// The frontend must outlive the server. The socket path is (re)created on
  /// start() and unlinked on stop().
  ServiceServer(Frontend& frontend, ServerConfig config);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds + listens + spawns the event loop. Throws std::runtime_error on
  /// socket errors (path too long, bind failure).
  void start();
  /// Stops the loop, closes every connection, unlinks the socket. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }
  /// Connections accepted over the server's lifetime.
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
    return accepted_;
  }

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

    explicit Connection(std::size_t max_payload) : decoder(max_payload) {}
  };

  void loop();
  /// Handles one decoded frame; appends any response to the outbox.
  void handle(Connection& conn, const Frame& frame);
  void send_frame(Connection& conn, MsgType type, std::string_view payload);
  static void flush_outbox(Connection& conn);

  Frontend& frontend_;
  ServerConfig config_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe to interrupt poll() on stop
  std::thread loop_thread_;
  /// Written by start()/stop(), read by the event-loop thread.
  std::atomic<bool> running_{false};
  std::uint64_t accepted_ = 0;
};

}  // namespace vire::service
