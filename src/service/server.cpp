#include "service/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <list>
#include <stdexcept>

namespace vire::service {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

int make_listen_socket(const std::filesystem::path& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string p = path.string();
  if (p.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("ServiceServer: socket path too long: " + p);
  }
  std::memcpy(addr.sun_path, p.c_str(), p.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("ServiceServer: socket() failed");
  ::unlink(p.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("ServiceServer: bind failed on " + p);
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    ::unlink(p.c_str());
    throw std::runtime_error("ServiceServer: listen failed on " + p);
  }
  return fd;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// send() that tolerates EINTR/EAGAIN; returns false on a dead peer.
bool send_some(int fd, std::string& pending) {
  while (!pending.empty()) {
    const ssize_t n = ::send(fd, pending.data(), pending.size(), MSG_NOSIGNAL);
    if (n > 0) {
      pending.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

ServiceServer::ServiceServer(Frontend& frontend, ServerConfig config)
    : frontend_(frontend), config_(std::move(config)) {}

ServiceServer::~ServiceServer() { stop(); }

void ServiceServer::start() {
  if (running_) return;
  listen_fd_ = make_listen_socket(config_.socket_path);
  if (::pipe(wake_fds_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.string().c_str());
    throw std::runtime_error("ServiceServer: pipe() failed");
  }
  set_nonblocking(listen_fd_);
  set_nonblocking(wake_fds_[0]);
  running_ = true;
  loop_thread_ = std::thread([this] { loop(); });
}

void ServiceServer::stop() {
  if (!running_) return;
  running_ = false;
  // Wake the poll() so the loop observes running_ == false promptly.
  const char byte = 'x';
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  loop_thread_.join();
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
  wake_fds_[0] = wake_fds_[1] = -1;
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(config_.socket_path.string().c_str());
}

void ServiceServer::send_frame(Connection& conn, MsgType type,
                               std::string_view payload) {
  if (payload.size() > config_.max_payload ||
      payload.size() > kMaxFramePayload) {
    // Never hand the peer's decoder a frame it will reject: an oversized
    // response (a merged snapshot, a huge fix batch) would poison the stream
    // and a supervising client would read that as a shard death. Substitute
    // a request-level error the peer can report instead.
    conn.outbox += encode_frame(
        MsgType::kError, "response too large: " +
                             std::to_string(payload.size()) +
                             " bytes exceeds the frame payload cap");
    return;
  }
  conn.outbox += encode_frame(type, payload);
}

void ServiceServer::flush_outbox(Connection& conn) {
  if (!send_some(conn.fd, conn.outbox)) {
    // Peer is gone; drop the rest — the loop reaps the fd on its next read.
    conn.outbox.clear();
  }
}

void ServiceServer::handle(Connection& conn, const Frame& frame) {
  try {
    switch (frame.type) {
      case MsgType::kIngest: {
        auto readings = decode_ingest(frame.payload);
        if (!readings.has_value()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed ingest payload");
          return;
        }
        frontend_.ingest(*readings);
        return;  // fire-and-forget
      }
      case MsgType::kIngestSeq: {
        auto batch = decode_ingest_seq(frame.payload);
        if (!batch.has_value()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed sequenced ingest payload");
          return;
        }
        frontend_.ingest(batch->readings, batch->sequence, batch->ctx);
        return;  // fire-and-forget; durability observable via kHeartbeat
      }
      case MsgType::kPoll: {
        const auto request = decode_poll(frame.payload);
        if (!request.has_value()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed poll payload");
          return;
        }
        send_frame(conn, MsgType::kFixBatch,
                   encode_fixes(frontend_.poll(request->now, request->ctx)));
        return;
      }
      case MsgType::kLatestFix: {
        const auto tag = decode_tag(frame.payload);
        if (!tag.has_value()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed latest_fix payload");
          return;
        }
        send_frame(conn, MsgType::kFixReply,
                   encode_fix_reply(frontend_.latest_fix(*tag)));
        return;
      }
      case MsgType::kExplain: {
        const auto tag = decode_tag(frame.payload);
        if (!tag.has_value()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed explain payload");
          return;
        }
        const auto json = frontend_.explain_json(*tag);
        if (!json.has_value()) {
          send_frame(conn, MsgType::kError, "no flight record for tag");
          return;
        }
        send_frame(conn, MsgType::kText, *json);
        return;
      }
      case MsgType::kSnapshot: {
        const auto format = decode_snapshot_request(frame.payload);
        if (!format.has_value()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed snapshot payload");
          return;
        }
        send_frame(conn, MsgType::kText,
                   *format == kSnapshotJson ? frontend_.snapshot_json()
                                            : frontend_.snapshot_prometheus());
        return;
      }
      case MsgType::kHello: {
        const auto hello = decode_hello(frame.payload);
        if (!hello.has_value()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed hello payload");
          return;
        }
        if (hello->version != kWireVersion) {
          conn.decoder.note_version_mismatch();
          send_frame(conn, MsgType::kError,
                     "wire version mismatch: peer v" +
                         std::to_string(hello->version) + ", server v" +
                         std::to_string(kWireVersion));
          conn.close_after_reply = true;
          return;
        }
        Hello ack;
        ack.version = kWireVersion;
        ack.peer_name = config_.server_name;
        send_frame(conn, MsgType::kHelloAck, encode_hello(ack));
        return;
      }
      case MsgType::kHeartbeat: {
        const auto seq = decode_u64(frame.payload);
        if (!seq.has_value()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed heartbeat payload");
          return;
        }
        const HeartbeatInfo info = frontend_.heartbeat();
        HeartbeatAck ack;
        ack.seq = *seq;
        ack.wal_next_sequence = info.wal_next_sequence;
        ack.last_ack_sequence = info.last_ack_sequence;
        ack.mono_now_us = info.mono_now_us;
        ack.anomaly_dumps = info.anomaly_dumps;
        send_frame(conn, MsgType::kHeartbeatAck, encode_heartbeat_ack(ack));
        return;
      }
      case MsgType::kTraceDump: {
        const auto max_events = decode_u32(frame.payload);
        if (!max_events.has_value()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed trace_dump payload");
          return;
        }
        send_frame(conn, MsgType::kTraceDumpReply,
                   encode_trace_dump(frontend_.trace_dump(*max_events)));
        return;
      }
      case MsgType::kProvenanceDump: {
        if (!frame.payload.empty()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed provenance payload");
          return;
        }
        const auto json = frontend_.provenance_json();
        if (!json.has_value()) {
          send_frame(conn, MsgType::kError, "no provenance recorded");
          return;
        }
        send_frame(conn, MsgType::kText, *json);
        return;
      }
      case MsgType::kTrack: {
        auto request = decode_track(frame.payload);
        if (!request.has_value()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed track payload");
          return;
        }
        frontend_.track(request->tag, std::move(request->name), request->zone);
        send_frame(conn, MsgType::kOk, encode_u64(0));
        return;
      }
      case MsgType::kSetReference: {
        auto ids = decode_reference_ids(frame.payload);
        if (!ids.has_value()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed set_reference payload");
          return;
        }
        const auto count = static_cast<std::uint64_t>(ids->size());
        frontend_.set_reference_ids(std::move(*ids));
        send_frame(conn, MsgType::kOk, encode_u64(count));
        return;
      }
      case MsgType::kRecover: {
        if (!frame.payload.empty()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed recover payload");
          return;
        }
        send_frame(conn, MsgType::kOk, encode_u64(frontend_.recover_now()));
        return;
      }
      case MsgType::kExportTag: {
        const auto tag = decode_u32(frame.payload);
        if (!tag.has_value()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed export_tag payload");
          return;
        }
        send_frame(conn, MsgType::kTagState,
                   encode_tag_state(frontend_.export_tag_state(*tag)));
        return;
      }
      case MsgType::kImportTag: {
        auto request = decode_import_tag(frame.payload);
        if (!request.has_value()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed import_tag payload");
          return;
        }
        frontend_.import_tag_state(request->tag, request->zone, request->state);
        send_frame(conn, MsgType::kOk, encode_u64(0));
        return;
      }
      case MsgType::kSeedExport: {
        if (!frame.payload.empty()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed seed_export payload");
          return;
        }
        auto [engine_seed, middleware_seed] = frontend_.seed_export();
        send_frame(conn, MsgType::kSeedState,
                   encode_seed_state({std::move(engine_seed),
                                      std::move(middleware_seed)}));
        return;
      }
      case MsgType::kSeedImport: {
        auto seed = decode_seed_state(frame.payload);
        if (!seed.has_value()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed seed_import payload");
          return;
        }
        frontend_.seed_import(seed->engine, seed->middleware);
        send_frame(conn, MsgType::kOk, encode_u64(0));
        return;
      }
      case MsgType::kAddShard: {
        if (!frame.payload.empty()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed add_shard payload");
          return;
        }
        send_frame(conn, MsgType::kOk, encode_u64(frontend_.admin_add_shard()));
        return;
      }
      case MsgType::kRemoveShard: {
        const auto id = decode_u32(frame.payload);
        if (!id.has_value()) {
          conn.decoder.note_malformed();
          send_frame(conn, MsgType::kError, "malformed remove_shard payload");
          return;
        }
        send_frame(conn, MsgType::kOk,
                   encode_u64(frontend_.admin_remove_shard(*id)));
        return;
      }
      default:
        // Response types arriving as requests: structurally valid,
        // semantically nonsense.
        conn.decoder.note_malformed();
        send_frame(conn, MsgType::kError, "unexpected message type");
        return;
    }
  } catch (const std::exception& e) {
    // A throwing frontend (recover() precondition, shard orchestration
    // failure) is the requester's problem, never the server's.
    send_frame(conn, MsgType::kError, e.what());
  }
}

void ServiceServer::loop() {
  std::list<Connection> connections;
  std::vector<pollfd> fds;
  while (running_) {
    fds.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_fds_[0], POLLIN, 0});
    for (auto& conn : connections) {
      short events = conn.draining ? 0 : POLLIN;
      if (!conn.outbox.empty()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
    }
    if (::poll(fds.data(), fds.size(), 250) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        set_nonblocking(fd);
        auto& conn = connections.emplace_back(config_.max_payload);
        conn.fd = fd;
        conn.decoder.attach_metrics(frontend_.metrics());
        ++accepted_;
      }
    }
    // Walk only the connections that were polled this round; ones accepted
    // above have no pollfd entry yet and wait for the next iteration.
    std::size_t idx = 2;
    for (auto it = connections.begin();
         it != connections.end() && idx < fds.size(); ++idx) {
      Connection& conn = *it;
      const short revents = fds[idx].revents;
      if (conn.draining) {
        // Write-only epilogue: the peer is owed queued reply bytes (version
        // verdict, a response it requested before EOF). Close once drained,
        // the deadline passes, or the send side dies.
        flush_outbox(conn);
        if (conn.outbox.empty() ||
            std::chrono::steady_clock::now() >= conn.drain_deadline) {
          ::close(conn.fd);
          it = connections.erase(it);
        } else {
          ++it;
        }
        continue;
      }
      bool closed = false;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        char buf[kReadChunk];
        for (;;) {
          const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
          if (n > 0) {
            conn.decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          closed = true;  // EOF or hard error
          break;
        }
        while (auto frame = conn.decoder.next()) {
          handle(conn, *frame);
          if (conn.close_after_reply) break;
        }
        if (conn.decoder.failed()) closed = true;  // framing destroyed
        if (conn.close_after_reply) closed = true;
      }
      if ((revents & POLLOUT) != 0 || !conn.outbox.empty()) flush_outbox(conn);
      if (closed) {
        conn.decoder.finish();  // counts a buffered partial frame as truncated
        flush_outbox(conn);
        if (!conn.outbox.empty()) {
          // The reply did not fit the socket buffer (EAGAIN): keep the fd in
          // the poll set under a short deadline instead of dropping the bytes
          // the peer is still entitled to read.
          conn.draining = true;
          conn.drain_deadline =
              std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(config_.close_drain_timeout_s));
          ++it;
          continue;
        }
        ::close(conn.fd);
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : connections) {
    flush_outbox(conn);
    ::close(conn.fd);
  }
}

}  // namespace vire::service
