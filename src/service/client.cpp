#include "service/client.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

namespace vire::service {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

void ignore_sigpipe() noexcept {
  struct sigaction action {};
  action.sa_handler = SIG_IGN;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGPIPE, &action, nullptr);
}

ServiceClient::ServiceClient(const std::filesystem::path& socket_path,
                             ClientConfig config)
    : config_(std::move(config)), decoder_(config_.max_payload) {
  connect(socket_path);
  try {
    handshake();
  } catch (...) {
    ::close(fd_);  // no destructor runs for a half-constructed client
    fd_ = -1;
    throw;
  }
}

ServiceClient::~ServiceClient() {
  if (fd_ >= 0) ::close(fd_);
}

void ServiceClient::connect(const std::filesystem::path& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string p = socket_path.string();
  if (p.size() >= sizeof(addr.sun_path)) {
    throw TransportError("ServiceClient: socket path too long: " + p);
  }
  std::memcpy(addr.sun_path, p.c_str(), p.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw TransportError("ServiceClient: socket() failed");
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw TransportError("ServiceClient: connect failed on " + p);
  }
}

void ServiceClient::handshake() {
  Hello hello;
  hello.version = kWireVersion;
  hello.peer_name = config_.peer_name;
  send_all(encode_frame(MsgType::kHello, encode_hello(hello)));
  const Frame reply = read_frame();
  if (reply.type == MsgType::kError) {
    // The server rejected us (version skew) and is about to close the
    // connection — a transport-level incompatibility, not a request error.
    throw TransportError("ServiceClient: handshake rejected: " + reply.payload);
  }
  auto ack = decode_hello(reply.payload);
  if (reply.type != MsgType::kHelloAck || !ack.has_value()) {
    throw TransportError("ServiceClient: bad hello response");
  }
  if (ack->version != kWireVersion) {
    throw TransportError("ServiceClient: wire version mismatch: server v" +
                         std::to_string(ack->version) + ", client v" +
                         std::to_string(kWireVersion));
  }
  server_name_ = std::move(ack->peer_name);
}

void ServiceClient::send_all(std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw TransportError("ServiceClient: send failed");
  }
}

Frame ServiceClient::read_frame() {
  using clock = std::chrono::steady_clock;
  const bool bounded = config_.read_timeout_s > 0.0;
  const auto deadline =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(
                             bounded ? config_.read_timeout_s : 0.0));
  for (;;) {
    if (auto frame = decoder_.next()) return *frame;
    if (decoder_.failed()) {
      throw TransportError("ServiceClient: response stream corrupt");
    }
    int timeout_ms = -1;
    if (bounded) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - clock::now());
      if (left.count() <= 0) {
        throw TimeoutError("ServiceClient: read timed out after " +
                           std::to_string(config_.read_timeout_s) + "s");
      }
      timeout_ms = static_cast<int>(left.count());
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw TransportError("ServiceClient: poll failed");
    }
    if (ready == 0) {
      throw TimeoutError("ServiceClient: read timed out after " +
                         std::to_string(config_.read_timeout_s) + "s");
    }
    char buf[kReadChunk];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw TransportError("ServiceClient: connection closed by server");
  }
}

Frame ServiceClient::request(MsgType type, std::string_view payload,
                             MsgType expected, const char* what) {
  send_all(encode_frame(type, payload));
  return receive(expected, what);
}

Frame ServiceClient::receive(MsgType expected, const char* what) {
  Frame reply = read_frame();
  if (reply.type == MsgType::kError) {
    throw std::runtime_error("ServiceClient: " + reply.payload);
  }
  if (reply.type != expected) {
    throw std::runtime_error(std::string("ServiceClient: bad ") + what +
                             " response");
  }
  return reply;
}

void ServiceClient::stream(const std::vector<sim::RssiReading>& readings) {
  send_all(encode_frame(MsgType::kIngest, encode_ingest(readings)));
}

void ServiceClient::stream_sequenced(
    std::uint64_t sequence, const std::vector<sim::RssiReading>& readings) {
  send_all(encode_frame(MsgType::kIngestSeq,
                        encode_ingest_seq(sequence, readings)));
}

void ServiceClient::stream_sequenced(
    std::uint64_t sequence, const obs::TraceContext& ctx,
    const std::vector<sim::RssiReading>& readings) {
  send_all(encode_frame(MsgType::kIngestSeq,
                        encode_ingest_seq(sequence, ctx, readings)));
}

std::vector<engine::Fix> ServiceClient::poll(sim::SimTime now,
                                             const obs::TraceContext& ctx) {
  send_poll(now, ctx);
  return receive_poll();
}

void ServiceClient::send_poll(sim::SimTime now, const obs::TraceContext& ctx) {
  send_all(encode_frame(MsgType::kPoll, encode_poll({now, ctx})));
}

std::vector<engine::Fix> ServiceClient::receive_poll() {
  const Frame reply = receive(MsgType::kFixBatch, "poll");
  auto fixes = decode_fixes(reply.payload);
  if (!fixes.has_value()) {
    throw std::runtime_error("ServiceClient: bad poll response");
  }
  return std::move(*fixes);
}

std::optional<engine::Fix> ServiceClient::latest_fix(sim::TagId tag) {
  const Frame reply = request(MsgType::kLatestFix, encode_tag(tag),
                              MsgType::kFixReply, "latest_fix");
  auto fix = decode_fix_reply(reply.payload);
  if (!fix.has_value()) {
    throw std::runtime_error("ServiceClient: bad latest_fix response");
  }
  return std::move(*fix);
}

std::optional<std::string> ServiceClient::explain(sim::TagId tag) {
  send_all(encode_frame(MsgType::kExplain, encode_tag(tag)));
  const Frame reply = read_frame();
  if (reply.type == MsgType::kText) return reply.payload;
  if (reply.type == MsgType::kError) return std::nullopt;
  throw std::runtime_error("ServiceClient: bad explain response");
}

std::string ServiceClient::snapshot(std::uint8_t format) {
  const Frame reply = request(MsgType::kSnapshot,
                              encode_snapshot_request(format), MsgType::kText,
                              "snapshot");
  return reply.payload;
}

std::string ServiceClient::snapshot_prometheus() {
  return snapshot(kSnapshotPrometheus);
}

std::string ServiceClient::snapshot_json() { return snapshot(kSnapshotJson); }

HeartbeatAck ServiceClient::heartbeat(std::uint64_t seq) {
  const Frame reply = request(MsgType::kHeartbeat, encode_u64(seq),
                              MsgType::kHeartbeatAck, "heartbeat");
  auto ack = decode_heartbeat_ack(reply.payload);
  if (!ack.has_value() || ack->seq != seq) {
    throw std::runtime_error("ServiceClient: bad heartbeat response");
  }
  return *ack;
}

void ServiceClient::track(const TrackRequest& req) {
  request(MsgType::kTrack, encode_track(req), MsgType::kOk, "track");
}

void ServiceClient::set_reference_ids(const std::vector<sim::TagId>& ids) {
  request(MsgType::kSetReference, encode_reference_ids(ids), MsgType::kOk,
          "set_reference");
}

std::uint64_t ServiceClient::recover_now() {
  const Frame reply = request(MsgType::kRecover, {}, MsgType::kOk, "recover");
  auto last_ack = decode_u64(reply.payload);
  if (!last_ack.has_value()) {
    throw std::runtime_error("ServiceClient: bad recover response");
  }
  return *last_ack;
}

obs::TraceDump ServiceClient::trace_dump(std::uint32_t max_events) {
  const Frame reply = request(MsgType::kTraceDump, encode_u32(max_events),
                              MsgType::kTraceDumpReply, "trace_dump");
  auto dump = decode_trace_dump(reply.payload);
  if (!dump.has_value()) {
    throw std::runtime_error("ServiceClient: bad trace_dump response");
  }
  return std::move(*dump);
}

std::optional<std::string> ServiceClient::provenance() {
  send_all(encode_frame(MsgType::kProvenanceDump, {}));
  const Frame reply = read_frame();
  if (reply.type == MsgType::kText) return reply.payload;
  if (reply.type == MsgType::kError) return std::nullopt;
  throw std::runtime_error("ServiceClient: bad provenance response");
}

std::optional<engine::TagStateSnapshot> ServiceClient::export_tag_state(
    sim::TagId tag) {
  const Frame reply = request(MsgType::kExportTag, encode_u32(tag),
                              MsgType::kTagState, "export_tag");
  auto state = decode_tag_state(reply.payload);
  if (!state.has_value()) {
    throw std::runtime_error("ServiceClient: bad export_tag response");
  }
  return std::move(*state);
}

void ServiceClient::import_tag_state(sim::TagId tag,
                                     std::optional<std::uint32_t> zone,
                                     const engine::TagStateSnapshot& state) {
  request(MsgType::kImportTag, encode_import_tag({tag, zone, state}),
          MsgType::kOk, "import_tag");
}

SeedState ServiceClient::seed_export() {
  const Frame reply =
      request(MsgType::kSeedExport, {}, MsgType::kSeedState, "seed_export");
  auto seed = decode_seed_state(reply.payload);
  if (!seed.has_value()) {
    throw std::runtime_error("ServiceClient: bad seed_export response");
  }
  return std::move(*seed);
}

void ServiceClient::seed_import(const SeedState& seed) {
  request(MsgType::kSeedImport, encode_seed_state(seed), MsgType::kOk,
          "seed_import");
}

std::uint64_t ServiceClient::add_shard() {
  const Frame reply = request(MsgType::kAddShard, {}, MsgType::kOk, "add_shard");
  const auto id = decode_u64(reply.payload);
  if (!id.has_value()) {
    throw std::runtime_error("ServiceClient: bad add_shard response");
  }
  return *id;
}

std::uint64_t ServiceClient::remove_shard(std::uint32_t id) {
  const Frame reply = request(MsgType::kRemoveShard, encode_u32(id),
                              MsgType::kOk, "remove_shard");
  const auto moved = decode_u64(reply.payload);
  if (!moved.has_value()) {
    throw std::runtime_error("ServiceClient: bad remove_shard response");
  }
  return *moved;
}

RetryingClient::RetryingClient(std::filesystem::path socket_path,
                               ClientConfig client, RetryConfig retry)
    : socket_path_(std::move(socket_path)),
      client_config_(std::move(client)),
      retry_(retry) {}

ServiceClient& RetryingClient::ensure_connected() {
  if (client_ == nullptr) {
    client_ = std::make_unique<ServiceClient>(socket_path_, client_config_);
    ++reconnects_;
  }
  return *client_;
}

template <typename F>
auto RetryingClient::with_retry(F&& op)
    -> decltype(op(std::declval<ServiceClient&>())) {
  double backoff_s = retry_.backoff_initial_s;
  const int attempts = retry_.max_attempts > 0 ? retry_.max_attempts : 1;
  for (int attempt = 1;; ++attempt) {
    try {
      return op(ensure_connected());
    } catch (const TransportError&) {
      // The connection's state is unknown; tear it down before retrying.
      client_.reset();
      if (attempt >= attempts) throw;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
    backoff_s = std::min(backoff_s * retry_.backoff_multiplier,
                         retry_.backoff_max_s);
  }
}

void RetryingClient::stream(const std::vector<sim::RssiReading>& readings) {
  with_retry([&](ServiceClient& c) { c.stream(readings); });
}

void RetryingClient::stream_sequenced(
    std::uint64_t sequence, const std::vector<sim::RssiReading>& readings) {
  with_retry([&](ServiceClient& c) { c.stream_sequenced(sequence, readings); });
}

std::vector<engine::Fix> RetryingClient::poll(sim::SimTime now) {
  return with_retry([&](ServiceClient& c) { return c.poll(now); });
}

std::optional<engine::Fix> RetryingClient::latest_fix(sim::TagId tag) {
  return with_retry([&](ServiceClient& c) { return c.latest_fix(tag); });
}

std::optional<std::string> RetryingClient::explain(sim::TagId tag) {
  return with_retry([&](ServiceClient& c) { return c.explain(tag); });
}

std::string RetryingClient::snapshot_prometheus() {
  return with_retry([&](ServiceClient& c) { return c.snapshot_prometheus(); });
}

std::string RetryingClient::snapshot_json() {
  return with_retry([&](ServiceClient& c) { return c.snapshot_json(); });
}

HeartbeatAck RetryingClient::heartbeat(std::uint64_t seq) {
  return with_retry([&](ServiceClient& c) { return c.heartbeat(seq); });
}

void RetryingClient::track(const TrackRequest& request) {
  with_retry([&](ServiceClient& c) { c.track(request); });
}

void RetryingClient::set_reference_ids(const std::vector<sim::TagId>& ids) {
  with_retry([&](ServiceClient& c) { c.set_reference_ids(ids); });
}

std::uint64_t RetryingClient::recover_now() {
  return with_retry([&](ServiceClient& c) { return c.recover_now(); });
}

obs::TraceDump RetryingClient::trace_dump(std::uint32_t max_events) {
  return with_retry([&](ServiceClient& c) { return c.trace_dump(max_events); });
}

std::optional<std::string> RetryingClient::provenance() {
  return with_retry([&](ServiceClient& c) { return c.provenance(); });
}

}  // namespace vire::service
