// UDS server/client round trip over the one-engine service, plus hostile-bytes
// behavior: malformed payloads draw kError and land in the rejection
// metrics; a poisoned stream drops only that connection.

#include "service/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/client.h"
#include "service/sharded_service.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "env/environment.h"
#include "sim/simulator.h"

namespace vire::service {
namespace {

namespace fs = std::filesystem;

struct Rig {
  std::unique_ptr<ShardedService> service;
  std::unique_ptr<ServiceServer> server;
  fs::path socket_path;
  std::vector<sim::RssiReading> readings;
  std::vector<sim::TagId> reference_ids;
  sim::TagId pallet = 0;
  sim::SimTime end_time = 0.0;
};

Rig make_rig(const std::string& name) {
  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();
  sim::SimulatorConfig sim_config;
  sim_config.seed = 7;
  sim_config.middleware.window_s = 10.0;
  sim::RfidSimulator simulator(environment, deployment, sim_config);
  sim::ReadingRecorder recorder;
  simulator.set_interceptor(&recorder);

  Rig rig;
  rig.reference_ids = simulator.add_reference_tags();
  rig.pallet = simulator.add_tag({1.4, 1.8});
  simulator.run_for(30.0);
  rig.readings = recorder.take();
  rig.end_time = simulator.now();

  ServiceConfig config;
  config.shards = 1;
  config.engine.min_refresh_interval_s = 10.0;
  config.middleware.window_s = 10.0;
  rig.service = std::make_unique<ShardedService>(deployment, config);
  rig.service->set_reference_ids(rig.reference_ids);
  rig.service->track(rig.pallet, "pallet");

  rig.socket_path = fs::temp_directory_path() / (name + ".sock");
  ServerConfig server_config;
  server_config.socket_path = rig.socket_path;
  rig.server = std::make_unique<ServiceServer>(*rig.service, server_config);
  rig.server->start();
  return rig;
}

TEST(ServiceServerTest, StreamPollQueryRoundTrip) {
  Rig rig = make_rig("vire_server_roundtrip");
  ServiceClient client(rig.socket_path);

  client.stream(rig.readings);
  const auto fixes = client.poll(rig.end_time);
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_EQ(fixes[0].tag, rig.pallet);
  EXPECT_EQ(fixes[0].name, "pallet");

  const auto latest = client.latest_fix(rig.pallet);
  ASSERT_TRUE(latest.has_value());
  // Bit pattern must survive the socket round trip.
  EXPECT_EQ(std::memcmp(&latest->position.x, &fixes[0].position.x,
                        sizeof(double)),
            0);

  const auto unknown = client.latest_fix(999999);
  EXPECT_FALSE(unknown.has_value());

  const auto explained = client.explain(rig.pallet);
  ASSERT_TRUE(explained.has_value());
  EXPECT_NE(explained->find("\"tag\""), std::string::npos);
  EXPECT_FALSE(client.explain(999999).has_value()) << "unknown tag -> kError";

  const std::string prom = client.snapshot_prometheus();
  EXPECT_NE(prom.find("vire_service_polls_total"), std::string::npos);
  // The engine's own registry is exported beside the service's.
  EXPECT_NE(prom.find("vire_engine_updates_total"), std::string::npos);
  const std::string json = client.snapshot_json();
  EXPECT_NE(json.find("vire_service_readings_total"), std::string::npos);

  rig.server->stop();
}

TEST(ServiceServerTest, MalformedPayloadDrawsErrorAndCounts) {
  Rig rig = make_rig("vire_server_malformed");
  ServiceClient good(rig.socket_path);

  // Hand-roll a connection that sends a structurally valid frame whose typed
  // payload is garbage.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string p = rig.socket_path.string();
  std::memcpy(addr.sun_path, p.c_str(), p.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string evil = encode_frame(MsgType::kPoll, "not-a-double");
  ASSERT_EQ(::send(fd, evil.data(), evil.size(), 0),
            static_cast<ssize_t>(evil.size()));
  // Read the kError response.
  FrameDecoder decoder;
  char buf[4096];
  std::optional<Frame> reply;
  while (!reply.has_value()) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0) << "server closed instead of answering kError";
    decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    reply = decoder.next();
  }
  EXPECT_EQ(reply->type, MsgType::kError);
  ::close(fd);

  // The well-behaved client on the other connection is unaffected.
  good.stream(rig.readings);
  EXPECT_EQ(good.poll(rig.end_time).size(), 1u);

  const std::string prom = rig.service->snapshot_prometheus();
  EXPECT_NE(
      prom.find("vire_service_rejected_frames_total{reason=\"malformed\"} 1"),
      std::string::npos)
      << prom;
  rig.server->stop();
}

TEST(ServiceServerTest, PoisonedStreamDropsOnlyThatConnection) {
  Rig rig = make_rig("vire_server_poison");
  ServiceClient good(rig.socket_path);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string p = rig.socket_path.string();
  std::memcpy(addr.sun_path, p.c_str(), p.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
  const char evil[4] = {'\xff', '\xff', '\xff', '\x7f'};  // absurd length prefix
  ASSERT_EQ(::send(fd, evil, sizeof(evil), 0), 4);
  // Server must close this connection (read returns EOF eventually).
  char buf[64];
  ssize_t n = 0;
  do {
    n = ::read(fd, buf, sizeof(buf));
  } while (n > 0);
  EXPECT_EQ(n, 0) << "connection should be closed, not errored";
  ::close(fd);

  good.stream(rig.readings);
  EXPECT_EQ(good.poll(rig.end_time).size(), 1u) << "other connections keep working";
  const std::string prom = rig.service->snapshot_prometheus();
  EXPECT_NE(
      prom.find("vire_service_rejected_frames_total{reason=\"oversized\"} 1"),
      std::string::npos)
      << prom;
  rig.server->stop();
}

// ---- wire v2 (ISSUE 8): handshake, version skew, heartbeat.

TEST(ServiceServerTest, HandshakeExchangesServerNameAndVersion) {
  Rig rig = make_rig("vire_server_hello");
  ServerConfig named;
  named.socket_path = fs::temp_directory_path() / "vire_server_hello2.sock";
  named.server_name = "vire-test-fleet";
  ServiceServer server(*rig.service, named);
  server.start();

  ClientConfig config;
  config.peer_name = "handshake-test";
  ServiceClient client(named.socket_path, config);
  EXPECT_EQ(client.server_name(), "vire-test-fleet");

  server.stop();
  rig.server->stop();
}

TEST(ServiceServerTest, VersionMismatchDrawsReasonedRejectAndCloses) {
  Rig rig = make_rig("vire_server_skew");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string p = rig.socket_path.string();
  std::memcpy(addr.sun_path, p.c_str(), p.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  Hello hello;
  hello.version = 99;  // a peer from the future
  hello.peer_name = "newer-client";
  const std::string bytes = encode_frame(MsgType::kHello, encode_hello(hello));
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));

  // Reply must be a reason-labelled kError, then EOF: the server refuses to
  // limp along with a peer whose frames it may misparse.
  FrameDecoder decoder;
  char buf[4096];
  std::optional<Frame> reply;
  while (!reply.has_value()) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0) << "server closed without the kError verdict";
    decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    reply = decoder.next();
  }
  EXPECT_EQ(reply->type, MsgType::kError);
  EXPECT_NE(reply->payload.find("wire version mismatch"), std::string::npos)
      << reply->payload;
  EXPECT_NE(reply->payload.find("99"), std::string::npos)
      << "reject reason names the offending version: " << reply->payload;
  ssize_t n = 0;
  do {
    n = ::read(fd, buf, sizeof(buf));
  } while (n > 0);
  EXPECT_EQ(n, 0) << "connection must be closed after the mismatch verdict";
  ::close(fd);

  const std::string prom = rig.service->snapshot_prometheus();
  EXPECT_NE(prom.find("vire_service_rejected_frames_total"
                      "{reason=\"version_mismatch\"} 1"),
            std::string::npos)
      << prom;

  // The rejected stranger must not affect v2 clients.
  ServiceClient good(rig.socket_path);
  good.stream(rig.readings);
  EXPECT_EQ(good.poll(rig.end_time).size(), 1u);
  rig.server->stop();
}

/// Minimal frontend whose snapshots are an arbitrary canned string — lets
/// the tests below size a response precisely against the frame cap and the
/// socket buffer.
class CannedSnapshotFrontend final : public Frontend {
 public:
  explicit CannedSnapshotFrontend(std::string snapshot)
      : snapshot_(std::move(snapshot)) {}
  void ingest(std::span<const IngestBatch>) override {}
  std::vector<engine::Fix> poll(sim::SimTime, const obs::TraceContext&) override {
    return {};
  }
  [[nodiscard]] std::optional<engine::Fix> latest_fix(
      sim::TagId) const override {
    return std::nullopt;
  }
  std::optional<std::string> explain_json(sim::TagId) override {
    return std::nullopt;
  }
  std::string snapshot_prometheus() const override { return snapshot_; }
  std::string snapshot_json() const override { return snapshot_; }
  void set_reference_ids(std::vector<sim::TagId>) override {}
  void track(sim::TagId, std::string, std::optional<std::uint32_t>) override {}
  [[nodiscard]] obs::MetricsRegistry& metrics() override { return metrics_; }

 private:
  std::string snapshot_;
  obs::MetricsRegistry metrics_;
};

TEST(ServiceServerTest, OversizedResponseDrawsErrorNotPoisonedStream) {
  CannedSnapshotFrontend frontend(std::string(kMaxFramePayload + 1, 's'));
  ServerConfig config;
  config.socket_path =
      fs::temp_directory_path() / "vire_server_oversize.sock";
  ServiceServer server(frontend, config);
  server.start();

  ServiceClient client(config.socket_path);
  try {
    (void)client.snapshot_json();
    FAIL() << "oversized response must draw kError";
  } catch (const TransportError& e) {
    FAIL() << "oversized response must stay a request-level error, not a "
              "poisoned stream / dead connection: "
           << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("response too large"),
              std::string::npos)
        << e.what();
  }
  // The connection survives the refusal: same client, next request works.
  EXPECT_EQ(client.heartbeat(1).seq, 1u);
  server.stop();
}

TEST(ServiceServerTest, ReplyStillDeliveredAfterPeerShutsDownWrites) {
  // Bigger than a default UDS send buffer: the server's first non-blocking
  // flush hits EAGAIN while the peer is not reading yet, and the peer's EOF
  // (SHUT_WR) arrives in the same poll round — the reply must survive via
  // the drain path instead of being dropped at close.
  const std::string big(768 * 1024, 'p');
  CannedSnapshotFrontend frontend(big);
  ServerConfig config;
  config.socket_path = fs::temp_directory_path() / "vire_server_drain.sock";
  ServiceServer server(frontend, config);
  server.start();

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string p = config.socket_path.string();
  std::memcpy(addr.sun_path, p.c_str(), p.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const std::string request = encode_frame(
      MsgType::kSnapshot, encode_snapshot_request(kSnapshotJson));
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  // Give the server time to see the EOF and take its one eager flush.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  FrameDecoder decoder;
  char buf[64 * 1024];
  std::optional<Frame> reply;
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    if (!reply.has_value()) reply = decoder.next();
  }
  ::close(fd);
  ASSERT_TRUE(reply.has_value())
      << "reply dropped: close must drain the outbox first";
  EXPECT_EQ(reply->type, MsgType::kText);
  EXPECT_EQ(reply->payload, big);
  server.stop();
}

TEST(ServiceServerTest, HeartbeatEchoesSequenceAndDurabilityCursor) {
  Rig rig = make_rig("vire_server_heartbeat");
  ServiceClient client(rig.socket_path);
  const HeartbeatAck first = client.heartbeat(7);
  EXPECT_EQ(first.seq, 7u);
  const HeartbeatAck second = client.heartbeat(8);
  EXPECT_EQ(second.seq, 8u);
  EXPECT_GE(second.wal_next_sequence, first.wal_next_sequence);
  rig.server->stop();
}

// ---- ingest runs: the ingest frames one read delivers reach the frontend
// as one call, without reordering anything against the other requests.

/// Forwards to a ShardedService and records what each ingest call carried
/// and how many batches had arrived when each poll ran. Read its records
/// only after the server stopped (the loop thread writes them).
class RecordingFrontend final : public Frontend {
 public:
  explicit RecordingFrontend(ShardedService& inner) : inner_(inner) {}

  void ingest(std::span<const IngestBatch> run) override {
    run_sizes.push_back(run.size());
    for (const IngestBatch& batch : run) sequences.push_back(batch.sequence);
    inner_.ingest(run);
  }
  std::vector<engine::Fix> poll(sim::SimTime now,
                                const obs::TraceContext& ctx) override {
    batches_at_poll.push_back(sequences.size());
    return inner_.poll(now, ctx);
  }
  [[nodiscard]] std::optional<engine::Fix> latest_fix(
      sim::TagId tag) const override {
    return inner_.latest_fix(tag);
  }
  std::optional<std::string> explain_json(sim::TagId tag) override {
    return inner_.explain_json(tag);
  }
  std::string snapshot_prometheus() const override {
    return inner_.snapshot_prometheus();
  }
  std::string snapshot_json() const override { return inner_.snapshot_json(); }
  void set_reference_ids(std::vector<sim::TagId> ids) override {
    inner_.set_reference_ids(std::move(ids));
  }
  void track(sim::TagId tag, std::string name,
             std::optional<std::uint32_t> zone) override {
    inner_.track(tag, std::move(name), zone);
  }
  HeartbeatInfo heartbeat() override { return inner_.heartbeat(); }
  [[nodiscard]] obs::MetricsRegistry& metrics() override {
    return inner_.metrics();
  }

  std::vector<std::size_t> run_sizes;
  std::vector<std::uint64_t> sequences;
  std::vector<std::size_t> batches_at_poll;

 private:
  ShardedService& inner_;
};

/// `readings` cut into consecutive 32-reading batches.
std::vector<std::vector<sim::RssiReading>> batches_of_32(
    const std::vector<sim::RssiReading>& readings) {
  std::vector<std::vector<sim::RssiReading>> batches;
  for (std::size_t off = 0; off < readings.size(); off += 32) {
    const std::size_t end = std::min(readings.size(), off + 32);
    batches.emplace_back(readings.begin() + static_cast<std::ptrdiff_t>(off),
                         readings.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return batches;
}

int raw_connect(const fs::path& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string p = socket_path.string();
  std::memcpy(addr.sun_path, p.c_str(), p.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads `count` reply frames; fewer when the server closes first.
std::vector<Frame> read_replies(int fd, std::size_t count) {
  FrameDecoder decoder;
  std::vector<Frame> replies;
  char buf[4096];
  while (replies.size() < count) {
    if (auto frame = decoder.next()) {
      replies.push_back(std::move(*frame));
      continue;
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
  return replies;
}

void send_whole(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

TEST(ServiceServerTest, OneWriteOfIngestPollIngestHeartbeatKeepsStreamOrder) {
  Rig rig = make_rig("vire_server_run_order");
  rig.server->stop();
  RecordingFrontend recorder(*rig.service);
  ServerConfig config;
  config.socket_path = fs::temp_directory_path() / "vire_server_run_order2.sock";
  ServiceServer server(recorder, config);
  server.start();

  const auto batches = batches_of_32(rig.readings);
  ASSERT_GE(batches.size(), 8u);
  const std::size_t k = batches.size() / 2;
  const std::size_t m = batches.size() - k;
  const sim::SimTime poll_time = batches[k - 1].back().time;

  // [ingest x k, poll, ingest x m, heartbeat] in a single client write.
  std::string bytes;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    if (i == k) bytes += encode_frame(MsgType::kPoll, encode_poll({poll_time, {}}));
    bytes += encode_frame(MsgType::kIngestSeq,
                          encode_ingest_seq(i + 1, batches[i]));
  }
  bytes += encode_frame(MsgType::kHeartbeat, encode_u64(42));
  const int fd = raw_connect(config.socket_path);
  ASSERT_GE(fd, 0);
  send_whole(fd, bytes);
  const std::vector<Frame> replies = read_replies(fd, 2);
  ::close(fd);
  server.stop();

  ASSERT_EQ(replies.size(), 2u);
  ASSERT_EQ(replies[0].type, MsgType::kFixBatch);
  ASSERT_EQ(replies[1].type, MsgType::kHeartbeatAck);
  const auto fixes = decode_fixes(replies[0].payload);
  const auto ack = decode_heartbeat_ack(replies[1].payload);
  ASSERT_TRUE(fixes.has_value());
  ASSERT_TRUE(ack.has_value());

  // The poll saw exactly the first k batches; the heartbeat covers all k+m.
  ASSERT_EQ(recorder.batches_at_poll.size(), 1u);
  EXPECT_EQ(recorder.batches_at_poll[0], k);
  EXPECT_EQ(recorder.sequences.size(), k + m);
  for (std::size_t i = 0; i < recorder.sequences.size(); ++i) {
    EXPECT_EQ(recorder.sequences[i], i + 1) << "stream order";
  }
  EXPECT_LT(recorder.run_sizes.size(), k + m) << "runs carry several batches";
  EXPECT_EQ(ack->seq, 42u);
  EXPECT_EQ(ack->last_ack_sequence, k + m);

  // The poll answers what a host fed only the first k batches answers.
  ServiceConfig reference_config;
  reference_config.engine.min_refresh_interval_s = 10.0;
  reference_config.middleware.window_s = 10.0;
  ShardedService reference(env::Deployment::paper_testbed(), reference_config);
  reference.set_reference_ids(rig.reference_ids);
  reference.track(rig.pallet, "pallet");
  for (std::size_t i = 0; i < k; ++i) reference.ingest(batches[i], i + 1);
  const auto expected = reference.poll(poll_time);
  ASSERT_EQ(fixes->size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::memcmp(&(*fixes)[i].position, &expected[i].position,
                          sizeof(expected[i].position)),
              0);
  }
}

TEST(ServiceServerTest, MalformedIngestInsideARunKeepsItsNeighbours) {
  Rig rig = make_rig("vire_server_run_malformed");
  rig.server->stop();
  RecordingFrontend recorder(*rig.service);
  ServerConfig config;
  config.socket_path =
      fs::temp_directory_path() / "vire_server_run_malformed2.sock";
  ServiceServer server(recorder, config);
  server.start();

  const auto batches = batches_of_32(rig.readings);
  std::string bytes = encode_frame(MsgType::kIngestSeq,
                                   encode_ingest_seq(1, batches[0]));
  bytes += encode_frame(MsgType::kIngestSeq, "not-a-batch");
  bytes += encode_frame(MsgType::kIngestSeq, encode_ingest_seq(2, batches[1]));
  bytes += encode_frame(MsgType::kHeartbeat, encode_u64(9));
  const int fd = raw_connect(config.socket_path);
  ASSERT_GE(fd, 0);
  send_whole(fd, bytes);
  const std::vector<Frame> replies = read_replies(fd, 2);
  ::close(fd);
  server.stop();

  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].type, MsgType::kError);
  ASSERT_EQ(replies[1].type, MsgType::kHeartbeatAck);
  const auto ack = decode_heartbeat_ack(replies[1].payload);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->last_ack_sequence, 2u) << "the batch after the bad frame";
  EXPECT_EQ(recorder.sequences, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_NE(rig.service->snapshot_prometheus().find(
                "vire_service_rejected_frames_total{reason=\"malformed\"} 1"),
            std::string::npos);
}

}  // namespace
}  // namespace vire::service
