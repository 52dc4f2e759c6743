// Client-side robustness hardening (ISSUE 8 satellites): poll(2)-bounded
// reads surface a silent server as TimeoutError instead of an infinite
// block; writes into a closed peer surface as TransportError instead of
// SIGPIPE process death; and connect failures are typed.

#include "service/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "env/deployment.h"
#include "service/server.h"
#include "service/wire.h"
#include "service/sharded_service.h"

namespace vire::service {
namespace {

namespace fs = std::filesystem;

/// A UDS listener that accepts connections and never says a word.
int make_silent_listener(const fs::path& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string p = path.string();
  if (p.size() + 1 > sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, p.c_str(), p.size() + 1);
  ::unlink(p.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 4) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct Rig {
  std::unique_ptr<ShardedService> service;
  std::unique_ptr<ServiceServer> server;
  fs::path socket_path;
};

Rig make_rig(const std::string& name) {
  Rig rig;
  const env::Deployment deployment = env::Deployment::paper_testbed();
  ServiceConfig config;
  config.shards = 1;
  rig.service = std::make_unique<ShardedService>(deployment, config);
  rig.socket_path = fs::temp_directory_path() / (name + ".sock");
  ServerConfig server_config;
  server_config.socket_path = rig.socket_path;
  server_config.server_name = name;
  rig.server = std::make_unique<ServiceServer>(*rig.service, server_config);
  rig.server->start();
  return rig;
}

TEST(ClientRobustnessTest, SilentServerDrawsTimeoutErrorNotHang) {
  const fs::path path = fs::temp_directory_path() / "vire_silent.sock";
  const int listener = make_silent_listener(path);
  ASSERT_GE(listener, 0);

  ClientConfig config;
  config.read_timeout_s = 0.2;
  // The constructor's hello round trip is the first read to hit the deadline.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(ServiceClient(path, config), TimeoutError);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed, 0.15) << "deadline must actually be waited out";
  EXPECT_LT(elapsed, 5.0) << "deadline must bound the wait";

  ::close(listener);
  fs::remove(path);
}

TEST(ClientRobustnessTest, SilentPollReplyDrawsTimeoutErrorNotHang) {
  const fs::path path = fs::temp_directory_path() / "vire_silent_poll.sock";
  const int listener = make_silent_listener(path);
  ASSERT_GE(listener, 0);
  // Answers the hello, then reads and discards everything until the client
  // hangs up: the poll request lands, its reply never comes.
  std::thread peer([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    FrameDecoder decoder;
    char buf[4096];
    ssize_t n = 0;
    while (!decoder.next().has_value() &&
           (n = ::read(fd, buf, sizeof(buf))) > 0) {
      decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
    const std::string ack =
        encode_frame(MsgType::kHelloAck, encode_hello({kWireVersion, "mute"}));
    if (::write(fd, ack.data(), ack.size()) ==
        static_cast<ssize_t>(ack.size())) {
      while (::read(fd, buf, sizeof(buf)) > 0) {
      }
    }
    ::close(fd);
  });

  {
    ClientConfig config;
    config.read_timeout_s = 0.2;
    ServiceClient client(path, config);
    client.send_poll(1.0);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW((void)client.receive_poll(), TimeoutError);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_GE(elapsed, 0.15) << "deadline must actually be waited out";
    EXPECT_LT(elapsed, 5.0) << "deadline must bound the wait";
  }  // the client hangs up, which ends the peer

  peer.join();
  ::close(listener);
  fs::remove(path);
}

TEST(ClientRobustnessTest, RefusedPollLeavesTheConnectionUsable) {
  Rig rig = make_rig("vire_client_refused_poll");
  ServiceClient client(rig.socket_path);
  // No reference ids are set, so the service refuses the update (kError).
  client.send_poll(1.0);
  EXPECT_THROW((void)client.receive_poll(), std::runtime_error);
  // The refusal was consumed with its reply: the next round trip is in step.
  EXPECT_EQ(client.heartbeat(7).seq, 7u);
  rig.server->stop();
}

TEST(ClientRobustnessTest, ConnectFailureIsTransportError) {
  const fs::path path = fs::temp_directory_path() / "vire_no_such.sock";
  fs::remove(path);
  EXPECT_THROW(ServiceClient{path}, TransportError);
}

TEST(ClientRobustnessTest, ClosedPeerWriteIsErrorNotSigpipe) {
  ignore_sigpipe();
  Rig rig = make_rig("vire_client_sigpipe");
  ClientConfig config;
  config.read_timeout_s = 2.0;
  ServiceClient client(rig.socket_path, config);
  EXPECT_EQ(client.server_name(), "vire_client_sigpipe");

  rig.server->stop();  // closes every accepted connection

  sim::RssiReading r;
  r.time = 1.0;
  r.tag = 42;
  r.reader = 0;
  r.rssi_dbm = -50.0;
  const std::vector<sim::RssiReading> batch{r};
  // The first write may land in the kernel buffer; a follow-up write into
  // the closed peer must surface as TransportError (EPIPE/ECONNRESET) —
  // reaching the assertion at all proves no SIGPIPE killed the process.
  bool threw = false;
  for (int i = 0; i < 64 && !threw; ++i) {
    try {
      client.stream(batch);
    } catch (const TransportError&) {
      threw = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace vire::service
