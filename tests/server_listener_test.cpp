// The socket transport contract (src/server/listener.hpp): a
// single-connection socket transcript is byte-identical to the same
// stream through serve_stream, every client's responses arrive in its own
// arrival order under concurrent interleaving, a malformed or oversized
// frame and a mid-frame disconnect hurt only their own connection, and
// raising the stop flag drains everything already received before the
// listener returns.
#include "server/listener.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/edit_script.hpp"
#include "gen/random_dag.hpp"
#include "graph/csr.hpp"
#include "graph/delta.hpp"
#include "io/json.hpp"
#include "io/json_reader.hpp"
#include "server/protocol.hpp"
#include "server/session.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "wire_frames.hpp"

namespace acolay::server {
namespace {

using test::require_field;

/// A listener on an ephemeral loopback port (or a unix path), run on its
/// own thread; stop() initiates the drain and joins.
class ListenerHarness {
 public:
  explicit ListenerHarness(ServeOptions serve_options = {},
                           ListenerOptions listener_options = {}) {
    if (serve_options.num_threads == 0) serve_options.num_threads = 2;
    if (listener_options.unix_path.empty()) listener_options.tcp_port = 0;
    listener_options.drain_timeout_seconds = 30.0;
    server_ = std::make_unique<Server>(std::move(serve_options));
    listener_ = std::make_unique<Listener>(*server_, listener_options);
    std::string error;
    started_ = listener_->start(error);
    EXPECT_TRUE(started_) << error;
    if (!started_) return;
    thread_ = std::thread([this] { listener_->run(stop_, nullptr); });
  }

  ~ListenerHarness() { stop(); }

  void stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    server_->wake().notify();
    thread_.join();
  }

  Listener& listener() { return *listener_; }
  int port() const { return listener_->port(); }

 private:
  std::unique_ptr<Server> server_;
  std::unique_ptr<Listener> listener_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
};

/// A blocking test client with a receive timeout so a listener bug fails
/// the test instead of hanging ctest.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    set_recv_timeout();
  }

  explicit Client(const std::string& unix_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, unix_path.c_str(), unix_path.size() + 1);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    set_recv_timeout();
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::string& data) {
    std::size_t done = 0;
    while (done < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + done, data.size() - done, 0);
      ASSERT_GT(n, 0);
      done += static_cast<std::size_t>(n);
    }
  }

  void close_write() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until EOF; empty return means the peer closed immediately.
  std::string read_all() {
    std::string out;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      out.append(chunk, static_cast<std::size_t>(n));
    }
    return out;
  }

  /// Reads until exactly `count` newline-terminated lines arrived (or
  /// EOF/timeout, short). Surplus bytes stay buffered for the next call —
  /// one recv can carry several responses when the server bursts.
  std::vector<std::string> read_lines(std::size_t count) {
    std::vector<std::string> lines;
    for (;;) {
      std::size_t start = 0;
      while (lines.size() < count) {
        const std::size_t nl = buffer_.find('\n', start);
        if (nl == std::string::npos) break;
        lines.push_back(buffer_.substr(start, nl - start));
        start = nl + 1;
      }
      buffer_.erase(0, start);
      if (lines.size() == count) return lines;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return lines;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  void set_recv_timeout() {
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  int fd_ = -1;
  std::string buffer_;
};

std::string solve_frame(const std::string& id, std::uint64_t seed,
                        int num_tours = 3) {
  io::JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.key("graph").begin_object();
  w.kv("num_vertices", 4);
  w.key("edges").begin_array();
  w.begin_array().value(3).value(1).end_array();
  w.begin_array().value(3).value(2).end_array();
  w.begin_array().value(1).value(0).end_array();
  w.begin_array().value(2).value(0).end_array();
  w.end_array();
  w.end_object();
  w.key("params").begin_object();
  w.kv("num_tours", num_tours);
  w.kv("seed", seed);
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

std::string response_id(const std::string& line) {
  const auto doc = io::parse_json(line);
  if (!doc.has_value()) return "<unparseable>";
  return require_field(*doc, "id").as_string();
}

TEST(ServerListener, SingleClientTranscriptMatchesServeStream) {
  // The same seven-frame stream (ok / duplicate / cycle / garbage /
  // stats) through the pipe loop and through a socket connection.
  std::string stream;
  stream += solve_frame("r1", 7);
  stream += solve_frame("r2", 11);
  stream += solve_frame("r3", 7);  // exact duplicate of r1: deduped

  stream += "{\"id\":\"r4\",\"graph\":{\"num_vertices\":2,"
            "\"edges\":[[0,1],[1,0]]}}\n";
  stream += "not json at all\n";
  stream += "{\"id\":\"r6\",\"stats\":true}\n";

  std::string piped;
  {
    Server server(ServeOptions{});
    std::istringstream in(stream);
    std::ostringstream out;
    serve_stream(in, out, server);
    piped = out.str();
  }

  std::string socketed;
  {
    ListenerHarness harness;
    Client client(harness.port());
    client.send(stream);
    client.close_write();
    socketed = client.read_all();
  }

  EXPECT_EQ(piped, socketed)
      << "a socket transcript must be byte-identical to the pipe transcript "
         "for the same request stream";
}

TEST(ServerListener, MultiClientResponsesStayInPerClientArrivalOrder) {
  ListenerHarness harness;
  constexpr std::size_t kClients = 3;
  constexpr std::size_t kFrames = 6;

  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(harness.port()));
  }
  // Interleave sends round-robin so frames from different clients overlap
  // in the daemon.
  for (std::size_t i = 0; i < kFrames; ++i) {
    for (std::size_t c = 0; c < kClients; ++c) {
      const std::string id = "c" + std::to_string(c) + "-" + std::to_string(i);
      clients[c]->send(solve_frame(id, 100 * c + i));
    }
  }
  for (auto& client : clients) client->close_write();

  for (std::size_t c = 0; c < kClients; ++c) {
    const std::vector<std::string> lines = clients[c]->read_lines(kFrames);
    ASSERT_EQ(lines.size(), kFrames) << "client " << c;
    for (std::size_t i = 0; i < kFrames; ++i) {
      EXPECT_EQ(response_id(lines[i]),
                "c" + std::to_string(c) + "-" + std::to_string(i))
          << "client " << c << " response " << i
          << " out of its own arrival order";
      const auto doc = io::parse_json(lines[i]);
      ASSERT_TRUE(doc.has_value());
      EXPECT_EQ(require_field(*doc, "status").as_string(), "ok");
    }
  }
}

TEST(ServerListener, ConcurrentDeltaChainsMatchEachChainServedAlone) {
  // Four clients each warm-solve their own base DAG and pipeline a delta
  // chain against it — every base fingerprint is composed locally, the
  // way the server re-keys — with sends interleaved frame by frame. The
  // updates of the four sessions overlap on the pool, yet each client's
  // transcript must be byte-identical to its chain alone through
  // serve_stream.
  constexpr int kClients = 4;
  constexpr int kDeltas = 8;
  std::vector<std::vector<std::string>> chains(kClients);
  for (int c = 0; c < kClients; ++c) {
    support::Rng rng(700 + static_cast<std::uint64_t>(c));
    gen::GnmParams shape;
    shape.num_vertices = 20;
    shape.num_edges = 40;
    graph::Digraph g = test::wire_normalized(gen::random_dag(shape, rng));
    gen::EditScriptParams script;
    script.num_deltas = kDeltas;
    const auto deltas = gen::random_edit_script(g, script, rng);
    std::string prefix = "c";
    prefix += std::to_string(c);
    chains[c].push_back(test::frame(prefix + "-w", g, 6,
                                    800 + static_cast<std::uint64_t>(c),
                                    test::FrameOpts{.warm = true}) +
                        "\n");
    for (int i = 0; i < kDeltas; ++i) {
      std::string id = prefix;
      id += "-d";
      id += std::to_string(i);
      const std::string base = fingerprint_hex(graph::CsrView(g).fingerprint());
      chains[c].push_back(test::delta_frame(id, base, deltas[i]) + "\n");
      ASSERT_EQ(graph::apply_delta(g, deltas[i]), "");
    }
  }

  std::vector<std::string> alone;
  for (const auto& chain : chains) {
    std::string stream;
    for (const std::string& line : chain) stream += line;
    Server server(ServeOptions{});
    std::istringstream in(stream);
    std::ostringstream out;
    serve_stream(in, out, server);
    alone.push_back(out.str());
  }

  ServeOptions options;
  options.num_threads = 3;
  ListenerHarness harness(options);
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(harness.port()));
  }
  for (std::size_t i = 0; i <= kDeltas; ++i) {
    for (int c = 0; c < kClients; ++c) clients[c]->send(chains[c][i]);
  }
  for (auto& client : clients) client->close_write();
  for (int c = 0; c < kClients; ++c) {
    const std::string got = clients[c]->read_all();
    EXPECT_EQ(got, alone[c]) << "client " << c;
    EXPECT_EQ(std::count(got.begin(), got.end(), '\n'), kDeltas + 1);
    EXPECT_EQ(got.find("rejected"), std::string::npos) << got;
  }
}

TEST(ServerListener, MalformedFrameAnswersRejectionAndServingContinues) {
  ListenerHarness harness;
  Client bad(harness.port());
  bad.send("{\"id\":\"x\",\"nope\":1}\n" + solve_frame("x2", 5));
  bad.close_write();
  const std::vector<std::string> lines = bad.read_lines(2);
  ASSERT_EQ(lines.size(), 2u);
  {
    const auto doc = io::parse_json(lines[0]);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(require_field(*doc, "status").as_string(), "rejected");
  }
  {
    const auto doc = io::parse_json(lines[1]);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(require_field(*doc, "status").as_string(), "ok");
  }

  // The daemon is still alive for the next client.
  Client good(harness.port());
  good.send(solve_frame("y1", 9));
  good.close_write();
  const std::vector<std::string> ok = good.read_lines(1);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(response_id(ok[0]), "y1");
}

TEST(ServerListener, MidFrameDisconnectDiscardsThePartialFrame) {
  ListenerHarness harness;
  Client client(harness.port());
  // One complete frame, then a partial one with no terminating newline.
  client.send(solve_frame("whole", 3));
  client.send("{\"id\":\"partial\",\"graph\":{\"num_v");
  client.close_write();

  // Exactly one response — the partial frame was never forwarded — then
  // EOF, and the daemon survives for the next client.
  const std::string all = client.read_all();
  ASSERT_FALSE(all.empty());
  std::size_t newlines = 0;
  for (const char ch : all) newlines += ch == '\n' ? 1u : 0u;
  EXPECT_EQ(newlines, 1u);
  EXPECT_EQ(response_id(all.substr(0, all.size() - 1)), "whole");

  Client next(harness.port());
  next.send(solve_frame("after", 4));
  next.close_write();
  EXPECT_EQ(next.read_lines(1).size(), 1u);
}

TEST(ServerListener, OversizedUnterminatedLineDropsOnlyThatClient) {
  ServeOptions options;
  options.limits.max_line_bytes = 512;
  ListenerHarness harness(options);

  Client flooder(harness.port());
  flooder.send(std::string(4096, 'x'));  // no newline: an unbounded frame
  // The listener must cut the connection (EOF to us) without a response.
  EXPECT_EQ(flooder.read_all(), "");

  Client normal(harness.port());
  normal.send(solve_frame("fine", 6));
  normal.close_write();
  const std::vector<std::string> lines = normal.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(response_id(lines[0]), "fine");

  harness.stop();
  EXPECT_EQ(harness.listener().stats().dropped, 1u);
}

TEST(ServerListener, StatsFrameIsServedOverTheSocket) {
  ListenerHarness harness;
  Client client(harness.port());
  client.send(solve_frame("s1", 2));
  client.send("{\"id\":\"s2\",\"stats\":true}\n");
  client.close_write();
  const std::vector<std::string> lines = client.read_lines(2);
  ASSERT_EQ(lines.size(), 2u);
  const auto doc = io::parse_json(lines[1]);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(require_field(*doc, "stats", "schema").as_string(),
            kServeStatsSchema);
  EXPECT_EQ(require_field(*doc, "stats", "received").as_double(), 2.0);
}

TEST(ServerListener, StopDrainsEverythingAlreadyReceived) {
  ListenerHarness harness;
  Client client(harness.port());
  constexpr std::size_t kFrames = 8;
  std::string burst;
  for (std::size_t i = 0; i < kFrames; ++i) {
    burst += solve_frame("d" + std::to_string(i), i, /*num_tours=*/8);
  }
  client.send(burst);
  client.close_write();
  // Once the first response is back, the whole burst has been read off
  // the socket (it was one send); stopping now exercises the drain path
  // for everything still in flight.
  const std::vector<std::string> first = client.read_lines(1);
  ASSERT_EQ(first.size(), 1u);
  harness.stop();

  const std::vector<std::string> rest = client.read_lines(kFrames - 1);
  ASSERT_EQ(rest.size(), kFrames - 1)
      << "stop must drain and deliver every received request";
  for (std::size_t i = 0; i < rest.size(); ++i) {
    EXPECT_EQ(response_id(rest[i]), "d" + std::to_string(i + 1));
  }
}

TEST(ServerListener, UnixSocketTransportRoundTrips) {
  ListenerOptions listener_options;
  listener_options.unix_path = "acolay_listener_test.sock";  // test cwd
  ListenerHarness harness(ServeOptions{}, listener_options);
  EXPECT_EQ(harness.listener().endpoint(), listener_options.unix_path);

  Client client(listener_options.unix_path);
  client.send(solve_frame("u1", 12));
  client.close_write();
  const std::vector<std::string> lines = client.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(response_id(lines[0]), "u1");

  harness.stop();
  // The socket path is unlinked on shutdown.
  EXPECT_NE(::access(listener_options.unix_path.c_str(), F_OK), 0);
}

TEST(ServerListener, MaxClientsCapRejectsTheExtraConnection) {
  ListenerOptions listener_options;
  listener_options.max_clients = 1;
  ListenerHarness harness(ServeOptions{}, listener_options);

  Client first(harness.port());
  first.send(solve_frame("keep", 1));
  const std::vector<std::string> kept = first.read_lines(1);
  ASSERT_EQ(kept.size(), 1u);  // first client is being served

  Client second(harness.port());
  // Past the cap: accepted and closed immediately, no response bytes.
  EXPECT_EQ(second.read_all(), "");

  first.close_write();
  harness.stop();
  EXPECT_EQ(harness.listener().stats().accepted, 1u);
  EXPECT_EQ(harness.listener().stats().rejected, 1u);
}

}  // namespace
}  // namespace acolay::server
