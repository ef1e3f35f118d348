#include "server/listener.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>

#include "io/json.hpp"
#include "support/timer.hpp"

namespace acolay::server {

namespace {

/// Writes all of `data` to `fd`, retrying short writes and EINTR. False on
/// any hard error (including an SO_SNDTIMEO timeout surfacing as EAGAIN) —
/// the caller drops the connection, never the daemon. MSG_NOSIGNAL keeps a
/// peer-closed socket an EPIPE error instead of a process-wide SIGPIPE, so
/// embedding the listener never depends on the host's signal disposition.
bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// How late run() may notice `stop` when nobody rings the wake-up (a
/// signal handler cannot). It does not bound serving latency: every
/// frame, finished job and new connection rings the wake-up.
constexpr double kStopPollSeconds = 0.05;
/// The acceptor's back-off after a failed accept() (EMFILE and friends).
constexpr int kAcceptBackoffMs = 50;

/// A hung client must only ever block its own writer thread, and shutdown
/// joins writers — so sends time out instead of blocking forever.
void set_send_timeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec =
      static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

std::string render_listener_stats_line(const ServeStats& serve,
                                       const ListenerStats& listener) {
  io::JsonWriter w;
  w.begin_object();
  append_stats_fields(w, serve);
  w.kv("connections_accepted", listener.accepted);
  w.kv("connections_rejected", listener.rejected);
  w.kv("connections_dropped", listener.dropped);
  w.kv("frames_forwarded", listener.frames);
  w.end_object();
  return w.str();
}

/// One client. The reader thread splits the byte stream into lines and
/// queues them in `incoming`; run()'s thread moves them into the Server
/// and queues responses in `outgoing`; the writer thread flushes those to
/// the socket. `mutex` guards every field below the thread handles. Both
/// threads ring `wake` whenever run()'s thread has something new to do.
struct Listener::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  support::WakeSignal* wake = nullptr;
  std::thread reader;
  std::thread writer;

  std::mutex mutex;
  std::condition_variable reader_cv;  ///< wakes a backpressured reader
  std::condition_variable writer_cv;  ///< wakes the writer
  std::deque<std::string> incoming;   ///< complete request lines
  std::deque<std::string> outgoing;   ///< rendered response lines
  std::size_t pending = 0;    ///< frames forwarded, response not yet queued
  bool read_closed = false;   ///< EOF or read error; no more frames
  bool overflowed = false;    ///< unterminated line past the frame cap
  bool write_failed = false;  ///< write error; responses undeliverable
  bool closing = false;       ///< writer exits once `outgoing` is flushed

  void read_loop(std::size_t max_line_bytes, std::size_t max_pending) {
    std::string buffer;
    std::vector<char> chunk(std::size_t{64} << 10);
    for (;;) {
      const ssize_t n = ::read(fd, chunk.data(), chunk.size());
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // EOF or error; a partial `buffer` is discarded
      buffer.append(chunk.data(), static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = buffer.find('\n', start);
        if (nl == std::string::npos) break;
        std::string line = buffer.substr(start, nl - start);
        start = nl + 1;
        std::unique_lock<std::mutex> lock(mutex);
        // Backpressure: a flooding client waits here (TCP pushes back on
        // its sends) instead of growing its queue past the other clients.
        reader_cv.wait(lock, [&] {
          return incoming.size() + pending < max_pending || closing;
        });
        if (closing) return;
        incoming.push_back(std::move(line));
        lock.unlock();
        wake->notify();
      }
      buffer.erase(0, start);
      if (buffer.size() > max_line_bytes) {
        // An unterminated frame past the cap would buffer without bound;
        // drop this client (only this client) instead.
        const std::lock_guard<std::mutex> lock(mutex);
        overflowed = true;
        break;
      }
    }
    {
      const std::lock_guard<std::mutex> lock(mutex);
      read_closed = true;
    }
    wake->notify();
  }

  void write_loop() {
    for (;;) {
      std::string line;
      {
        std::unique_lock<std::mutex> lock(mutex);
        writer_cv.wait(lock, [&] {
          return !outgoing.empty() || closing || write_failed;
        });
        if (write_failed || (outgoing.empty() && closing)) return;
        if (outgoing.empty()) continue;
        // The front stays queued until its bytes are out, so an empty
        // `outgoing` under the lock means "everything was delivered" —
        // the condition reap() trusts before closing a finished client.
        line = outgoing.front();
      }
      line.push_back('\n');
      const bool ok = write_all(fd, line.data(), line.size());
      bool reapable = false;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (ok) outgoing.pop_front();
        write_failed = !ok;
        // A dead connection, or a closed one whose last response just
        // went out, is reap()'s to close: tell run()'s thread.
        reapable = !ok || (read_closed && outgoing.empty());
      }
      if (reapable) wake->notify();
      if (!ok) return;
    }
  }
};

Listener::Listener(Server& server, ListenerOptions options)
    : server_(server), options_(std::move(options)) {}

Listener::~Listener() {
  accepting_.store(false);
  if (acceptor_.joinable()) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the acceptor's poll()
    acceptor_.join();
  }
  close_listen_socket();
  for (const int fd : accepted_) ::close(fd);
}

bool Listener::start(std::string& error) {
  const bool want_tcp = options_.tcp_port >= 0;
  const bool want_unix = !options_.unix_path.empty();
  if (want_tcp == want_unix) {
    error = "exactly one of tcp_port / unix_path must be set";
    return false;
  }

  if (want_unix) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      error = "unix socket path too long: " + options_.unix_path;
      return false;
    }
    std::memcpy(addr.sun_path, options_.unix_path.c_str(),
                options_.unix_path.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      error = "socket(AF_UNIX) failed: " + std::string(std::strerror(errno));
      return false;
    }
    ::unlink(options_.unix_path.c_str());  // stale path from a dead daemon
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      error = "bind(" + options_.unix_path +
              ") failed: " + std::string(std::strerror(errno));
      close_listen_socket();
      return false;
    }
    bound_unix_ = true;
    endpoint_ = options_.unix_path;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      error = "socket(AF_INET) failed: " + std::string(std::strerror(errno));
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local service only
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      error = "bind(127.0.0.1:" + std::to_string(options_.tcp_port) +
              ") failed: " + std::string(std::strerror(errno));
      close_listen_socket();
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = static_cast<int>(ntohs(bound.sin_port));
    endpoint_ = "127.0.0.1:" + std::to_string(port_);
  }

  if (::listen(listen_fd_, 64) != 0) {
    error = "listen() failed: " + std::string(std::strerror(errno));
    close_listen_socket();
    return false;
  }
  return true;
}

void Listener::close_listen_socket() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (bound_unix_) {
    ::unlink(options_.unix_path.c_str());
    bound_unix_ = false;
  }
}

void Listener::accept_loop() {
  while (accepting_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    // Blocks until a client arrives or the socket is shut down to stop
    // this loop (run() at stop, or the destructor) — then accept() would
    // only fail, so the flag is checked first.
    if (::poll(&pfd, 1, -1) <= 0 || !accepting_.load()) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // EMFILE and friends leave the client pending in the backlog, so
      // poll() reports it again at once: back off instead of spinning.
      if (errno != EINTR && errno != EAGAIN && errno != ECONNABORTED) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kAcceptBackoffMs));
      }
      continue;
    }
    {
      const std::lock_guard<std::mutex> lock(accept_mutex_);
      accepted_.push_back(fd);
    }
    server_.wake().notify();
  }
}

void Listener::accept_pending() {
  std::vector<int> fresh;
  {
    const std::lock_guard<std::mutex> lock(accept_mutex_);
    fresh.swap(accepted_);
  }
  for (const int fd : fresh) {
    if (connections_.size() >= options_.max_clients) {
      ++stats_.rejected;
      ::close(fd);
      continue;
    }
    set_send_timeout(fd, 5.0);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_connection_id_++;
    conn->wake = &server_.wake();
    Connection* raw = conn.get();
    const std::size_t max_line = server_.options().limits.max_line_bytes;
    const std::size_t max_pending = options_.max_pending_per_connection;
    conn->reader = std::thread([raw, max_line, max_pending] {
      raw->read_loop(max_line, max_pending);
    });
    conn->writer = std::thread([raw] { raw->write_loop(); });
    connections_.push_back(std::move(conn));
    ++stats_.accepted;
  }
}

bool Listener::pump() {
  bool progress = false;
  // One frame per connection per round: arrival order within a connection
  // is preserved, and no client can occupy more than its share of a sweep.
  bool any = true;
  while (any) {
    any = false;
    for (const auto& conn : connections_) {
      std::string line;
      {
        const std::lock_guard<std::mutex> lock(conn->mutex);
        if (conn->incoming.empty()) continue;
        line = std::move(conn->incoming.front());
        conn->incoming.pop_front();
        ++conn->pending;
      }
      conn->reader_cv.notify_one();
      server_.push_line(line);
      origin_.push_back(conn->id);
      ++stats_.frames;
      any = progress = true;
    }
  }
  return progress;
}

bool Listener::route_responses() {
  bool progress = false;
  for (std::string& response : server_.take_responses()) {
    // Server responses come out in global push order, so the origin FIFO
    // lines up one-to-one by construction.
    const std::uint64_t id = origin_.front();
    origin_.pop_front();
    for (const auto& conn : connections_) {
      if (conn->id != id) continue;
      {
        const std::lock_guard<std::mutex> lock(conn->mutex);
        --conn->pending;
        if (!conn->write_failed) conn->outgoing.push_back(std::move(response));
      }
      conn->writer_cv.notify_one();
      conn->reader_cv.notify_one();
      break;
    }
    // A reaped (dropped) connection's id is no longer in `connections_`,
    // so its responses are discarded — exactly the isolation we want.
    progress = true;
  }
  return progress;
}

void Listener::reap(bool force_close) {
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& conn = **it;
    bool done = false;
    bool dead = false;
    {
      const std::lock_guard<std::mutex> lock(conn.mutex);
      dead = conn.overflowed || conn.write_failed;
      const bool finished = conn.read_closed && conn.incoming.empty() &&
                            conn.pending == 0 && conn.outgoing.empty();
      done = dead || finished || force_close;
      if (done) conn.closing = true;
    }
    if (!done) {
      ++it;
      continue;
    }
    // Join the writer FIRST: with `closing` set it exits once `outgoing`
    // is flushed, so every queued response reaches the socket before the
    // fd shuts down. Then SHUT_RDWR wakes a reader blocked in read().
    conn.writer_cv.notify_all();
    conn.reader_cv.notify_all();
    if (conn.writer.joinable()) conn.writer.join();
    ::shutdown(conn.fd, SHUT_RDWR);
    if (conn.reader.joinable()) conn.reader.join();
    ::close(conn.fd);
    if (dead) ++stats_.dropped;
    it = connections_.erase(it);
  }
}

void Listener::run(const std::atomic<bool>& stop, std::ostream* info) {
  support::WakeSignal& wake = server_.wake();
  accepting_.store(true);
  acceptor_ = std::thread([this] { accept_loop(); });

  support::Stopwatch stats_watch;
  const bool stats_lines =
      options_.stats_every_seconds > 0.0 && info != nullptr;
  while (!stop.load(std::memory_order_relaxed)) {
    // Snapshot before the sweep: any event after this point bumps the
    // generation, so the wait below returns at once instead of missing it.
    const std::uint64_t seen = wake.generation();
    accept_pending();
    bool progress = pump();
    progress = server_.step() || progress;
    progress = route_responses() || progress;
    reap(false);
    double timeout = kStopPollSeconds;
    if (stats_lines) {
      if (stats_watch.elapsed_seconds() >= options_.stats_every_seconds) {
        *info << render_listener_stats_line(server_.stats(), stats_) << '\n';
        info->flush();
        stats_watch.reset();
      }
      timeout = std::min(timeout, options_.stats_every_seconds -
                                      stats_watch.elapsed_seconds());
    }
    if (!progress) wake.wait_for(seen, timeout);
  }

  // Drain: no new clients, no new frames; everything already received
  // gets drain_timeout_seconds to finish and flush.
  accepting_.store(false);
  ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the acceptor's poll()
  acceptor_.join();
  close_listen_socket();
  for (const int fd : accepted_) ::close(fd);  // arrived after `stop`
  accepted_.clear();
  for (const auto& conn : connections_) ::shutdown(conn->fd, SHUT_RD);
  support::Stopwatch drain_watch;
  for (;;) {
    const std::uint64_t seen = wake.generation();
    bool progress = pump();
    progress = server_.step() || progress;
    progress = route_responses() || progress;
    if (server_.outstanding() == 0) {
      bool idle = true;
      for (const auto& conn : connections_) {
        const std::lock_guard<std::mutex> lock(conn->mutex);
        idle = idle && conn->incoming.empty() && conn->pending == 0;
      }
      if (idle) break;
    }
    const double left =
        options_.drain_timeout_seconds - drain_watch.elapsed_seconds();
    if (left <= 0.0) break;
    if (!progress) wake.wait_for(seen, left);
  }
  reap(true);
}

}  // namespace acolay::server
