// Socket front-end for acolay_serve (docs/SERVING.md "Socket transport"):
// a TCP (127.0.0.1) or unix-domain accept loop feeding the single-owner
// server::Server so many concurrent clients share one daemon, one dedup
// cache, and one warm-slot/session store.
//
// Transport model:
//  * line framing — each connection carries the same newline-delimited
//    JSON frames as the stdin/stdout pipe; a partial trailing line at
//    disconnect is discarded, never forwarded;
//  * per-connection ordering — every client receives exactly one response
//    per frame it sent, in ITS OWN arrival order (the Server emits in
//    global push order; the listener routes each response back to the
//    connection that pushed the matching frame). A single-connection
//    transcript is therefore byte-identical to the same stream through
//    serve_stream — the golden-transcript property extends to sockets;
//  * fair interleaving — the serving loop forwards at most one pending
//    frame per connection per sweep, and a per-connection backlog cap
//    blocks the flooding client's reader (natural TCP backpressure)
//    instead of starving the others;
//  * error isolation — a malformed frame is answered `rejected` like on
//    the pipe; an oversized unterminated line, a write failure, or a
//    disconnect drops THAT connection only. Nothing a client does kills
//    the daemon or another client's stream.
//
// Threading: one serving thread (the caller of run()) owns the Server;
// an acceptor thread blocks on the listen socket, and each connection
// gets a reader thread (blocking read + line split) and a writer thread
// (blocking write of queued responses), so one slow or hung client blocks
// only its own pair. Each connection's queues are guarded by its own
// mutex; the Server itself is only ever touched by run().
//
// Wake-ups: the serving thread sleeps on the Server's wake()
// (support::WakeSignal) whenever a sweep moves nothing. The acceptor
// rings it after accepting a connection, readers after queuing a line or
// closing, writers after a failed write or flushing a closed client's
// last response, and the BatchSolver after each finished job — so the
// loop runs on events, not on a polling tick. The only timed wait left
// bounds how late run() notices `stop` (set from a signal handler, which
// cannot ring a condition variable) and, with
// ListenerOptions::stats_every_seconds, when the next stats line is due.
//
// Shutdown: run() returns when `stop` becomes true (the binary sets it
// from SIGINT/SIGTERM): the listen socket closes first (no new clients),
// connection read sides shut down (no new frames), then everything
// already received drains under ListenerOptions::drain_timeout_seconds
// before writers flush and the threads join. Dispatched colonies always
// run to completion; the timeout bounds the wait, not the work.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/session.hpp"

namespace acolay::server {

/// Where and how the socket front-end listens (exactly one of tcp_port /
/// unix_path must be set; serve_main's CLI enforces that).
struct ListenerOptions {
  /// >= 0: listen on 127.0.0.1:tcp_port (0 picks an ephemeral port,
  /// resolved by Listener::port() after start()). < 0: no TCP listener.
  int tcp_port = -1;
  /// Non-empty: listen on a unix-domain socket at this path (any stale
  /// file at the path is unlinked first, and the path is unlinked again
  /// on shutdown).
  std::string unix_path;
  /// Seconds granted to in-flight and already-received work when `stop`
  /// is raised before the listener gives up waiting and exits anyway.
  double drain_timeout_seconds = 5.0;
  /// > 0: write a stats line (render_listener_stats_line) to run()'s
  /// `info` stream every this-many seconds, so counters are scrapeable
  /// from the log without attaching a connection.
  double stats_every_seconds = 0.0;
  /// Concurrent connections admitted; one past the cap is accepted and
  /// immediately closed (counted in ListenerStats::rejected).
  std::size_t max_clients = 64;
  /// Frames a single connection may have pending (read but not yet
  /// answered) before its reader stops consuming the socket — the
  /// fairness/backpressure knob.
  std::size_t max_pending_per_connection = 64;
};

/// Transport-level counters, next to (never mixed into) the Server's
/// ServeStats: the wire "stats" frame must stay a pure function of the
/// request stream, and connection counts are not — so they appear only in
/// the stderr stats lines.
struct ListenerStats {
  std::uint64_t accepted = 0;  ///< connections admitted
  std::uint64_t rejected = 0;  ///< connections closed at the max_clients cap
  std::uint64_t dropped = 0;   ///< connections killed by framing/write errors
  std::uint64_t frames = 0;    ///< request lines forwarded to the Server
};

/// The periodic / shutdown stderr line in socket mode: the ServeStats
/// object (same keys and schema tag as render_stats_line) plus the
/// listener's connection counters — additive keys, same schema.
std::string render_listener_stats_line(const ServeStats& serve,
                                       const ListenerStats& listener);

/// The accept loop (see file comment for the transport contract).
class Listener {
 public:
  /// A listener that will feed `server`; call start() before run().
  /// `server` must outlive the listener and is owned by run()'s thread.
  Listener(Server& server, ListenerOptions options);

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// run() must have returned (or never been called) before destruction.
  ~Listener();

  /// Binds and listens. False (with `error` filled) on bind/listen
  /// failure; the caller turns that into a startup error, not a crash.
  bool start(std::string& error);

  /// Human-readable bound endpoint ("127.0.0.1:<port>" or the unix
  /// path); empty before start().
  const std::string& endpoint() const { return endpoint_; }

  /// The resolved TCP port (meaningful after start() when tcp_port was
  /// used; ephemeral binds report the real port). -1 otherwise.
  int port() const { return port_; }

  /// Serves until `stop` becomes true, then drains and returns (see file
  /// comment). A caller that can should ring the server's wake() after
  /// raising `stop` so run() notices at once; otherwise (a signal
  /// handler) it notices within 50 ms. `info` (may be null) receives the
  /// periodic and shutdown stats lines.
  void run(const std::atomic<bool>& stop, std::ostream* info);

  /// Transport counters so far (read from run()'s thread, or after it).
  const ListenerStats& stats() const { return stats_; }

 private:
  struct Connection;

  /// The acceptor thread's loop: accepts connections into accepted_ and
  /// rings the wake-up, until accepting_ drops.
  void accept_loop();
  /// Turns accepted sockets into Connections (or closes them at the
  /// max_clients cap) on the serving thread.
  void accept_pending();
  /// Fair sweep: at most one queued frame per connection per round.
  bool pump();
  /// Routes Server responses back to their origin connections.
  bool route_responses();
  /// Joins and erases connections that are finished or failed.
  void reap(bool force_close);
  void close_listen_socket();

  Server& server_;
  ListenerOptions options_;
  int listen_fd_ = -1;
  std::string endpoint_;
  int port_ = -1;
  bool bound_unix_ = false;
  std::atomic<bool> accepting_{false};
  std::mutex accept_mutex_;
  std::vector<int> accepted_;  ///< accepted fds not yet taken (accept_mutex_)
  /// Runs accept_loop() during run(); declared after what it uses.
  std::thread acceptor_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::deque<std::uint64_t> origin_;  ///< connection id per pushed frame,
                                      ///< FIFO-matched to Server responses
  std::uint64_t next_connection_id_ = 1;
  ListenerStats stats_;
};

}  // namespace acolay::server
