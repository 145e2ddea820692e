// The one connection-serving loop behind every binary-protocol front-end
// (net::Server, cluster::Router): a loopback listener, an accept thread
// that reaps finished handlers and spawns one handler thread per
// connection, and a stop-aware frame loop that hands each request frame to
// the owner's dispatch callback. A sampled frame's whole handling is one
// trace span of the stage the owner passed in.
//
// Error policy (PROTOCOL.md, "Connection error policy"): WireError and
// NetError close the connection without a reply; any other std::exception
// from dispatch is answered with a kError frame carrying e.what(), and the
// connection stays open. A failed accept() (EMFILE and friends) is retried
// after one poll interval instead of taking the process down.
//
// The listener binds in the constructor (so an ephemeral port is known
// immediately), but serves only once run() or start() is called.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/trace.hpp"

namespace anchor::net {

class FrameServer {
 public:
  /// Handles one request frame and writes its reply; returns false when
  /// the connection should close. `trace` is the frame's trace context
  /// (invalid for untraced requests).
  using Dispatch = std::function<bool(
      TcpStream& stream, MsgType type, const std::vector<std::uint8_t>& payload,
      const obs::TraceContext& trace)>;

  /// Binds 127.0.0.1:port (0 = ephemeral). `poll_interval_ms` bounds how
  /// long stop() waits for the accept loop and idle connections;
  /// `io_timeout_ms` bounds every recv/send stall on a connection (idle
  /// between frames is unlimited). Sampled frames are recorded as
  /// `recv_stage` spans.
  FrameServer(std::uint16_t port, int poll_interval_ms, int io_timeout_ms,
              obs::TraceStage recv_stage, Dispatch dispatch);
  ~FrameServer();
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Serves on the calling thread until stop() or request_shutdown().
  void run();
  /// Serves on a background thread; returns immediately.
  void start();
  /// Stops accepting, joins every handler, and closes the listener.
  /// Idempotent; safe from any thread except a handler's own.
  void stop();

  /// Stops the accept loop and every handler's frame loop without joining
  /// (callable from a handler); shutdown_requested() turns true first.
  void request_shutdown();
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }
  /// True once stop() or request_shutdown() ran — owners' background
  /// loops watch this too.
  bool stopping() const { return stop_.load(std::memory_order_acquire); }

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};  // set by the handler as it exits
  };

  void accept_loop();
  void handle_connection(TcpStream stream);
  /// Joins and drops finished handlers (every accept-loop iteration), so a
  /// long-running daemon does not retain one dead thread per connection
  /// ever served. stop() joins the rest unconditionally.
  void reap_connections(bool all);

  TcpListener listener_;
  const int poll_interval_ms_;
  const int io_timeout_ms_;
  const obs::TraceStage recv_stage_;
  const Dispatch dispatch_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> shutdown_requested_{false};
  /// True while accept_loop() is executing — run() callers have no thread
  /// for stop() to join, so stop() waits on this flag before closing the
  /// listener out from under the loop.
  std::atomic<bool> accept_running_{false};
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace anchor::net
