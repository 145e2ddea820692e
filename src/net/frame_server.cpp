#include "net/frame_server.hpp"

#include <chrono>
#include <exception>
#include <utility>

namespace anchor::net {

FrameServer::FrameServer(std::uint16_t port, int poll_interval_ms,
                         int io_timeout_ms, obs::TraceStage recv_stage,
                         Dispatch dispatch)
    : listener_(TcpListener::bind_loopback(port)),
      poll_interval_ms_(poll_interval_ms),
      io_timeout_ms_(io_timeout_ms),
      recv_stage_(recv_stage),
      dispatch_(std::move(dispatch)) {}

FrameServer::~FrameServer() { stop(); }

void FrameServer::run() { accept_loop(); }

void FrameServer::start() {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void FrameServer::request_shutdown() {
  // Flag first: a client that received the shutdown reply must observe
  // shutdown_requested() as true.
  shutdown_requested_.store(true, std::memory_order_release);
  stop_.store(true, std::memory_order_release);
}

void FrameServer::stop() {
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  // run() callers drive the accept loop on their own thread; wait for it
  // to observe the stop flag (bounded by poll_interval_ms) so the listener
  // is never closed mid-accept and no connection is pushed after the
  // final reap.
  while (accept_running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  reap_connections(/*all=*/true);
  listener_.close();
}

void FrameServer::reap_connections(bool all) {
  std::vector<std::unique_ptr<Connection>> to_join;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (all) {
      to_join.swap(connections_);
    } else {
      for (std::size_t i = 0; i < connections_.size();) {
        if (connections_[i]->done.load(std::memory_order_acquire)) {
          to_join.push_back(std::move(connections_[i]));
          connections_[i] = std::move(connections_.back());
          connections_.pop_back();
        } else {
          ++i;
        }
      }
    }
  }
  for (auto& conn : to_join) conn->thread.join();
}

void FrameServer::accept_loop() {
  accept_running_.store(true, std::memory_order_release);
  while (!stopping()) {
    reap_connections(/*all=*/false);
    TcpStream conn(-1);
    try {
      conn = listener_.accept(poll_interval_ms_);
    } catch (const NetError&) {
      // accept() failed (EMFILE/ENFILE/ENOBUFS): the pending connection
      // stays queued, so back off one interval and retry rather than let
      // the error kill the process.
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_interval_ms_));
      continue;
    }
    if (!conn.valid()) continue;  // poll timeout — recheck stop flag
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    raw->thread =
        std::thread([this, raw, stream = std::move(conn)]() mutable {
          handle_connection(std::move(stream));
          raw->done.store(true, std::memory_order_release);
        });
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections_.push_back(std::move(connection));
  }
  accept_running_.store(false, std::memory_order_release);
}

void FrameServer::handle_connection(TcpStream stream) {
  stream.set_io_timeout(io_timeout_ms_);
  MsgType type{};
  std::vector<std::uint8_t> payload;
  obs::TraceContext trace;
  try {
    while (!stopping()) {
      // Poll so a stop() issued while the client is idle is honored within
      // one interval instead of blocking in recv forever.
      if (!stream.wait_readable(poll_interval_ms_)) continue;
      if (!read_frame(stream, &type, &payload, &trace)) break;  // went away
      const std::uint64_t recv_ns = trace.sampled() ? obs::Tracer::now_ns() : 0;
      bool keep = true;
      try {
        keep = dispatch_(stream, type, payload, trace);
      } catch (const WireError&) {
        throw;
      } catch (const NetError&) {
        throw;
      } catch (const std::exception& e) {
        // A serving error (unknown version, refused request, oversized
        // reply): the stream is intact, so answer it and keep going.
        WireWriter err;
        err.str(e.what());
        write_frame(stream, MsgType::kError, err);
      }
      if (trace.sampled()) {
        obs::Tracer::instance().record(trace, recv_stage_, recv_ns,
                                       obs::Tracer::now_ns());
      }
      if (!keep) break;
    }
  } catch (const WireError&) {
    // Malformed framing or payload layout: the stream position is
    // unrecoverable, so close without a reply (an error frame could land
    // mid-garbage anyway).
  } catch (const NetError&) {
    // Peer reset or vanished mid-message; nothing left to answer.
  }
}

}  // namespace anchor::net
