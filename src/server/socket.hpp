/// \file socket.hpp
/// The campaign server's minimal POSIX TCP layer: a std::iostream over a
/// connected socket, a listener with stoppable accept, and a client-side
/// connect. Deliberately tiny — IPv4 dotted quads only (a listen address
/// names an interface; DNS and its nondeterminism stay out of the server),
/// blocking I/O, no TLS — because the interesting parts of the server
/// (protocol, cache, admission) are all stream-shaped and tested through
/// plain stringstreams; this file only has to carry bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <iostream>
#include <memory>
#include <streambuf>
#include <string>

namespace ftsched {
namespace server {

/// A streambuf over a connected socket fd: 4 KiB buffers each way, send()
/// with MSG_NOSIGNAL (a peer that hangs up mid-write surfaces as an I/O
/// error on the stream, never SIGPIPE). Owns and closes the fd.
class SocketBuf : public std::streambuf {
 public:
  explicit SocketBuf(int fd);
  ~SocketBuf() override;
  SocketBuf(const SocketBuf&) = delete;
  SocketBuf& operator=(const SocketBuf&) = delete;

  /// Shuts the read side: a blocked or later read returns end-of-file
  /// while writes still go through.
  void shutdown_read();

 protected:
  int_type underflow() override;
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  [[nodiscard]] bool flush_output();

  static constexpr std::size_t kBufSize = 4096;
  int fd_;
  char in_[kBufSize];
  char out_[kBufSize];
};

/// std::iostream over a connected socket. Line-protocol friendly: the
/// server and client both talk to it exactly as they talk to the
/// stringstreams the protocol tests use.
class SocketStream : public std::iostream {
 public:
  explicit SocketStream(int fd) : std::iostream(nullptr), buf_(fd) {
    rdbuf(&buf_);
  }

  /// See SocketBuf::shutdown_read. Safe to call from another thread while
  /// this stream blocks in a read.
  void shutdown_read() { buf_.shutdown_read(); }

 private:
  SocketBuf buf_;
};

/// A bound, listening TCP socket. Binding port 0 picks an ephemeral port;
/// port() reports the real one (how tests and --port 0 deployments avoid
/// collisions).
class ListenSocket {
 public:
  /// Binds and listens on `address` (IPv4 dotted quad) : `port`. Throws
  /// caft::CheckError on any failure, with the address in the message.
  ListenSocket(const std::string& address, std::uint16_t port);
  ~ListenSocket();
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Accepts one connection, polling ~5×/s so a raised `stop` flag is
  /// honoured promptly. Returns a connected stream, or null when `stop`
  /// was raised (or the listener was closed) before a client arrived.
  [[nodiscard]] std::unique_ptr<SocketStream> accept_connection(
      const std::atomic<bool>& stop);

  /// Closes the listening fd; a blocked accept_connection returns null.
  void close();

 private:
  std::atomic<int> fd_;
  std::uint16_t port_ = 0;
};

/// Connects to `address` (IPv4 dotted quad) : `port`; throws
/// caft::CheckError with both in the message on failure.
[[nodiscard]] std::unique_ptr<SocketStream> connect_to(
    const std::string& address, std::uint16_t port);

}  // namespace server
}  // namespace ftsched
