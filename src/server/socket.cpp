#include "server/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/check.hpp"

namespace ftsched {
namespace server {

SocketBuf::SocketBuf(int fd) : fd_(fd) {
  setg(in_, in_, in_);
  setp(out_, out_ + kBufSize);
}

SocketBuf::~SocketBuf() {
  (void)flush_output();  // best effort; the peer may already be gone
  if (fd_ >= 0) ::close(fd_);
}

void SocketBuf::shutdown_read() { (void)::shutdown(fd_, SHUT_RD); }

SocketBuf::int_type SocketBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  ssize_t got;
  do {
    got = ::recv(fd_, in_, kBufSize, 0);
  } while (got < 0 && errno == EINTR);
  if (got <= 0) return traits_type::eof();
  setg(in_, in_, in_ + got);
  return traits_type::to_int_type(*gptr());
}

bool SocketBuf::flush_output() {
  const char* data = pbase();
  std::size_t left = static_cast<std::size_t>(pptr() - pbase());
  while (left > 0) {
    ssize_t sent;
    do {
      sent = ::send(fd_, data, left, MSG_NOSIGNAL);
    } while (sent < 0 && errno == EINTR);
    if (sent <= 0) return false;
    data += sent;
    left -= static_cast<std::size_t>(sent);
  }
  setp(out_, out_ + kBufSize);
  return true;
}

SocketBuf::int_type SocketBuf::overflow(int_type ch) {
  if (!flush_output()) return traits_type::eof();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int SocketBuf::sync() { return flush_output() ? 0 : -1; }

namespace {

sockaddr_in make_address(const std::string& address, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  CAFT_CHECK_MSG(::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) == 1,
                 "not an IPv4 dotted quad: '" + address + "'");
  return addr;
}

}  // namespace

ListenSocket::ListenSocket(const std::string& address, std::uint16_t port)
    : fd_(-1) {
  const sockaddr_in addr = make_address(address, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CAFT_CHECK_MSG(fd >= 0, "cannot create a TCP socket: " +
                              std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 16) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw caft::CheckError("cannot listen on " + address + ":" +
                           std::to_string(port) + ": " + reason);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw caft::CheckError("getsockname failed on " + address + ": " + reason);
  }
  port_ = ntohs(bound.sin_port);
  fd_.store(fd);
}

ListenSocket::~ListenSocket() { close(); }

void ListenSocket::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) ::close(fd);
}

std::unique_ptr<SocketStream> ListenSocket::accept_connection(
    const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_acquire)) {
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) return nullptr;
    pollfd waiter{fd, POLLIN, 0};
    const int ready = ::poll(&waiter, 1, 200);
    if (ready < 0 && errno != EINTR) return nullptr;
    if (ready <= 0) continue;
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return nullptr;  // listener closed under us, or a hard error
    }
    return std::make_unique<SocketStream>(client);
  }
  return nullptr;
}

std::unique_ptr<SocketStream> connect_to(const std::string& address,
                                         std::uint16_t port) {
  const sockaddr_in addr = make_address(address, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CAFT_CHECK_MSG(fd >= 0, "cannot create a TCP socket: " +
                              std::string(std::strerror(errno)));
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw caft::CheckError("cannot connect to " + address + ":" +
                           std::to_string(port) + ": " + reason);
  }
  return std::make_unique<SocketStream>(fd);
}

}  // namespace server
}  // namespace ftsched
