#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/str.h"

namespace snorlax::net {

using support::Status;
using support::StatusCode;

namespace {

Status Errno(const char* what, StatusCode code = StatusCode::kInternal) {
  return Status::Error(code, StrFormat("%s: %s", what, std::strerror(errno)));
}

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

support::Result<Socket> Socket::Listen(uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Errno("socket");
  }
  Socket sock(fd);
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddr(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind", errno == EADDRINUSE ? StatusCode::kUnavailable : StatusCode::kInternal);
  }
  if (::listen(fd, backlog) != 0) {
    return Errno("listen");
  }
  return sock;
}

support::Result<Socket> Socket::ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Errno("socket");
  }
  Socket sock(fd);
  sockaddr_in addr = LoopbackAddr(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("connect");
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

support::Result<Socket> Socket::Accept() {
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Error(StatusCode::kFailedPrecondition, "no pending connection");
    }
    return Errno("accept");
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

support::Status Socket::SetNonBlocking(bool enable) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) {
    return Errno("fcntl(F_GETFL)");
  }
  const int next = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, next) < 0) {
    return Errno("fcntl(F_SETFL)");
  }
  return Status::Ok();
}

ssize_t Socket::Read(uint8_t* buf, size_t len, bool* would_block) {
  *would_block = false;
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, len, 0);
    if (n >= 0) {
      return n;
    }
    if (errno == EINTR) {
      continue;
    }
    *would_block = errno == EAGAIN || errno == EWOULDBLOCK;
    return -1;
  }
}

ssize_t Socket::Write(const uint8_t* buf, size_t len, bool* would_block) {
  *would_block = false;
  for (;;) {
    const ssize_t n = ::send(fd_, buf, len, MSG_NOSIGNAL);
    if (n >= 0) {
      return n;
    }
    if (errno == EINTR) {
      continue;
    }
    *would_block = errno == EAGAIN || errno == EWOULDBLOCK;
    return -1;
  }
}

uint16_t Socket::local_port() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

}  // namespace snorlax::net
