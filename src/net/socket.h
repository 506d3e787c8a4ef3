// Minimal RAII TCP socket for the fleet protocol (loopback-oriented).
//
// The daemon and agent need exactly four operations -- listen, connect,
// accept, and non-blocking read/write -- plus deterministic error reporting
// through support::Status instead of errno spaghetti. Everything binds to
// 127.0.0.1: the reproduction's fleet lives on one machine (the bench drives
// M agents over loopback), and nothing here should ever accept off-host
// traffic.
#ifndef SNORLAX_NET_SOCKET_H_
#define SNORLAX_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>

#include "support/status.h"

namespace snorlax::net {

class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  // Listening socket on 127.0.0.1:`port` (0 = kernel-assigned; read the
  // result back via local_port()). A port another socket holds fails with
  // kUnavailable, any other failure with kInternal.
  static support::Result<Socket> Listen(uint16_t port, int backlog = 64);
  // Blocking connect to 127.0.0.1:`port`.
  static support::Result<Socket> ConnectLoopback(uint16_t port);

  // Accepts one pending connection; kFailedPrecondition when none is pending
  // (non-blocking listen socket).
  support::Result<Socket> Accept();

  support::Status SetNonBlocking(bool enable);

  // Bytes read, 0 on orderly peer close, -1 with *would_block=true when a
  // non-blocking read has no data. Hard errors come back as -1 with
  // *would_block=false.
  ssize_t Read(uint8_t* buf, size_t len, bool* would_block);
  // Bytes written (possibly short), -1 with *would_block semantics as Read.
  ssize_t Write(const uint8_t* buf, size_t len, bool* would_block);

  // Port actually bound (after Listen with port 0).
  uint16_t local_port() const;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

 private:
  int fd_ = -1;
};

}  // namespace snorlax::net

#endif  // SNORLAX_NET_SOCKET_H_
