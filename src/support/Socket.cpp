//===- support/Socket.cpp - Unix-domain socket & SIGPIPE policy -----------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Socket.h"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace intro;

void intro::ignoreSigPipe() { ::signal(SIGPIPE, SIG_IGN); }

namespace {

/// Fills a sockaddr_un for \p Path; \returns false when the path does not
/// fit sun_path (a hard protocol limit, typically 108 bytes).
bool fillAddress(const std::string &Path, sockaddr_un &Address,
                 std::string &Error) {
  std::memset(&Address, 0, sizeof(Address));
  Address.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Address.sun_path)) {
    Error = "socket path is empty or longer than sun_path allows: " + Path;
    return false;
  }
  std::memcpy(Address.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

} // namespace

int intro::listenUnix(const std::string &Path, int Backlog,
                      std::string &Error) {
  sockaddr_un Address;
  if (!fillAddress(Path, Address, Error))
    return -1;

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Address), sizeof(Address)) !=
      0) {
    if (errno == EADDRINUSE) {
      // Either a live server or a stale socket file from a dead one.  A
      // refused connect means nobody is listening: unlink and rebind.
      std::string ProbeError;
      int Probe = connectUnix(Path, ProbeError);
      if (Probe >= 0) {
        ::close(Probe);
        ::close(Fd);
        Error = "another server is already listening on " + Path;
        return -1;
      }
      ::unlink(Path.c_str());
      if (::bind(Fd, reinterpret_cast<sockaddr *>(&Address),
                 sizeof(Address)) == 0) {
        if (::listen(Fd, Backlog) != 0) {
          Error = std::string("listen: ") + std::strerror(errno);
          ::close(Fd);
          return -1;
        }
        return Fd;
      }
    }
    Error = std::string("bind ") + Path + ": " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  if (::listen(Fd, Backlog) != 0) {
    Error = std::string("listen: ") + std::strerror(errno);
    ::close(Fd);
    ::unlink(Path.c_str());
    return -1;
  }
  return Fd;
}

int intro::connectUnix(const std::string &Path, std::string &Error) {
  sockaddr_un Address;
  if (!fillAddress(Path, Address, Error))
    return -1;

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Address),
                sizeof(Address)) != 0) {
    Error = std::string("connect ") + Path + ": " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool intro::sendAll(int Fd, const char *Data, size_t Count) {
  while (Count > 0) {
    // MSG_NOSIGNAL: no SIGPIPE even if the caller never installed the
    // process-wide guard.  Falls back to write(2) semantics for non-socket
    // fds via the ENOTSOCK retry below.
    ssize_t Written = ::send(Fd, Data, Count, MSG_NOSIGNAL);
    if (Written < 0 && errno == ENOTSOCK)
      Written = ::write(Fd, Data, Count);
    if (Written < 0) {
      if (errno == EINTR)
        continue;
      return false; // EPIPE/ECONNRESET: peer gone — clean stop policy.
    }
    Data += Written;
    Count -= static_cast<size_t>(Written);
  }
  return true;
}

int intro::pollIn(int Fd, int TimeoutMs) {
  pollfd Poll;
  Poll.fd = Fd;
  Poll.events = POLLIN;
  Poll.revents = 0;
  while (true) {
    int Ready = ::poll(&Poll, 1, TimeoutMs);
    if (Ready < 0 && errno == EINTR)
      continue;
    if (Ready < 0)
      return -1;
    return Ready > 0 ? 1 : 0;
  }
}

bool intro::peerHungUp(int Fd) {
  pollfd Poll;
  Poll.fd = Fd;
  Poll.events = 0; // POLLHUP and POLLERR are reported regardless.
  Poll.revents = 0;
  while (::poll(&Poll, 1, 0) < 0)
    if (errno != EINTR)
      return false;
  return (Poll.revents & (POLLHUP | POLLERR)) != 0;
}

long intro::readSome(int Fd, char *Buffer, size_t Capacity) {
  while (true) {
    ssize_t Count = ::read(Fd, Buffer, Capacity);
    if (Count < 0 && errno == EINTR)
      continue;
    return static_cast<long>(Count);
  }
}
