// Single-threaded closed-loop load generator over loopback TCP: one
// request in flight per connection, the next sent as soon as the previous
// response arrives.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>

#include "perfbench.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Responses still owed after the window closes must arrive within this.
constexpr double kDrainSeconds = 60.0;
constexpr int kPollTimeoutMs = 50;

struct Conn {
  int fd = -1;
  std::string buffer;
  /// Indexes into DriveResult::samples, oldest first (responses arrive in
  /// request order on a connection).
  std::deque<size_t> pending;
};

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int on = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

DriveResult Drive(uint16_t port, const WorkloadSpec& spec,
                  const std::vector<Query>& stream, double seconds,
                  const qec::server::QecServer& server) {
  DriveResult result;
  std::vector<Conn> conns(spec.connections);
  for (Conn& c : conns) {
    c.fd = Connect(port);
    if (c.fd < 0) {
      result.error = std::string("connect: ") + std::strerror(errno);
      for (Conn& open : conns) {
        if (open.fd >= 0) ::close(open.fd);
      }
      return result;
    }
  }

  const Clock::time_point epoch = Clock::now();
  auto now = [&] {
    return std::chrono::duration<double>(Clock::now() - epoch).count();
  };
  result.window_start = spec.warmup_seconds;
  result.window_end = spec.warmup_seconds + seconds;
  bool window_opened = false;
  size_t next = 0;  // next request of the stream
  bool send_failed = false;

  auto send_next = [&](size_t conn_index) {
    if (next >= stream.size()) result.wrapped = true;
    Sample s;
    s.request = next % stream.size();
    s.sent = now();
    s.in_window = s.sent >= result.window_start && s.sent < result.window_end;
    if (s.in_window && !window_opened) {
      window_opened = true;
      result.stats_before = server.stats();
    }
    ++next;
    Conn& c = conns[conn_index];
    if (!SendAll(c.fd, RequestLine(spec, stream[s.request]) + "\n")) {
      send_failed = true;
      return;
    }
    c.pending.push_back(result.samples.size());
    result.samples.push_back(std::move(s));
  };

  for (size_t i = 0; i < conns.size(); ++i) send_next(i);
  std::vector<pollfd> fds(conns.size());
  char chunk[1 << 16];
  for (;;) {
    const double t = now();
    const bool sending = !send_failed && t < result.window_end;
    bool owed = false;
    for (const Conn& c : conns) owed = owed || !c.pending.empty();
    if (!sending && !owed) break;
    if (send_failed) {
      result.error = "send failed";
      break;
    }
    if (t > result.window_end + kDrainSeconds) {
      result.error = "responses still owed after the drain timeout";
      break;
    }

    // Sleep until a response arrives (the timeout only rechecks the clock).
    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i] = {conns[i].fd, POLLIN, 0};
    }
    const int ready = ::poll(fds.data(), fds.size(), kPollTimeoutMs);
    if (ready < 0 && errno != EINTR) {
      result.error = std::string("poll: ") + std::strerror(errno);
      break;
    }
    for (size_t i = 0; i < conns.size() && ready > 0; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[i];
      const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        result.error = "server closed a connection";
        break;
      }
      const double received = now();
      c.buffer.append(chunk, static_cast<size_t>(n));
      size_t start = 0;
      for (size_t nl = c.buffer.find('\n'); nl != std::string::npos;
           nl = c.buffer.find('\n', start)) {
        if (c.pending.empty()) {
          result.error = "response without a request";
          break;
        }
        Sample& s = result.samples[c.pending.front()];
        c.pending.pop_front();
        s.received = received;
        s.response = c.buffer.substr(start, nl - start);
        start = nl + 1;
        if (received < result.window_end) send_next(i);
      }
      c.buffer.erase(0, start);
    }
    if (!result.error.empty()) break;
  }
  // Nothing is sent after the window, so every lookup has happened.
  result.stats_after = server.stats();
  for (Conn& c : conns) ::close(c.fd);
  return result;
}

}  // namespace perfbench
