// Client side of the service wire protocol: connect, send one request
// object, read the response line(s). Used by the `pima_asm` client verbs
// (submit/status/result/cancel/list/drain/metrics) and by the tests; the
// transport (unix socket vs loopback TCP) is fixed at connect time and
// invisible afterwards.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/json.hpp"
#include "net/socket.hpp"

namespace pima::service {

class Client {
 public:
  /// `timeout_s` > 0 bounds the connect AND every subsequent wait for a
  /// response line; expiry throws DeadlineExceededError (exit code 9).
  /// 0 (the default) waits forever — the pre-deadline behaviour.
  static Client connect_unix_socket(const std::string& path,
                                    double timeout_s = 0.0);
  static Client connect_tcp_port(std::uint16_t port, double timeout_s = 0.0);

  /// One request, one response line. Throws IoError if the daemon hangs
  /// up before responding.
  net::Json request(const net::Json& req);

  /// One request, streamed responses (`status --follow`): `on_line` is
  /// called per response object until the daemon closes the stream or
  /// returns false from the callback. Returns the last response seen.
  net::Json stream(const net::Json& req,
                   const std::function<bool(const net::Json&)>& on_line);

 private:
  Client(net::ScopedFd fd, double timeout_s)
      : fd_(std::move(fd)), channel_(fd_.get()) {
    channel_.set_deadline(timeout_s);
  }

  net::ScopedFd fd_;
  net::LineChannel channel_;
};

}  // namespace pima::service
