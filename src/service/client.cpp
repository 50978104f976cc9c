#include "service/client.hpp"

#include "common/error.hpp"

namespace pima::service {

Client Client::connect_unix_socket(const std::string& path,
                                   double timeout_s) {
  return Client(net::connect_unix(path, timeout_s), timeout_s);
}

Client Client::connect_tcp_port(std::uint16_t port, double timeout_s) {
  return Client(net::connect_tcp(port, timeout_s), timeout_s);
}

net::Json Client::request(const net::Json& req) {
  channel_.write_line(req.dump());
  std::string line;
  if (!channel_.read_line(line))
    throw IoError("daemon closed the connection before responding");
  return net::Json::parse(line);
}

net::Json Client::stream(const net::Json& req,
                         const std::function<bool(const net::Json&)>& on_line) {
  channel_.write_line(req.dump());
  std::string line;
  net::Json last;
  bool any = false;
  while (channel_.read_line(line)) {
    last = net::Json::parse(line);
    any = true;
    if (!on_line(last)) break;
  }
  if (!any) throw IoError("daemon closed the connection before responding");
  return last;
}

}  // namespace pima::service
