#ifndef PROX_SERVE_CLIENT_H_
#define PROX_SERVE_CLIENT_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace prox {
namespace serve {

/// \brief A minimal blocking HTTP/1.1 client for loopback use — the
/// loopback tests, the throughput loadgen (bench/bench_serve_throughput.cc)
/// and the balancer drive the epoll transport through it. Not a general client: IPv4
/// only, Content-Length bodies only, no redirects.

/// A parsed response. Header names are lower-cased.
struct ClientResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  std::string_view Header(std::string_view name) const;
};

/// One TCP connection; supports multiple request/response exchanges
/// (keep-alive) and raw byte access for parser edge-case tests.
class ClientConnection {
 public:
  ClientConnection() = default;
  ClientConnection(ClientConnection&& other) noexcept;
  ClientConnection& operator=(ClientConnection&& other) noexcept;
  ~ClientConnection();

  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;

  static Result<ClientConnection> Connect(const std::string& host, int port,
                                          int timeout_ms = 10000);

  /// Sends raw bytes as-is (split sends exercise the server's
  /// incremental parser).
  Status SendRaw(std::string_view bytes);

  /// Sends a well-formed request with Content-Length.
  Status SendRequest(const std::string& method, const std::string& target,
                     const std::string& body = "",
                     const std::string& content_type = "application/json");

  /// Blocks until one full response is parsed (or the peer closes /
  /// times out, which is an error).
  Result<ClientResponse> ReadResponse();

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the previous response
};

/// Connect + one exchange + close.
Result<ClientResponse> Fetch(const std::string& host, int port,
                             const std::string& method,
                             const std::string& target,
                             const std::string& body = "",
                             int timeout_ms = 10000);

}  // namespace serve
}  // namespace prox

#endif  // PROX_SERVE_CLIENT_H_
