#ifndef PROX_SERVE_HTTP_H_
#define PROX_SERVE_HTTP_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace prox {
namespace serve {

/// \brief HTTP/1.1 message types and an incremental request parser.
///
/// The parser is a push API over a growing connection buffer: the server
/// appends whatever `read()` produced and asks for the next complete
/// request. Requests split across arbitrary read boundaries and multiple
/// pipelined requests in one buffer both work; the parser never blocks and
/// never copies more than the one message it returns. Only the subset the
/// PROX endpoints need is implemented: `Content-Length` bodies (no chunked
/// transfer coding — that parses to 501), no trailers, no continuation
/// lines.

/// One parsed request. Header names are lower-cased at parse time;
/// values keep their bytes (surrounding whitespace stripped).
struct HttpRequest {
  std::string method;   ///< as sent: "GET", "POST", ...
  std::string target;   ///< origin-form target, e.g. "/v1/summarize"
  std::string version;  ///< "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First value of `name` (lower-case), or "" when absent.
  std::string_view Header(std::string_view name) const;
  /// True when the client asked for `Connection: close`.
  bool WantsClose() const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  bool close_connection = false;  ///< force `Connection: close`

  /// Extra headers rendered verbatim after the standard ones.
  std::vector<std::pair<std::string, std::string>> headers;
};

/// The reason phrase for the handful of codes the server emits
/// ("Unknown" for anything else).
const char* StatusReason(int status);

/// The canned transport-level error document the epoll transport (and
/// the balancer) send when no handler response exists: 503 shed, 408
/// idle mid-request, parser failures, 502 from the balancer. Its bytes
/// are part of the frozen wire goldens (tests/net/golden/).
HttpResponse CannedErrorResponse(int status);

/// Renders the full response message. Deterministic: no Date or Server
/// header, so equal responses are byte-identical on the wire.
std::string RenderResponse(const HttpResponse& response);

/// Outcome of one HttpParser::Next call.
enum class ParseResult {
  kRequest,     ///< a complete request was produced
  kNeedMore,    ///< buffer holds only a partial message
  kError,       ///< malformed input; see error_status() for the HTTP code
};

/// \brief Incremental HTTP/1.1 request parser over a connection buffer.
///
/// Usage: `Feed()` every chunk the socket yields, then loop `Next()` until
/// kNeedMore (or kError). Consumed bytes are discarded internally, so
/// pipelined requests parse one per Next() call. After kError the
/// connection is poisoned: the server writes `error_status()` (400
/// malformed / 431 oversized headers / 413 oversized body / 501 chunked)
/// and closes.
class HttpParser {
 public:
  struct Limits {
    size_t max_header_bytes = 16 * 1024;  ///< request line + headers
    size_t max_body_bytes = 4 * 1024 * 1024;
  };

  HttpParser() : HttpParser(Limits{}) {}
  explicit HttpParser(Limits limits) : limits_(limits) {}

  void Feed(std::string_view data) { buffer_.append(data); }

  ParseResult Next(HttpRequest* out);

  /// HTTP status describing the parse failure (set after kError).
  int error_status() const { return error_status_; }

  /// Bytes buffered but not yet consumed (tests).
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  ParseResult Fail(int status) {
    error_status_ = status;
    return ParseResult::kError;
  }

  Limits limits_;
  std::string buffer_;
  int error_status_ = 0;
};

}  // namespace serve
}  // namespace prox

#endif  // PROX_SERVE_HTTP_H_
