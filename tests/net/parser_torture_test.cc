/// HttpParser torture: every route's request bytes pushed through the
/// parser whole, one byte at a time, and at seeded randomized split
/// points, asserting the parse is identical in all three feedings. This
/// is the property the transport leans on — the epoll loops feed the
/// parser whatever recv() produced, so any split of the byte stream must
/// parse the same. Covers /v1/ingest too, which the wire-level torture
/// (transport_identity_test.cc) skips for being non-idempotent.

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/http.h"

namespace prox {
namespace serve {
namespace {

std::string RenderRequest(const std::string& method, const std::string& target,
                          const std::string& body) {
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  out += "Host: t\r\n";
  if (!body.empty()) {
    out += "Content-Type: application/json\r\n";
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n" + body;
  return out;
}

/// One request per served route (docs/SERVING.md), plus a 404 target and
/// a wrong-method probe — the wire shapes the transports actually see.
std::vector<std::string> RouteRequests() {
  return {
      RenderRequest("POST", "/v1/select", "{\"title_substring\":\"(\"}"),
      RenderRequest("POST", "/v1/summarize",
                    "{\"w_dist\":0.7,\"max_steps\":5}"),
      RenderRequest("POST", "/v1/ingest",
                    "{\"sequence\":1,\"new_users\":[],\"new_ratings\":[]}"),
      RenderRequest("POST", "/v1/evaluate",
                    "{\"assignment\":{\"false_attributes\":[{\"attribute\":"
                    "\"Gender\",\"value\":\"M\"}]}}"),
      RenderRequest("GET", "/v1/summary/groups", ""),
      RenderRequest("GET", "/v1/debug/requests", ""),
      RenderRequest("GET", "/healthz", ""),
      RenderRequest("GET", "/metrics", ""),
      RenderRequest("GET", "/nope", ""),
      RenderRequest("PUT", "/v1/summarize", "{\"w_dist\":0.7}"),
  };
}

struct Parsed {
  std::string method, target, version, body;
  std::vector<std::pair<std::string, std::string>> headers;

  bool operator==(const Parsed& other) const = default;
};

/// Feeds `bytes` at the given split points and requires exactly one
/// complete request with nothing left over.
Parsed ParseWithSplits(const std::string& bytes,
                       const std::vector<size_t>& chunk_sizes) {
  HttpParser parser;
  size_t offset = 0;
  for (size_t chunk : chunk_sizes) {
    parser.Feed(std::string_view(bytes).substr(offset, chunk));
    offset += chunk;
    // Mid-stream the parser must never error or fabricate a request out
    // of a partial message.
    if (offset < bytes.size()) {
      HttpRequest probe;
      ParseResult mid = parser.Next(&probe);
      if (mid == ParseResult::kRequest) {
        // Complete early only if the remaining bytes are a later chunk's
        // problem — can't happen for a single well-formed request.
        ADD_FAILURE() << "request completed before all bytes were fed";
      }
      EXPECT_NE(mid, ParseResult::kError);
      if (mid != ParseResult::kNeedMore) break;
    }
  }
  HttpRequest request;
  EXPECT_EQ(parser.Next(&request), ParseResult::kRequest);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  return Parsed{request.method, request.target, request.version, request.body,
                request.headers};
}

TEST(ParserTortureTest, OneByteAtATimeMatchesWholeBuffer) {
  for (const std::string& bytes : RouteRequests()) {
    SCOPED_TRACE(bytes.substr(0, bytes.find('\r')));
    Parsed whole = ParseWithSplits(bytes, {bytes.size()});
    Parsed dribbled =
        ParseWithSplits(bytes, std::vector<size_t>(bytes.size(), 1));
    EXPECT_EQ(whole, dribbled);
  }
}

TEST(ParserTortureTest, SeededRandomSplitsMatchWholeBuffer) {
  std::mt19937_64 rng(20260807);  // seeded: failures replay exactly
  for (const std::string& bytes : RouteRequests()) {
    SCOPED_TRACE(bytes.substr(0, bytes.find('\r')));
    Parsed whole = ParseWithSplits(bytes, {bytes.size()});
    for (int round = 0; round < 200; ++round) {
      std::vector<size_t> chunks;
      size_t remaining = bytes.size();
      std::uniform_int_distribution<size_t> chunk_size(1, 11);
      while (remaining > 0) {
        size_t take = std::min(remaining, chunk_size(rng));
        chunks.push_back(take);
        remaining -= take;
      }
      Parsed split = ParseWithSplits(bytes, chunks);
      ASSERT_EQ(whole, split) << "round " << round;
    }
  }
}

TEST(ParserTortureTest, PipelinedConcatenationParsesInOrderAtAnySplit) {
  std::vector<std::string> requests = RouteRequests();
  std::string stream;
  for (const std::string& bytes : requests) stream += bytes;

  std::mt19937_64 rng(7);
  for (int round = 0; round < 50; ++round) {
    HttpParser parser;
    std::vector<Parsed> seen;
    size_t offset = 0;
    std::uniform_int_distribution<size_t> chunk_size(1, 23);
    while (offset < stream.size() || true) {
      HttpRequest request;
      ParseResult result = parser.Next(&request);
      if (result == ParseResult::kRequest) {
        seen.push_back(Parsed{request.method, request.target, request.version,
                              request.body, request.headers});
        continue;
      }
      ASSERT_EQ(result, ParseResult::kNeedMore);
      if (offset >= stream.size()) break;
      size_t take = std::min(stream.size() - offset, chunk_size(rng));
      parser.Feed(std::string_view(stream).substr(offset, take));
      offset += take;
    }
    ASSERT_EQ(seen.size(), requests.size()) << "round " << round;
    for (size_t i = 0; i < requests.size(); ++i) {
      Parsed expected = ParseWithSplits(requests[i], {requests[i].size()});
      EXPECT_EQ(seen[i], expected) << "request " << i;
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace prox
