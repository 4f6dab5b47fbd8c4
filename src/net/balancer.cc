#include "net/balancer.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <utility>

#include "common/json.h"
#include "net/net_metrics.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/client.h"

namespace prox {
namespace net {

namespace {

/// The request as forwarded: the replica sees the original method,
/// target, body and trace context (`traceparent`), plus a Host naming it.
/// Hop-by-hop headers are not forwarded; the balancer holds its own
/// keep-alive policy toward the replica (one exchange per forward).
std::string RenderForwardRequest(const serve::HttpRequest& request,
                                 const std::string& endpoint) {
  std::string out = request.method + " " + request.target + " HTTP/1.1\r\n";
  out += "Host: " + endpoint + "\r\n";
  std::string_view content_type = request.Header("content-type");
  if (!content_type.empty()) {
    out += "Content-Type: " + std::string(content_type) + "\r\n";
  }
  std::string_view traceparent = request.Header("traceparent");
  if (!traceparent.empty()) {
    out += "traceparent: " + std::string(traceparent) + "\r\n";
  }
  out += "Content-Length: " + std::to_string(request.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += request.body;
  return out;
}

bool ParseEndpoint(const std::string& endpoint, std::string* host,
                   int* port) {
  size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    return false;
  }
  *host = endpoint.substr(0, colon);
  int value = 0;
  for (size_t i = colon + 1; i < endpoint.size(); ++i) {
    char c = endpoint[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
    if (value > 65535) return false;
  }
  if (value <= 0) return false;
  *port = value;
  return true;
}

}  // namespace

Balancer::Balancer(Options options) : options_(std::move(options)) {}

Balancer::~Balancer() { Stop(); }

Status Balancer::Start() {
  if (options_.replicas.empty()) {
    return Status::InvalidArgument("balancer needs at least one replica");
  }
  replicas_.clear();
  for (const std::string& endpoint : options_.replicas) {
    auto replica = std::make_unique<Replica>();
    replica->endpoint = endpoint;
    if (!ParseEndpoint(endpoint, &replica->host, &replica->port)) {
      replicas_.clear();
      return Status::InvalidArgument("bad replica endpoint (want host:port): " +
                                     endpoint);
    }
    replicas_.push_back(std::move(replica));
  }
  ring_ = std::make_unique<HashRing>(options_.replicas, options_.vnodes);
  // Registered up front, so /metrics reads 0 before the first retry rather
  // than omitting the counter.
  BalancerRetry();
  if (options_.health_interval_ms > 0 &&
      !probing_.exchange(true, std::memory_order_acq_rel)) {
    probe_thread_ = std::thread([this] { ProbeLoop(); });
  }
  return Status::OK();
}

void Balancer::Stop() {
  if (probing_.exchange(false, std::memory_order_acq_rel)) {
    probe_cv_.notify_all();
    if (probe_thread_.joinable()) probe_thread_.join();
  }
}

int Balancer::healthy_count() const {
  int count = 0;
  for (const auto& replica : replicas_) {
    if (replica->healthy.load(std::memory_order_acquire)) ++count;
  }
  return count;
}

serve::HttpResponse Balancer::Handle(const serve::HttpRequest& request) {
  if (request.target == "/healthz") return HandleHealthz();
  if (request.target == "/metrics") return HandleMetrics();

  // Fingerprint + target + body: replica affinity per request shape, so
  // each replica's SummaryCache serves a disjoint slice of the workload.
  const std::string key =
      DatasetFingerprint() + "\n" + request.target + "\n" + request.body;
  std::vector<std::string> candidates =
      ring_->PickN(key, static_cast<int>(replicas_.size()));
  std::vector<Replica*> healthy;
  for (const std::string& endpoint : candidates) {
    for (const auto& replica : replicas_) {
      if (replica->endpoint == endpoint &&
          replica->healthy.load(std::memory_order_acquire)) {
        healthy.push_back(replica.get());
      }
    }
  }
  if (healthy.empty()) {
    static obs::Counter* no_backend_metric = BalancerNoBackend();
    no_backend_metric->Increment();
    return serve::CannedErrorResponse(503);
  }

  const bool may_retry = options_.retry_idempotent && request.method == "GET";
  const size_t attempts = may_retry ? std::min<size_t>(2, healthy.size()) : 1;
  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      static obs::Counter* retry_metric = BalancerRetry();
      retry_metric->Increment();
    }
    serve::HttpResponse response;
    if (ForwardTo(healthy[attempt], request, &response)) return response;
  }
  return serve::CannedErrorResponse(502);
}

bool Balancer::ForwardTo(Replica* replica, const serve::HttpRequest& request,
                         serve::HttpResponse* out) {
  auto connection = serve::ClientConnection::Connect(
      replica->host, replica->port, options_.request_timeout_ms);
  if (!connection.ok()) {
    MarkUnhealthy(replica);
    return false;
  }
  Status sent =
      connection.value().SendRaw(RenderForwardRequest(request,
                                                      replica->endpoint));
  if (!sent.ok()) {
    MarkUnhealthy(replica);
    return false;
  }
  auto response = connection.value().ReadResponse();
  if (!response.ok()) {
    MarkUnhealthy(replica);
    return false;
  }

  BalancerForward(replica->endpoint)->Increment();
  out->status = response.value().status;
  out->body = std::move(response.value().body);
  std::string_view content_type = response.value().Header("content-type");
  if (!content_type.empty()) out->content_type = std::string(content_type);
  // Application headers survive the hop (trace id, cache outcome, ...);
  // framing ones don't — the front transport re-frames the response.
  for (const auto& [name, value] : response.value().headers) {
    if (name.rfind("x-prox-", 0) == 0) out->headers.emplace_back(name, value);
  }
  out->headers.emplace_back("X-Prox-Replica", replica->endpoint);
  return true;
}

void Balancer::MarkUnhealthy(Replica* replica) {
  if (replica->healthy.exchange(false, std::memory_order_acq_rel)) {
    static obs::Counter* unhealthy_metric = BalancerUnhealthy();
    unhealthy_metric->Increment();
  }
}

std::string Balancer::DatasetFingerprint() {
  {
    std::lock_guard<std::mutex> lock(fingerprint_mu_);
    if (!fingerprint_.empty()) return fingerprint_;
  }
  for (const auto& replica : replicas_) {
    if (!replica->healthy.load(std::memory_order_acquire)) continue;
    auto response =
        serve::Fetch(replica->host, replica->port, "GET", "/healthz", "",
                     options_.connect_timeout_ms);
    if (!response.ok() || response.value().status != 200) continue;
    auto doc = ParseJson(response.value().body);
    if (!doc.ok()) continue;
    const JsonValue* fingerprint = doc.value().Find("dataset_fingerprint");
    if (fingerprint == nullptr || !fingerprint->is_string()) continue;
    std::lock_guard<std::mutex> lock(fingerprint_mu_);
    fingerprint_ = fingerprint->string_value();
    return fingerprint_;
  }
  return "";  // no replica answered yet; routing still works, unprefixed
}

serve::HttpResponse Balancer::HandleHealthz() {
  JsonValue doc = JsonValue::Object();
  doc.Set("status", JsonValue::Str("ok"));
  doc.Set("role", JsonValue::Str("router"));
  doc.Set("healthy_replicas", JsonValue::Int(healthy_count()));
  JsonValue replicas = JsonValue::Array();
  for (const auto& replica : replicas_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("endpoint", JsonValue::Str(replica->endpoint));
    entry.Set("healthy", JsonValue::Bool(
                             replica->healthy.load(std::memory_order_acquire)));
    replicas.Append(std::move(entry));
  }
  doc.Set("replicas", std::move(replicas));
  serve::HttpResponse response;
  response.body.reserve(256);
  AppendJson(doc, &response.body);
  response.body += "\n";
  return response;
}

serve::HttpResponse Balancer::HandleMetrics() {
  serve::HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body =
      obs::RenderPrometheus(obs::MetricsRegistry::Default().Snapshot());
  return response;
}

void Balancer::ProbeLoop() {
  while (probing_.load(std::memory_order_acquire)) {
    for (const auto& replica : replicas_) {
      if (!probing_.load(std::memory_order_acquire)) return;
      auto response =
          serve::Fetch(replica->host, replica->port, "GET", "/healthz", "",
                       options_.connect_timeout_ms);
      if (response.ok() && response.value().status == 200) {
        // Probe-driven recovery: the only path back to healthy.
        replica->healthy.store(true, std::memory_order_release);
      } else {
        MarkUnhealthy(replica.get());
      }
    }
    std::unique_lock<std::mutex> lock(probe_mu_);
    probe_cv_.wait_for(lock,
                       std::chrono::milliseconds(options_.health_interval_ms),
                       [this] {
                         return !probing_.load(std::memory_order_acquire);
                       });
  }
}

}  // namespace net
}  // namespace prox
