// perfbench_driver: one run of the end-to-end benchmark (perfbench/README.md).
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --server PATH --workdir DIR
//
// Boots `prox_server --transport=epoll` (shipped defaults, dataset flags
// only), drives the seeded fixed-count stream over loopback sockets,
// replays the same stream in-process with tracing, checks every response
// against the replay, and prints one JSON result as its last stdout line.

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/json.h"

namespace perfbench {
namespace {

struct Args {
  Workload workload = Workload::kColdSummarize;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string server;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--server") {
      args->server = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return args->seconds >= 1 && !args->server.empty() &&
         !args->workdir.empty() && argc % 2 == 1;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A prox_server child process; the destructor stops it and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  /// Spawns the server and waits for its "listening on" line.
  bool Start(const std::string& binary, const std::vector<std::string>& flags,
             const std::string& workdir, std::string* error) {
    const std::string out_path = workdir + "/server.out";
    const std::string err_path = workdir + "/server.err";
    std::vector<std::string> argv_storage = {binary};
    argv_storage.insert(argv_storage.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& s : argv_storage) argv.push_back(s.data());
    argv.push_back(nullptr);
    unlink(out_path.c_str());  // a stale file would name an old port
    unlink(err_path.c_str());
    pid_ = fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      const int out = open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      const int err = open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (out >= 0) dup2(out, STDOUT_FILENO);
      if (err >= 0) dup2(err, STDERR_FILENO);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    const int64_t deadline = NowNanos() + 60'000'000'000LL;
    const std::string marker = "listening on 127.0.0.1:";
    while (NowNanos() < deadline) {
      const std::string out = ReadFile(out_path);
      const size_t at = out.find(marker);
      if (at != std::string::npos && out.find(' ', at + marker.size()) !=
                                         std::string::npos) {
        port_ = std::atoi(out.c_str() + at + marker.size());
        return port_ > 0;
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "prox_server exited at boot: " + ReadFile(err_path);
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    *error = "prox_server did not report its port";
    return false;
  }

  /// SIGINT drain, then SIGKILL if it has not exited within 30 s.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGINT);
    const int64_t deadline = NowNanos() + 30'000'000'000LL;
    int status = 0;
    struct rusage usage {};
    while (wait4(pid_, &status, WNOHANG, &usage) == 0) {
      if (NowNanos() > deadline) {
        kill(pid_, SIGKILL);
        wait4(pid_, &status, 0, &usage);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    peak_rss_mb_ = usage.ru_maxrss / 1024.0;  // Linux reports KiB
    pid_ = -1;
  }

  /// Peak resident set of the stopped server, in MiB.
  double peak_rss_mb() const { return peak_rss_mb_; }

  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  double peak_rss_mb_ = 0;
};

/// Counts checked responses and failures, keeping the first few notes.
struct Gate {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> notes;

  void Fail(const std::string& what) {
    ++failed;
    if (notes.size() < 8) notes.push_back(what);
  }
};

std::string ReceiptField(const std::string& body, const char* field) {
  prox::Result<prox::JsonValue> doc = prox::ParseJson(body);
  if (!doc.ok()) return "";
  const prox::JsonValue* value = doc.value().Find(field);
  return value != nullptr && value->is_string() ? value->string_value() : "";
}

const char* ExpectedCache(OpKind kind) {
  switch (kind) {
    case OpKind::kCold:
      return "miss";
    case OpKind::kCachedRead:
    case OpKind::kHitAfterIngest:
      return "hit";
    case OpKind::kHealthz:
    case OpKind::kIngest:
      return "";
  }
  return "";
}

/// Checks one response on its own (status, cache header); `label` names it.
bool CheckSelf(const Sample& s, const std::string& label, Gate* gate) {
  if (!s.transport_ok || s.status != 200) {
    gate->Fail(label + ": status " + std::to_string(s.status));
    return false;
  }
  if (s.cache != ExpectedCache(s.kind)) {
    gate->Fail(label + ": X-Prox-Cache '" + s.cache + "', expected '" +
               ExpectedCache(s.kind) + "'");
    return false;
  }
  return true;
}

void CheckPair(const Sample& http, const Sample& replay,
               const std::string& label, Gate* gate) {
  ++gate->attempted;
  if (!CheckSelf(http, label, gate)) return;
  if (http.body != replay.body) {
    gate->Fail(label + ": body differs from the replay");
    return;
  }
  if (http.kind == OpKind::kIngest &&
      (ReceiptField(http.body, "digest") !=
           ReceiptField(replay.body, "digest") ||
       ReceiptField(http.body, "fingerprint") !=
           ReceiptField(replay.body, "fingerprint") ||
       ReceiptField(http.body, "digest").empty())) {
    gate->Fail(label + ": receipt digest/fingerprint differ");
  }
}

void AppendMetric(std::string* out, bool* first, const std::string& name,
                  double value, const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  *out += *first ? "" : ", ";
  *first = false;
  *out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
          "\"}";
}

/// Unit of a per-layer metric, from its name's suffix.
std::string LayerUnit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_ms")) return "ms";
  if (ends("_us")) return "us";
  if (ends("_share")) return "share";
  return "count";
}

/// One episode against a fresh prox_server: set-up (snapshot write for
/// the ingest workload, boot to the first /healthz 200, priming), then the
/// stream, with the server's counters read around it.
struct Episode {
  double setup_s = 0;
  double rss_mb = 0;
  std::string healthz_body;
  LoadResult load;
  std::map<std::string, double> before, after;

  double Delta(const std::string& name) const {
    auto a = after.find(name);
    auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
  }
};

bool RunEpisode(const Args& args, const Stream& stream, Episode* out) {
  const bool ingest = args.workload == Workload::kIngestResummarize;
  const std::string snapshot = args.workdir + "/http.snap";
  ServerProcess server;
  std::string error;
  const int64_t t0 = NowNanos();
  std::vector<std::string> flags = {"--transport=epoll", "--port=0"};
  if (ingest) {
    prox::engine::Engine::Options options;
    options.dataset = stream.dataset;
    prox::Result<std::unique_ptr<prox::engine::Engine>> engine =
        prox::engine::Engine::Create(options);
    if (!engine.ok() || !engine.value()->PersistSnapshot(snapshot).ok()) {
      std::fprintf(stderr, "perfbench: snapshot write failed\n");
      return false;
    }
    flags.push_back("--snapshot=" + snapshot);
  } else {
    flags.insert(flags.end(), stream.server_dataset_flags.begin(),
                 stream.server_dataset_flags.end());
  }
  if (!server.Start(args.server, flags, args.workdir, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return false;
  }
  int status = 0;
  while (!FetchOnce(server.port(), "GET", "/healthz", &out->healthz_body,
                    &status) ||
         status != 200) {
    if (NowNanos() - t0 > 60'000'000'000LL) {
      std::fprintf(stderr, "perfbench: /healthz never answered 200\n");
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  out->load.prime =
      RunSequential(server.port(), stream.prime, kPrimeIdBase, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: priming: %s\n", error.c_str());
    return false;
  }
  out->setup_s = (NowNanos() - t0) / 1e9;

  std::string text;
  if (!FetchOnce(server.port(), "GET", "/metrics", &text, &status)) {
    std::fprintf(stderr, "perfbench: /metrics failed\n");
    return false;
  }
  out->before = ParsePrometheus(text);
  LoadResult timed = RunStream(server.port(), stream);
  if (!timed.error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", timed.error.c_str());
    return false;
  }
  out->load.writer = std::move(timed.writer);
  out->load.reads = std::move(timed.reads);
  if (!FetchOnce(server.port(), "GET", "/metrics", &text, &status)) {
    std::fprintf(stderr, "perfbench: /metrics failed\n");
    return false;
  }
  out->after = ParsePrometheus(text);
  server.Stop();
  out->rss_mb = server.peak_rss_mb();
  return true;
}

int Run(const Args& args) {
  const Stream stream = BuildStream(args.workload, args.seed);
  // The host calibration loop runs between episodes, never beside the
  // timed stream.
  std::vector<double> calib;

  // --- episodes against prox_server (tracing off) --------------------------
  std::vector<Episode> episodes(Episodes(args.workload, args.seconds));
  for (Episode& episode : episodes) {
    calib.push_back(CalibrationLoopMs());
    if (!RunEpisode(args, stream, &episode)) return 1;
  }

  // --- one traced replay, the reference for every episode -----------------
  calib.push_back(CalibrationLoopMs());
  ReplayResult replay =
      RunReplay(stream, args.workdir + "/replay.snap");
  if (!replay.ok) {
    std::fprintf(stderr, "perfbench: replay failed: %s %s\n",
                 replay.error.c_str(), replay.load.error.c_str());
    return 1;
  }
  calib.push_back(CalibrationLoopMs());

  // --- the correctness gate -------------------------------------------------
  Gate gate;
  Gate replay_gate;
  const std::string& healthz_body = episodes[0].healthz_body;
  auto read_reference = [&](const Sample& s) -> const std::string& {
    return s.kind == OpKind::kHealthz ? healthz_body
                                      : replay.load.prime[s.op_index].body;
  };
  for (size_t i = 0; i < stream.prime.size(); ++i) {
    CheckSelf(replay.load.prime[i], "replay prime", &replay_gate);
  }
  for (size_t i = 0; i < stream.writer.size() &&
                     replay.load.writer.size() == stream.writer.size();
       ++i) {
    CheckSelf(replay.load.writer[i], "replay writer", &replay_gate);
  }
  if (replay.load.writer.size() != stream.writer.size()) {
    replay_gate.Fail("replay writer stream incomplete");
  }
  for (const Sample& s : replay.load.reads) {
    if (CheckSelf(s, "replay read", &replay_gate) &&
        s.body != read_reference(s)) {
      replay_gate.Fail("replay read: body differs");
    }
  }
  bool counts_match = true;
  for (size_t e = 0; e < episodes.size(); ++e) {
    const Episode& ep = episodes[e];
    const std::string tag = "episode " + std::to_string(e) + " ";
    if (ep.healthz_body != healthz_body) gate.Fail(tag + "healthz differs");
    for (size_t i = 0; i < stream.prime.size(); ++i) {
      CheckPair(ep.load.prime[i], replay.load.prime[i],
                tag + "prime " + std::to_string(i), &gate);
    }
    if (ep.load.writer.size() != stream.writer.size() ||
        replay.load.writer.size() != stream.writer.size()) {
      gate.Fail(tag + "writer stream incomplete");
    } else {
      for (size_t i = 0; i < stream.writer.size(); ++i) {
        CheckPair(ep.load.writer[i], replay.load.writer[i],
                  tag + "writer " + std::to_string(i), &gate);
      }
    }
    // Reads answer from set-up state: a primed key's body, or /healthz.
    for (const Sample& s : ep.load.reads) {
      ++gate.attempted;
      if (CheckSelf(s, tag + "read", &gate) && s.body != read_reference(s)) {
        gate.Fail(tag + "read: body differs from the replay");
      }
    }
    for (const std::string& name : InvariantCounters()) {
      const double h = ep.Delta(name);
      const double r = replay.stream_counters[name];
      if (e == 0 || h != r) {
        std::printf("count %-44s http %.0f replay %.0f%s\n", name.c_str(), h,
                    r, h == r ? "" : "  MISMATCH");
      }
      if (h != r) counts_match = false;
    }
  }
  for (const std::string& note : gate.notes) {
    std::printf("FAILED %s\n", note.c_str());
  }
  for (const std::string& note : replay_gate.notes) {
    std::printf("REPLAY FAILED %s\n", note.c_str());
  }
  const bool correct =
      gate.failed == 0 && replay_gate.failed == 0 && counts_match;

  // --- metrics -------------------------------------------------------------
  // The timed operation: cold summarizes, reads, or ingests, pooled over
  // all episodes.
  std::vector<double> writer_ms, hits_ms, read_ms, setup_s, rss_mb;
  int reads_within_slo = 0;
  for (const Episode& ep : episodes) {
    setup_s.push_back(ep.setup_s);
    rss_mb.push_back(ep.rss_mb);
    for (const Sample& s : ep.load.writer) {
      (s.kind == OpKind::kHitAfterIngest ? hits_ms : writer_ms)
          .push_back(s.latency_ms());
    }
    for (const Sample& s : ep.load.reads) {
      read_ms.push_back(s.latency_ms());
      if (s.status == 200 && s.latency_ms() <= 5.0) ++reads_within_slo;
    }
  }
  const std::vector<double>& latencies =
      args.workload == Workload::kReadUnderSummarize ? read_ms : writer_ms;
  const double tail_p = TailPercentile(latencies.size());

  std::printf("workload %s seed %llu episodes %zu writer_ops %zu reads %zu\n",
              WorkloadName(args.workload),
              static_cast<unsigned long long>(args.seed), episodes.size(),
              writer_ms.size(), read_ms.size());
  std::printf("latency tail = p%g of %zu samples (%.0f beyond)\n", tail_p,
              latencies.size(), latencies.size() * (100 - tail_p) / 100);
  std::printf("writer_p50_ms %.3f  hit_after_ingest_p50_ms %.3f\n",
              Median(writer_ms), Median(hits_ms));
  if (!read_ms.empty()) {
    std::printf("read_slo_share %.4f (reads within 5 ms / reads attempted)\n",
                static_cast<double>(reads_within_slo) / read_ms.size());
  }
  std::printf("failed_share %.4f (%d of %d)\n",
              gate.attempted ? static_cast<double>(gate.failed) / gate.attempted
                             : 0.0,
              gate.failed, gate.attempted);
  std::printf("host.calib_ms median %.3f over %zu samples\n", Median(calib),
              calib.size());
  std::printf("replay shares: %s\n", replay.shares.c_str());

  std::string metrics;
  bool first = true;
  if (!args.trace) {
    AppendMetric(&metrics, &first, "setup_s", Median(setup_s), "s");
    AppendMetric(&metrics, &first, "latency_p50_ms", Median(latencies), "ms");
    AppendMetric(&metrics, &first, "latency_tail_ms",
                 Percentile(latencies, tail_p), "ms");
    AppendMetric(&metrics, &first, "server_rss_mb", Median(rss_mb), "MiB");
  } else {
    std::map<std::string, double> layers = replay.layers;
    double shed = 0, stalls = 0, hits = 0, misses = 0;
    for (const Episode& ep : episodes) {
      shed += ep.Delta("prox_serve_overload_total");
      stalls += ep.Delta("prox_net_write_stalls_total");
      hits += ep.Delta("prox_serve_cache_hit_total");
      misses += ep.Delta("prox_serve_cache_miss_total");
    }
    layers["net.shed_total"] = shed;
    layers["net.write_stalls_total"] = stalls;
    layers["engine.cache_hit_share"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    layers["host.calib_ms"] = Median(calib);
    for (const auto& [name, value] : layers) {
      AppendMetric(&metrics, &first, name, value, LayerUnit(name));
    }
  }
  const int attempted = std::max(gate.attempted, 1);
  const int failed = gate.failed + (counts_match ? 0 : 1);
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted, std::min(failed, attempted),
      metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed N --seconds S "
                 "--trace 0|1 --server PATH --workdir DIR\n");
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  return perfbench::Run(args);
}
