// Shared declarations of the end-to-end benchmark driver (see
// perfbench/README.md): workload streams, the closed-loop load generator
// used by both the HTTP run and the in-process replay, small statistics
// helpers, and the counter set behind the exact-count invariants.

#ifndef PERFBENCH_DRIVER_BENCH_H_
#define PERFBENCH_DRIVER_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- statistics --------------------------------------------------------------

/// Linear-interpolated percentile (0..100) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// The highest percentile of a fixed ladder (99.9 … 50) that leaves at
/// least ten samples beyond it; 50 when the sample is too small for any.
double TailPercentile(size_t samples);

/// One timing of a fixed CPU loop, in ms. Sampled through every run so a
/// drifting host shows up next to the figures it moved.
double CalibrationLoopMs();

/// Counter and histogram-sum values parsed from Prometheus text (unlabelled
/// series only; `_sum`/`_count` suffixes kept as part of the name).
std::map<std::string, double> ParsePrometheus(const std::string& text);

/// The counters whose stream deltas must repeat exactly between the HTTP
/// run and the replay (the exact-count invariants).
const std::vector<std::string>& InvariantCounters();

// --- workloads ---------------------------------------------------------------

enum class Workload { kColdSummarize, kReadUnderSummarize, kIngestResummarize };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

/// What a request is, for the correctness gate and the metrics.
enum class OpKind { kCold, kCachedRead, kHealthz, kIngest, kHitAfterIngest };

struct Op {
  OpKind kind = OpKind::kCold;
  std::string method;  ///< "GET" or "POST"
  std::string target;
  std::string body;
};

/// Request ids ride in an `X-Bench-Req` header so the replay's handler can
/// join its server-side timestamps to the client's. prox_server ignores it.
constexpr int kPrimeIdBase = 900000;
constexpr int kReaderIdBase = 1000000;
constexpr int kProbeIdBase = 2000000;

/// The raw HTTP/1.1 bytes of `op` tagged with request id `id`.
std::string RequestBytes(const Op& op, int id);

/// Everything one episode sends, generated from (workload, seed) alone.
/// Every stream is fixed-count: the writer's, and each reader's
/// (read-under-summarize), whose closed-loop reads are paced by the
/// writer's progress so they all fall inside the writer's stream.
struct Stream {
  Workload workload = Workload::kColdSummarize;
  uint64_t seed = 0;

  /// Dataset: MovieLens 25/8/99 through prox_server's generator flags, or
  /// Wikipedia 40/30/11 through a PROXSNAP snapshot.
  prox::engine::DatasetSpec dataset;
  std::vector<std::string> server_dataset_flags;

  std::vector<Op> prime;   ///< cold summarizes run during set-up
  std::vector<Op> writer;  ///< the fixed-count stream, in order
  std::vector<Op> reads;   ///< reader choices (read-under-summarize)
  int readers = 0;
  int reads_per_reader = 0;
  int reader_stride = 0;  ///< writer calls between a reader's reads
  int reader_think_ms = 0;

  /// A summarize body cached during set-up.
  std::string hit_body;
  /// Knobs of the stream's summarize requests used by the ingest probe.
  double w_dist = 0.5;

  /// Delta batches for the ingest probe, continuing the stream's dataset.
  std::vector<std::string> probe_batches;
};

Stream BuildStream(Workload workload, uint64_t seed);

/// How many episodes (fresh server, same stream) fill `seconds`.
int Episodes(Workload workload, int seconds);

// --- load generator ----------------------------------------------------------

/// One request as the client saw it.
struct Sample {
  int id = 0;
  OpKind kind = OpKind::kCold;
  int op_index = -1;  ///< index into writer/prime/reads
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  int status = 0;
  std::string cache;  ///< X-Prox-Cache value ("" when absent)
  std::string body;
  bool transport_ok = false;

  double latency_ms() const { return (recv_ns - send_ns) / 1e6; }
};

struct LoadResult {
  std::vector<Sample> prime;
  std::vector<Sample> writer;
  std::vector<Sample> reads;
  std::string error;  ///< non-empty when a connection failed outright
};

/// Sends `ops` back to back on one connection (ids `id_base + i`),
/// counting each request in `sent` (when given) just before sending it.
std::vector<Sample> RunSequential(int port, const std::vector<Op>& ops,
                                  int id_base, std::string* error,
                                  std::atomic<int>* sent = nullptr);

/// Runs the stream's writer on one connection and its readers on their own
/// connections, and waits for all of them.
LoadResult RunStream(int port, const Stream& stream);

/// One exchange on a fresh connection (set-up polling, /metrics).
bool FetchOnce(int port, const std::string& method, const std::string& target,
               std::string* body, int* status);

// --- in-process replay -------------------------------------------------------

/// The traced in-process replay of the same stream against engine::Engine,
/// serve::Router and net::EpollServer, plus the per-layer probes.
struct ReplayResult {
  bool ok = false;
  std::string error;
  LoadResult load;
  std::map<std::string, double> stream_counters;  ///< invariant deltas
  std::map<std::string, double> layers;           ///< per-layer metrics
  std::string shares;  ///< request time by layer, as one printable line
};

ReplayResult RunReplay(const Stream& stream, const std::string& snapshot_path);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_BENCH_H_
