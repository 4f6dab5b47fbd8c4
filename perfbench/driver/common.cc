#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "bench.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double TailPercentile(size_t samples) {
  for (double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

double CalibrationLoopMs() {
  // A dependent integer chain the compiler cannot fold or vectorize.
  const int64_t start = NowNanos();
  volatile uint64_t sink = 0;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 2000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return (NowNanos() - start) / 1e6;
}

std::map<std::string, double> ParsePrometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, space);
    if (name.find('{') != std::string::npos) continue;
    out[name] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

const std::vector<std::string>& InvariantCounters() {
  static const std::vector<std::string> kNames = {
      "prox_summarize_runs_total",
      "prox_summarize_steps_total",
      "prox_summarize_candidates_scored_total",
      "prox_distance_enumerated_calls_total",
      "prox_kernel_scalar_fallback_total",
      "prox_kernel_batch_evals_total",
      "prox_summarize_incremental_hits_total",
      "prox_summarize_incremental_fallbacks_total",
      "prox_warmstart_runs_total",
      "prox_warmstart_replayed_merges_total",
  };
  return kNames;
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kColdSummarize, Workload::kReadUnderSummarize,
                     Workload::kIngestResummarize}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kColdSummarize:
      return "cold-summarize";
    case Workload::kReadUnderSummarize:
      return "read-under-summarize";
    case Workload::kIngestResummarize:
      return "ingest-resummarize";
  }
  return "?";
}

std::string RequestBytes(const Op& op, int id) {
  std::string out = op.method + " " + op.target +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Bench-Req: " +
                    std::to_string(id) + "\r\n";
  if (op.method == "POST") {
    out += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(op.body.size()) + "\r\n\r\n" + op.body;
  } else {
    out += "\r\n";
  }
  return out;
}

}  // namespace perfbench
