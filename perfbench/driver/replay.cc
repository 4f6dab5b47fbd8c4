// The traced in-process replay: the same stream, sent by the same client
// code, against an in-process net::EpollServer whose handler wraps
// serve::Router::Handle over an engine::Engine booted from a snapshot of
// the same dataset. Every span is recorded here, around calls into each
// layer's public functions; nothing inside the program is instrumented.
// Summarize-internal time comes from the program's own registry counters.

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/json.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "ingest/delta.h"
#include "net/epoll_server.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/router.h"
#include "store/codec.h"
#include "store/snapshot.h"

namespace perfbench {
namespace {

constexpr int kUncontendedProbes = 200;

double Ms(int64_t nanos) { return nanos / 1e6; }
double Us(int64_t nanos) { return nanos / 1e3; }

/// Counters read around each writer call (the program's own registry).
struct WriterCounters {
  prox::obs::Histogram* run_nanos;
  prox::obs::Counter* eval_nanos;

  static WriterCounters Get() {
    prox::obs::MetricsRegistry& r = prox::obs::MetricsRegistry::Default();
    return {r.GetHistogram("prox_summarize_run_duration_nanos",
                           "Wall time per summarization run.",
                           prox::obs::LatencyBucketsNanos()),
            r.GetCounter("prox_summarize_candidate_eval_nanos_total", "")};
  }
};

/// Server-side timestamps of one request, joined to the client's sample by
/// the X-Bench-Req id.
struct Stamp {
  int64_t entry = 0;      ///< handler entered (after shard + pool queue)
  int64_t handle0 = 0;    ///< Router::Handle called
  int64_t handle1 = 0;    ///< Router::Handle returned
  int64_t exit = 0;       ///< handler returned to the transport
  int64_t runs = 0;       ///< summarize runs inside the call
  double run_nanos = 0;   ///< summarize.run (registry histogram sum)
  double eval_nanos = 0;  ///< candidate pricing (registry counter)
};

/// The time of one call, in nanoseconds.
template <typename F>
int64_t Time(F&& f) {
  const int64_t start = NowNanos();
  f();
  return NowNanos() - start;
}

std::map<std::string, double> InvariantSnapshot() {
  prox::obs::MetricsSnapshot snap =
      prox::obs::MetricsRegistry::Default().Snapshot();
  std::map<std::string, double> out;
  for (const std::string& name : InvariantCounters()) {
    out[name] = snap.CounterValue(name);
  }
  return out;
}

prox::Dataset Generate(const Stream& stream) {
  if (stream.dataset.family ==
      prox::engine::DatasetSpec::Family::kWikipedia) {
    prox::WikipediaConfig config;
    config.num_users = stream.dataset.num_users;
    config.num_pages = stream.dataset.num_groups;
    config.seed = stream.dataset.seed;
    return prox::WikipediaGenerator::Generate(config);
  }
  prox::MovieLensConfig config;
  config.num_users = stream.dataset.num_users;
  config.num_movies = stream.dataset.num_groups;
  config.seed = stream.dataset.seed;
  return prox::MovieLensGenerator::Generate(config);
}

}  // namespace

ReplayResult RunReplay(const Stream& stream, const std::string& snapshot_path) {
  ReplayResult result;
  std::map<std::string, double>& layers = result.layers;

  // --- set-up: datasets → store → engine ----------------------------------
  prox::Dataset generated;
  layers["datasets.generate_ms"] =
      Ms(Time([&] { generated = Generate(stream); }));
  {
    std::unique_ptr<prox::engine::Engine> writer_engine =
        prox::engine::Engine::FromDataset(std::move(generated));
    prox::Status saved;
    layers["store.write_ms"] = Ms(
        Time([&] { saved = writer_engine->PersistSnapshot(snapshot_path); }));
    if (!saved.ok()) {
      result.error = "snapshot write: " + saved.message();
      return result;
    }
  }
  std::shared_ptr<prox::store::Snapshot> snapshot;
  prox::store::Status opened;
  layers["store.open_ms"] = Ms(Time([&] {
    opened = prox::store::Snapshot::Open(snapshot_path, &snapshot);
  }));
  if (!opened.ok()) {
    result.error = "snapshot open: " + opened.ToString();
    return result;
  }
  prox::Dataset loaded;
  prox::store::Status load_status;
  layers["store.load_ms"] = Ms(Time([&] {
    load_status = prox::store::LoadDataset(
        snapshot, prox::store::LoadOptions{}, &loaded);
  }));
  if (!load_status.ok()) {
    result.error = "snapshot load: " + load_status.ToString();
    return result;
  }
  std::unique_ptr<prox::engine::Engine> engine =
      prox::engine::Engine::FromDataset(std::move(loaded));
  prox::serve::Router router(engine.get());
  const WriterCounters counters = WriterCounters::Get();

  // --- the traced transport -----------------------------------------------
  std::mutex stamps_mu;
  std::unordered_map<int, Stamp> stamps;
  std::atomic<bool> in_writer{false};
  std::atomic<int> writer_index{-1};
  auto is_writer_call = [&](int id) {
    if (id < 0 || id >= static_cast<int>(stream.writer.size())) return false;
    const OpKind kind = stream.writer[id].kind;
    return kind == OpKind::kCold || kind == OpKind::kIngest;
  };
  auto handler = [&](const prox::serve::HttpRequest& request) {
    Stamp stamp;
    stamp.entry = NowNanos();
    const int id = std::atoi(std::string(request.Header("x-bench-req")).c_str());
    const bool writer_call = is_writer_call(id);
    uint64_t runs0 = 0, evals0 = 0;
    double sum0 = 0;
    if (writer_call) {
      runs0 = counters.run_nanos->count();
      sum0 = counters.run_nanos->sum();
      evals0 = counters.eval_nanos->value();
      writer_index.store(id, std::memory_order_release);
      in_writer.store(true, std::memory_order_release);
    }
    stamp.handle0 = NowNanos();
    prox::serve::HttpResponse response = router.Handle(request);
    stamp.handle1 = NowNanos();
    if (writer_call) {
      in_writer.store(false, std::memory_order_release);
      stamp.runs = static_cast<int64_t>(counters.run_nanos->count() - runs0);
      stamp.run_nanos = counters.run_nanos->sum() - sum0;
      stamp.eval_nanos =
          static_cast<double>(counters.eval_nanos->value() - evals0);
    }
    stamp.exit = NowNanos();
    {
      std::lock_guard<std::mutex> lock(stamps_mu);
      stamps[id] = stamp;
    }
    return response;
  };
  prox::net::EpollServer::Options server_options;  // prox_server's defaults
  server_options.port = 0;
  server_options.handler_threads = 4;
  server_options.max_inflight = 64;
  server_options.idle_timeout_ms = 15000;
  prox::net::EpollServer server(server_options, handler);
  if (prox::Status s = server.Start(); !s.ok()) {
    result.error = "in-process server: " + s.ToString();
    return result;
  }
  const int port = server.port();

  result.load.prime =
      RunSequential(port, stream.prime, kPrimeIdBase, &result.load.error);
  if (!result.load.error.empty()) return result;

  // --- the stream, with an engine probe beside the writer -----------------
  // While the writer is inside a summarize-running call, a probe thread
  // times HandleSummarize on a key primed during set-up and fingerprint()
  // (what /healthz reads), alternately, once per writer call.
  std::vector<double> hit_under, healthz_under;
  std::atomic<bool> stream_done{false};
  std::thread probe([&] {
    int turn = 0;
    while (!stream_done.load(std::memory_order_acquire)) {
      if (!in_writer.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      const int index = writer_index.load(std::memory_order_acquire);
      if (turn++ % 2 == 0) {
        const int64_t t = Time([&] { engine->HandleSummarize(stream.hit_body); });
        hit_under.push_back(Ms(t));
      } else {
        const int64_t t = Time([&] { (void)engine->fingerprint(); });
        healthz_under.push_back(Ms(t));
      }
      while (!stream_done.load(std::memory_order_acquire) &&
             writer_index.load(std::memory_order_acquire) == index) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  });
  const std::map<std::string, double> before = InvariantSnapshot();
  LoadResult stream_load = RunStream(port, stream);
  const std::map<std::string, double> after = InvariantSnapshot();
  stream_done.store(true, std::memory_order_release);
  probe.join();
  result.load.writer = std::move(stream_load.writer);
  result.load.reads = std::move(stream_load.reads);
  if (!stream_load.error.empty()) {
    result.load.error = stream_load.error;
    server.Stop();
    return result;
  }
  for (const auto& [name, value] : after) {
    result.stream_counters[name] = value - before.at(name);
  }

  // --- uncontended probes -------------------------------------------------
  std::vector<Op> probe_reads(
      kUncontendedProbes,
      Op{OpKind::kCachedRead, "POST", "/v1/summarize", stream.hit_body});
  std::string probe_error;
  std::vector<Sample> uncontended =
      RunSequential(port, probe_reads, kProbeIdBase, &probe_error);
  server.Stop();
  if (!probe_error.empty()) {
    result.error = "probe reads: " + probe_error;
    return result;
  }

  std::vector<double> hit_us, healthz_us;
  for (int i = 0; i < kUncontendedProbes; ++i) {
    hit_us.push_back(
        Us(Time([&] { engine->HandleSummarize(stream.hit_body); })));
    healthz_us.push_back(Us(Time([&] { (void)engine->fingerprint(); })));
  }

  // The ingest layer, through the typed facade, on the stream's end state.
  std::vector<double> decode_us, apply_ms, resummarize_ms;
  double warm = 0, replayed = 0, continuation = 0;
  prox::SummarizationRequest knobs;
  knobs.w_dist = stream.w_dist;
  knobs.w_size = 1.0 - stream.w_dist;
  for (const std::string& json : stream.probe_batches) {
    prox::Result<prox::ingest::DeltaBatch> batch =
        prox::Status::Internal("unset");
    decode_us.push_back(Us(Time([&] {
      prox::Result<prox::JsonValue> doc = prox::ParseJson(json);
      if (doc.ok()) batch = prox::ingest::DeltaBatchFromJson(doc.value());
    })));
    if (!batch.ok()) {
      result.error = "probe batch decode: " + batch.status().ToString();
      return result;
    }
    prox::Result<prox::ingest::ApplyReceipt> receipt =
        prox::Status::Internal("unset");
    apply_ms.push_back(
        Ms(Time([&] { receipt = engine->IngestDelta(batch.value()); })));
    if (!receipt.ok()) {
      result.error = "probe ingest: " + receipt.status().ToString();
      return result;
    }
    prox::Result<prox::ingest::MaintainReport> report =
        prox::Status::Internal("unset");
    resummarize_ms.push_back(
        Ms(Time([&] { report = engine->Resummarize(knobs); })));
    if (!report.ok()) {
      result.error = "probe resummarize: " + report.status().ToString();
      return result;
    }
    warm += report.value().warm ? 1 : 0;
    replayed += report.value().replayed_merges;
    continuation += report.value().continuation_steps;
  }
  const double batches = static_cast<double>(stream.probe_batches.size());
  layers["ingest.decode_us"] = Median(decode_us);
  layers["ingest.apply_ms"] = Median(apply_ms);
  layers["ingest.resummarize_ms"] = Median(resummarize_ms);
  layers["ingest.warm_share"] = batches > 0 ? warm / batches : 0;
  layers["ingest.replayed_merges_per_batch"] =
      batches > 0 ? replayed / batches : 0;
  layers["ingest.continuation_steps_per_batch"] =
      batches > 0 ? continuation / batches : 0;

  // --- spans: one tree per stream request ---------------------------------
  // request = net.dispatch + serve.handle + net.return + other, where
  // serve.handle contains summarize.run (pricing + search) for writer
  // calls; "other" is the wrapper's own bookkeeping between them.
  std::vector<double> dispatch_ms, cold_overhead_ms, parse_us;
  double request_ns = 0, other_ns = 0, net_ns = 0, handle_self_ns = 0,
         run_ns = 0, pricing_ns = 0;
  auto account = [&](const std::vector<Sample>& samples,
                     const std::vector<Op>& ops) {
    for (const Sample& s : samples) {
      auto it = stamps.find(s.id);
      if (it == stamps.end()) continue;
      const Stamp& st = it->second;
      const double request = static_cast<double>(s.recv_ns - s.send_ns);
      const double dispatch = static_cast<double>(st.entry - s.send_ns);
      const double handle = static_cast<double>(st.handle1 - st.handle0);
      const double back = static_cast<double>(s.recv_ns - st.exit);
      request_ns += request;
      net_ns += dispatch + back;
      handle_self_ns += handle - st.run_nanos;
      run_ns += st.run_nanos - st.eval_nanos;
      pricing_ns += st.eval_nanos;
      other_ns += request - dispatch - handle - back;
      dispatch_ms.push_back(dispatch / 1e6);
      if (st.runs > 0) cold_overhead_ms.push_back((handle - st.run_nanos) / 1e6);
      prox::serve::HttpParser parser;
      prox::serve::HttpRequest parsed;
      const std::string bytes = RequestBytes(ops[s.op_index], s.id);
      parse_us.push_back(Us(Time([&] {
        parser.Feed(bytes);
        (void)parser.Next(&parsed);
      })));
    }
  };
  account(result.load.writer, stream.writer);
  account(result.load.reads, stream.reads);

  // A read whose Router::Handle outlived two writer calls woke after the
  // first ended but lost Engine::mu_ to the writer's next call.
  std::vector<int64_t> writer_ends;
  for (const Sample& s : result.load.writer) {
    if (is_writer_call(s.id)) writer_ends.push_back(stamps[s.id].handle1);
  }
  std::sort(writer_ends.begin(), writer_ends.end());
  double requeued = 0;
  for (const Sample& s : result.load.reads) {
    const Stamp& st = stamps[s.id];
    const auto first = std::upper_bound(writer_ends.begin(), writer_ends.end(),
                                        st.handle0);
    const auto last = std::lower_bound(writer_ends.begin(), writer_ends.end(),
                                       st.handle1);
    if (last - first >= 2) ++requeued;
  }

  std::vector<double> transport_us, handle_us;
  for (const Sample& s : uncontended) {
    const Stamp& st = stamps[s.id];
    handle_us.push_back(Us(st.handle1 - st.handle0));
    transport_us.push_back(Us((s.recv_ns - s.send_ns) - (st.handle1 - st.handle0)));
  }

  // Estimated tracing cost: the wrapper's bookkeeping, timed in a loop.
  const int kLoops = 10000;
  std::unordered_map<int, Stamp> scratch;
  std::mutex scratch_mu;
  const int64_t loop_ns = Time([&] {
    for (int i = 0; i < kLoops; ++i) {
      Stamp st;
      st.entry = NowNanos();
      st.runs = static_cast<int64_t>(counters.run_nanos->count());
      st.run_nanos = counters.run_nanos->sum();
      st.eval_nanos = static_cast<double>(counters.eval_nanos->value());
      st.handle0 = NowNanos();
      st.handle1 = NowNanos();
      st.exit = NowNanos();
      std::lock_guard<std::mutex> lock(scratch_mu);
      scratch[i] = st;
    }
  });
  const double requests = static_cast<double>(dispatch_ms.size());

  const double runs = result.stream_counters["prox_summarize_runs_total"];
  auto per_run = [&](const char* name) {
    return runs > 0 ? result.stream_counters[name] / runs : 0.0;
  };
  const double calls =
      result.stream_counters["prox_distance_enumerated_calls_total"];
  const double inc_hits =
      result.stream_counters["prox_summarize_incremental_hits_total"];
  const double inc_tries =
      inc_hits +
      result.stream_counters["prox_summarize_incremental_fallbacks_total"];

  layers["net.dispatch_wait_ms"] = Median(dispatch_ms);
  layers["net.transport_us"] = Median(transport_us);
  layers["serve.parse_us"] = Median(parse_us);
  layers["serve.handle_us"] = Median(handle_us);
  layers["engine.hit_us"] = Median(hit_us);
  layers["engine.healthz_us"] = Median(healthz_us);
  layers["engine.hit_under_cold_ms"] = Median(hit_under);
  layers["engine.healthz_under_cold_ms"] = Median(healthz_under);
  layers["engine.cold_overhead_ms"] = Median(cold_overhead_ms);
  layers["engine.read_requeue_share"] =
      result.load.reads.empty() ? 0 : requeued / result.load.reads.size();
  layers["summarize.run_ms"] = runs > 0 ? (run_ns + pricing_ns) / runs / 1e6 : 0;
  layers["summarize.pricing_ms"] = runs > 0 ? pricing_ns / runs / 1e6 : 0;
  layers["summarize.search_ms"] = runs > 0 ? run_ns / runs / 1e6 : 0;
  layers["summarize.steps_per_run"] = per_run("prox_summarize_steps_total");
  layers["summarize.candidates_per_run"] =
      per_run("prox_summarize_candidates_scored_total");
  layers["summarize.oracle_calls_per_run"] =
      per_run("prox_distance_enumerated_calls_total");
  layers["summarize.incremental_hit_share"] =
      inc_tries > 0 ? inc_hits / inc_tries : 0;
  layers["kernels.fallback_share"] =
      calls > 0 ? result.stream_counters["prox_kernel_scalar_fallback_total"] /
                      calls
                : 0;
  layers["kernels.batch_evals_per_run"] =
      per_run("prox_kernel_batch_evals_total");
  layers["trace.other_share"] = request_ns > 0 ? other_ns / request_ns : 0;
  layers["trace.overhead_share"] =
      request_ns > 0 ? static_cast<double>(loop_ns) / kLoops * requests /
                           request_ns
                     : 0;
  if (request_ns > 0) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "net %.4f serve+engine %.4f summarize.search %.4f "
                  "summarize.pricing %.4f other %.4f",
                  net_ns / request_ns, handle_self_ns / request_ns,
                  run_ns / request_ns, pricing_ns / request_ns,
                  other_ns / request_ns);
    result.shares = line;
  }
  result.ok = true;
  return result;
}

}  // namespace perfbench
