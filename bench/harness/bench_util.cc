#include "harness/bench_util.h"

#include <cstdio>
#include <cstdlib>

#include "common/timer.h"
#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "obs/metrics.h"
#include "summarize/distance.h"

namespace prox {
namespace bench {

double BenchScale() {
  const char* env = std::getenv("PROX_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::strtod(env, nullptr);
  return scale > 0.0 ? scale : 1.0;
}

int Scaled(int base, int minimum) {
  int scaled = static_cast<int>(base * BenchScale());
  return scaled < minimum ? minimum : scaled;
}

Dataset MakeDataset(DatasetKind kind, uint64_t seed) {
  switch (kind) {
    case DatasetKind::kMovieLens: {
      MovieLensConfig config;
      config.num_users = Scaled(28);
      config.num_movies = Scaled(8);
      config.ratings_per_user = 5;
      config.seed = seed;
      return MovieLensGenerator::Generate(config);
    }
    case DatasetKind::kWikipedia: {
      WikipediaConfig config;
      config.num_users = Scaled(20);
      config.num_pages = Scaled(12);
      config.edits_per_user = 4;
      config.seed = seed;
      return WikipediaGenerator::Generate(config);
    }
    case DatasetKind::kDdp: {
      DdpConfig config;
      config.num_executions = Scaled(8);
      config.num_db_vars = Scaled(10);
      config.num_cost_vars = Scaled(8);
      config.seed = seed;
      return DdpGenerator::Generate(config);
    }
  }
  return MovieLensGenerator::Generate(MovieLensConfig{});
}

namespace {

AlgoResult FromOutcome(const Result<SummaryOutcome>& outcome) {
  AlgoResult r;
  if (!outcome.ok()) {
    std::fprintf(stderr, "algorithm run failed: %s\n",
                 outcome.status().ToString().c_str());
    return r;
  }
  const SummaryOutcome& o = outcome.value();
  r.distance = o.final_distance;
  r.size = static_cast<double>(o.final_size);
  r.total_nanos = o.total_nanos;
  r.steps = static_cast<int>(o.steps.size());
  if (!o.steps.empty()) {
    double total = 0.0;
    for (const StepRecord& s : o.steps) total += s.candidate_eval_nanos;
    r.avg_candidate_nanos = total / o.steps.size();
  }
  r.ok = true;
  return r;
}

}  // namespace

AlgoResult RunProvApprox(Dataset* ds, const RunConfig& config) {
  int64_t harness_nanos = 0;
  AlgoResult r;
  {
    Timer::Scoped harness_timer(&harness_nanos);
    std::vector<Valuation> valuations =
        ds->valuation_class->Generate(*ds->provenance, ds->ctx);
    EnumeratedDistance oracle(ds->provenance.get(), ds->registry.get(),
                              ds->val_func.get(), valuations);
    SummarizerOptions options;
    options.w_dist = config.w_dist;
    options.w_size = 1.0 - config.w_dist;
    options.target_dist = config.target_dist;
    options.target_size = config.target_size;
    options.max_steps = config.max_steps;
    options.candidates.arity = config.merge_arity;
    options.use_ordinal_ranks = config.use_ordinal_ranks;
    options.tie_break = config.tie_break;
    options.phi = ds->phi;
    options.threads = config.threads;
    Summarizer summarizer(ds->provenance.get(), ds->registry.get(), &ds->ctx,
                          &ds->constraints, &oracle, &valuations, options);

    // When prox::obs is live, attribute registry deltas to this run: the
    // same quantities FromOutcome derives per-run, plus oracle-call counts
    // the outcome does not carry. Falls back to outcome fields when
    // recording is disabled (PROX_OBS=0 or -DPROX_OBS_DISABLED=ON).
    if (!obs::Enabled()) {
      r = FromOutcome(summarizer.Run());
    } else {
      const obs::MetricsSnapshot before =
          obs::MetricsRegistry::Default().Snapshot();
      Result<SummaryOutcome> outcome = summarizer.Run();
      const obs::MetricsSnapshot after =
          obs::MetricsRegistry::Default().Snapshot();
      r = FromOutcome(outcome);
      if (r.ok) {
        const double scored =
            after.CounterValue("prox_summarize_candidates_scored_total") -
            before.CounterValue("prox_summarize_candidates_scored_total");
        const double eval_nanos =
            after.CounterValue("prox_summarize_candidate_eval_nanos_total") -
            before.CounterValue("prox_summarize_candidate_eval_nanos_total");
        if (scored > 0) r.avg_candidate_nanos = eval_nanos / scored;
        r.steps = static_cast<int>(
            after.CounterValue("prox_summarize_steps_total") -
            before.CounterValue("prox_summarize_steps_total"));
        r.total_nanos =
            after.HistogramSum("prox_summarize_run_duration_nanos") -
            before.HistogramSum("prox_summarize_run_duration_nanos");
        r.distance_calls = static_cast<int64_t>(
            after.CounterValue("prox_distance_enumerated_calls_total") -
            before.CounterValue("prox_distance_enumerated_calls_total"));
      }
    }
  }
  r.harness_nanos = harness_nanos;
  return r;
}

AlgoResult RunClustering(Dataset* ds, const RunConfig& config) {
  if (ds->features.empty()) return AlgoResult{};  // DDP: no feature vectors
  int64_t harness_nanos = 0;
  AlgoResult r;
  {
    Timer::Scoped harness_timer(&harness_nanos);
    std::vector<Valuation> valuations =
        ds->valuation_class->Generate(*ds->provenance, ds->ctx);
    EnumeratedDistance oracle(ds->provenance.get(), ds->registry.get(),
                              ds->val_func.get(), valuations);
    ClusteringOptions options;
    options.linkage = Linkage::kSingle;  // the linkage §6.2 presents
    options.target_dist = config.target_dist;
    options.target_size = config.target_size;
    options.max_steps = config.max_steps;
    options.phi = ds->phi;
    options.threads = config.threads;
    ClusteringSummarizer cs(ds->provenance.get(), ds->registry.get(), &ds->ctx,
                            &ds->constraints, &oracle, options);
    for (const auto& [domain, features] : ds->features) {
      cs.SetFeatures(domain, features);
    }
    r = FromOutcome(cs.Run());
  }
  r.harness_nanos = harness_nanos;
  return r;
}

AlgoResult RunRandom(Dataset* ds, const RunConfig& config) {
  int64_t harness_nanos = 0;
  AlgoResult r;
  {
    Timer::Scoped harness_timer(&harness_nanos);
    std::vector<Valuation> valuations =
        ds->valuation_class->Generate(*ds->provenance, ds->ctx);
    EnumeratedDistance oracle(ds->provenance.get(), ds->registry.get(),
                              ds->val_func.get(), valuations);
    RandomSummarizerOptions options;
    options.target_dist = config.target_dist;
    options.target_size = config.target_size;
    options.max_steps = config.max_steps;
    options.seed = config.random_seed;
    options.phi = ds->phi;
    RandomSummarizer rs(ds->provenance.get(), ds->registry.get(), &ds->ctx,
                        &ds->constraints, &oracle, options);
    r = FromOutcome(rs.Run());
  }
  r.harness_nanos = harness_nanos;
  return r;
}

TablePrinter::TablePrinter(std::vector<std::string> columns, int width)
    : columns_(std::move(columns)), width_(width) {}

void TablePrinter::PrintTitle(const std::string& title) const {
  std::printf("\n== %s ==\n", title.c_str());
}

void TablePrinter::PrintHeader() const {
  for (const auto& c : columns_) {
    std::printf("%-*s", width_, c.c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < columns_.size() * static_cast<size_t>(width_); ++i) {
    std::printf("-");
  }
  std::printf("\n");
}

void TablePrinter::PrintRow(const std::vector<std::string>& cells) const {
  for (const auto& c : cells) {
    std::printf("%-*s", width_, c.c_str());
  }
  std::printf("\n");
}

std::string Cell(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string AlgoResultJson(const std::string& experiment,
                           const std::string& dataset, const std::string& algo,
                           int threads, int64_t input_size,
                           const AlgoResult& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"experiment\":\"%s\",\"dataset\":\"%s\",\"algo\":\"%s\","
      "\"threads\":%d,\"input_size\":%lld,\"steps\":%d,\"distance\":%.6f,"
      "\"size\":%.0f,\"total_ms\":%.3f,\"us_per_candidate\":%.3f,"
      "\"ok\":%s}",
      experiment.c_str(), dataset.c_str(), algo.c_str(), threads,
      static_cast<long long>(input_size), r.steps, r.distance, r.size,
      r.total_nanos / 1e6, r.avg_candidate_nanos / 1e3,
      r.ok ? "true" : "false");
  return buf;
}

}  // namespace bench
}  // namespace prox
