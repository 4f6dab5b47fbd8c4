#include <algorithm>
#include <set>

#include "bench.h"
#include "common/json.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "ingest/delta.h"
#include "ingest/synthetic.h"

namespace perfbench {
namespace {

/// Writer stream lengths. Fixed, so an episode's end state depends on the
/// seed alone, never on how fast the host ran it; the ingest stream grows
/// the Wikipedia expression by about 1.4x (268 -> ~375).
constexpr int kColdRequests = 40;
constexpr int kIngestBatches = 14;
/// How long one episode takes on a 4-core x86 host: 40 cold summarizes,
/// or a cold Wikipedia prime plus 18 ingests.
constexpr double kColdEpisodeSeconds = 3.5;
constexpr double kIngestEpisodeSeconds = 1.75;
constexpr int kPrimedReadKeys = 4;
/// Reader r's j-th read follows writer call 1 + 4j + r, so 9 reads per
/// reader cover writer calls 1..34 of 40.
constexpr int kReaders = 2;
constexpr int kReadsPerReader = 9;
constexpr int kReaderStride = 4;
/// Ingest batches applied during set-up: the first warm re-summarizes
/// after a cold run are one-off continuations (about 200, 60, 15 and 6 ms)
/// before the per-batch cost settles at about 2 ms.
constexpr int kWarmupBatches = 4;
constexpr int kReaderThinkMs = 5;
constexpr int kProbeBatches = 12;

struct SplitMix64 {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// A weight in [lo, lo + span] on a 1e-6 grid.
  double Weight(double lo, double span) {
    const uint64_t steps = static_cast<uint64_t>(span * 1e6);
    return lo + static_cast<double>(Next() % (steps + 1)) / 1e6;
  }
};

prox::JsonValue Knobs(double w_dist) {
  prox::JsonValue knobs = prox::JsonValue::Object();
  knobs.Set("w_dist", prox::JsonValue::Double(w_dist));
  knobs.Set("w_size", prox::JsonValue::Double(1.0 - w_dist));
  return knobs;
}

Op Summarize(double w_dist, OpKind kind) {
  return Op{kind, "POST", "/v1/summarize", prox::WriteJson(Knobs(w_dist))};
}

/// Distinct weights drawn from [lo, lo + span]: every request is a new
/// cache key, while (over this range) Algorithm 1 does the same work.
std::vector<double> DistinctWeights(SplitMix64* rng, int count, double lo,
                                    double span) {
  std::set<double> seen;
  std::vector<double> out;
  while (static_cast<int>(out.size()) < count) {
    const double w = rng->Weight(lo, span);
    if (seen.insert(w).second) out.push_back(w);
  }
  return out;
}

/// Appends `count` ~1% delta batches built (and applied) on `local`.
template <typename MakeBatch>
std::vector<prox::ingest::DeltaBatch> GrowBatches(prox::Dataset* local,
                                                  uint64_t first_sequence,
                                                  int count,
                                                  MakeBatch make_batch) {
  std::vector<prox::ingest::DeltaBatch> out;
  for (int i = 0; i < count; ++i) {
    const uint64_t sequence = first_sequence + static_cast<uint64_t>(i);
    prox::Result<prox::ingest::DeltaBatch> batch =
        make_batch(*local, sequence);
    if (!batch.ok()) break;
    if (!prox::ingest::ApplyBatch(local, batch.value(), sequence).ok()) break;
    out.push_back(std::move(batch).value());
  }
  return out;
}

}  // namespace

int Episodes(Workload workload, int seconds) {
  const double per_episode = workload == Workload::kIngestResummarize
                                 ? kIngestEpisodeSeconds
                                 : kColdEpisodeSeconds;
  return std::max(1, static_cast<int>(seconds / per_episode + 0.5));
}

Stream BuildStream(Workload workload, uint64_t seed) {
  Stream stream;
  stream.workload = workload;
  stream.seed = seed;
  SplitMix64 rng{seed * 0x2545F4914F6CDD1DULL + static_cast<uint64_t>(workload)};

  if (workload == Workload::kIngestResummarize) {
    // The BENCH_ingest Wikipedia shape, served from a snapshot.
    stream.dataset.family = prox::engine::DatasetSpec::Family::kWikipedia;
    stream.dataset.num_users = 40;
    stream.dataset.num_groups = 30;
    stream.dataset.seed = 11;
    stream.dataset.seed_set = true;

    prox::WikipediaConfig config;
    config.num_users = 40;
    config.num_pages = 30;
    config.seed = 11;
    prox::Dataset local = prox::WikipediaGenerator::Generate(config);
    auto wiki_batch = [](const prox::Dataset& d, uint64_t sequence) {
      return prox::ingest::SyntheticWikipediaDelta(d, 1, 3, sequence);
    };
    std::vector<prox::ingest::DeltaBatch> batches =
        GrowBatches(&local, 1, kWarmupBatches + kIngestBatches, wiki_batch);

    // Set-up primes a cold summarize and the warm-up batches.
    stream.w_dist = rng.Weight(0.4999, 0.0002);
    stream.prime.push_back(Summarize(stream.w_dist, OpKind::kCold));
    for (size_t i = 0; i < batches.size(); ++i) {
      prox::JsonValue doc = prox::ingest::DeltaBatchToJson(batches[i]);
      doc.Set("resummarize", Knobs(stream.w_dist));
      Op ingest{OpKind::kIngest, "POST", "/v1/ingest", prox::WriteJson(doc)};
      if (i < kWarmupBatches) {
        stream.prime.push_back(std::move(ingest));
        continue;
      }
      stream.writer.push_back(std::move(ingest));
      stream.writer.push_back(
          Summarize(stream.w_dist, OpKind::kHitAfterIngest));
    }
    stream.hit_body = stream.prime[0].body;
    for (const prox::ingest::DeltaBatch& batch :
         GrowBatches(&local, batches.size() + 1, kProbeBatches, wiki_batch)) {
      stream.probe_batches.push_back(
          prox::WriteJson(prox::ingest::DeltaBatchToJson(batch)));
    }
    return stream;
  }

  // MovieLens default shape (prox_server's own defaults, spelled out).
  stream.dataset.family = prox::engine::DatasetSpec::Family::kMovieLens;
  stream.dataset.num_users = 25;
  stream.dataset.num_groups = 8;
  stream.dataset.seed = 99;
  stream.dataset.seed_set = true;
  stream.server_dataset_flags = {"--users=25", "--movies=8", "--seed=99"};

  // Set-up primes keys outside the writer's weight range, so neither a
  // read nor the engine probe can collide with a cold key, and the timed
  // stream never includes the server's first run.
  const bool readers = workload == Workload::kReadUnderSummarize;
  for (double w :
       DistinctWeights(&rng, readers ? kPrimedReadKeys : 1, 0.1, 0.19)) {
    stream.prime.push_back(Summarize(w, OpKind::kCold));
    if (readers) stream.reads.push_back(Summarize(w, OpKind::kCachedRead));
  }
  for (double w : DistinctWeights(&rng, kColdRequests, 0.3, 0.4)) {
    stream.writer.push_back(Summarize(w, OpKind::kCold));
  }
  stream.w_dist = 0.5;
  stream.hit_body = stream.prime[0].body;
  if (readers) {
    stream.reads.push_back(Op{OpKind::kHealthz, "GET", "/healthz", ""});
    stream.readers = kReaders;
    stream.reads_per_reader = kReadsPerReader;
    stream.reader_stride = kReaderStride;
    stream.reader_think_ms = kReaderThinkMs;
  }

  prox::MovieLensConfig config;
  config.num_users = 25;
  config.num_movies = 8;
  config.seed = 99;
  prox::Dataset local = prox::MovieLensGenerator::Generate(config);
  for (const prox::ingest::DeltaBatch& batch :
       GrowBatches(&local, 1, kProbeBatches,
                   [](const prox::Dataset& d, uint64_t sequence) {
                     return prox::ingest::SyntheticMovieLensDelta(d, 1, 3,
                                                                  sequence);
                   })) {
    stream.probe_batches.push_back(
        prox::WriteJson(prox::ingest::DeltaBatchToJson(batch)));
  }
  return stream;
}

}  // namespace perfbench
