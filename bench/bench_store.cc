/// \file Snapshot store benchmarks (docs/STORE.md): save / validate / load
/// microbenches, plus the `--json` self-checking baseline committed as
/// BENCH_store.json. The baseline times the two boot paths a serving
/// replica has — regenerate the dataset from its generator vs load the
/// PROXSNAP snapshot — and the two first-request paths — cold Algorithm 1
/// vs a warm persisted cache — and enforces the docs/STORE.md contract:
/// snapshot load >= 3x faster than regeneration on the largest config,
/// and a warm first request >= 10x faster than a cold one.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "datasets/movielens.h"
#include "engine/engine.h"
#include "serve/router.h"
#include "service/session.h"
#include "store/codec.h"
#include "store/snapshot.h"

using namespace prox;

namespace {

MovieLensConfig Config(int users) {
  MovieLensConfig config;
  config.num_users = users;
  config.num_movies = 12;
  config.seed = 3;
  return config;
}

std::string SnapPath(int users) {
  return "/tmp/bench_store_" + std::to_string(users) + ".snap";
}

/// Generates and saves once, returning the snapshot path.
std::string EnsureSnapshot(int users) {
  const std::string path = SnapPath(users);
  Dataset ds = MovieLensGenerator::Generate(Config(users));
  store::Status s = store::SaveDataset(ds, store::SaveOptions{}, path);
  if (!s.ok()) {
    std::fprintf(stderr, "bench_store: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  return path;
}

/// The boot path a snapshot replaces: generate the dataset, whose
/// generator ends by adopting the provenance into a TermPool. A loaded
/// snapshot hands back the interned form directly.
Dataset GenerateAndAdopt(const MovieLensConfig& config) {
  return MovieLensGenerator::Generate(config);
}

void BM_GenerateAdopt(benchmark::State& state) {
  const MovieLensConfig config = Config(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateAndAdopt(config));
  }
}
BENCHMARK(BM_GenerateAdopt)->Arg(40)->Arg(160)->Arg(400);

void BM_SaveSnapshot(benchmark::State& state) {
  Dataset ds = MovieLensGenerator::Generate(
      Config(static_cast<int>(state.range(0))));
  const std::string path = SnapPath(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    store::Status s = store::SaveDataset(ds, store::SaveOptions{}, path);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
}
BENCHMARK(BM_SaveSnapshot)->Arg(40)->Arg(160)->Arg(400);

void BM_OpenValidate(benchmark::State& state) {
  const std::string path = EnsureSnapshot(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::shared_ptr<store::Snapshot> snapshot;
    store::Status s = store::Snapshot::Open(path, &snapshot);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(snapshot);
  }
}
BENCHMARK(BM_OpenValidate)->Arg(40)->Arg(160)->Arg(400);

void BM_LoadDataset(benchmark::State& state) {
  const std::string path = EnsureSnapshot(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::shared_ptr<store::Snapshot> snapshot;
    store::Status s = store::Snapshot::Open(path, &snapshot);
    Dataset loaded;
    if (s.ok()) s = store::LoadDataset(snapshot, store::LoadOptions{}, &loaded);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(loaded);
  }
}
BENCHMARK(BM_LoadDataset)->Arg(40)->Arg(160)->Arg(400);

// ---------------------------------------------------------------------------
// --json baseline mode (BENCH_store.json). Intercepted before
// benchmark::Initialize, like bench_core_micro.
// ---------------------------------------------------------------------------

double MinNsPerOp(const std::function<void()>& op) {
  op();  // warm up
  using Clock = std::chrono::steady_clock;
  auto time_iters = [&](long iters) {
    auto start = Clock::now();
    for (long i = 0; i < iters; ++i) op();
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  };
  long iters = 1;
  while (time_iters(iters) < 2e6 && iters < (1L << 30)) iters *= 4;
  double best = time_iters(iters);
  for (int rep = 1; rep < 5; ++rep) best = std::min(best, time_iters(iters));
  return best / static_cast<double>(iters);
}

/// One timed run of `op` (for operations too slow / too stateful for the
/// min-of-reps loop: first requests, which are one-shot by definition).
double OnceNs(const std::function<void()>& op) {
  using Clock = std::chrono::steady_clock;
  auto start = Clock::now();
  op();
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

int RunJsonBaseline() {
  struct Row {
    int users;
    double generate_ns;
    double load_ns;
  };
  const std::vector<int> sizes = {40, 160, 400};
  std::vector<Row> rows;
  for (int users : sizes) {
    const std::string path = EnsureSnapshot(users);
    const MovieLensConfig config = Config(users);
    rows.push_back(
        {users,
         MinNsPerOp([&] {
           benchmark::DoNotOptimize(GenerateAndAdopt(config));
         }),
         MinNsPerOp([&] {
           std::shared_ptr<store::Snapshot> snapshot;
           store::Status s = store::Snapshot::Open(path, &snapshot);
           Dataset loaded;
           if (s.ok()) {
             s = store::LoadDataset(snapshot, store::LoadOptions{}, &loaded);
           }
           if (!s.ok()) std::exit(1);
           benchmark::DoNotOptimize(loaded);
         })});
  }

  // First-request latency: cold generator boot (Algorithm 1 runs) vs warm
  // snapshot boot (persisted cache answers). Both one-shot, median of 3.
  const std::string body = "{\"w_dist\": 0.5, \"max_steps\": 6}";
  auto post = [&] {
    serve::HttpRequest request;
    request.method = "POST";
    request.target = "/v1/summarize";
    request.version = "HTTP/1.1";
    request.body = body;
    return request;
  };
  const int warm_users = 40;
  const std::string warm_path = "/tmp/bench_store_warm.snap";
  {
    std::unique_ptr<engine::Engine> eng = engine::Engine::FromDataset(
        MovieLensGenerator::Generate(Config(warm_users)));
    serve::Router router(eng.get());
    if (router.Handle(post()).status != 200) std::exit(1);
    if (!eng->PersistSnapshot(warm_path).ok()) std::exit(1);
  }
  auto median3 = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[1];
  };
  std::vector<double> cold_runs;
  std::vector<double> warm_runs;
  for (int rep = 0; rep < 3; ++rep) {
    cold_runs.push_back(OnceNs([&] {
      std::unique_ptr<engine::Engine> eng = engine::Engine::FromDataset(
          MovieLensGenerator::Generate(Config(warm_users)));
      serve::Router router(eng.get());
      if (router.Handle(post()).status != 200) std::exit(1);
    }));
    warm_runs.push_back(OnceNs([&] {
      engine::Engine::Options options;
      options.dataset.snapshot_path = warm_path;
      Result<std::unique_ptr<engine::Engine>> booted =
          engine::Engine::Create(options);
      if (!booted.ok()) std::exit(1);
      serve::Router router(booted.value().get());
      if (router.Handle(post()).status != 200) std::exit(1);
    }));
  }
  const double cold_ns = median3(cold_runs);
  const double warm_ns = median3(warm_runs);

  double largest_speedup = 0.0;
  std::printf("{\n  \"bench\": \"bench_store --json\",\n");
  std::printf("  \"workload\": \"MovieLens 12 movies, seed 3\",\n");
  std::printf("  \"contract\": \"snapshot load >= 3x regenerate on the "
              "largest config; warm first request >= 10x cold\",\n");
  std::printf("  \"boot\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double speedup = r.generate_ns / r.load_ns;
    if (r.users == sizes.back()) largest_speedup = speedup;
    std::printf("    {\"users\": %d, \"generate_adopt_ns\": %.0f, "
                "\"load_ns\": %.0f, \"speedup\": %.2f}%s\n",
                r.users, r.generate_ns, r.load_ns, speedup,
                i + 1 < rows.size() ? "," : "");
  }
  const double first_request_speedup = cold_ns / warm_ns;
  std::printf("  ],\n");
  std::printf("  \"first_request\": {\"cold_ns\": %.0f, \"warm_ns\": %.0f, "
              "\"speedup\": %.2f},\n",
              cold_ns, warm_ns, first_request_speedup);
  std::printf("  \"largest_load_speedup\": %.2f\n}\n", largest_speedup);

  if (largest_speedup < 3.0) {
    std::fprintf(stderr,
                 "bench_store --json: FAIL load speedup %.2f < 3.0 on the "
                 "largest config\n",
                 largest_speedup);
    return 1;
  }
  if (first_request_speedup < 10.0) {
    std::fprintf(stderr,
                 "bench_store --json: FAIL warm first-request speedup %.2f "
                 "< 10.0\n",
                 first_request_speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") return RunJsonBaseline();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
