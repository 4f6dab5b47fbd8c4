/// \file Experiment E12 — google-benchmark micro-benchmarks of the core
/// operations every experiment is built from: expression evaluation,
/// homomorphism application, distance estimation, equivalence grouping,
/// candidate generation, DDP evaluation and polynomial arithmetic.
///
/// The distance-oracle benches time EnumeratedDistance::Distance, which
/// reduces its valuations on the calling thread whatever PROX_THREADS
/// says. scripts/bench_smoke.sh runs them at PROX_THREADS=1 and at
/// $(nproc) and gates on regressions of the PROX_THREADS=1 run.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/cpu_features.h"
#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "kernels/batch_eval.h"
#include "kernels/metrics.h"
#include "kernels/valuation_block.h"
#include "semiring/polynomial.h"
#include "summarize/candidates.h"
#include "summarize/distance.h"
#include "summarize/equivalence.h"
#include "summarize/valuation_class.h"

using namespace prox;

namespace {

Dataset MakeMovies(int users) {
  MovieLensConfig config;
  config.num_users = users;
  config.num_movies = 12;
  config.seed = 3;
  return MovieLensGenerator::Generate(config);
}

void BM_IrAggregateEvaluate(benchmark::State& state) {
  Dataset ds = MakeMovies(static_cast<int>(state.range(0)));
  MaterializedValuation v(ds.registry->size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds.provenance->Evaluate(v));
  }
  state.SetItemsProcessed(state.iterations() * ds.provenance->Size());
}
BENCHMARK(BM_IrAggregateEvaluate)->Arg(20)->Arg(40)->Arg(80);

void BM_IrAggregateApplyHomomorphism(benchmark::State& state) {
  Dataset ds = MakeMovies(static_cast<int>(state.range(0)));
  auto users = ds.registry->AnnotationsInDomain(ds.domain("user"));
  AnnotationId summary =
      ds.registry->AddSummary(ds.domain("user"), "Merged");
  Homomorphism h;
  h.Set(users[0], summary);
  h.Set(users[1], summary);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds.provenance->Apply(h));
  }
}
BENCHMARK(BM_IrAggregateApplyHomomorphism)->Arg(20)->Arg(40)->Arg(80);

void BM_EnumeratedDistanceOneCandidate(benchmark::State& state) {
  Dataset ds = MakeMovies(static_cast<int>(state.range(0)));
  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                            ds.val_func.get(), valuations);
  auto users = ds.registry->AnnotationsInDomain(ds.domain("user"));
  AnnotationId summary =
      ds.registry->AddSummary(ds.domain("user"), "Merged");
  MappingState mapping(ds.registry.get(), ds.phi);
  mapping.Merge({users[0], users[1]}, summary);
  Homomorphism h;
  h.Set(users[0], summary);
  h.Set(users[1], summary);
  auto cand = ds.provenance->Apply(h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.Distance(*cand, mapping));
  }
  state.counters["valuations"] = static_cast<double>(valuations.size());
}
BENCHMARK(BM_EnumeratedDistanceOneCandidate)->Arg(20)->Arg(40);

void BM_SampledDistanceOneCandidate(benchmark::State& state) {
  // The one oracle over a drawn Monte-Carlo set (SampledValuations).
  Dataset ds = MakeMovies(20);
  SampledValuations::Options options;
  options.num_samples = static_cast<int>(state.range(0));
  EnumeratedDistance oracle(
      ds.provenance.get(), ds.registry.get(), ds.val_func.get(),
      SampledValuations::Create(options).MoveValue().Generate(*ds.provenance,
                                                              ds.ctx));
  auto users = ds.registry->AnnotationsInDomain(ds.domain("user"));
  AnnotationId summary =
      ds.registry->AddSummary(ds.domain("user"), "Merged");
  MappingState mapping(ds.registry.get(), ds.phi);
  mapping.Merge({users[0], users[1]}, summary);
  Homomorphism h;
  h.Set(users[0], summary);
  h.Set(users[1], summary);
  auto cand = ds.provenance->Apply(h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.Distance(*cand, mapping));
  }
}
BENCHMARK(BM_SampledDistanceOneCandidate)->Arg(100)->Arg(1000);

void BM_EquivalenceClasses(benchmark::State& state) {
  Dataset ds = MakeMovies(static_cast<int>(state.range(0)));
  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  std::vector<AnnotationId> anns;
  ds.provenance->CollectAnnotations(&anns);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EquivalenceClasses(anns, valuations, *ds.registry));
  }
}
BENCHMARK(BM_EquivalenceClasses)->Arg(20)->Arg(80);

void BM_CandidateGeneration(benchmark::State& state) {
  Dataset ds = MakeMovies(static_cast<int>(state.range(0)));
  CandidateGenerator gen(&ds.constraints, &ds.ctx);
  MappingState mapping(ds.registry.get(), ds.phi);
  CandidateOptions options;
  CandidateSet candidates;
  for (auto _ : state) {
    gen.Generate(*ds.provenance, mapping, options, &candidates);
    benchmark::DoNotOptimize(candidates.size());
  }
}
BENCHMARK(BM_CandidateGeneration)->Arg(20)->Arg(40);

void BM_DdpEvaluate(benchmark::State& state) {
  DdpConfig config;
  config.num_executions = static_cast<int>(state.range(0));
  Dataset ds = DdpGenerator::Generate(config);
  MaterializedValuation v(ds.registry->size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds.provenance->Evaluate(v));
  }
}
BENCHMARK(BM_DdpEvaluate)->Arg(8)->Arg(32);

// Batch kernels (docs/KERNELS.md): one EvaluateBlock pass over a grain-8
// valuation block vs eight per-valuation Evaluate() walks of the same
// flat expression — the raw speedup the oracle's batch path buys before
// any VAL-FUNC reduction. PROX_SIMD / --simd caps apply, so
// `PROX_SIMD=0 bench_core_micro` measures the scalar kernels.

void BM_BatchEvaluateBlock(benchmark::State& state) {
  Dataset ds = MakeMovies(static_cast<int>(state.range(0)));
  const kernels::BatchEvalFacade* facade = ds.provenance->AsBatchEval();
  if (facade == nullptr) {
    state.SkipWithError("no batch lowering");
    return;
  }
  const kernels::BatchProgram program = facade->LowerBatch();
  const size_t n = ds.registry->size();
  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  const size_t width =
      std::min<size_t>(EnumeratedDistance::kReductionGrain,
                       valuations.size());
  kernels::ValuationBlock block;
  block.Reset(n, width);
  for (size_t l = 0; l < width; ++l) {
    block.FillLane(l, MaterializedValuation(valuations[l], n));
  }
  kernels::BlockEval evals;
  for (auto _ : state) {
    kernels::EvaluateBlock(program, block, &evals);
    benchmark::DoNotOptimize(evals.values.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(width));
}
BENCHMARK(BM_BatchEvaluateBlock)->Arg(20)->Arg(40)->Arg(80);

void BM_PerValuationEvaluateBlock(benchmark::State& state) {
  Dataset ds = MakeMovies(static_cast<int>(state.range(0)));
  const size_t n = ds.registry->size();
  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  const size_t width =
      std::min<size_t>(EnumeratedDistance::kReductionGrain,
                       valuations.size());
  std::vector<MaterializedValuation> mats;
  for (size_t l = 0; l < width; ++l) {
    mats.emplace_back(valuations[l], n);
  }
  for (auto _ : state) {
    for (const MaterializedValuation& mat : mats) {
      benchmark::DoNotOptimize(ds.provenance->Evaluate(mat));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(width));
}
BENCHMARK(BM_PerValuationEvaluateBlock)->Arg(20)->Arg(40)->Arg(80);

void BM_PolynomialMultiply(benchmark::State& state) {
  Polynomial a, b;
  for (int i = 0; i < state.range(0); ++i) {
    a += Polynomial::FromVar(static_cast<Polynomial::Var>(i));
    b += Polynomial::FromVar(static_cast<Polynomial::Var>(i + 100));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_PolynomialMultiply)->Arg(4)->Arg(16);

// Best-of-5 nanoseconds per call of `op`, for the --json-kernels baseline.
double MinNsPerOp(const std::function<void()>& op) {
  // Warm up, size the inner loop to ~20ms, then take the best of 5 reps
  // (min is the right statistic for a noise-floor microbench baseline).
  op();
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

// --json-kernels baseline mode (BENCH_kernels.json). Times one full
// EnumeratedDistance candidate pricing — the batched kernel path vs the
// exact per-valuation scalar loop it replaced — on identical inputs, and
// self-checks the docs/KERNELS.md performance contract: batched >= 2x
// per-valuation on the largest config. The batch engagement is verified
// through the prox_kernel_batch_evals_total counter first, so a silently
// disengaged fast path fails instead of benchmarking scalar vs scalar.

int RunKernelsJsonBaseline() {
  struct Row {
    int users;
    size_t valuations;
    double scalar_ns;
    double batched_ns;
  };
  std::vector<Row> rows;
  for (int users : {20, 40, 80}) {
    Dataset ds = MakeMovies(users);
    std::vector<Valuation> valuations =
        ds.valuation_class->Generate(*ds.provenance, ds.ctx);
    EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                              ds.val_func.get(), valuations);
    // The scalar reference's base valuations and v(p₀) under each,
    // materialized and evaluated once at the oracle's registry size and
    // outside every timed loop.
    std::vector<MaterializedValuation> base_mats;
    std::vector<EvalResult> base_evals;
    base_mats.reserve(valuations.size());
    base_evals.reserve(valuations.size());
    for (const Valuation& v : valuations) {
      base_mats.emplace_back(v, ds.registry->size());
      base_evals.push_back(ds.provenance->Evaluate(base_mats.back()));
    }
    auto user_anns = ds.registry->AnnotationsInDomain(ds.domain("user"));
    AnnotationId summary =
        ds.registry->AddSummary(ds.domain("user"), "Merged");
    MappingState mapping(ds.registry.get(), ds.phi);
    mapping.Merge({user_anns[0], user_anns[1]}, summary);
    Homomorphism h;
    h.Set(user_anns[0], summary);
    h.Set(user_anns[1], summary);
    auto cand = ds.provenance->Apply(h);

    const uint64_t evals_before = kernels::BatchEvalsForTesting();
    benchmark::DoNotOptimize(oracle.Distance(*cand, mapping));
    if (kernels::BatchEvalsForTesting() == evals_before) {
      std::fprintf(stderr,
                   "bench_core_micro --json-kernels: FAIL batch path did "
                   "not engage at users=%d\n",
                   users);
      return 1;
    }

    const double batched_ns = MinNsPerOp([&] {
      benchmark::DoNotOptimize(oracle.Distance(*cand, mapping));
    });
    // The per-valuation loop the batch path replaced (identity-on-groups
    // branch, serial), extending the pre-materialized bases above rather
    // than materializing each sparse valuation inside the timed loop.
    const double scalar_ns = MinNsPerOp([&] {
      const size_t n = ds.registry->size();
      double total = 0.0;
      for (size_t i = 0; i < valuations.size(); ++i) {
        MaterializedValuation transformed =
            mapping.TransformFrom(valuations[i], base_mats[i], n);
        EvalResult summ = cand->Evaluate(transformed);
        total += valuations[i].weight() *
                 ds.val_func->Compute(base_evals[i], summ);
      }
      benchmark::DoNotOptimize(total);
    });
    rows.push_back({users, valuations.size(), scalar_ns, batched_ns});
  }
  double largest_speedup = 0.0;
  std::printf("{\n  \"bench\": \"bench_core_micro --json-kernels\",\n");
  std::printf("  \"workload\": \"MovieLens 12 movies, seed 3; one "
              "candidate priced against the full valuation class\",\n");
  std::printf("  \"simd_tier\": \"%s\",\n",
              common::SimdTierName(common::ActiveSimdTier()));
  std::printf("  \"contract\": \"batched distance >= 2x the per-valuation "
              "scalar loop on the largest config\",\n");
  std::printf("  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double speedup = r.scalar_ns / r.batched_ns;
    largest_speedup = speedup;  // rows are ordered smallest to largest
    std::printf("    {\"users\": %d, \"valuations\": %zu, "
                "\"scalar_ns_per_candidate\": %.1f, "
                "\"batched_ns_per_candidate\": %.1f, \"speedup\": %.2f}%s\n",
                r.users, r.valuations, r.scalar_ns, r.batched_ns, speedup,
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n  \"largest_config_speedup\": %.2f\n}\n",
              largest_speedup);
  if (largest_speedup < 2.0) {
    std::fprintf(stderr,
                 "bench_core_micro --json-kernels: FAIL largest-config "
                 "speedup %.2f < 2.0\n",
                 largest_speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json-kernels") {
      return RunKernelsJsonBaseline();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
