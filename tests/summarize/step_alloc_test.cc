/// Heap allocations of a cold POST /v1/summarize. A counting global
/// operator new (this binary only) counts every allocation the engine makes
/// while it answers cold requests: the greedy step reuses its candidate
/// buffers, its pricing-cache generations and its step vectors across the
/// steps of a run (docs/KERNELS.md, *Across steps*), so a run allocates
/// per expression and per step, not per candidate. The budgets sit well
/// above what the reusing code makes and well below what per-candidate
/// allocation made (23,031 per perfbench-shape run, 865,474 on the
/// 100-user cold config). Blocks of 128 KiB and more that the pricing
/// cache maps directly (common/mapped_allocator.h) are not heap
/// allocations and are not counted. Bodies must not depend on the thread
/// count.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/movielens.h"
#include "engine/engine.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace prox {
namespace engine {
namespace {

std::unique_ptr<Engine> MovieLensEngine(int users, int movies, uint64_t seed) {
  MovieLensConfig config;
  config.num_users = users;
  config.num_movies = movies;
  config.seed = seed;
  return Engine::FromDataset(MovieLensGenerator::Generate(config));
}

std::string SummarizeBody(double w_dist, const std::string& extra = "") {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{\"w_dist\":%.6f,\"w_size\":%.6f%s}",
                w_dist, 1.0 - w_dist, extra.c_str());
  return buf;
}

/// Cold answers to `bodies` in order; `*allocations` gets the allocations
/// made while answering them.
std::vector<std::string> ColdBodies(Engine* engine,
                                    const std::vector<std::string>& bodies,
                                    uint64_t* allocations) {
  std::vector<std::string> out;
  out.reserve(bodies.size());
  const uint64_t before = g_allocations.load();
  g_counting.store(true);
  for (const std::string& body : bodies) {
    Engine::Response r = engine->HandleSummarize(body);
    EXPECT_TRUE(r.ok()) << r.body;
    EXPECT_EQ(r.cache, Engine::Response::CacheOutcome::kMiss);
    out.push_back(std::move(r.body));
  }
  g_counting.store(false);
  *allocations = g_allocations.load() - before;
  return out;
}

/// The perfbench `cold-summarize` shape: MovieLens 25 users, 8 movies,
/// seed 99, 40 cold requests with distinct weights in [0.3, 0.7] after
/// one primed request outside that range.
std::vector<std::string> PerfbenchShapeBodies(const std::string& extra) {
  std::vector<std::string> bodies;
  for (int i = 0; i < 40; ++i) {
    bodies.push_back(SummarizeBody(0.3 + 0.01 * i + 0.000137, extra));
  }
  return bodies;
}

TEST(StepAllocTest, PerfbenchShapeColdRunStaysUnderBudget) {
  std::unique_ptr<Engine> engine = MovieLensEngine(25, 8, 99);
  ASSERT_TRUE(engine->HandleSummarize(SummarizeBody(0.15)).ok());
  const std::vector<std::string> bodies = PerfbenchShapeBodies("");
  uint64_t allocations = 0;
  ColdBodies(engine.get(), bodies, &allocations);
  const uint64_t per_run = allocations / bodies.size();
  RecordProperty("allocations_per_run", std::to_string(per_run));
  EXPECT_LE(per_run, 4000u) << allocations << " allocations over "
                            << bodies.size() << " cold runs";
}

TEST(StepAllocTest, ColdConfigStaysUnderATenthOfPerCandidateAllocation) {
  std::unique_ptr<Engine> engine = MovieLensEngine(100, 12, 7);
  uint64_t allocations = 0;
  ColdBodies(engine.get(), {"{\"w_dist\":0.5,\"max_steps\":32}"},
             &allocations);
  RecordProperty("allocations", std::to_string(allocations));
  EXPECT_LE(allocations, 865474u / 10);
}

/// Workers price candidates through the shared sizing pre-pass and write
/// their entries into the step's generation in place; the bytes must be
/// those of the serial loop.
TEST(StepAllocTest, BodiesAreTheSameAtThreadsOneAndEight) {
  std::vector<std::string> serial_bodies;
  std::vector<std::string> parallel_bodies;
  for (int i = 0; i < 8; ++i) {
    const double w = 0.3 + 0.05 * i;
    serial_bodies.push_back(SummarizeBody(w, ",\"threads\":1"));
    parallel_bodies.push_back(SummarizeBody(w, ",\"threads\":8"));
  }
  uint64_t allocations = 0;
  std::unique_ptr<Engine> serial = MovieLensEngine(25, 8, 99);
  std::unique_ptr<Engine> parallel = MovieLensEngine(25, 8, 99);
  const std::vector<std::string> a =
      ColdBodies(serial.get(), serial_bodies, &allocations);
  const std::vector<std::string> b =
      ColdBodies(parallel.get(), parallel_bodies, &allocations);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "request " << i;
  }
}

}  // namespace
}  // namespace engine
}  // namespace prox
