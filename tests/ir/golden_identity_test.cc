// Golden byte-identity: the flat prox::ir path must reproduce the frozen
// outcomes in tests/ir/golden/ — summary expression text, the
// /v1/summarize JSON body (group names, steps, distances), the final
// distance bit for bit, and the final size — on all three dataset
// families, at thread counts 1 and 8. The golden files were recorded from
// the pointer-tree reference path before it was retired.

#include <gtest/gtest.h>

#include <string>

#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "ir/golden_run.h"

namespace prox {
namespace {

using golden::ExpectMatchesGolden;
using golden::RunFamily;

template <typename Generator, typename Config>
void ExpectMatchesAtAllThreadCounts(const Config& config,
                                    const std::string& name) {
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectMatchesGolden(RunFamily<Generator>(config, threads), name);
  }
}

TEST(GoldenIdentityTest, MovieLens) {
  MovieLensConfig config;
  config.num_users = 20;
  config.num_movies = 6;
  config.ratings_per_user = 3;
  ExpectMatchesAtAllThreadCounts<MovieLensGenerator>(config, "movielens");
}

TEST(GoldenIdentityTest, Wikipedia) {
  WikipediaConfig config;
  config.num_users = 10;
  config.num_pages = 8;
  ExpectMatchesAtAllThreadCounts<WikipediaGenerator>(config, "wikipedia");
}

TEST(GoldenIdentityTest, Ddp) {
  DdpConfig config;
  config.num_executions = 8;
  ExpectMatchesAtAllThreadCounts<DdpGenerator>(config, "ddp");
}

TEST(GoldenIdentityTest, DdpFromMachine) {
  DdpConfig config;
  config.from_machine = true;
  config.num_executions = 10;
  config.seed = 21;
  ExpectMatchesAtAllThreadCounts<DdpGenerator>(config, "ddp_from_machine");
}

}  // namespace
}  // namespace prox
