/// \file Experiment E11 — Table 5.1: provenance structure and
/// summarization parameters of the three datasets, regenerated from the
/// actual generator outputs (structure sample, constraints, aggregation,
/// valuation class, φ and VAL-FUNC).

#include <cstdio>
#include <string>

#include "harness/bench_util.h"

using namespace prox;
using namespace prox::bench;

namespace {

std::string StructureSample(const Dataset& ds, size_t max_len = 110) {
  std::string text = ds.provenance->ToString(*ds.registry);
  if (text.size() > max_len) {
    // Trim on a UTF-8 character boundary (skip continuation bytes).
    size_t cut = max_len;
    while (cut > 0 &&
           (static_cast<unsigned char>(text[cut]) & 0xC0) == 0x80) {
      --cut;
    }
    text = text.substr(0, cut) + " …";
  }
  return text;
}

void Describe(const char* name, const Dataset& ds,
              const char* constraints_desc, const char* phi_desc,
              const char* valuation_desc) {
  std::printf("Dataset: %s\n", name);
  std::printf("  structure:    %s\n", StructureSample(ds).c_str());
  std::printf("  size:         %lld annotations, %zu domains\n",
              static_cast<long long>(ds.provenance->Size()),
              ds.domains.size());
  std::printf("  constraints:  %s\n", constraints_desc);
  std::printf("  aggregation:  %s\n", AggKindToString(ds.agg));
  std::printf("  valuations:   %s\n", ds.valuation_class->name().c_str());
  std::printf("  (configured): %s\n", valuation_desc);
  std::printf("  phi:          %s\n", phi_desc);
  std::printf("  VAL-FUNC:     %s\n\n", ds.val_func->name().c_str());
}

}  // namespace

int main() {
  std::printf("Table 5.1 — provenance and summarization parameters per "
              "dataset (scale %.2f)\n\n",
              BenchScale());

  Dataset movies = MakeDataset(DatasetKind::kMovieLens, 1);
  Describe("MovieLens (movies)", movies,
           "users share one of Gender / AgeRange / Occupation / ZipCode; "
           "movies share Genre or Year; years share Decade",
           "logical OR",
           "Cancel Single Annotation + Cancel Single Attribute supported");

  Dataset wiki = MakeDataset(DatasetKind::kWikipedia, 1);
  Describe("Wikipedia", wiki,
           "users share one of IsRegistered / Gender / ContributionLevel; "
           "pages share a WordNet taxonomy ancestor (below the root)",
           "logical OR",
           "taxonomy-consistent Cancel Single Annotation");

  Dataset ddp = MakeDataset(DatasetKind::kDdp, 1);
  Describe("DDP", ddp,
           "cost variables within cost tolerance; DB variables freely "
           "(per-structure semiring mapping)",
           "DB vars: logical OR; cost vars: MAX (≡ OR on 0/1 bits)",
           "Cancel Single Attribute (e.g. all cost vars of equal cost)");
  return 0;
}
