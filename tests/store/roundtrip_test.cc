// Round-trip equivalence: Generate → SaveDataset → LoadDataset must hand
// back a dataset whose provenance prints byte-identically, whose registry
// and semantic context match entry for entry, and whose summarization
// behavior (the /v1/summarize JSON body) is indistinguishable from the
// generator-built dataset — for all three dataset families, on both the
// zero-copy mmap-borrow path and the validated-copy fallback.

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "engine/codec.h"
#include "store/codec.h"
#include "store/snapshot.h"
#include "summarize/distance.h"
#include "summarize/summarizer.h"

namespace prox {
namespace store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "prox_store_roundtrip_" +
         std::to_string(::getpid()) + "_" + name + ".snap";
}

Dataset Reload(const Dataset& dataset, const std::string& name,
               bool allow_mmap_borrow) {
  const std::string path = TempPath(name);
  Status saved = SaveDataset(dataset, SaveOptions{}, path);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  std::shared_ptr<Snapshot> snapshot;
  Status opened = Snapshot::Open(path, &snapshot);
  EXPECT_TRUE(opened.ok()) << opened.ToString();
  LoadOptions options;
  options.allow_mmap_borrow = allow_mmap_borrow;
  Dataset loaded;
  Status status = LoadDataset(snapshot, options, &loaded);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return loaded;
}

/// Runs Algorithm 1 over `ds` and returns the canonical /v1/summarize
/// JSON body bytes.
std::string SummarizeJson(Dataset ds, int threads) {
  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                            ds.val_func.get(), valuations);
  SummarizerOptions options;
  options.w_dist = 0.5;
  options.w_size = 0.5;
  options.max_steps = 6;
  options.phi = ds.phi;
  options.threads = threads;
  Summarizer summarizer(ds.provenance.get(), ds.registry.get(), &ds.ctx,
                        &ds.constraints, &oracle, &valuations, options);
  SummaryOutcome outcome = summarizer.Run().MoveValue();
  return WriteJson(engine::SummaryOutcomeToJson(outcome, *ds.registry));
}

void ExpectStructurallyEqual(const Dataset& generated, const Dataset& loaded) {
  // Registry: identical domains and (non-summary) entries, dense ids.
  ASSERT_NE(loaded.registry, nullptr);
  ASSERT_EQ(loaded.registry->num_domains(), generated.registry->num_domains());
  for (size_t d = 0; d < generated.registry->num_domains(); ++d) {
    EXPECT_EQ(loaded.registry->domain_name(static_cast<DomainId>(d)),
              generated.registry->domain_name(static_cast<DomainId>(d)));
  }
  ASSERT_EQ(loaded.registry->size(), generated.registry->size());
  for (size_t a = 0; a < generated.registry->size(); ++a) {
    const AnnotationId id = static_cast<AnnotationId>(a);
    EXPECT_EQ(loaded.registry->name(id), generated.registry->name(id));
    EXPECT_EQ(loaded.registry->domain(id), generated.registry->domain(id));
    EXPECT_EQ(loaded.registry->entity_row(id),
              generated.registry->entity_row(id));
    EXPECT_FALSE(loaded.registry->is_summary(id));
  }

  // Semantic context: tables row for row, taxonomy concept for concept.
  ASSERT_EQ(loaded.ctx.tables.size(), generated.ctx.tables.size());
  for (const auto& [domain, table] : generated.ctx.tables) {
    const EntityTable* other = loaded.ctx.TableFor(domain);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->name(), table.name());
    ASSERT_EQ(other->num_attributes(), table.num_attributes());
    ASSERT_EQ(other->num_rows(), table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      for (size_t at = 0; at < table.num_attributes(); ++at) {
        EXPECT_EQ(other->ValueNameOf(static_cast<uint32_t>(r),
                                     static_cast<AttrId>(at)),
                  table.ValueNameOf(static_cast<uint32_t>(r),
                                    static_cast<AttrId>(at)));
      }
    }
  }
  ASSERT_EQ(loaded.ctx.taxonomy.has_value(),
            generated.ctx.taxonomy.has_value());
  if (generated.ctx.taxonomy.has_value()) {
    ASSERT_EQ(loaded.ctx.taxonomy->size(), generated.ctx.taxonomy->size());
    for (size_t c = 0; c < generated.ctx.taxonomy->size(); ++c) {
      const ConceptId id = static_cast<ConceptId>(c);
      EXPECT_EQ(loaded.ctx.taxonomy->name(id),
                generated.ctx.taxonomy->name(id));
      EXPECT_EQ(loaded.ctx.taxonomy->parent(id),
                generated.ctx.taxonomy->parent(id));
      EXPECT_EQ(loaded.ctx.taxonomy->depth(id),
                generated.ctx.taxonomy->depth(id));
    }
  }
  EXPECT_EQ(loaded.ctx.concept_of.size(), generated.ctx.concept_of.size());

  // Configuration and features.
  EXPECT_EQ(loaded.agg, generated.agg);
  EXPECT_EQ(loaded.phi.fallback, generated.phi.fallback);
  EXPECT_EQ(loaded.phi.per_domain, generated.phi.per_domain);
  EXPECT_EQ(loaded.domains, generated.domains);
  EXPECT_EQ(loaded.features, generated.features);
  ASSERT_EQ(loaded.valuation_class != nullptr,
            generated.valuation_class != nullptr);
  if (generated.valuation_class != nullptr) {
    EXPECT_EQ(loaded.valuation_class->name(),
              generated.valuation_class->name());
  }
  ASSERT_EQ(loaded.val_func != nullptr, generated.val_func != nullptr);
  if (generated.val_func != nullptr) {
    EXPECT_EQ(loaded.val_func->name(), generated.val_func->name());
  }

  // The loaded dataset carries the snapshot fingerprint as a hint and the
  // hint equals what the serving layer would have computed from scratch.
  EXPECT_FALSE(loaded.fingerprint_hint.empty());

  // Provenance: byte-identical rendering, identical size.
  ASSERT_NE(loaded.provenance, nullptr);
  EXPECT_EQ(loaded.provenance->ToString(*loaded.registry),
            generated.provenance->ToString(*generated.registry));
  EXPECT_EQ(loaded.provenance->Size(), generated.provenance->Size());
}

template <typename Generator, typename Config>
void ExpectRoundTrip(const Config& config, const std::string& name) {
  const Dataset generated = Generator::Generate(config);
  for (const bool borrow : {true, false}) {
    SCOPED_TRACE(name + (borrow ? " mmap-borrow" : " copy-fallback"));
    const Dataset loaded =
        Reload(generated, name + (borrow ? "_mmap" : "_copy"), borrow);
    ExpectStructurallyEqual(generated, loaded);
  }

  // Behavioral equivalence: summarize the loaded dataset and the
  // generated dataset and require byte-identical response JSON, serial
  // and parallel. Each run gets a fresh dataset (summarization registers
  // summary annotations, so datasets are single-use).
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(name + " threads=" + std::to_string(threads));
    const std::string from_generated =
        SummarizeJson(Generator::Generate(config), threads);
    const std::string from_snapshot =
        SummarizeJson(Reload(Generator::Generate(config),
                             name + "_summ" + std::to_string(threads),
                             /*allow_mmap_borrow=*/true),
                      threads);
    EXPECT_EQ(from_snapshot, from_generated);
  }
}

TEST(StoreRoundTripTest, MovieLens) {
  MovieLensConfig config;
  config.num_users = 20;
  config.num_movies = 6;
  config.ratings_per_user = 3;
  ExpectRoundTrip<MovieLensGenerator>(config, "movielens");
}

TEST(StoreRoundTripTest, Wikipedia) {
  WikipediaConfig config;
  config.num_users = 10;
  config.num_pages = 8;
  ExpectRoundTrip<WikipediaGenerator>(config, "wikipedia");
}

TEST(StoreRoundTripTest, Ddp) {
  DdpConfig config;
  config.num_executions = 8;
  ExpectRoundTrip<DdpGenerator>(config, "ddp");
}

TEST(StoreRoundTripTest, DdpFromMachine) {
  DdpConfig config;
  config.from_machine = true;
  config.num_executions = 10;
  config.seed = 21;
  ExpectRoundTrip<DdpGenerator>(config, "ddp_machine");
}

TEST(StoreRoundTripTest, SavedBytesAreDeterministic) {
  // Two saves of identically generated datasets must produce identical
  // files — the fingerprint short-circuit and cache keys depend on it.
  MovieLensConfig config;
  config.num_users = 12;
  config.num_movies = 5;
  auto save_bytes = [&](const std::string& name) {
    const std::string path = TempPath(name);
    Dataset ds = MovieLensGenerator::Generate(config);
    Status s = SaveDataset(ds, SaveOptions{}, path);
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string first = save_bytes("det_a");
  const std::string second = save_bytes("det_b");
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(StoreRoundTripTest, SecondGenerationSnapshotIsStable) {
  // Snapshot of a snapshot-loaded dataset: the format must be a fixed
  // point (load → save → load gives the same provenance bytes).
  MovieLensConfig config;
  config.num_users = 12;
  config.num_movies = 5;
  const Dataset generated = MovieLensGenerator::Generate(config);
  const Dataset first = Reload(generated, "gen2_a", /*allow_mmap_borrow=*/true);
  const Dataset second = Reload(first, "gen2_b", /*allow_mmap_borrow=*/true);
  EXPECT_EQ(second.provenance->ToString(*second.registry),
            generated.provenance->ToString(*generated.registry));
  EXPECT_EQ(second.fingerprint_hint, first.fingerprint_hint);
}

}  // namespace
}  // namespace store
}  // namespace prox
