/// DeltaBatch unit tests: JSON wire round-trips, typed rejection of
/// non-monotone / malformed ops, digest determinism and fingerprint
/// chaining, batch-split invariance, and the id-stability contract of
/// ApplyBatch (interned ids and registry ids survive an append).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "ingest/delta.h"
#include "ingest/ingest_log.h"
#include "ingest/synthetic.h"
#include "ir/agg_expr.h"
#include "provenance/annotation.h"

namespace prox {
namespace ingest {
namespace {

Dataset SmallMovieLens() {
  MovieLensConfig config;
  config.num_users = 10;
  config.num_movies = 5;
  config.seed = 3;
  return MovieLensGenerator::Generate(config);
}

DeltaOp AddUser(const std::string& name) {
  DeltaOp op;
  op.kind = DeltaOpKind::kAddAnnotation;
  op.domain = "user";
  op.name = name;
  op.attrs = {"F", "25-34", "artist", "12345"};
  return op;
}

DeltaOp AddRating(const Dataset& dataset, const std::string& user,
                  size_t movie_index, double value) {
  const AnnotationRegistry& registry = *dataset.registry;
  std::vector<AnnotationId> movies;
  for (AnnotationId a :
       registry.AnnotationsInDomain(dataset.domain("movie"))) {
    if (!registry.is_summary(a)) movies.push_back(a);
  }
  const AnnotationId movie = movies[movie_index % movies.size()];
  // The generated year annotation for this movie: find any "Y..." factor
  // by scanning the year domain is overkill here — the term is valid with
  // just (user, movie), the registry does not force three factors.
  DeltaOp op;
  op.kind = DeltaOpKind::kAddTerm;
  op.factors = {user, registry.name(movie)};
  op.group = registry.name(movie);
  op.value = value;
  return op;
}

TEST(DeltaWireTest, JsonRoundTripIsLossless) {
  DeltaBatch batch;
  batch.sequence = 1;
  batch.ops.push_back(AddUser("UIN1_0"));
  DeltaOp term;
  term.kind = DeltaOpKind::kAddTerm;
  term.factors = {"UIN1_0", "M1"};
  term.group = "M1";
  term.value = 4.0;
  term.count = 2.0;
  batch.ops.push_back(term);

  JsonValue doc = DeltaBatchToJson(batch);
  Result<DeltaBatch> parsed = DeltaBatchFromJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().sequence, 1u);
  ASSERT_EQ(parsed.value().ops.size(), 2u);
  EXPECT_EQ(parsed.value().ops[0].name, "UIN1_0");
  EXPECT_EQ(parsed.value().ops[1].factors,
            (std::vector<std::string>{"UIN1_0", "M1"}));
  EXPECT_EQ(parsed.value().ops[1].count, 2.0);
  // Round-tripping through JSON does not change the digest.
  EXPECT_EQ(BatchDigest(batch), BatchDigest(parsed.value()));
}

TEST(DeltaWireTest, ResummarizeKeyToleratedOtherUnknownKeysRejected) {
  DeltaBatch batch;
  batch.sequence = 1;
  batch.ops.push_back(AddUser("U_new"));
  JsonValue doc = DeltaBatchToJson(batch);
  doc.Set("resummarize", JsonValue::Bool(true));
  EXPECT_TRUE(DeltaBatchFromJson(doc).ok());
  doc.Set("surprise", JsonValue::Int(1));
  EXPECT_FALSE(DeltaBatchFromJson(doc).ok());
}

TEST(DeltaValidationTest, SequenceMismatchIsTypedAndRetryable) {
  Dataset dataset = SmallMovieLens();
  DeltaBatch batch;
  batch.sequence = 7;
  batch.ops.push_back(AddUser("U_new"));
  Result<ApplyReceipt> applied = ApplyBatch(&dataset, batch, 1);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(applied.status().ToString().find("kSequence"),
            std::string::npos);
}

TEST(DeltaValidationTest, NonMonotoneAndMalformedOpsAreTypedRejections) {
  Dataset dataset = SmallMovieLens();
  const int64_t size_before = dataset.provenance->Size();
  const size_t annotations_before = dataset.registry->size();

  auto reject = [&](const DeltaOp& op, StatusCode code, const char* kind) {
    DeltaBatch batch;
    batch.sequence = 1;
    batch.ops.push_back(op);
    Result<ApplyReceipt> applied = ApplyBatch(&dataset, batch, 1);
    ASSERT_FALSE(applied.ok()) << kind;
    EXPECT_EQ(applied.status().code(), code) << kind;
    EXPECT_NE(applied.status().ToString().find(kind), std::string::npos)
        << applied.status().ToString();
  };

  DeltaOp unknown_domain = AddUser("U_new");
  unknown_domain.domain = "starship";
  unknown_domain.attrs.clear();
  reject(unknown_domain, StatusCode::kInvalidArgument, "kUnknownDomain");

  DeltaOp duplicate = AddUser(
      dataset.registry->name(*dataset.registry
                                  ->AnnotationsInDomain(
                                      dataset.domain("user"))
                                  .begin()));
  reject(duplicate, StatusCode::kInvalidArgument, "kDuplicateAnnotation");

  DeltaOp unknown_factor = AddRating(dataset, "nobody", 0, 3.0);
  reject(unknown_factor, StatusCode::kInvalidArgument, "kUnknownAnnotation");

  DeltaOp wrong_attr_count = AddUser("U_new");
  wrong_attr_count.attrs = {"F"};
  reject(wrong_attr_count, StatusCode::kInvalidArgument, "kBadShape");

  DeltaOp cost_on_aggregate = AddUser("U_new");
  cost_on_aggregate.cost = 2.0;
  cost_on_aggregate.has_cost = true;
  reject(cost_on_aggregate, StatusCode::kInvalidArgument, "kUnsupported");

  DeltaOp execution;
  execution.kind = DeltaOpKind::kAddExecution;
  DeltaTransition user_step;
  user_step.user = true;
  user_step.cost_var = "c1";
  execution.transitions.push_back(user_step);
  reject(execution, StatusCode::kInvalidArgument, "kUnsupported");

  DeltaOp shrink = AddRating(
      dataset,
      dataset.registry->name(*dataset.registry
                                  ->AnnotationsInDomain(
                                      dataset.domain("user"))
                                  .begin()),
      0, 3.0);
  shrink.count = -1.0;
  reject(shrink, StatusCode::kInvalidArgument, "kNonMonotone");

  // Referencing a summary annotation is rejected: the monotone-growth
  // contract only covers originals.
  AnnotationId summary =
      dataset.registry->AddSummary(dataset.domain("user"), "S_group");
  DeltaOp summary_factor =
      AddRating(dataset, dataset.registry->name(summary), 0, 3.0);
  reject(summary_factor, StatusCode::kInvalidArgument, "kSummaryAnnotation");

  // All-or-nothing: a valid op ahead of an invalid one leaves no trace.
  DeltaBatch mixed;
  mixed.sequence = 1;
  mixed.ops.push_back(AddUser("U_new"));
  DeltaOp bad = AddUser("U_new2");
  bad.domain = "starship";
  bad.attrs.clear();
  mixed.ops.push_back(bad);
  EXPECT_FALSE(ApplyBatch(&dataset, mixed, 1).ok());
  EXPECT_EQ(dataset.provenance->Size(), size_before);
  EXPECT_EQ(dataset.registry->size(), annotations_before + 1);  // +summary
  EXPECT_FALSE(dataset.registry->Find("U_new").ok());
}

TEST(DeltaDigestTest, DigestIsDeterministicAndOrderSensitive) {
  DeltaBatch batch;
  batch.sequence = 1;
  batch.ops.push_back(AddUser("A"));
  batch.ops.push_back(AddUser("B"));
  const std::string digest = BatchDigest(batch);
  EXPECT_EQ(digest.size(), 16u);
  EXPECT_EQ(digest, BatchDigest(batch));

  DeltaBatch swapped;
  swapped.sequence = 1;
  swapped.ops.push_back(AddUser("B"));
  swapped.ops.push_back(AddUser("A"));
  EXPECT_NE(digest, BatchDigest(swapped));

  // Chaining is deterministic and collision-separated from its inputs.
  const std::string chained = ChainFingerprint("0123456789abcdef", digest);
  EXPECT_EQ(chained.size(), 16u);
  EXPECT_EQ(chained, ChainFingerprint("0123456789abcdef", digest));
  EXPECT_NE(chained, ChainFingerprint("fedcba9876543210", digest));
  EXPECT_NE(chained, digest);
}

TEST(IngestLogTest, SequenceAdvancesAndGapsAreRejected) {
  Dataset dataset = SmallMovieLens();
  IngestLog log(&dataset);
  EXPECT_EQ(log.next_sequence(), 1u);

  Result<DeltaBatch> first = SyntheticMovieLensDelta(dataset, 2, 2, 1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<ApplyReceipt> receipt = log.Append(first.value());
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_EQ(receipt.value().sequence, 1u);
  EXPECT_EQ(receipt.value().annotations_added, 2);
  EXPECT_EQ(receipt.value().terms_added, 4);
  EXPECT_EQ(log.next_sequence(), 2u);
  ASSERT_EQ(log.receipts().size(), 1u);

  // Replaying the same sequence is a typed FailedPrecondition.
  Result<ApplyReceipt> replayed = log.Append(first.value());
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kFailedPrecondition);

  Result<DeltaBatch> second = SyntheticMovieLensDelta(dataset, 1, 1, 2);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(log.Append(second.value()).ok());
  EXPECT_EQ(log.next_sequence(), 3u);
}

TEST(ApplyBatchTest, RegistryAndInternedIdsAreStableAcrossAppend) {
  Dataset dataset = SmallMovieLens();
  const AnnotationRegistry& registry = *dataset.registry;

  // Record every pre-existing annotation's (id → name) binding.
  std::vector<std::string> names;
  for (AnnotationId a = 0; a < registry.size(); ++a) {
    names.push_back(registry.name(a));
  }

  // If the provenance is IR-backed, record an interned monomial id from
  // the shared pool before the append.
  const ir::IrAggregateExpression* ir_expr =
      dynamic_cast<const ir::IrAggregateExpression*>(
          dataset.provenance.get());
  ir::MonomialId existing_id = 0;
  std::vector<AnnotationId> existing_factors;
  if (ir_expr != nullptr) {
    ir::AggTermView first = ir_expr->term(0);
    existing_factors.assign(first.mono, first.mono + first.mono_len);
    existing_id = ir_expr->pool()->InternMonomial(existing_factors.data(),
                                                  existing_factors.size());
  }

  Result<DeltaBatch> delta = SyntheticMovieLensDelta(dataset, 3, 2, 1);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  Result<ApplyReceipt> receipt = ApplyBatch(&dataset, delta.value(), 1);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_EQ(receipt.value().expression_size, dataset.provenance->Size());

  // Every old registry id still names the same annotation.
  ASSERT_GE(registry.size(), names.size());
  for (size_t a = 0; a < names.size(); ++a) {
    EXPECT_EQ(registry.name(static_cast<AnnotationId>(a)), names[a])
        << "id " << a;
  }

  // The append only extended the pool: re-interning the pre-existing
  // monomial yields the same id, so untouched terms' interned references
  // stayed valid (copy-on-write monotone growth).
  if (ir_expr != nullptr) {
    const ir::IrAggregateExpression* grown =
        dynamic_cast<const ir::IrAggregateExpression*>(
            dataset.provenance.get());
    ASSERT_NE(grown, nullptr);
    EXPECT_EQ(grown->pool()->InternMonomial(existing_factors.data(),
                                            existing_factors.size()),
              existing_id);
  }
}

TEST(ApplyBatchTest, SplitBatchesGrowTheSameExpressionAsOneBatch) {
  Dataset one = SmallMovieLens();
  Dataset two = SmallMovieLens();

  Result<DeltaBatch> whole = SyntheticMovieLensDelta(one, 4, 2, 1);
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(ApplyBatch(&one, whole.value(), 1).ok());

  // The same ops split in half across two sequenced batches.
  DeltaBatch first, second;
  first.sequence = 1;
  second.sequence = 2;
  const size_t half = whole.value().ops.size() / 2;
  for (size_t i = 0; i < whole.value().ops.size(); ++i) {
    (i < half ? first : second).ops.push_back(whole.value().ops[i]);
  }
  ASSERT_TRUE(ApplyBatch(&two, first, 1).ok());
  ASSERT_TRUE(ApplyBatch(&two, second, 2).ok());

  EXPECT_EQ(one.provenance->Size(), two.provenance->Size());
  EXPECT_EQ(one.provenance->ToString(*one.registry),
            two.provenance->ToString(*two.registry));
  EXPECT_EQ(one.registry->size(), two.registry->size());
}

TEST(SyntheticDeltaTest, WikipediaAndDdpBuildersApplyCleanly) {
  WikipediaConfig wiki_config;
  wiki_config.num_users = 8;
  wiki_config.num_pages = 6;
  Dataset wiki = WikipediaGenerator::Generate(wiki_config);
  Result<DeltaBatch> wiki_delta = SyntheticWikipediaDelta(wiki, 2, 3, 1);
  ASSERT_TRUE(wiki_delta.ok()) << wiki_delta.status().ToString();
  Result<ApplyReceipt> wiki_receipt = ApplyBatch(&wiki, wiki_delta.value(), 1);
  ASSERT_TRUE(wiki_receipt.ok()) << wiki_receipt.status().ToString();
  EXPECT_EQ(wiki_receipt.value().annotations_added, 2);
  EXPECT_EQ(wiki_receipt.value().terms_added, 6);

  DdpConfig ddp_config;
  ddp_config.num_executions = 6;
  Dataset ddp = DdpGenerator::Generate(ddp_config);
  const int64_t ddp_before = ddp.provenance->Size();
  Result<DeltaBatch> ddp_delta = SyntheticDdpDelta(ddp, 2, 3, 1);
  ASSERT_TRUE(ddp_delta.ok()) << ddp_delta.status().ToString();
  Result<ApplyReceipt> ddp_receipt = ApplyBatch(&ddp, ddp_delta.value(), 1);
  ASSERT_TRUE(ddp_receipt.ok()) << ddp_receipt.status().ToString();
  EXPECT_EQ(ddp_receipt.value().annotations_added, 2);
  EXPECT_GT(ddp_receipt.value().expression_size, ddp_before);
}

}  // namespace
}  // namespace ingest
}  // namespace prox
