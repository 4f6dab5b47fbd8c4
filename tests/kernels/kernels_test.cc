// prox::kernels units: ValuationBlock layout, BlockEval pack/extract
// round-trips, batch evaluation vs the scalar Evaluate() oracle at every
// SIMD tier, and batched VAL-FUNC errors vs ValFunc::Compute.

#include "kernels/batch_eval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "datasets/ddp.h"
#include "ir/adopt.h"
#include "ir/term_pool.h"
#include "kernels/valuation_block.h"
#include "obs/metrics.h"
#include "summarize/val_func.h"
#include "summarize/valuation_class.h"
#include "testing/fixtures.h"

namespace prox {
namespace {

using testing_fixtures::MovieFixture;

/// Scoped SIMD-tier cap: forces a tier for one test body, then lifts the
/// cap back to the env/hardware decision.
struct TierCap {
  explicit TierCap(common::SimdTier tier) { common::SetSimdTierCap(tier); }
  ~TierCap() { common::SetSimdTierCap(common::SimdTier::kAvx2); }
};

const common::SimdTier kAllTiers[] = {common::SimdTier::kScalar,
                                      common::SimdTier::kSse42,
                                      common::SimdTier::kAvx2};

std::string TierTrace(common::SimdTier tier) {
  return std::string("tier=") + common::SimdTierName(tier);
}

// ---------------------------------------------------------------------------
// ValuationBlock

TEST(ValuationBlockTest, ResetDefaultsEveryLaneTrue) {
  kernels::ValuationBlock block;
  block.Reset(5, 3);
  EXPECT_EQ(block.num_annotations(), 5u);
  EXPECT_EQ(block.width(), 3u);
  // Rows are kMaxLanes wide whatever the width; unused lanes are true.
  EXPECT_EQ(block.Row(1) - block.Row(0),
            static_cast<ptrdiff_t>(kernels::kMaxLanes));
  for (AnnotationId a = 0; a < 5; ++a) {
    const uint8_t* row = block.Row(a);
    for (size_t lane = 0; lane < kernels::kMaxLanes; ++lane) {
      EXPECT_EQ(row[lane], 0xFF);
    }
  }
}

TEST(ValuationBlockTest, FillLaneMatchesMaterializedValuation) {
  const size_t n = 6;
  Valuation v({1, 4});  // false set {1, 4}
  MaterializedValuation mat(v, n);

  kernels::ValuationBlock block;
  block.Reset(n, 2);
  block.FillLane(0, mat);
  block.FillLaneSparse(1, v);  // sparse fill must produce identical bytes
  for (AnnotationId a = 0; a < n; ++a) {
    const uint8_t expected = mat.truth(a) ? 0xFF : 0x00;
    EXPECT_EQ(block.Row(a)[0], expected) << "a=" << a;
    EXPECT_EQ(block.Row(a)[1], expected) << "a=" << a;
  }
  // Unfilled lanes keep the Reset() default (all-true).
  EXPECT_EQ(block.Row(1)[2], 0xFF);
}

TEST(ValuationBlockTest, SetOverridesOneLaneByte) {
  kernels::ValuationBlock block;
  block.Reset(3, 8);
  block.Set(2, 1, false);
  EXPECT_EQ(block.Row(1)[2], 0x00);
  EXPECT_EQ(block.Row(1)[3], 0xFF);
  block.Set(2, 1, true);
  EXPECT_EQ(block.Row(1)[2], 0xFF);
}

// ---------------------------------------------------------------------------
// PackEvalBlock / Extract

TEST(PackEvalBlockTest, ScalarRoundTrip) {
  std::vector<EvalResult> evals = {EvalResult::Scalar(3.5),
                                   EvalResult::Scalar(-0.0),
                                   EvalResult::Scalar(7.25)};
  kernels::BlockEval block;
  ASSERT_TRUE(kernels::PackEvalBlock(evals.data(), evals.size(),
                                     EvalResult::Kind::kScalar, nullptr, 0,
                                     &block));
  EXPECT_EQ(block.width, 3u);
  for (size_t l = 0; l < evals.size(); ++l) {
    EXPECT_EQ(block.Extract(l), evals[l]);
  }
  // -0.0 must survive bitwise, not just by operator== (which treats
  // -0.0 == 0.0): the packed column is the scalar's exact bits.
  uint64_t bits = 0;
  std::memcpy(&bits, &block.values[1], sizeof(bits));
  EXPECT_EQ(bits, uint64_t{1} << 63);
}

TEST(PackEvalBlockTest, VectorRoundTripAndLayoutRejection) {
  const AnnotationId groups[] = {3, 7};
  auto vec = [&](double a, double b) {
    return EvalResult::Vector({{3, a, 1.0}, {7, b, 2.0}});
  };
  std::vector<EvalResult> evals = {vec(1.0, 2.0), vec(-4.5, 0.25)};
  kernels::BlockEval block;
  ASSERT_TRUE(kernels::PackEvalBlock(evals.data(), evals.size(),
                                     EvalResult::Kind::kVector, groups, 2,
                                     &block));
  for (size_t l = 0; l < evals.size(); ++l) {
    EXPECT_EQ(block.Extract(l), evals[l]);
  }

  // A result whose group keys differ from the layout must be rejected.
  std::vector<EvalResult> wrong = {EvalResult::Vector({{3, 1.0, 1.0}})};
  EXPECT_FALSE(kernels::PackEvalBlock(wrong.data(), 1,
                                      EvalResult::Kind::kVector, groups, 2,
                                      &block));
  EXPECT_FALSE(kernels::EvalMatchesLayout(wrong[0], EvalResult::Kind::kVector,
                                          groups, 2));
  EXPECT_TRUE(kernels::EvalMatchesLayout(evals[0], EvalResult::Kind::kVector,
                                         groups, 2));
}

TEST(PackEvalBlockTest, CostBoolRoundTrip) {
  std::vector<EvalResult> evals = {EvalResult::CostBool(4.0, true),
                                   EvalResult::CostBool(0.0, false)};
  kernels::BlockEval block;
  ASSERT_TRUE(kernels::PackEvalBlock(evals.data(), evals.size(),
                                     EvalResult::Kind::kCostBool, nullptr, 0,
                                     &block));
  for (size_t l = 0; l < evals.size(); ++l) {
    EXPECT_EQ(block.Extract(l), evals[l]);
  }
}

// ---------------------------------------------------------------------------
// Batch evaluation vs the scalar Evaluate() oracle, at every tier

/// Fills one block lane per valuation and checks every lane's extracted
/// EvalResult against expr.Evaluate() at every SIMD tier.
void ExpectBatchMatchesScalar(const ProvenanceExpression& expr,
                              const kernels::BatchProgram& program,
                              const std::vector<Valuation>& valuations,
                              size_t registry_size) {
  for (common::SimdTier tier : kAllTiers) {
    SCOPED_TRACE(TierTrace(tier));
    TierCap cap(tier);
    for (size_t base = 0; base < valuations.size();
         base += kernels::kMaxLanes) {
      const size_t width =
          std::min(kernels::kMaxLanes, valuations.size() - base);
      kernels::ValuationBlock block;
      block.Reset(registry_size, width);
      for (size_t l = 0; l < width; ++l) {
        block.FillLane(l, MaterializedValuation(valuations[base + l],
                                                registry_size));
      }
      kernels::BlockEval evals;
      kernels::EvaluateBlock(program, block, &evals);
      for (size_t l = 0; l < width; ++l) {
        const EvalResult expected = expr.Evaluate(
            MaterializedValuation(valuations[base + l], registry_size));
        EXPECT_EQ(evals.Extract(l), expected) << "lane " << l;
      }
    }
  }
}

TEST(BatchEvalTest, AggregateMatchesScalarEvaluateAtEveryTier) {
  MovieFixture fx;
  auto pool = std::make_shared<ir::TermPool>();
  auto ir_expr = ir::Adopt(*fx.p0, pool);
  const kernels::BatchEvalFacade* facade = ir_expr->AsBatchEval();
  ASSERT_NE(facade, nullptr);
  kernels::BatchProgram program = facade->LowerBatch();
  EXPECT_EQ(program.shape, kernels::BatchProgram::Shape::kAggregate);

  CancelSingleAnnotation cls;
  std::vector<Valuation> valuations = cls.Generate(*fx.p0, fx.ctx);
  valuations.emplace_back(std::vector<AnnotationId>{
      fx.u1, fx.u2, fx.u3});  // all users cancelled: empty groups
  ExpectBatchMatchesScalar(*ir_expr, program, valuations, fx.registry.size());
}

TEST(BatchEvalTest, DdpMatchesScalarEvaluateAtEveryTier) {
  DdpConfig config;
  config.num_executions = 6;
  Dataset ds = DdpGenerator::Generate(config);
  auto pool = std::make_shared<ir::TermPool>();
  auto ir_expr = ir::Adopt(*ds.provenance, pool);
  const kernels::BatchEvalFacade* facade = ir_expr->AsBatchEval();
  ASSERT_NE(facade, nullptr);
  kernels::BatchProgram program = facade->LowerBatch();
  EXPECT_EQ(program.shape, kernels::BatchProgram::Shape::kDdp);

  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  ASSERT_FALSE(valuations.empty());
  ExpectBatchMatchesScalar(*ir_expr, program, valuations,
                           ds.registry->size());
}

TEST(BatchEvalTest, PolynomialMatchesScalarEvaluateAtEveryTier) {
  AnnotationRegistry registry;
  DomainId d = registry.AddDomain("d");
  AnnotationId a = registry.Add(d, "a", kNoEntity).MoveValue();
  AnnotationId b = registry.Add(d, "b", kNoEntity).MoveValue();
  AnnotationId c = registry.Add(d, "c", kNoEntity).MoveValue();
  Polynomial poly;
  poly.AddTerm({a, b}, 2);
  poly.AddTerm({b, c}, 3);
  poly.AddTerm({a}, 1);

  auto pool = std::make_shared<ir::TermPool>();
  auto ir_expr = ir::Adopt(poly, pool);
  const kernels::BatchEvalFacade* facade = ir_expr->AsBatchEval();
  ASSERT_NE(facade, nullptr);
  kernels::BatchProgram program = facade->LowerBatch();
  EXPECT_EQ(program.shape, kernels::BatchProgram::Shape::kPolynomial);

  std::vector<Valuation> valuations;
  for (unsigned mask = 0; mask < 8; ++mask) {  // all 2^3 truth assignments
    std::vector<AnnotationId> false_set;
    if (mask & 1) false_set.push_back(a);
    if (mask & 2) false_set.push_back(b);
    if (mask & 4) false_set.push_back(c);
    valuations.emplace_back(std::move(false_set));
  }
  ExpectBatchMatchesScalar(*ir_expr, program, valuations, registry.size());
}

// ---------------------------------------------------------------------------
// Batched VAL-FUNC errors vs ValFunc::Compute

TEST(ValFuncBlockTest, ErrorsMatchScalarComputeBitExact) {
  MovieFixture fx;
  auto pool = std::make_shared<ir::TermPool>();
  auto base_ir = ir::Adopt(*fx.p0, pool);

  // A genuine candidate: U1,U3 -> Audience (the Example 4.2.3 merge).
  AnnotationId audience = fx.registry.AddSummary(fx.user_domain, "Audience");
  Homomorphism h;
  h.Set(fx.u1, audience);
  h.Set(fx.u3, audience);
  auto cand_ir = ir::Adopt(*fx.p0->Apply(h), pool);

  const kernels::BatchEvalFacade* base_facade = base_ir->AsBatchEval();
  const kernels::BatchEvalFacade* cand_facade = cand_ir->AsBatchEval();
  ASSERT_NE(base_facade, nullptr);
  ASSERT_NE(cand_facade, nullptr);
  kernels::BatchProgram base_program = base_facade->LowerBatch();
  kernels::BatchProgram cand_program = cand_facade->LowerBatch();
  // Merging users leaves the movie group keys untouched, so both
  // programs share one coordinate layout — the precondition the oracles
  // check before engaging the batch path.
  ASSERT_EQ(cand_program.kind, base_program.kind);
  ASSERT_EQ(cand_program.num_groups, base_program.num_groups);
  ASSERT_TRUE(std::equal(cand_program.groups,
                         cand_program.groups + cand_program.num_groups,
                         base_program.groups));

  CancelSingleAnnotation cls;
  const std::vector<Valuation> valuations = cls.Generate(*fx.p0, fx.ctx);
  const size_t n = fx.registry.size();
  const size_t width = std::min(kernels::kMaxLanes, valuations.size());

  const AbsoluteDifferenceValFunc l1;
  const EuclideanValFunc l2;
  const DisagreementValFunc dis;
  struct Case {
    const ValFunc* vf;
    const char* name;
  };
  const Case cases[] = {{&l1, "L1"}, {&l2, "L2"}, {&dis, "Disagreement"}};

  for (common::SimdTier tier : kAllTiers) {
    SCOPED_TRACE(TierTrace(tier));
    TierCap cap(tier);
    kernels::ValuationBlock block;
    block.Reset(n, width);
    for (size_t l = 0; l < width; ++l) {
      block.FillLane(l, MaterializedValuation(valuations[l], n));
    }
    kernels::BlockEval base_evals, cand_evals;
    kernels::EvaluateBlock(base_program, block, &base_evals);
    kernels::EvaluateBlock(cand_program, block, &cand_evals);

    for (const Case& c : cases) {
      SCOPED_TRACE(c.name);
      double err[kernels::kMaxLanes] = {0};
      kernels::ValFuncBlockErrors(c.vf->batch_kind(),
                                  c.vf->batch_mismatch_penalty(), base_evals,
                                  cand_evals, err);
      for (size_t l = 0; l < width; ++l) {
        const double expected = c.vf->Compute(base_evals.Extract(l),
                                              cand_evals.Extract(l));
        EXPECT_EQ(err[l], expected) << "lane " << l;  // bit-exact
      }
    }
  }
}

TEST(ValFuncBlockTest, DdpErrorsMatchScalarComputeBitExact) {
  DdpConfig config;
  config.num_executions = 5;
  Dataset ds = DdpGenerator::Generate(config);
  auto pool = std::make_shared<ir::TermPool>();
  auto ir_expr = ir::Adopt(*ds.provenance, pool);
  const kernels::BatchEvalFacade* facade = ir_expr->AsBatchEval();
  ASSERT_NE(facade, nullptr);
  kernels::BatchProgram program = facade->LowerBatch();
  ASSERT_EQ(ds.val_func->batch_kind(), kernels::ValFuncBatchKind::kDdp);

  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  const size_t n = ds.registry->size();
  const size_t width = std::min(kernels::kMaxLanes, valuations.size());
  ASSERT_GT(width, 0u);

  for (common::SimdTier tier : kAllTiers) {
    SCOPED_TRACE(TierTrace(tier));
    TierCap cap(tier);
    kernels::ValuationBlock block;
    block.Reset(n, width);
    for (size_t l = 0; l < width; ++l) {
      block.FillLane(l, MaterializedValuation(valuations[l], n));
    }
    // Base lanes evaluate under the block; candidate lanes under the
    // all-true valuation, so feasibility genuinely diverges across lanes
    // and the mismatch-penalty arm is exercised.
    kernels::ValuationBlock all_true;
    all_true.Reset(n, width);
    kernels::BlockEval base_evals, cand_evals;
    kernels::EvaluateBlock(program, block, &base_evals);
    kernels::EvaluateBlock(program, all_true, &cand_evals);

    double err[kernels::kMaxLanes] = {0};
    kernels::ValFuncBlockErrors(kernels::ValFuncBatchKind::kDdp,
                                ds.val_func->batch_mismatch_penalty(),
                                base_evals, cand_evals, err);
    for (size_t l = 0; l < width; ++l) {
      const double expected = ds.val_func->Compute(base_evals.Extract(l),
                                                   cand_evals.Extract(l));
      EXPECT_EQ(err[l], expected) << "lane " << l;
    }
  }
}

// ---------------------------------------------------------------------------
// Tier dispatch

TEST(TierDispatchTest, CapClampsActiveTier) {
  {
    TierCap cap(common::SimdTier::kScalar);
    EXPECT_EQ(common::ActiveSimdTier(), common::SimdTier::kScalar);
  }
  {
    TierCap cap(common::SimdTier::kSse42);
    EXPECT_LE(common::ActiveSimdTier(), common::SimdTier::kSse42);
  }
  // Lifting the cap never exceeds the hardware.
  EXPECT_LE(common::ActiveSimdTier(), common::DetectedSimdTier());
}

TEST(TierDispatchTest, GaugeFollowsTheDispatchedTier) {
  // The gauge is written only when the dispatched tier changes; a cap
  // change must still show after one evaluation, and so must lifting it.
  MovieFixture fx;
  const kernels::BatchProgram program = fx.p0->LowerBatch();
  kernels::ValuationBlock block;
  block.Reset(fx.registry.size(), 1);
  kernels::BlockEval evals;
  auto gauge = [] {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Default().Snapshot();
    const obs::GaugeSample* g = snapshot.FindGauge("prox_simd_tier");
    return g == nullptr ? -1.0 : g->value;
  };
  {
    TierCap cap(common::SimdTier::kScalar);
    kernels::EvaluateBlock(program, block, &evals);
    EXPECT_EQ(gauge(), 0.0);
  }
  kernels::EvaluateBlock(program, block, &evals);
  EXPECT_EQ(gauge(), static_cast<double>(common::ActiveSimdTier()));
}

TEST(TierDispatchTest, TierNamesAreStable) {
  EXPECT_STREQ(common::SimdTierName(common::SimdTier::kScalar), "scalar");
  EXPECT_STREQ(common::SimdTierName(common::SimdTier::kSse42), "sse4.2");
  EXPECT_STREQ(common::SimdTierName(common::SimdTier::kAvx2), "avx2");
}

TEST(TierDispatchTest, EnvKillSwitchForcesScalar) {
  // Only asserts under the PROX_SIMD=0 CTest variant
  // (prox_kernels_golden_simd_off registers the golden suite with the
  // env set; this binary just documents the contract otherwise).
  const char* env = std::getenv("PROX_SIMD");
  if (env == nullptr) {
    GTEST_SKIP() << "PROX_SIMD not set";
  }
  const std::string value(env);
  if (value == "0" || value == "off" || value == "scalar") {
    EXPECT_EQ(common::ActiveSimdTier(), common::SimdTier::kScalar);
  }
}

}  // namespace
}  // namespace prox
