#include "ir/ddp_expr.h"

#include <algorithm>
#include <map>

#include "exec/thread_pool.h"
#include "ir/metrics.h"
#include "provenance/monomial.h"

namespace prox {
namespace ir {

void IrDdpExpression::BeginExecution() {
  if (exec_off_.empty()) exec_off_.push_back(0);
  exec_off_.push_back(static_cast<uint32_t>(rows_.size()));
}

void IrDdpExpression::AddUserTransition(AnnotationId cost_var) {
  TrRow r;
  r.user = true;
  r.cost_var = cost_var;
  rows_.push_back(r);
  exec_off_.back() = static_cast<uint32_t>(rows_.size());
}

void IrDdpExpression::AddDbTransition(MonomialId db, bool nonzero) {
  TrRow r;
  r.user = false;
  r.db = db;
  r.nonzero = nonzero;
  rows_.push_back(r);
  exec_off_.back() = static_cast<uint32_t>(rows_.size());
}

void IrDdpExpression::AddDbTransition(const Monomial& db, bool nonzero) {
  const auto& f = db.factors();
  AddDbTransition(pool_->InternMonomial(f.data(), f.size()), nonzero);
}

void IrDdpExpression::SetCost(AnnotationId cost_var, double cost) {
  auto it = std::lower_bound(
      costs_.begin(), costs_.end(), cost_var,
      [](const auto& p, AnnotationId v) { return p.first < v; });
  if (it != costs_.end() && it->first == cost_var) {
    it->second = cost;
  } else {
    costs_.insert(it, {cost_var, cost});
  }
}

double IrDdpExpression::CostOf(AnnotationId cost_var) const {
  auto it = std::lower_bound(
      costs_.begin(), costs_.end(), cost_var,
      [](const auto& p, AnnotationId v) { return p.first < v; });
  return (it != costs_.end() && it->first == cost_var) ? it->second : 0.0;
}

int IrDdpExpression::CompareRows(const PoolView& pv, const TrRow& a,
                                 const TrRow& b) const {
  // User rows first, then cost variable; db monomial content and then
  // `= 0` before `≠ 0` only discriminate between two db rows.
  if (a.user != b.user) return a.user ? -1 : 1;
  if (a.cost_var != b.cost_var) return a.cost_var < b.cost_var ? -1 : 1;
  if (!a.user) {
    const int mc = pv.CompareMonomials(a.db, b.db);
    if (mc != 0) return mc;
    if (a.nonzero != b.nonzero) return a.nonzero ? 1 : -1;  // false < true
  }
  return 0;
}

void IrDdpExpression::Canonicalize() {
  const PoolView pv = view();
  const size_t num_exec = num_executions();

  // Materialize executions and sort transitions within each. The goldens
  // pin both introsort permutations below, so the comparator's decision
  // sequence must not change.
  std::vector<std::vector<TrRow>> execs(num_exec);
  for (size_t e = 0; e < num_exec; ++e) {
    execs[e].assign(rows_.begin() + exec_off_[e],
                    rows_.begin() + exec_off_[e + 1]);
    std::sort(execs[e].begin(), execs[e].end(),
              [&](const TrRow& a, const TrRow& b) {
                return CompareRows(pv, a, b) < 0;
              });
  }
  // Sort executions lexicographically over their transitions, then dedupe
  // content-equal neighbours.
  auto exec_cmp = [&](const std::vector<TrRow>& a,
                      const std::vector<TrRow>& b) {
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      const int c = CompareRows(pv, a[i], b[i]);
      if (c != 0) return c;
    }
    if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
    return 0;
  };
  std::sort(execs.begin(), execs.end(),
            [&](const auto& a, const auto& b) { return exec_cmp(a, b) < 0; });
  execs.erase(std::unique(execs.begin(), execs.end(),
                          [&](const auto& a, const auto& b) {
                            return exec_cmp(a, b) == 0;
                          }),
              execs.end());

  rows_.clear();
  exec_off_.assign(1, 0);
  size_ = 0;
  for (auto& exec : execs) {
    for (const TrRow& r : exec) {
      rows_.push_back(r);
      size_ += r.user ? 1 : static_cast<int64_t>(pv.mono_len(r.db));
    }
    exec_off_.push_back(static_cast<uint32_t>(rows_.size()));
  }
}

void IrDdpExpression::TruncateExecutions(size_t n) {
  if (n >= num_executions()) return;
  const PoolView pv = view();
  exec_off_.resize(n + 1);
  rows_.resize(exec_off_.back());
  size_ = 0;
  for (const TrRow& r : rows_) {
    size_ += r.user ? 1 : static_cast<int64_t>(pv.mono_len(r.db));
  }
}

int64_t IrDdpExpression::Size() const {
  CountSizeCacheHit();
  return size_;
}

void IrDdpExpression::CollectAnnotations(
    std::vector<AnnotationId>* out) const {
  const PoolView pv = view();
  for (const TrRow& r : rows_) {
    if (r.user) {
      out->push_back(r.cost_var);
    } else {
      const AnnotationId* f = pv.mono_data(r.db);
      out->insert(out->end(), f, f + pv.mono_len(r.db));
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

std::unique_ptr<ProvenanceExpression> IrDdpExpression::Apply(
    const Homomorphism& h) const {
  const bool worker = exec::InParallelWorker();
  auto out = std::make_unique<IrDdpExpression>(pool_);
  std::shared_ptr<TermPool> fresh;
  TermPool* target = pool_.get();
  if (worker) {
    fresh = std::make_shared<TermPool>();
    target = fresh.get();
  }
  const PoolView pv = view();

  std::vector<MonomialId> mono_memo(pool_->num_monomials(), kInvalidMonomial);
  std::vector<MonomialId> mono_memo_ov(
      overlay_ ? overlay_->num_monomials() : 0, kInvalidMonomial);
  std::vector<AnnotationId> scratch;
  uint64_t shared_terms = 0;
  uint64_t rewritten_terms = 0;

  auto map_mono = [&](MonomialId src) -> MonomialId {
    MonomialId& slot = (src & kOverlayBit)
                           ? mono_memo_ov[src & ~kOverlayBit]
                           : mono_memo[src];
    if (slot != kInvalidMonomial) return slot;
    const AnnotationId* data = pv.mono_data(src);
    const uint32_t len = pv.mono_len(src);
    scratch.assign(data, data + len);
    bool changed = false;
    for (uint32_t i = 0; i < len; ++i) {
      const AnnotationId m = h.Map(scratch[i]);
      if (m != scratch[i]) {
        scratch[i] = m;
        changed = true;
      }
    }
    MonomialId dst;
    if (!changed && !(src & kOverlayBit)) {
      dst = src;
    } else {
      if (changed) std::sort(scratch.begin(), scratch.end());
      dst = worker ? (target->AppendMonomial(scratch.data(), scratch.size()) |
                      kOverlayBit)
                   : target->InternMonomial(scratch.data(), scratch.size());
    }
    slot = dst;
    return dst;
  };

  const size_t num_exec = num_executions();
  out->rows_.reserve(rows_.size());
  out->exec_off_.reserve(exec_off_.size());
  for (size_t e = 0; e < num_exec; ++e) {
    out->BeginExecution();
    for (uint32_t i = exec_off_[e]; i < exec_off_[e + 1]; ++i) {
      const TrRow& r = rows_[i];
      if (r.user) {
        out->AddUserTransition(h.Map(r.cost_var));
        ++shared_terms;
      } else {
        const MonomialId m = map_mono(r.db);
        if (m == r.db) {
          ++shared_terms;
        } else {
          ++rewritten_terms;
        }
        out->AddDbTransition(m, r.nonzero);
      }
    }
  }
  // Merged cost variables take the max member cost (MAX φ combiner) —
  // an insert-or-max walk in sorted-by-source-var order.
  std::map<AnnotationId, double> merged;
  for (const auto& [var, cost] : costs_) {
    const AnnotationId image = h.Map(var);
    auto it = merged.find(image);
    if (it == merged.end()) {
      merged.emplace(image, cost);
    } else {
      it->second = std::max(it->second, cost);
    }
  }
  out->costs_.assign(merged.begin(), merged.end());

  if (fresh && fresh->num_monomials() > 0) out->overlay_ = std::move(fresh);
  CountApplyTermShared(shared_terms);
  CountApplyTermRewritten(rewritten_terms);
  out->Canonicalize();
  return out;
}

EvalResult IrDdpExpression::Evaluate(const MaterializedValuation& v) const {
  const PoolView pv = view();
  bool any_feasible = false;
  double best_cost = 0.0;
  const size_t num_exec = num_executions();
  for (size_t e = 0; e < num_exec; ++e) {
    bool feasible = true;
    double cost = 0.0;
    for (uint32_t i = exec_off_[e]; i < exec_off_[e + 1]; ++i) {
      const TrRow& r = rows_[i];
      if (r.user) {
        // A cancelled cost variable contributes 0 effort (Example 5.2.2).
        if (v.truth(r.cost_var)) cost += CostOf(r.cost_var);
      } else {
        const AnnotationId* f = pv.mono_data(r.db);
        const uint32_t len = pv.mono_len(r.db);
        bool product_nonzero = true;
        for (uint32_t k = 0; k < len; ++k) {
          if (!v.truth(f[k])) {
            product_nonzero = false;
            break;
          }
        }
        if (product_nonzero != r.nonzero) {
          feasible = false;
          break;
        }
      }
    }
    if (!feasible) continue;
    if (!any_feasible || cost < best_cost) best_cost = cost;
    any_feasible = true;
  }
  return EvalResult::CostBool(any_feasible ? best_cost : 0.0, any_feasible);
}

std::unique_ptr<ProvenanceExpression> IrDdpExpression::Clone() const {
  return std::make_unique<IrDdpExpression>(*this);
}

kernels::BatchProgram IrDdpExpression::LowerBatch() const {
  const PoolView pv = view();
  kernels::BatchProgram p;
  p.shape = kernels::BatchProgram::Shape::kDdp;
  p.kind = EvalResult::Kind::kCostBool;
  p.ddp_exec_off = exec_off_;
  p.ddp_rows.reserve(rows_.size());
  for (const TrRow& r : rows_) {
    kernels::DdpBatchRow out;
    out.user = r.user;
    out.nonzero = r.nonzero;
    if (r.user) {
      out.cost_var = r.cost_var;
      out.cost = CostOf(r.cost_var);  // resolved once instead of per lane
    } else {
      out.db = kernels::MonoSpan{pv.mono_data(r.db), pv.mono_len(r.db)};
    }
    p.ddp_rows.push_back(out);
  }
  return p;
}

std::string IrDdpExpression::ToString(const AnnotationRegistry& registry) const {
  const size_t num_exec = num_executions();
  if (num_exec == 0) return "0";
  const PoolView pv = view();
  std::string out;
  for (size_t e = 0; e < num_exec; ++e) {
    if (e > 0) out += " + ";
    for (uint32_t i = exec_off_[e]; i < exec_off_[e + 1]; ++i) {
      if (i > exec_off_[e]) out += "·";
      const TrRow& r = rows_[i];
      if (r.user) {
        out += "⟨";
        out += registry.name(r.cost_var);
        out += ",1⟩";
      } else {
        out += "⟨0,[";
        out += MonomialFromSpan(pv.mono_data(r.db), pv.mono_len(r.db))
                   .ToString(registry);
        out += "]";
        out += r.nonzero ? "≠0" : "=0";
        out += "⟩";
      }
    }
  }
  return out;
}

DdpTransitionView IrDdpExpression::transition(size_t exec, size_t t) const {
  const TrRow& r = rows_[exec_off_[exec] + t];
  DdpTransitionView view;
  view.user = r.user;
  view.cost_var = r.cost_var;
  if (!r.user) {
    const PoolView pv = this->view();
    view.db = pv.mono_data(r.db);
    view.db_len = pv.mono_len(r.db);
  }
  view.nonzero = r.nonzero;
  return view;
}

}  // namespace ir
}  // namespace prox
