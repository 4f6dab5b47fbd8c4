#include "store/codec.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "ir/agg_expr.h"
#include "ir/ddp_expr.h"
#include "ir/term_pool.h"
#include "service/fingerprint.h"
#include "store/store_metrics.h"
#include "store/writer.h"

namespace prox {
namespace store {

namespace {

// ---------------------------------------------------------------------------
// Little-endian payload encoding. Sections are opaque byte strings with
// their own CRC; these helpers keep the per-section encodings compact and
// the decoding side bounds-checked (a lying length can never read past
// the validated section span).
// ---------------------------------------------------------------------------

class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutF64(double v) { PutRaw(&v, sizeof(v)); }
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }
  void PutRaw(const void* data, size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }

  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, uint64_t size, SectionTag tag)
      : p_(data), end_(data + size), tag_(tag) {}

  bool GetU8(uint8_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU32(uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetF64(double* v) { return GetRaw(v, sizeof(*v)); }
  bool GetString(std::string* s) {
    uint32_t len = 0;
    if (!GetU32(&len) || len > Remaining()) return Fail();
    s->assign(reinterpret_cast<const char*>(p_), len);
    p_ += len;
    return true;
  }
  bool GetRaw(void* out, size_t len) {
    if (len > Remaining()) return Fail();
    std::memcpy(out, p_, len);
    p_ += len;
    return true;
  }
  /// A raw array view inside the section (no copy); fails on overflow.
  bool GetSpan(const uint8_t** out, uint64_t elem_size, uint64_t count) {
    if (elem_size != 0 && count > Remaining() / elem_size) return Fail();
    *out = p_;
    p_ += elem_size * count;
    return true;
  }

  uint64_t Remaining() const { return static_cast<uint64_t>(end_ - p_); }
  bool failed() const { return failed_; }
  bool AtEnd() const { return p_ == end_ && !failed_; }

  Status MalformedStatus(const std::string& what) const {
    return Status::Error(ErrorCode::kMalformed, tag_, what);
  }

 private:
  bool Fail() {
    failed_ = true;
    return false;
  }

  const uint8_t* p_;
  const uint8_t* end_;
  SectionTag tag_;
  bool failed_ = false;
};

Status Missing(SectionTag tag) {
  return Status::Error(ErrorCode::kMissingSection, tag,
                       "required section absent");
}

// ---------------------------------------------------------------------------
// Save-side encoders, one per section.
// ---------------------------------------------------------------------------

Status EncodeRegistry(const AnnotationRegistry& registry, std::string* out) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(registry.num_domains()));
  for (size_t d = 0; d < registry.num_domains(); ++d) {
    w.PutString(registry.domain_name(static_cast<DomainId>(d)));
  }
  // Summary annotations (minted by past summarize runs on this process)
  // are not part of the dataset: a snapshot boots clean, like a
  // generator, so summary names never collide into "#k" suffixes.
  uint64_t originals = 0;
  for (size_t a = 0; a < registry.size(); ++a) {
    if (!registry.is_summary(static_cast<AnnotationId>(a))) ++originals;
  }
  // Originals must form the id prefix — loaded ids must equal saved ids
  // because every persisted structure references them.
  for (size_t a = 0; a < originals; ++a) {
    if (registry.is_summary(static_cast<AnnotationId>(a))) {
      return Status::Error(
          ErrorCode::kUnsupported, SectionTag::kRegistry,
          "summary annotations interleave the original id range");
    }
  }
  w.PutU64(originals);
  for (size_t a = 0; a < originals; ++a) {
    const AnnotationId ann = static_cast<AnnotationId>(a);
    w.PutString(registry.name(ann));
    w.PutU32(registry.domain(ann));
    w.PutU32(registry.entity_row(ann));
  }
  *out = w.Take();
  return Status::Ok();
}

void EncodeTables(const SemanticContext& ctx, std::string* out) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(ctx.tables.size()));
  for (const auto& [domain, table] : ctx.tables) {
    w.PutU32(domain);
    w.PutString(table.name());
    w.PutU32(static_cast<uint32_t>(table.num_attributes()));
    for (size_t a = 0; a < table.num_attributes(); ++a) {
      w.PutString(table.attribute_name(static_cast<AttrId>(a)));
    }
    // Dictionary encoding: the interned value strings once, then rows as
    // plain u32 ids — decode re-interns the (small) dictionary and copies
    // the cells without touching a hash map.
    w.PutU32(static_cast<uint32_t>(table.num_values()));
    for (size_t v = 0; v < table.num_values(); ++v) {
      w.PutString(table.value_name(static_cast<ValueId>(v)));
    }
    w.PutU64(table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      for (size_t a = 0; a < table.num_attributes(); ++a) {
        w.PutU32(table.ValueOf(static_cast<uint32_t>(r),
                               static_cast<AttrId>(a)));
      }
    }
  }
  *out = w.Take();
}

Status EncodeTaxonomy(const SemanticContext& ctx, std::string* out) {
  ByteWriter w;
  w.PutU8(ctx.taxonomy.has_value() ? 1 : 0);
  if (ctx.taxonomy.has_value()) {
    const Taxonomy& tax = *ctx.taxonomy;
    w.PutU32(static_cast<uint32_t>(tax.size()));
    for (size_t c = 0; c < tax.size(); ++c) {
      const ConceptId id = static_cast<ConceptId>(c);
      const ConceptId parent = tax.parent(id);
      if (parent != kNoConcept && parent >= id) {
        return Status::Error(ErrorCode::kUnsupported, SectionTag::kTaxonomy,
                             "taxonomy parents are not topologically ordered");
      }
      w.PutString(tax.name(id));
      w.PutU32(parent);
    }
  }
  // concept_of in sorted order so identical datasets produce identical
  // snapshot bytes.
  std::vector<std::pair<AnnotationId, ConceptId>> concept_of(
      ctx.concept_of.begin(), ctx.concept_of.end());
  std::sort(concept_of.begin(), concept_of.end());
  w.PutU64(concept_of.size());
  for (const auto& [ann, concept_id] : concept_of) {
    w.PutU32(ann);
    w.PutU32(concept_id);
  }
  *out = w.Take();
  return Status::Ok();
}

void EncodeConstraints(const ConstraintSet& constraints, std::string* out) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(constraints.rules().size()));
  for (const auto& [domain, rule] : constraints.rules()) {
    const RuleSpec spec = rule->Spec();
    w.PutU32(domain);
    w.PutU32(static_cast<uint32_t>(spec.kind));
    w.PutU32(static_cast<uint32_t>(spec.attrs.size()));
    for (AttrId attr : spec.attrs) w.PutU32(attr);
    w.PutU32(spec.attr);
    w.PutF64(spec.tolerance);
    w.PutU8(spec.allow_root ? 1 : 0);
    w.PutString(spec.name_prefix);
  }
  *out = w.Take();
}

// Valuation-class / VAL-FUNC type tags persisted in the kConfig section.
enum : uint32_t {
  kVcNone = 0,
  kVcCancelSingleAnnotation = 1,
  kVcCancelSingleAttribute = 2,
  kVcExhaustive = 3,
};
enum : uint32_t {
  kVfNone = 0,
  kVfEuclidean = 1,
  kVfAbsoluteDifference = 2,
  kVfDisagreement = 3,
  kVfDdpDifference = 4,
};

Status EncodeConfig(const Dataset& dataset, std::string* out) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(dataset.agg));
  w.PutU32(static_cast<uint32_t>(dataset.phi.fallback));
  w.PutU32(static_cast<uint32_t>(dataset.phi.per_domain.size()));
  for (const auto& [domain, kind] : dataset.phi.per_domain) {
    w.PutU32(domain);
    w.PutU32(static_cast<uint32_t>(kind));
  }
  w.PutU32(static_cast<uint32_t>(dataset.domains.size()));
  for (const auto& [name, domain] : dataset.domains) {
    w.PutString(name);
    w.PutU32(domain);
  }

  const ValuationClass* vc = dataset.valuation_class.get();
  if (vc == nullptr) {
    w.PutU32(kVcNone);
  } else if (const auto* csann =
                 dynamic_cast<const CancelSingleAnnotation*>(vc)) {
    w.PutU32(kVcCancelSingleAnnotation);
    w.PutU32(static_cast<uint32_t>(csann->domains().size()));
    for (DomainId d : csann->domains()) w.PutU32(d);
    w.PutU8(csann->taxonomy_consistent() ? 1 : 0);
  } else if (const auto* csattr =
                 dynamic_cast<const CancelSingleAttribute*>(vc)) {
    w.PutU32(kVcCancelSingleAttribute);
    w.PutU32(static_cast<uint32_t>(csattr->domains().size()));
    for (DomainId d : csattr->domains()) w.PutU32(d);
    w.PutU32(static_cast<uint32_t>(csattr->weighting()));
  } else if (const auto* exhaustive =
                 dynamic_cast<const ExhaustiveValuations*>(vc)) {
    w.PutU32(kVcExhaustive);
    w.PutU64(exhaustive->max_annotations());
  } else {
    return Status::Error(ErrorCode::kUnsupported, SectionTag::kConfig,
                         "valuation class '" + vc->name() +
                             "' has no snapshot encoding");
  }

  const ValFunc* vf = dataset.val_func.get();
  if (vf == nullptr) {
    w.PutU32(kVfNone);
  } else if (dynamic_cast<const EuclideanValFunc*>(vf) != nullptr) {
    w.PutU32(kVfEuclidean);
  } else if (dynamic_cast<const AbsoluteDifferenceValFunc*>(vf) != nullptr) {
    w.PutU32(kVfAbsoluteDifference);
  } else if (dynamic_cast<const DisagreementValFunc*>(vf) != nullptr) {
    w.PutU32(kVfDisagreement);
  } else if (const auto* ddp = dynamic_cast<const DdpDifferenceValFunc*>(vf)) {
    w.PutU32(kVfDdpDifference);
    w.PutF64(ddp->max_error());
  } else {
    return Status::Error(ErrorCode::kUnsupported, SectionTag::kConfig,
                         "VAL-FUNC '" + vf->name() +
                             "' has no snapshot encoding");
  }
  *out = w.Take();
  return Status::Ok();
}

void EncodeFeatures(const Dataset& dataset, std::string* out) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(dataset.features.size()));
  for (const auto& [domain, by_ann] : dataset.features) {
    w.PutU32(domain);
    w.PutU64(by_ann.size());
    for (const auto& [ann, ratings] : by_ann) {
      w.PutU32(ann);
      w.PutU32(static_cast<uint32_t>(ratings.size()));
      for (const auto& [target, value] : ratings) {
        w.PutU32(target);
        w.PutF64(value);
      }
    }
  }
  *out = w.Take();
}

// Expression kinds persisted in the kExpression section.
enum : uint32_t { kExprNone = 0, kExprAggregate = 1, kExprDdp = 2 };

/// Re-interns the provenance into `pool` (fresh, so its owned tier is the
/// whole content) and encodes the SoA columns. Rows move through
/// IrAggregateExpression::InternRow, as in ir::Adopt — the loaded
/// expression is exactly what Adopt would have produced.
Status EncodeExpression(const Dataset& dataset, ir::TermPool* pool,
                        std::string* guards_out, std::string* expr_out) {
  ByteWriter expr;
  if (dataset.provenance == nullptr) {
    expr.PutU32(kExprNone);
  } else if (const ir::IrAggregateExpression* agg =
                 dataset.provenance->AsAggregate()) {
    expr.PutU32(kExprAggregate);
    expr.PutU32(static_cast<uint32_t>(agg->agg()));
    const uint64_t n = agg->num_terms();
    expr.PutU64(n);
    std::vector<ir::MonomialId> mono(n);
    std::vector<ir::GuardId> guard(n);
    std::vector<AnnotationId> group(n);
    std::vector<AggValue> value(n);
    for (uint64_t i = 0; i < n; ++i) {
      const ir::IrAggregateExpression::InternedRow r = agg->InternRow(i, pool);
      mono[i] = r.mono;
      guard[i] = r.guard;
      group[i] = r.group;
      value[i] = r.value;
    }
    expr.PutRaw(mono.data(), n * sizeof(ir::MonomialId));
    expr.PutRaw(guard.data(), n * sizeof(ir::GuardId));
    expr.PutRaw(group.data(), n * sizeof(AnnotationId));
    for (uint64_t i = 0; i < n; ++i) {
      expr.PutF64(value[i].value);
      expr.PutF64(value[i].count);
    }
  } else if (const ir::IrDdpExpression* ddp = dataset.provenance->AsDdp()) {
    expr.PutU32(kExprDdp);
    const uint64_t num_exec = ddp->num_executions();
    expr.PutU64(num_exec);
    for (uint64_t ex = 0; ex < num_exec; ++ex) {
      expr.PutU32(static_cast<uint32_t>(ddp->num_transitions(ex)));
    }
    for (uint64_t ex = 0; ex < num_exec; ++ex) {
      const size_t num_tr = ddp->num_transitions(ex);
      for (size_t t = 0; t < num_tr; ++t) {
        const ir::DdpTransitionView tr = ddp->transition(ex, t);
        expr.PutU8(tr.user ? 1 : 0);
        if (tr.user) {
          expr.PutU32(tr.cost_var);
        } else {
          expr.PutU32(pool->InternMonomial(tr.db, tr.db_len));
          expr.PutU8(tr.nonzero ? 1 : 0);
        }
      }
    }
    const auto& costs = ddp->costs();
    expr.PutU64(costs.size());
    for (const auto& [var, cost] : costs) {
      expr.PutU32(var);
      expr.PutF64(cost);
    }
  } else {
    return Status::Error(ErrorCode::kUnsupported, SectionTag::kExpression,
                         "provenance exposes neither aggregate nor DDP "
                         "structure");
  }
  *expr_out = expr.Take();

  // Guards are re-encoded portably (GuardRow has padding bytes, which
  // must never leak into — or be trusted from — a file).
  ByteWriter guards;
  guards.PutU32(static_cast<uint32_t>(pool->num_guards()));
  for (const ir::GuardRow& g : pool->guard_rows()) {
    guards.PutU32(g.mono);
    guards.PutF64(g.scalar);
    guards.PutU32(static_cast<uint32_t>(g.op));
    guards.PutF64(g.threshold);
  }
  *guards_out = guards.Take();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Load-side decoders.
// ---------------------------------------------------------------------------

Status DecodeRegistry(const Snapshot::Section& section, Dataset* out) {
  ByteReader r(section.data, section.size, SectionTag::kRegistry);
  uint32_t num_domains = 0;
  if (!r.GetU32(&num_domains)) return r.MalformedStatus("domain count");
  out->registry = std::make_unique<AnnotationRegistry>();
  for (uint32_t d = 0; d < num_domains; ++d) {
    std::string name;
    if (!r.GetString(&name)) return r.MalformedStatus("domain name");
    if (out->registry->AddDomain(name) != static_cast<DomainId>(d)) {
      return r.MalformedStatus("duplicate domain name '" + name + "'");
    }
  }
  uint64_t num_entries = 0;
  if (!r.GetU64(&num_entries)) return r.MalformedStatus("entry count");
  // Cap the reservation by what the payload could possibly hold so a
  // malformed count cannot force a huge allocation before the per-entry
  // reads fail.
  out->registry->Reserve(num_domains,
                         std::min<uint64_t>(num_entries, section.size / 9));
  for (uint64_t a = 0; a < num_entries; ++a) {
    std::string name;
    uint32_t domain = 0;
    uint32_t entity_row = 0;
    if (!r.GetString(&name) || !r.GetU32(&domain) || !r.GetU32(&entity_row)) {
      return r.MalformedStatus("annotation entry " + std::to_string(a));
    }
    if (domain >= num_domains) {
      return r.MalformedStatus("annotation '" + name +
                               "' references unknown domain");
    }
    auto id = out->registry->Add(static_cast<DomainId>(domain), name,
                                 entity_row);
    if (!id.ok() || id.value() != static_cast<AnnotationId>(a)) {
      return r.MalformedStatus("annotation '" + name +
                               "' does not round-trip to a dense id");
    }
  }
  out->ctx.registry = out->registry.get();
  return Status::Ok();
}

Status DecodeTables(const Snapshot::Section& section, Dataset* out) {
  ByteReader r(section.data, section.size, SectionTag::kTables);
  uint32_t num_tables = 0;
  if (!r.GetU32(&num_tables)) return r.MalformedStatus("table count");
  for (uint32_t i = 0; i < num_tables; ++i) {
    uint32_t domain = 0;
    std::string name;
    uint32_t num_attrs = 0;
    if (!r.GetU32(&domain) || !r.GetString(&name) || !r.GetU32(&num_attrs)) {
      return r.MalformedStatus("table header");
    }
    EntityTable table(name);
    for (uint32_t a = 0; a < num_attrs; ++a) {
      std::string attr;
      if (!r.GetString(&attr)) return r.MalformedStatus("attribute name");
      table.AddAttribute(attr);
    }
    uint32_t num_values = 0;
    if (!r.GetU32(&num_values)) return r.MalformedStatus("value count");
    for (uint32_t v = 0; v < num_values; ++v) {
      std::string value;
      if (!r.GetString(&value)) return r.MalformedStatus("value name");
      if (table.InternValue(value) != static_cast<ValueId>(v)) {
        return r.MalformedStatus("duplicate value '" + value +
                                 "' in dictionary");
      }
    }
    uint64_t num_rows = 0;
    if (!r.GetU64(&num_rows)) return r.MalformedStatus("row count");
    std::vector<ValueId> row(num_attrs);
    for (uint64_t row_idx = 0; row_idx < num_rows; ++row_idx) {
      for (uint32_t a = 0; a < num_attrs; ++a) {
        if (!r.GetU32(&row[a])) return r.MalformedStatus("row value");
      }
      if (!table.AddRowIds(row).ok()) return r.MalformedStatus("row rejected");
    }
    out->ctx.tables.emplace(static_cast<DomainId>(domain), std::move(table));
  }
  return Status::Ok();
}

Status DecodeTaxonomy(const Snapshot::Section& section, Dataset* out) {
  ByteReader r(section.data, section.size, SectionTag::kTaxonomy);
  uint8_t has_taxonomy = 0;
  if (!r.GetU8(&has_taxonomy)) return r.MalformedStatus("presence flag");
  if (has_taxonomy != 0) {
    uint32_t size = 0;
    if (!r.GetU32(&size)) return r.MalformedStatus("concept count");
    Taxonomy tax;
    for (uint32_t c = 0; c < size; ++c) {
      std::string name;
      uint32_t parent = 0;
      if (!r.GetString(&name) || !r.GetU32(&parent)) {
        return r.MalformedStatus("concept " + std::to_string(c));
      }
      if (c == 0) {
        if (parent != kNoConcept) return r.MalformedStatus("root has parent");
        if (tax.AddRoot(name) != 0) return r.MalformedStatus("root id");
      } else {
        if (parent >= c) return r.MalformedStatus("forward parent reference");
        auto id = tax.AddConcept(name, static_cast<ConceptId>(parent));
        if (!id.ok() || id.value() != static_cast<ConceptId>(c)) {
          return r.MalformedStatus("concept '" + name +
                                   "' does not round-trip to a dense id");
        }
      }
    }
    out->ctx.taxonomy = std::move(tax);
  }
  uint64_t num_concept_of = 0;
  if (!r.GetU64(&num_concept_of)) return r.MalformedStatus("concept_of count");
  for (uint64_t i = 0; i < num_concept_of; ++i) {
    uint32_t ann = 0;
    uint32_t concept_id = 0;
    if (!r.GetU32(&ann) || !r.GetU32(&concept_id)) {
      return r.MalformedStatus("concept_of entry");
    }
    if (ann >= out->registry->size() ||
        (out->ctx.taxonomy.has_value() &&
         concept_id >= out->ctx.taxonomy->size())) {
      return r.MalformedStatus("concept_of references out-of-range id");
    }
    out->ctx.concept_of.emplace(static_cast<AnnotationId>(ann),
                                static_cast<ConceptId>(concept_id));
  }
  return Status::Ok();
}

Status DecodeConstraints(const Snapshot::Section& section, Dataset* out) {
  ByteReader r(section.data, section.size, SectionTag::kConstraints);
  uint32_t num_rules = 0;
  if (!r.GetU32(&num_rules)) return r.MalformedStatus("rule count");
  for (uint32_t i = 0; i < num_rules; ++i) {
    uint32_t domain = 0;
    uint32_t kind = 0;
    uint32_t num_attrs = 0;
    if (!r.GetU32(&domain) || !r.GetU32(&kind) || !r.GetU32(&num_attrs)) {
      return r.MalformedStatus("rule header");
    }
    RuleSpec spec;
    spec.kind = static_cast<RuleSpec::Kind>(kind);
    if (kind < 1 || kind > 5) {
      return r.MalformedStatus("unknown rule kind " + std::to_string(kind));
    }
    spec.attrs.resize(num_attrs);
    for (uint32_t a = 0; a < num_attrs; ++a) {
      uint32_t attr = 0;
      if (!r.GetU32(&attr)) return r.MalformedStatus("rule attr");
      spec.attrs[a] = static_cast<AttrId>(attr);
    }
    uint32_t single_attr = 0;
    uint8_t allow_root = 0;
    if (!r.GetU32(&single_attr) || !r.GetF64(&spec.tolerance) ||
        !r.GetU8(&allow_root) || !r.GetString(&spec.name_prefix)) {
      return r.MalformedStatus("rule body");
    }
    spec.attr = static_cast<AttrId>(single_attr);
    spec.allow_root = allow_root != 0;
    out->constraints.SetRule(static_cast<DomainId>(domain),
                             RuleFromSpec(spec));
  }
  return Status::Ok();
}

Status DecodeConfig(const Snapshot::Section& section, Dataset* out) {
  ByteReader r(section.data, section.size, SectionTag::kConfig);
  uint32_t agg = 0;
  uint32_t phi_fallback = 0;
  uint32_t num_phi = 0;
  if (!r.GetU32(&agg) || !r.GetU32(&phi_fallback) || !r.GetU32(&num_phi)) {
    return r.MalformedStatus("agg/phi header");
  }
  out->agg = static_cast<AggKind>(agg);
  out->phi.fallback = static_cast<PhiKind>(phi_fallback);
  for (uint32_t i = 0; i < num_phi; ++i) {
    uint32_t domain = 0;
    uint32_t kind = 0;
    if (!r.GetU32(&domain) || !r.GetU32(&kind)) {
      return r.MalformedStatus("phi entry");
    }
    out->phi.per_domain[static_cast<DomainId>(domain)] =
        static_cast<PhiKind>(kind);
  }
  uint32_t num_domains = 0;
  if (!r.GetU32(&num_domains)) return r.MalformedStatus("domain-map count");
  for (uint32_t i = 0; i < num_domains; ++i) {
    std::string name;
    uint32_t domain = 0;
    if (!r.GetString(&name) || !r.GetU32(&domain)) {
      return r.MalformedStatus("domain-map entry");
    }
    out->domains[name] = static_cast<DomainId>(domain);
  }

  uint32_t vc_kind = 0;
  if (!r.GetU32(&vc_kind)) return r.MalformedStatus("valuation-class tag");
  switch (vc_kind) {
    case kVcNone:
      break;
    case kVcCancelSingleAnnotation: {
      uint32_t n = 0;
      if (!r.GetU32(&n)) return r.MalformedStatus("valuation-class domains");
      std::vector<DomainId> domains(n);
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t d = 0;
        if (!r.GetU32(&d)) return r.MalformedStatus("valuation-class domain");
        domains[i] = static_cast<DomainId>(d);
      }
      uint8_t taxonomy_consistent = 0;
      if (!r.GetU8(&taxonomy_consistent)) {
        return r.MalformedStatus("taxonomy_consistent flag");
      }
      out->valuation_class = std::make_unique<CancelSingleAnnotation>(
          std::move(domains), taxonomy_consistent != 0);
      break;
    }
    case kVcCancelSingleAttribute: {
      uint32_t n = 0;
      if (!r.GetU32(&n)) return r.MalformedStatus("valuation-class domains");
      std::vector<DomainId> domains(n);
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t d = 0;
        if (!r.GetU32(&d)) return r.MalformedStatus("valuation-class domain");
        domains[i] = static_cast<DomainId>(d);
      }
      uint32_t weighting = 0;
      if (!r.GetU32(&weighting)) return r.MalformedStatus("weighting");
      out->valuation_class = std::make_unique<CancelSingleAttribute>(
          std::move(domains),
          static_cast<CancelSingleAttribute::Weighting>(weighting));
      break;
    }
    case kVcExhaustive: {
      uint64_t max_annotations = 0;
      if (!r.GetU64(&max_annotations)) {
        return r.MalformedStatus("max_annotations");
      }
      out->valuation_class =
          std::make_unique<ExhaustiveValuations>(max_annotations);
      break;
    }
    default:
      return r.MalformedStatus("unknown valuation-class tag " +
                               std::to_string(vc_kind));
  }

  uint32_t vf_kind = 0;
  if (!r.GetU32(&vf_kind)) return r.MalformedStatus("VAL-FUNC tag");
  switch (vf_kind) {
    case kVfNone:
      break;
    case kVfEuclidean:
      out->val_func = std::make_unique<EuclideanValFunc>();
      break;
    case kVfAbsoluteDifference:
      out->val_func = std::make_unique<AbsoluteDifferenceValFunc>();
      break;
    case kVfDisagreement:
      out->val_func = std::make_unique<DisagreementValFunc>();
      break;
    case kVfDdpDifference: {
      double max_error = 0.0;
      if (!r.GetF64(&max_error)) return r.MalformedStatus("max_error");
      out->val_func =
          std::make_unique<DdpDifferenceValFunc>(max_error, 1.0);
      break;
    }
    default:
      return r.MalformedStatus("unknown VAL-FUNC tag " +
                               std::to_string(vf_kind));
  }
  return Status::Ok();
}

Status DecodeFeatures(const Snapshot::Section& section, Dataset* out) {
  ByteReader r(section.data, section.size, SectionTag::kFeatures);
  uint32_t num_domains = 0;
  if (!r.GetU32(&num_domains)) return r.MalformedStatus("domain count");
  for (uint32_t d = 0; d < num_domains; ++d) {
    uint32_t domain = 0;
    uint64_t num_anns = 0;
    if (!r.GetU32(&domain) || !r.GetU64(&num_anns)) {
      return r.MalformedStatus("feature domain header");
    }
    auto& by_ann = out->features[static_cast<DomainId>(domain)];
    for (uint64_t a = 0; a < num_anns; ++a) {
      uint32_t ann = 0;
      uint32_t num_ratings = 0;
      if (!r.GetU32(&ann) || !r.GetU32(&num_ratings)) {
        return r.MalformedStatus("feature vector header");
      }
      // Encoded in map order, so end-hinted inserts are O(1) amortized
      // (and still correct if a tampered payload is unsorted).
      auto& ratings =
          by_ann
              .emplace_hint(by_ann.end(), static_cast<AnnotationId>(ann),
                            RatingVector())
              ->second;
      for (uint32_t i = 0; i < num_ratings; ++i) {
        uint32_t target = 0;
        double value = 0.0;
        if (!r.GetU32(&target) || !r.GetF64(&value)) {
          return r.MalformedStatus("feature rating");
        }
        ratings.emplace_hint(ratings.end(), static_cast<AnnotationId>(target),
                             value);
      }
    }
  }
  return Status::Ok();
}

/// Builds the TermPool from the ARNA/REFS/GRDS sections: zero-copy borrow
/// of arena + refs when the snapshot is mmapped and the spans are aligned
/// (64-byte sections make this the common case), validated copy
/// otherwise. Guard rows are always re-encoded.
Status DecodePool(const Snapshot& snapshot, const LoadOptions& options,
                  const std::shared_ptr<Snapshot>& owner,
                  std::shared_ptr<ir::TermPool>* out) {
  const Snapshot::Section* arena = snapshot.Find(SectionTag::kPoolArena);
  const Snapshot::Section* refs = snapshot.Find(SectionTag::kPoolRefs);
  const Snapshot::Section* guards = snapshot.Find(SectionTag::kPoolGuards);
  if (arena == nullptr) return Missing(SectionTag::kPoolArena);
  if (refs == nullptr) return Missing(SectionTag::kPoolRefs);
  if (guards == nullptr) return Missing(SectionTag::kPoolGuards);

  if (arena->size % sizeof(AnnotationId) != 0) {
    return Status::Error(ErrorCode::kMalformed, SectionTag::kPoolArena,
                         "arena length not a multiple of 4");
  }
  if (refs->size % sizeof(ir::MonomialRef) != 0) {
    return Status::Error(ErrorCode::kMalformed, SectionTag::kPoolRefs,
                         "ref table length not a multiple of 8");
  }
  const uint64_t arena_len = arena->size / sizeof(AnnotationId);
  const uint64_t refs_len = refs->size / sizeof(ir::MonomialRef);
  const auto* arena_data =
      reinterpret_cast<const AnnotationId*>(arena->data);
  const auto* refs_data =
      reinterpret_cast<const ir::MonomialRef*>(refs->data);
  for (uint64_t i = 0; i < refs_len; ++i) {
    const uint64_t off = refs_data[i].off;
    const uint64_t len = refs_data[i].len;
    if (off > arena_len || len > arena_len - off) {
      return Status::Error(ErrorCode::kMalformed, SectionTag::kPoolRefs,
                           "monomial ref " + std::to_string(i) +
                               " escapes the arena");
    }
  }

  auto pool = std::make_shared<ir::TermPool>();
  const bool aligned =
      reinterpret_cast<uintptr_t>(arena_data) % alignof(AnnotationId) == 0 &&
      reinterpret_cast<uintptr_t>(refs_data) % alignof(ir::MonomialRef) == 0;
  if (options.allow_mmap_borrow && snapshot.mmapped() && aligned) {
    // The pool pins the whole Snapshot; mmap pages never move, so spans
    // stay valid while the owned tier grows (term_pool.h).
    pool->BorrowBase(arena_data, arena_len, refs_data, refs_len, owner);
    static obs::Counter* mmap_metric = LoadMmap();
    mmap_metric->Increment();
  } else {
    pool->LoadBase(arena_data, arena_len, refs_data, refs_len);
    static obs::Counter* copy_metric = LoadCopy();
    copy_metric->Increment();
  }

  ByteReader r(guards->data, guards->size, SectionTag::kPoolGuards);
  uint32_t num_guards = 0;
  if (!r.GetU32(&num_guards)) return r.MalformedStatus("guard count");
  std::vector<ir::GuardRow> rows(num_guards);
  for (uint32_t i = 0; i < num_guards; ++i) {
    uint32_t op = 0;
    if (!r.GetU32(&rows[i].mono) || !r.GetF64(&rows[i].scalar) ||
        !r.GetU32(&op) || !r.GetF64(&rows[i].threshold)) {
      return r.MalformedStatus("guard row " + std::to_string(i));
    }
    rows[i].op = static_cast<CompareOp>(op);
    if (rows[i].mono >= pool->num_monomials()) {
      return r.MalformedStatus("guard row " + std::to_string(i) +
                               " references unknown monomial");
    }
  }
  pool->LoadGuards(rows.data(), rows.size());
  *out = std::move(pool);
  return Status::Ok();
}

Status DecodeExpression(const Snapshot& snapshot,
                        const std::shared_ptr<ir::TermPool>& pool,
                        Dataset* out) {
  const Snapshot::Section* section = snapshot.Find(SectionTag::kExpression);
  if (section == nullptr) return Missing(SectionTag::kExpression);
  ByteReader r(section->data, section->size, SectionTag::kExpression);
  uint32_t kind = 0;
  if (!r.GetU32(&kind)) return r.MalformedStatus("expression kind");
  const uint64_t num_monomials = pool->num_monomials();
  const uint64_t num_guards = pool->num_guards();
  if (kind == kExprNone) {
    out->provenance = nullptr;
    return Status::Ok();
  }
  if (kind == kExprAggregate) {
    uint32_t agg_kind = 0;
    uint64_t n = 0;
    if (!r.GetU32(&agg_kind) || !r.GetU64(&n)) {
      return r.MalformedStatus("aggregate header");
    }
    const uint8_t* mono_bytes = nullptr;
    const uint8_t* guard_bytes = nullptr;
    const uint8_t* group_bytes = nullptr;
    if (!r.GetSpan(&mono_bytes, sizeof(ir::MonomialId), n) ||
        !r.GetSpan(&guard_bytes, sizeof(ir::GuardId), n) ||
        !r.GetSpan(&group_bytes, sizeof(AnnotationId), n)) {
      return r.MalformedStatus("aggregate columns truncated");
    }
    auto expr = std::make_unique<ir::IrAggregateExpression>(
        static_cast<AggKind>(agg_kind), pool);
    for (uint64_t i = 0; i < n; ++i) {
      ir::MonomialId mono;
      ir::GuardId guard;
      AnnotationId group;
      std::memcpy(&mono, mono_bytes + i * sizeof(mono), sizeof(mono));
      std::memcpy(&guard, guard_bytes + i * sizeof(guard), sizeof(guard));
      std::memcpy(&group, group_bytes + i * sizeof(group), sizeof(group));
      AggValue value;
      if (!r.GetF64(&value.value) || !r.GetF64(&value.count)) {
        return r.MalformedStatus("aggregate value column truncated");
      }
      if (mono >= num_monomials ||
          (guard != ir::kNoGuard && guard >= num_guards) ||
          group >= out->registry->size()) {
        return r.MalformedStatus("aggregate term " + std::to_string(i) +
                                 " references out-of-range ids");
      }
      expr->AddTermIds(mono, guard, group, value);
    }
    // Rows were saved out of a canonical expression, so the verify-only
    // fast path applies; a shuffled payload falls back to the full sort.
    expr->CanonicalizeSorted();
    out->provenance = std::move(expr);
    return Status::Ok();
  }
  if (kind == kExprDdp) {
    uint64_t num_exec = 0;
    if (!r.GetU64(&num_exec)) return r.MalformedStatus("ddp header");
    std::vector<uint32_t> counts(num_exec);
    for (uint64_t ex = 0; ex < num_exec; ++ex) {
      if (!r.GetU32(&counts[ex])) return r.MalformedStatus("transition count");
    }
    auto expr = std::make_unique<ir::IrDdpExpression>(pool);
    for (uint64_t ex = 0; ex < num_exec; ++ex) {
      expr->BeginExecution();
      for (uint32_t t = 0; t < counts[ex]; ++t) {
        uint8_t user = 0;
        if (!r.GetU8(&user)) return r.MalformedStatus("transition flag");
        if (user != 0) {
          uint32_t cost_var = 0;
          if (!r.GetU32(&cost_var)) return r.MalformedStatus("cost var");
          if (cost_var >= out->registry->size()) {
            return r.MalformedStatus("user transition references unknown "
                                     "annotation");
          }
          expr->AddUserTransition(static_cast<AnnotationId>(cost_var));
        } else {
          uint32_t db = 0;
          uint8_t nonzero = 0;
          if (!r.GetU32(&db) || !r.GetU8(&nonzero)) {
            return r.MalformedStatus("db transition");
          }
          if (db >= num_monomials) {
            return r.MalformedStatus("db transition references unknown "
                                     "monomial");
          }
          expr->AddDbTransition(static_cast<ir::MonomialId>(db), nonzero != 0);
        }
      }
    }
    uint64_t num_costs = 0;
    if (!r.GetU64(&num_costs)) return r.MalformedStatus("cost count");
    for (uint64_t i = 0; i < num_costs; ++i) {
      uint32_t var = 0;
      double cost = 0.0;
      if (!r.GetU32(&var) || !r.GetF64(&cost)) {
        return r.MalformedStatus("cost entry");
      }
      expr->SetCost(static_cast<AnnotationId>(var), cost);
    }
    expr->Canonicalize();
    out->provenance = std::move(expr);
    return Status::Ok();
  }
  return r.MalformedStatus("unknown expression kind " + std::to_string(kind));
}

}  // namespace

Status SaveDataset(const Dataset& dataset, const SaveOptions& options,
                   const std::string& path) {
  if (dataset.registry == nullptr) {
    return Status::Error(ErrorCode::kUnsupported, SectionTag::kRegistry,
                         "dataset has no registry");
  }
  SnapshotWriter writer;

  // META: the snapshot's identity — the fingerprint the serving layer
  // keys caches on. Explicit from the caller (router boot fingerprint) or
  // recomputed here on a clean registry; both agree for clean datasets.
  {
    ByteWriter w;
    w.PutString(options.fingerprint.empty()
                    ? ComputeDatasetFingerprint(dataset)
                    : options.fingerprint);
    writer.AddSection(SectionTag::kMeta, w.Take());
  }

  std::string registry_payload;
  if (Status s = EncodeRegistry(*dataset.registry, &registry_payload);
      !s.ok()) {
    return s;
  }
  writer.AddSection(SectionTag::kRegistry, std::move(registry_payload));

  std::string tables_payload;
  EncodeTables(dataset.ctx, &tables_payload);
  writer.AddSection(SectionTag::kTables, std::move(tables_payload));

  std::string taxonomy_payload;
  if (Status s = EncodeTaxonomy(dataset.ctx, &taxonomy_payload); !s.ok()) {
    return s;
  }
  writer.AddSection(SectionTag::kTaxonomy, std::move(taxonomy_payload));

  std::string constraints_payload;
  EncodeConstraints(dataset.constraints, &constraints_payload);
  writer.AddSection(SectionTag::kConstraints, std::move(constraints_payload));

  std::string config_payload;
  if (Status s = EncodeConfig(dataset, &config_payload); !s.ok()) return s;
  writer.AddSection(SectionTag::kConfig, std::move(config_payload));

  std::string features_payload;
  EncodeFeatures(dataset, &features_payload);
  writer.AddSection(SectionTag::kFeatures, std::move(features_payload));

  ir::TermPool pool;
  std::string guards_payload;
  std::string expr_payload;
  if (Status s =
          EncodeExpression(dataset, &pool, &guards_payload, &expr_payload);
      !s.ok()) {
    return s;
  }
  // The fresh pool has no base tier, so the owned vectors are the whole
  // content — written raw, loaded back as the base tier (near-memcpy).
  writer.AddSection(
      SectionTag::kPoolArena,
      std::string(reinterpret_cast<const char*>(pool.owned_arena().data()),
                  pool.owned_arena().size() * sizeof(AnnotationId)));
  writer.AddSection(
      SectionTag::kPoolRefs,
      std::string(reinterpret_cast<const char*>(pool.owned_refs().data()),
                  pool.owned_refs().size() * sizeof(ir::MonomialRef)));
  writer.AddSection(SectionTag::kPoolGuards, std::move(guards_payload));
  writer.AddSection(SectionTag::kExpression, std::move(expr_payload));

  if (options.cache != nullptr) {
    ByteWriter w;
    const auto entries = options.cache->Dump();
    w.PutU32(static_cast<uint32_t>(entries.size()));
    for (const auto& entry : entries) {
      w.PutString(entry.key);
      w.PutString(*entry.value);
    }
    writer.AddSection(SectionTag::kCache, w.Take());
  }

  return writer.WriteFile(path);
}

Status LoadDataset(const std::shared_ptr<Snapshot>& snapshot,
                   const LoadOptions& options, Dataset* out) {
  *out = Dataset();

  const Snapshot::Section* meta = snapshot->Find(SectionTag::kMeta);
  if (meta == nullptr) return Missing(SectionTag::kMeta);
  {
    ByteReader r(meta->data, meta->size, SectionTag::kMeta);
    if (!r.GetString(&out->fingerprint_hint)) {
      return r.MalformedStatus("fingerprint");
    }
  }

  const Snapshot::Section* registry = snapshot->Find(SectionTag::kRegistry);
  if (registry == nullptr) return Missing(SectionTag::kRegistry);
  if (Status s = DecodeRegistry(*registry, out); !s.ok()) return s;

  if (const auto* tables = snapshot->Find(SectionTag::kTables)) {
    if (Status s = DecodeTables(*tables, out); !s.ok()) return s;
  }
  if (const auto* taxonomy = snapshot->Find(SectionTag::kTaxonomy)) {
    if (Status s = DecodeTaxonomy(*taxonomy, out); !s.ok()) return s;
  }
  if (const auto* constraints = snapshot->Find(SectionTag::kConstraints)) {
    if (Status s = DecodeConstraints(*constraints, out); !s.ok()) return s;
  }
  const Snapshot::Section* config = snapshot->Find(SectionTag::kConfig);
  if (config == nullptr) return Missing(SectionTag::kConfig);
  if (Status s = DecodeConfig(*config, out); !s.ok()) return s;
  if (const auto* features = snapshot->Find(SectionTag::kFeatures)) {
    if (Status s = DecodeFeatures(*features, out); !s.ok()) return s;
  }

  std::shared_ptr<ir::TermPool> pool;
  if (Status s = DecodePool(*snapshot, options, snapshot, &pool); !s.ok()) {
    return s;
  }
 
  if (Status s = DecodeExpression(*snapshot, pool, out); !s.ok()) return s;
 
  return Status::Ok();
}

bool HasCacheSection(const Snapshot& snapshot) {
  return snapshot.Find(SectionTag::kCache) != nullptr;
}

Status RestoreCache(const Snapshot& snapshot, engine::SummaryCache* cache) {
  const Snapshot::Section* section = snapshot.Find(SectionTag::kCache);
  if (section == nullptr) return Status::Ok();
  ByteReader r(section->data, section->size, SectionTag::kCache);
  uint32_t count = 0;
  if (!r.GetU32(&count)) return r.MalformedStatus("entry count");
  static obs::Counter* warm_metric = CacheWarmEntries();
  for (uint32_t i = 0; i < count; ++i) {
    std::string key;
    auto body = std::make_shared<std::string>();
    if (!r.GetString(&key) || !r.GetString(body.get())) {
      return r.MalformedStatus("cache entry " + std::to_string(i));
    }
    cache->Put(key, std::shared_ptr<const std::string>(std::move(body)),
               /*warm=*/true);
    warm_metric->Increment();
  }
  return Status::Ok();
}

}  // namespace store
}  // namespace prox
