#ifndef PROX_IR_TERM_POOL_H_
#define PROX_IR_TERM_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "provenance/annotation.h"
#include "provenance/guard.h"

namespace prox {
namespace ir {

/// Dense handle to an interned monomial (factor span) in a TermPool.
using MonomialId = uint32_t;
/// Dense handle to an interned guard row in a TermPool.
using GuardId = uint32_t;

inline constexpr MonomialId kInvalidMonomial = 0xFFFFFFFFu;
/// Column value for "this term has no guard".
inline constexpr GuardId kNoGuard = 0xFFFFFFFFu;
/// High bit tagging ids that resolve against an expression-local overlay
/// pool instead of the shared pool (see the thread contract below).
inline constexpr uint32_t kOverlayBit = 0x80000000u;

/// One interned comparison guard `[m ⊗ s OP t]`. `mono` is a full
/// (possibly overlay-tagged) monomial id, resolvable through a PoolView.
struct GuardRow {
  MonomialId mono = kInvalidMonomial;
  double scalar = 0.0;
  CompareOp op = CompareOp::kGt;
  double threshold = 0.0;
};

/// An (offset, length) span into a TermPool's factor arena — one interned
/// monomial. Public and trivially copyable so prox::store can persist the
/// ref table as raw bytes and a loaded pool can *borrow* it straight out
/// of an mmap'd snapshot section (docs/STORE.md).
struct MonomialRef {
  uint32_t off = 0;
  uint32_t len = 0;
};
static_assert(sizeof(MonomialRef) == 8 && alignof(MonomialRef) == 4,
              "MonomialRef is persisted raw by prox::store");

/// \brief Arena-backed store of hash-consed monomials and guards — the
/// flat core the prox::ir expressions index into (docs/IR.md).
///
/// All factor spans live back-to-back in one arena; a monomial is an
/// (offset, length) pair, so monomial equality inside one pool is a
/// 32-bit id compare and evaluation walks a contiguous span.
///
/// Storage is two-tier. The *base* tier is immutable and may be borrowed
/// — raw pointers into an mmap'd snapshot (BorrowBase) whose lifetime the
/// pool pins via a shared owner handle — or loaded by copy (LoadBase).
/// The *owned* tier is the growth region every Intern*/Append* call
/// writes to. Logical offsets and ids run contiguously across both tiers,
/// so ids minted before and after a snapshot load are indistinguishable
/// to readers. The hash-cons index over base entries is built lazily on
/// the first Intern* call: a pool that is only ever read (a warm serving
/// process answering cached summaries) never pays for it.
///
/// Thread contract (mirrors AnnotationRegistry): interning mutates the
/// pool and must stay single-threaded — in the summarizer that is the
/// main thread, between parallel sections. Worker threads never intern;
/// an Apply() on a worker appends into a fresh expression-local overlay
/// pool via the Append* methods (no hash index maintenance) and tags the
/// resulting ids with kOverlayBit. Concurrent *reads* of a pool that is
/// not being mutated are safe; base-tier reads stay valid across owned
/// growth (mmap pages never move).
class TermPool {
 public:
  /// Hash-conses a factor span (must already be sorted — the canonical
  /// monomial form). Returns the existing id when the content was seen
  /// before, so id equality == content equality within this pool.
  MonomialId InternMonomial(const AnnotationId* data, size_t len);

  /// Hash-conses a guard row. `mono` must be an id interned in this pool
  /// (id equality is what makes guard hashing sound).
  GuardId InternGuard(MonomialId mono, double scalar, CompareOp op,
                      double threshold);

  /// Appends a span without hash-consing (overlay pools on workers).
  /// Returned ids are *untagged*; the owning expression adds kOverlayBit.
  MonomialId AppendMonomial(const AnnotationId* data, size_t len);
  GuardId AppendGuard(MonomialId mono, double scalar, CompareOp op,
                      double threshold);

  /// Seeds an empty pool with a read-only base tier *without copying*:
  /// the pool reads factors and refs directly from `arena`/`refs` (e.g.
  /// spans of an mmap'd snapshot) and retains `owner` to pin their
  /// lifetime. Spans must satisfy `off + len <= arena_len` for every ref
  /// (prox::store validates before calling). Must be called on an empty
  /// pool, at most once.
  void BorrowBase(const AnnotationId* arena, size_t arena_len,
                  const MonomialRef* refs, size_t refs_len,
                  std::shared_ptr<const void> owner);

  /// Copying fallback for BorrowBase (unaligned or non-mmap sources):
  /// bulk-appends the same data into the owned tier. Empty pool only.
  void LoadBase(const AnnotationId* arena, size_t arena_len,
                const MonomialRef* refs, size_t refs_len);

  /// Bulk-appends guard rows (always copied: GuardRow has padding, so raw
  /// guard bytes are re-encoded rather than persisted). Empty-guard pool
  /// only; `mono` fields must already be valid ids in this pool.
  void LoadGuards(const GuardRow* guards, size_t len);

  /// True when the base tier borrows external memory (zero-copy load).
  bool borrows_base() const { return base_owner_ != nullptr; }

  const AnnotationId* mono_data(MonomialId id) const {
    return ArenaAt(RefOf(id).off);
  }
  uint32_t mono_len(MonomialId id) const { return RefOf(id).len; }
  const GuardRow& guard(GuardId id) const { return guards_[id]; }

  /// The ref row of a monomial id (offset is a *logical* arena offset,
  /// contiguous across the base and owned tiers).
  const MonomialRef& RefOf(MonomialId id) const {
    return id < base_refs_len_ ? base_refs_[id] : refs_[id - base_refs_len_];
  }

  size_t num_monomials() const { return base_refs_len_ + refs_.size(); }
  size_t num_guards() const { return guards_.size(); }
  size_t arena_size() const { return base_arena_len_ + arena_.size(); }

  /// Raw owned-tier storage, for persistence (prox::store serializes a
  /// freshly interned pool, which has no base tier, as flat sections).
  const std::vector<AnnotationId>& owned_arena() const { return arena_; }
  const std::vector<MonomialRef>& owned_refs() const { return refs_; }
  const std::vector<GuardRow>& guard_rows() const { return guards_; }

 private:
  uint64_t HashSpan(const AnnotationId* data, size_t len) const;
  uint64_t HashGuard(MonomialId mono, double scalar, CompareOp op,
                     double threshold) const;

  /// Resolves a logical arena offset to its tier's storage.
  const AnnotationId* ArenaAt(uint32_t off) const {
    return off < base_arena_len_
               ? base_arena_ + off
               : arena_.data() + (off - base_arena_len_);
  }

  /// Hash-index entries [watermark, current) that were bulk-loaded or
  /// appended outside Intern* — the lazy bootstrap for snapshot-loaded
  /// base tiers.
  void EnsureMonoIndexed();
  void EnsureGuardIndexed();

  // Base tier: immutable, possibly borrowed (see BorrowBase).
  const AnnotationId* base_arena_ = nullptr;
  uint32_t base_arena_len_ = 0;
  const MonomialRef* base_refs_ = nullptr;
  uint32_t base_refs_len_ = 0;
  std::shared_ptr<const void> base_owner_;

  // Owned growth tier.
  std::vector<AnnotationId> arena_;
  std::vector<MonomialRef> refs_;
  std::vector<GuardRow> guards_;

  // hash -> candidate ids; content-checked on collision. Lazily covers
  // the base tier (see EnsureMonoIndexed / EnsureGuardIndexed).
  std::unordered_map<uint64_t, std::vector<MonomialId>> mono_index_;
  std::unordered_map<uint64_t, std::vector<GuardId>> guard_index_;
  uint32_t mono_indexed_ = 0;   // ids < this are in mono_index_
  uint32_t guard_indexed_ = 0;  // ids < this are in guard_index_
};

/// \brief Resolves possibly overlay-tagged ids against a (shared, overlay)
/// pool pair, and compares content.
///
/// CompareMonomials is Monomial's defaulted `<=>` (lexicographic factor
/// order); CompareGuards is Guard's defaulted `<=>` (factors, then scalar,
/// then op, then threshold). The IR canonical sorts use these, so content
/// order — never numeric id order — decides the canonical term order.
class PoolView {
 public:
  PoolView(const TermPool* shared, const TermPool* overlay)
      : shared_(shared), overlay_(overlay) {}

  const AnnotationId* mono_data(MonomialId id) const {
    return Pool(id)->mono_data(id & ~kOverlayBit);
  }
  uint32_t mono_len(MonomialId id) const {
    return Pool(id)->mono_len(id & ~kOverlayBit);
  }
  const GuardRow& guard(GuardId id) const {
    return Pool(id)->guard(id & ~kOverlayBit);
  }

  /// <0, 0, >0 — lexicographic factor comparison (Monomial order).
  int CompareMonomials(MonomialId a, MonomialId b) const;
  bool MonomialsEqual(MonomialId a, MonomialId b) const;

  /// Guard order: factors, scalar, op, threshold (Guard's defaulted <=>).
  int CompareGuards(GuardId a, GuardId b) const;
  bool GuardsEqual(GuardId a, GuardId b) const;

 private:
  const TermPool* Pool(uint32_t id) const {
    return (id & kOverlayBit) ? overlay_ : shared_;
  }

  const TermPool* shared_;
  const TermPool* overlay_;  // may be null when the expression has none
};

}  // namespace ir
}  // namespace prox

#endif  // PROX_IR_TERM_POOL_H_
