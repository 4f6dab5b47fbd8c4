#ifndef PROX_ENGINE_ENGINE_H_
#define PROX_ENGINE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/summary_cache.h"
#include "ingest/delta.h"
#include "ingest/maintainer.h"
#include "service/evaluator_service.h"
#include "service/selection_service.h"
#include "service/session.h"
#include "service/summarization_service.h"

namespace prox {
namespace engine {

/// Where an Engine's dataset comes from: one of the three generated
/// families (the Table 5.1 workloads), or a PROXSNAP snapshot file
/// (docs/STORE.md). The generator shapes default to the small demo
/// configurations `prox_cli` and `prox_server` have always used, so two
/// processes booting the same spec — a C++ CLI and a C embedder, say —
/// build byte-identical datasets.
struct DatasetSpec {
  enum class Family { kMovieLens, kWikipedia, kDdp };
  Family family = Family::kMovieLens;

  /// Generator shape. `num_users`/`num_groups` map onto users/movies
  /// (MovieLens), users/pages (Wikipedia) and executions/- (DDP); 0 keeps
  /// the family default (MovieLens 25/8 seed 99, Wikipedia 10/8 seed 11,
  /// DDP 8 executions seed 13).
  int num_users = 0;
  int num_groups = 0;
  uint64_t seed = 0;
  bool seed_set = false;  ///< distinguishes "seed 0" from "default seed"

  /// Non-empty: boot from this snapshot instead of generating; the family
  /// and shape fields are ignored. Fail-closed — a snapshot that does not
  /// validate never becomes a serving dataset.
  std::string snapshot_path;
};

/// \brief The transport-agnostic PROX engine: everything below the wire.
///
/// Owns the dataset (generated or snapshot-loaded), the ProxSession
/// workflow, the SummaryCache, the dataset-fingerprint chain and the
/// streaming-ingest maintainer, and exposes the five PROX operations as a
/// JSON request/response API plus a typed facade for embedders. The HTTP
/// layer (prox::serve), `prox_cli` and the C ABI (include/prox_c.h) are
/// all thin shells over this class; none of them reach the session, the
/// cache or the summarizer directly (docs/EMBEDDING.md).
///
/// The JSON endpoints return the exact bytes prox_server has always put
/// on the wire: success bodies and `{"error": ...}` documents are rendered
/// here (newline-terminated), `Response::http_status` carries the 1:1
/// HTTP mapping of the typed Status, and `Response::cache` reports the
/// SummaryCache outcome the transport surfaces as `X-Prox-Cache`.
///
/// Thread-safety: a cached read never takes the engine mutex. The two
/// values a summarize cache key needs — the dataset fingerprint and the
/// selection key — are published together as one immutable ServingKey;
/// HandleSummarize's hit path and fingerprint() (all /healthz reads) copy
/// that pointer under a mutex held only for the copy, and never wait on a
/// run. Everything that touches the
/// session still serializes behind the engine mutex: selects, ingests,
/// cold summarize misses (single-flight — a run mints "#k" names into the
/// shared registry), groups, evaluate and the typed facade. Each writer
/// publishes its new ServingKey before it releases the mutex and returns,
/// so a client's next request sees its own select or ingest. Accessors
/// return snapshot values, never pointers into guarded state.
class Engine {
 public:
  struct Options {
    DatasetSpec dataset;
    SummaryCache::Options cache;
    /// Restore a snapshot's persisted cache section (if any) warm.
    bool restore_cache = true;
  };

  /// One JSON request/response exchange. `body` is always a complete
  /// rendered document ('\n'-terminated): the success payload when
  /// `status.ok()`, the canonical `{"error":{"code","message"}}` document
  /// otherwise. `http_status` is the 1:1 HTTP mapping of `status`
  /// (codec.h HttpStatusForCode).
  struct Response {
    Status status;
    int http_status = 200;
    std::string body;
    enum class CacheOutcome { kNone, kHit, kMiss };
    CacheOutcome cache = CacheOutcome::kNone;

    bool ok() const { return status.ok(); }
  };

  /// Boots per the spec: generates the named family or opens the
  /// snapshot (restoring persisted cache entries warm unless told not
  /// to). The session starts with the whole provenance selected, so a
  /// summarize with no prior select is well-defined (and cacheable under
  /// "all").
  static Result<std::unique_ptr<Engine>> Create(const Options& options);

  /// Wraps an already-built dataset (tests, custom generators). Takes
  /// ownership.
  static std::unique_ptr<Engine> FromDataset(Dataset dataset);
  static std::unique_ptr<Engine> FromDataset(Dataset dataset,
                                             const Options& options);

  /// Parses the JSON spec the C ABI's `prox_engine_open` takes:
  /// `{"dataset": {"family": "movielens", "users": N, "groups": N,
  /// "seed": N} | {"snapshot": "path"}, "cache_mb": N}` — all fields
  /// optional, unknown fields InvalidArgument.
  static Result<Options> OptionsFromJson(const std::string& config_json);

  // --- JSON request/response API (what the wire speaks) -------------------

  /// POST /v1/select: criteria or `{"all": true}`.
  Response HandleSelect(const std::string& body);
  /// POST /v1/summarize: Algorithm 1 with the request's knobs, served
  /// from the SummaryCache when the `(fingerprint, selection, knobs)` key
  /// is present; cached and cold bodies are byte-identical.
  Response HandleSummarize(const std::string& body);
  /// POST /v1/ingest: one delta batch, with the optional "resummarize"
  /// directive (docs/INGEST.md).
  Response HandleIngest(const std::string& body);
  /// GET /v1/summary/groups.
  Response HandleGroups();
  /// POST /v1/evaluate: approximate provisioning on summary or selection.
  Response HandleEvaluate(const std::string& body);

  // --- typed facade (CLI / in-process embedders) --------------------------
  // Every accessor returns a snapshot value (computed under the engine
  // mutex, except fingerprint(), which reads the published ServingKey);
  // nothing hands out pointers into session state.

  /// All group titles, sorted (selection view).
  std::vector<std::string> ListTitles() const;
  /// Titles containing `substring`, case-insensitive, sorted.
  std::vector<std::string> SearchTitles(const std::string& substring) const;

  /// Selection view: returns the selected expression's size.
  Result<int64_t> Select(const SelectionCriteria& criteria);
  int64_t SelectAll();

  struct SummarizeOutcome {
    int64_t final_size = 0;
    double final_distance = 0.0;
    /// The canonical JSON body ('\n'-terminated) — the same bytes
    /// HandleSummarize and POST /v1/summarize return.
    std::string body;
  };
  /// Runs Algorithm 1 on the current selection. Always computes (the
  /// cached path is HandleSummarize's), so the session outcome the other
  /// views read is never stale.
  Result<SummarizeOutcome> Summarize(const SummarizationRequest& request);

  /// Streaming ingest through the warm-start maintainer; advances the
  /// fingerprint chain and resets the selection key to "all", retiring
  /// every cache entry keyed under the old dataset version.
  Result<ingest::ApplyReceipt> IngestDelta(const ingest::DeltaBatch& batch);
  /// Warm/cold re-summarize of the current selection (docs/INGEST.md).
  Result<ingest::MaintainReport> Resummarize(
      const SummarizationRequest& request);

  /// Summary view, groups subview: one line per summary annotation.
  std::vector<std::string> DescribeGroups() const;
  /// Summary view, expression subview.
  Result<std::string> SummaryExpression() const;

  struct StepSnapshot {
    int64_t size = 0;
    std::string expression;
  };
  /// The selection's expression after `step` merges of the last summary
  /// (summarize/report.h) — by value, unlike the raw session pointers.
  Result<StepSnapshot> SummaryAtStep(int step) const;

  /// The last summary serialized in the provenance/io.h text format.
  Result<std::string> SerializedSummary() const;

  Result<EvaluationReport> EvaluateOnSummary(const Assignment& assignment);
  Result<EvaluationReport> EvaluateOnSelection(const Assignment& assignment);

  // --- identity / persistence ---------------------------------------------

  /// The current dataset fingerprint, read from the published ServingKey
  /// without the engine mutex, so it never waits on a run. By value:
  /// ingest advances it by digest chaining, so the string the caller saw
  /// may be replaced while they hold it.
  std::string fingerprint() const;
  int64_t provenance_size() const;
  uint64_t next_ingest_sequence() const;

  /// Writes the dataset (keyed under the current fingerprint) plus the
  /// live summary cache as a PROXSNAP snapshot, so the next snapshot boot
  /// serves its first request warm (--cache-persist).
  Status PersistSnapshot(const std::string& path) const;

  SummaryCache& cache() { return cache_; }
  const SummaryCache& cache() const { return cache_; }

 private:
  /// What a cached read keys on: the dataset version and the selection,
  /// published as one immutable pair so a reader never sees the
  /// fingerprint of one write with the selection of another.
  struct ServingKey {
    std::string fingerprint;
    std::string selection_key;
  };

  Engine(Dataset dataset, const Options& options);

  /// Takes mu_, recording the wait in prox_serve_engine_lock_wait_nanos.
  std::unique_lock<std::mutex> LockEngine() const;

  /// Replaces the published ServingKey and returns it. Callers hold mu_
  /// and publish before they release it.
  std::shared_ptr<const ServingKey> Publish(std::string fingerprint,
                                            std::string selection_key);
  /// The published ServingKey; never waits on mu_.
  std::shared_ptr<const ServingKey> serving_key() const;

  /// Renders the session's current outcome under the session lock
  /// (requires outcome != nullptr; callers hold mu_).
  std::string RenderOutcomeBody() const;

  ProxSession session_;
  SummaryCache cache_;

  /// Guards maintainer_ and all session_ calls, and orders the writers of
  /// serving_key_: a cold run keys its result under the ServingKey it
  /// read while holding mu_, so the key matches the selection (and the
  /// dataset contents) the computation actually ran on. Cache hits and
  /// fingerprint() never take it.
  mutable std::mutex mu_;
  /// Held only while serving_key_ is copied or replaced. Not
  /// std::atomic<std::shared_ptr>: libstdc++ 12's load drops its lock bit
  /// with a relaxed fetch_sub, so its read of the pointer is not ordered
  /// before the next store's write, and ThreadSanitizer reports the race.
  mutable std::mutex serving_key_mu_;
  /// The one source of truth for the fingerprint and the selection key.
  /// Replaced only under mu_.
  std::shared_ptr<const ServingKey> serving_key_;
  ingest::SummaryMaintainer maintainer_;
};

}  // namespace engine
}  // namespace prox

#endif  // PROX_ENGINE_ENGINE_H_
