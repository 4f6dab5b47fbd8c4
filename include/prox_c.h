/* prox_c.h — the stable C ABI of the PROX engine (docs/EMBEDDING.md).
 *
 * A flat, pure-C11 boundary over prox::engine::Engine: opaque handles,
 * integer status codes, and UTF-8 JSON strings in both directions. The
 * JSON request/response documents are exactly the ones the HTTP server
 * speaks (docs/SERVING.md) — a summarize body obtained through this ABI
 * is byte-identical to `prox_cli --json` and to POST /v1/summarize over
 * the same dataset and knobs.
 *
 * Lifecycle:
 *   prox_engine_t* engine = NULL;
 *   char* err = NULL;
 *   if (prox_engine_open("{\"dataset\":{\"family\":\"movielens\"}}",
 *                        &engine, &err) != PROX_STATUS_OK) { ... }
 *   char* body = NULL;
 *   prox_engine_summarize(engine, "{\"w_dist\":0.7}", &body, NULL);
 *   ...
 *   prox_string_free(body);
 *   prox_engine_close(engine);
 *
 * Every char* the library hands out is heap-allocated and owned by the
 * caller; release it with prox_string_free (never plain free — the
 * library and the host may use different allocators).
 *
 * Threading: one engine handle may be shared across threads — the engine
 * serializes domain work internally, except that summarize cache hits
 * and the fingerprint read a published key and never wait for a
 * summarize run in flight. Opening and closing handles is not
 * synchronized against concurrent use of the *same* handle: close a
 * handle only after every call on it has returned. A closed handle is
 * remembered and further calls on it fail with
 * PROX_STATUS_INVALID_HANDLE (best effort — the check is precise until
 * the address is recycled by a later open).
 *
 * Versioning: PROX_C_API_VERSION is bumped whenever a declaration
 * changes incompatibly; prox_c_api_version() returns the version the
 * library was built with, so an embedder can verify at runtime that the
 * header it compiled against matches the library it loaded.
 */

#ifndef PROX_C_H_
#define PROX_C_H_

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

#define PROX_C_API_VERSION 1

#if defined(_WIN32)
#define PROX_C_API __declspec(dllexport)
#elif defined(__GNUC__)
#define PROX_C_API __attribute__((visibility("default")))
#else
#define PROX_C_API
#endif

/* Status codes, mirroring prox::StatusCode 1:1 (common/status.h), plus
 * ABI-boundary codes from 100 up. */
typedef enum prox_status {
  PROX_STATUS_OK = 0,
  PROX_STATUS_INVALID_ARGUMENT = 1,
  PROX_STATUS_NOT_FOUND = 2,
  PROX_STATUS_ALREADY_EXISTS = 3,
  PROX_STATUS_OUT_OF_RANGE = 4,
  PROX_STATUS_FAILED_PRECONDITION = 5,
  PROX_STATUS_UNIMPLEMENTED = 6,
  PROX_STATUS_INTERNAL = 7,
  /* The engine handle is NULL, closed, or was never opened. */
  PROX_STATUS_INVALID_HANDLE = 100,
  /* A required pointer argument was NULL. */
  PROX_STATUS_NULL_ARGUMENT = 101
} prox_status_t;

/* An opaque PROX engine: dataset + session + summary cache + ingest
 * maintainer behind one handle. */
typedef struct prox_engine prox_engine_t;

/* The PROX_C_API_VERSION the library was built with. */
PROX_C_API int32_t prox_c_api_version(void);

/* A static, never-freed name for a status code ("OK", "InvalidArgument",
 * "InvalidHandle", ...). Unknown codes return "Unknown". */
PROX_C_API const char* prox_status_name(prox_status_t status);

/* Opens an engine from a JSON config:
 *   {"dataset": {"family": "movielens" | "wikipedia" | "ddp",
 *                "users": N, "groups": N, "seed": N}
 *             | {"snapshot": "/path/to/file.proxsnap"},
 *    "cache_mb": N}
 * All fields optional; NULL or "" boots the default MovieLens demo
 * dataset. On success *out_engine receives the handle. On failure, if
 * out_error_json is non-NULL, *out_error_json receives the canonical
 * error document ({"error":{"code","message"}}, newline-terminated);
 * free it with prox_string_free. */
PROX_C_API prox_status_t prox_engine_open(const char* config_json,
                                          prox_engine_t** out_engine,
                                          char** out_error_json);

/* Closes the engine and frees everything it owns. NULL is a no-op
 * (PROX_STATUS_OK); a handle that was already closed (or never opened)
 * is rejected with PROX_STATUS_INVALID_HANDLE and not touched. */
PROX_C_API prox_status_t prox_engine_close(prox_engine_t* engine);

/* The five PROX operations. Request/response documents are the
 * docs/SERVING.md schemas; *out_response_json always receives a complete
 * newline-terminated JSON document — the success payload when the call
 * returns PROX_STATUS_OK, the canonical error document otherwise (for
 * handle/argument errors, codes >= 100, no document is produced and
 * *out_response_json is set to NULL). Free with prox_string_free. */

/* POST /v1/select: {"all": true} or selection criteria. */
PROX_C_API prox_status_t prox_engine_select(prox_engine_t* engine,
                                            const char* request_json,
                                            char** out_response_json);

/* POST /v1/summarize: Algorithm 1 with the request's knobs, served from
 * the summary cache when possible. If out_cache_hit is non-NULL it
 * receives 1 when the body came from the cache, 0 when it was computed,
 * -1 when the call failed before the cache was consulted. */
PROX_C_API prox_status_t prox_engine_summarize(prox_engine_t* engine,
                                               const char* request_json,
                                               char** out_response_json,
                                               int32_t* out_cache_hit);

/* POST /v1/ingest: one delta batch, optional "resummarize" directive. */
PROX_C_API prox_status_t prox_engine_ingest(prox_engine_t* engine,
                                            const char* request_json,
                                            char** out_response_json);

/* GET /v1/summary/groups: groups + expression of the latest summary. */
PROX_C_API prox_status_t prox_engine_summary_groups(
    prox_engine_t* engine, char** out_response_json);

/* POST /v1/evaluate: {"on": "summary"|"selection", "assignment": {...}}. */
PROX_C_API prox_status_t prox_engine_evaluate(prox_engine_t* engine,
                                              const char* request_json,
                                              char** out_response_json);

/* The current dataset fingerprint (hex string, no newline). */
PROX_C_API prox_status_t prox_engine_fingerprint(prox_engine_t* engine,
                                                 char** out_fingerprint);

/* Frees a string returned by this library. NULL is a no-op. */
PROX_C_API void prox_string_free(char* str);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* PROX_C_H_ */
