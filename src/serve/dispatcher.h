// Request dispatch for xicd: maps one parsed Request to one Response.
//
// The dispatcher is the deterministic core of the daemon -- it owns the
// hot-plan cache, the session registry, the implication memo and the
// fault-injection seam, but touches no sockets. Given the same cache /
// session state and the same request (identified by its `id` header,
// which keys fault decisions), it produces byte-identical responses at
// any thread count; serve_test pins that, and the socket server is a
// thin framing/admission shell around it.
//
// Verbs:
//   ping          liveness probe; body "pong\n"
//   schema.put    body = schema document (DOCTYPE with DTD^C); compiles
//                 (single-flight) into the plan cache; response header
//                 schema=<16-hex content hash>
//   validate      body = XML document. With header schema=<hash> the
//                 cached plan is used and the body may omit a DOCTYPE;
//                 otherwise the body must be self-describing and its
//                 internal subset is hashed into the cache. The plan's
//                 BatchValidator runs the bounded-memory streaming
//                 pipeline (engine/stream_validator.h): the document is
//                 tokenized rather than materialized and field tuples
//                 spill to disk past
//                 DispatcherOptions::stream_spill_budget_bytes. Response
//                 body = xic-batch-report-v1 JSON for the one document.
//   validate.stream
//                 kept for compatibility: validate under another name,
//                 with the same response bytes plus a mode=stream
//                 header.
//   lint          schema resolution as validate (header or
//                 self-describing body); response body = xiclint JSON.
//   imply         body = "<sigma statements> \n ? \n <query statements>";
//                 headers lang=lid|lu|lu-finite|lp (lid needs schema=).
//                 Response body: one "implied true|false <stmt>" line
//                 per query. Memoized.
//   session.open / session.apply / session.close
//                 incremental sessions (serve/session_registry.h);
//                 headers session=<name>, schema=<hash>.
//   stats         cache/session/flight-recorder counters as JSON.
//   stats.prom    the same registry in Prometheus text format
//                 (obs/prom.h) for scraping; see tools/xictop.py.
//   debugz        flight-recorder dump (obs/flight_recorder.h): the last
//                 N requests with verb / trace-id / status / duration /
//                 shed+fault flags, oldest first.
//
// Common request headers: id=<key> (fault key + echo), trace-id=<token>
// (echoed; server-derived from the id when absent), deadline-ms=N,
// retries=N, max-bytes=N, max-depth=N (strict decimals; a malformed
// value is ignored). Transient (kUnavailable) dispatch failures are
// retried under the exponential-backoff schedule of util/backoff.h; the
// engine underneath runs one attempt per dispatch.
//
// Tracing: every response carries a trace-id header -- the client's
// token (sanitized) or ContentHash(id) when the client sent none, so it
// is a pure function of the request and responses stay byte-stable.
// Handle() installs the id as the thread's ambient obs::ScopedTraceId,
// which tags each span the request opens (serve.request, serve.admit,
// serve.compile, serve.run, and the engine spans underneath, which run
// inline on the same thread) with a trace_id attribute; one request's
// spans are therefore joinable end-to-end in a trace export.
//
// Byte-stability caveat: stats, stats.prom and debugz report live
// counters and timings and are exempt from the byte-identical-responses
// invariant (everything else is pinned by serve_test at 1/4/16 threads).

#ifndef XIC_SERVE_DISPATCHER_H_
#define XIC_SERVE_DISPATCHER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <string>

#include "obs/flight_recorder.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"
#include "serve/session_registry.h"
#include "util/backoff.h"
#include "util/fault_injector.h"
#include "util/limits.h"
#include "util/sync.h"

namespace xic::serve {

struct DispatcherOptions {
  /// Per-request input bounds (parse stage); requests may lower but not
  /// raise them via max-bytes / max-depth headers.
  ResourceLimits limits;
  /// Default and ceiling for the per-request deadline-ms header
  /// (0 = none).
  uint64_t default_deadline_ms = 10000;
  uint64_t max_deadline_ms = 60000;
  /// Default and ceiling for attempts per request (retries header + 1).
  size_t default_attempts = 1;
  size_t max_attempts = 5;
  /// Requests with larger bodies are refused with `limit` before any
  /// parsing.
  size_t max_request_bytes = 16u << 20;
  /// Retry-After hint (milliseconds) attached to every load-shed /
  /// transient-failure response.
  uint64_t retry_after_ms = 100;
  /// Backoff schedule for transient dispatch retries (Handle()'s loop;
  /// the engine's own retries are immediate).
  BackoffConfig backoff;
  /// Bounded memo of imply responses (entries, not bytes).
  size_t imply_memo_entries = 1024;
  /// Extent-log bytes per validate / validate.stream request before the
  /// streaming pipeline spills field tuples to disk (0 = never spill).
  size_t stream_spill_budget_bytes = 64u << 20;
  /// Deterministic fault injection for the serve sites ("serve.admit",
  /// "serve.compile", "serve.dispatch", "serve.session"), keyed by
  /// request id.
  FaultConfig faults;
  PlanCache::Config cache;
  SessionRegistry::Config sessions;
  /// Flight recorder sizing (capacity 0 disables). Always on -- the
  /// recorder is protocol surface (debugz, SIGQUIT dump), not an XIC_OBS
  /// probe.
  obs::FlightRecorder::Config flight_recorder;
};

class Dispatcher {
 public:
  /// Phase breakdown of one request, accumulated along the handling path
  /// (retries sum). queue_us comes in via Request::queue_us; the rest is
  /// measured here. Feeds the latency histograms and the flight
  /// recorder's slow-request detail line.
  struct RequestTiming {
    uint64_t queue_us = 0;
    uint64_t compile_us = 0;
    uint64_t run_us = 0;
    /// An injected fault fired on this request (admission, dispatch or
    /// compile site).
    bool fault = false;
  };

  explicit Dispatcher(DispatcherOptions options = {});

  /// Handles one request: admission -> (retried) dispatch. Thread-safe.
  Response Handle(const Request& request);

  PlanCache& cache() { return cache_; }
  SessionRegistry& sessions() { return sessions_; }
  const DispatcherOptions& options() const { return options_; }

  /// The always-on flight recorder behind the debugz verb. The socket
  /// layer records its own sheds here (records the dispatcher never
  /// sees); xicd dumps it on SIGQUIT.
  obs::FlightRecorder& flight_recorder() { return recorder_; }

  /// Prometheus text rendering of the metrics registry plus the
  /// dispatcher's own cache / session / flight-recorder state (layered as
  /// synthesized counters and gauges, so stats.prom is complete even
  /// under -DXIC_OBS=OFF where the registry is empty). Backs the
  /// stats.prom verb and xicd's --prom-out exporter.
  std::string StatsProm();

  /// Load-shed response used by both the dispatcher (admission faults,
  /// full session registry) and the socket layer (queue overflow, byte
  /// budget): kUnavailable + retry-after-ms hint.
  Response ShedResponse(const std::string& reason) const;

  /// Compiles `schema_text` into the plan cache (single-flight) and
  /// returns the plan. Exposed for benches and tests that want to warm
  /// the cache without a request. `timing`, when given, accumulates the
  /// compile phase (cache hits add ~nothing) and the fault flag.
  /// `overrides` bound the read of the DOCTYPE shell: its limits
  /// (default: the dispatcher's) and its document_timeout_ms.
  Result<PlanPtr> CompileIntoCache(const std::string& schema_text,
                                   const std::string& fault_key,
                                   bool* cache_hit = nullptr,
                                   RequestTiming* timing = nullptr,
                                   const RunOverrides& overrides = {});

 private:
  Response HandleOnce(const Request& request, const std::string& id,
                      size_t attempt, RequestTiming* timing);
  Response DoValidate(const Request& request, const std::string& id,
                      size_t attempt, RequestTiming* timing, bool stream);
  Response DoLint(const Request& request, const std::string& id,
                  RequestTiming* timing);
  Response DoImply(const Request& request, const std::string& id,
                   RequestTiming* timing) XIC_EXCLUDES(memo_mutex_);
  Response DoSchemaPut(const Request& request, const std::string& id,
                       RequestTiming* timing);
  Response DoSession(const Request& request, const std::string& id,
                     RequestTiming* timing);
  Response DoStats(const Request& request);
  Response DoStatsProm(const Request& request);
  Response DoDebugz(const Request& request);

  /// Resolves the plan for a request: schema=<hash> header lookup, or
  /// compile-from-body internal subset. Sets *cache_hit accordingly.
  Result<PlanPtr> ResolvePlan(const Request& request, const std::string& id,
                              bool* cache_hit, RequestTiming* timing);

  /// Effective per-request knobs (header layered over options ceiling).
  RunOverrides OverridesFor(const Request& request) const;

  /// Attempt budget of one request: the `retries` header + 1, clamped to
  /// [1, options_.max_attempts]; default options_.default_attempts.
  size_t AttemptsFor(const Request& request) const;

  /// Per-verb + breakdown latency histograms for one finished request
  /// (no-op probe under -DXIC_OBS=OFF).
  static void ObserveLatency(const std::string& verb, uint64_t total_us,
                             const RequestTiming& timing);

  /// Appends the request's record to the flight recorder, promoting the
  /// phase breakdown into Record::detail for slow requests.
  void RecordFlight(const Request& request, const Response& response,
                    const std::string& trace_id, uint64_t total_us,
                    const RequestTiming& timing);

  DispatcherOptions options_;
  PlanCache cache_;
  SessionRegistry sessions_;
  FaultInjector injector_;
  obs::FlightRecorder recorder_;
  std::atomic<uint64_t> next_request_id_{1};

  // Bounded imply memo: LRU list of (key, response body) with an index.
  util::Mutex memo_mutex_;
  /// Front = MRU.
  std::list<std::pair<std::string, std::string>> memo_lru_
      XIC_GUARDED_BY(memo_mutex_);
  std::map<std::string,
           std::list<std::pair<std::string, std::string>>::iterator>
      memo_index_ XIC_GUARDED_BY(memo_mutex_);
};

}  // namespace xic::serve

#endif  // XIC_SERVE_DISPATCHER_H_
