#include "serve/dispatcher.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <vector>

#include "analysis/analyzer.h"
#include "constraints/constraint_parser.h"
#include "constraints/well_formed.h"
#include "implication/lid_solver.h"
#include "implication/lp_solver.h"
#include "implication/lu_solver.h"
#include "obs/obs.h"
#include "util/json_writer.h"
#include "util/strings.h"
#include "xml/dtdc_io.h"
#include "xml/stream_tokenizer.h"

namespace xic::serve {

namespace {

/// Shared bucket schedule for the request latency histograms,
/// milliseconds. Spans sub-100us pings to multi-second compiles.
#define XIC_SERVE_LATENCY_BUCKETS                                     \
  {                                                                   \
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,    \
        250.0, 500.0, 1000.0, 2500.0                                  \
  }

/// Accumulates wall time from construction to destruction into `*out`
/// microseconds (+=, so retried phases sum). Null target = no-op timer.
class PhaseTimer {
 public:
  explicit PhaseTimer(uint64_t* out)
      : out_(out),
        start_(out == nullptr ? Clock::time_point() : Clock::now()) {}
  ~PhaseTimer() {
    if (out_ == nullptr) return;
    *out_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start_)
            .count());
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  using Clock = std::chrono::steady_clock;
  uint64_t* out_;
  Clock::time_point start_;
};

/// The DOCTYPE shell of a document: name plus the raw internal subset
/// between '[' and ']', read by the XML tokenizer, which stops right
/// after the subset. The subset text is the cache key material -- two
/// documents sharing a DOCTYPE byte-for-byte share a compiled plan.
struct DoctypeShell {
  std::string name;
  std::string subset;
};

/// `options` carry the request's input bounds and deadline: a body
/// without a DOCTYPE makes the tokenizer parse the whole root start tag
/// before it can tell.
Result<DoctypeShell> ExtractDoctype(const std::string& text,
                                    StreamTokenizerOptions options) {
  StringSource source(text);
  StreamTokenizer tokenizer(source, std::move(options));
  StreamEvent event;
  XIC_RETURN_IF_ERROR(tokenizer.Next(&event));
  if (event.kind != StreamEventKind::kDoctype) {
    return Status::InvalidArgument(
        "document has no DOCTYPE (send schema.put first and pass "
        "schema=<hash>, or inline the DTD)");
  }
  if (!event.has_internal_subset) {
    return Status::InvalidArgument("DOCTYPE has no internal subset");
  }
  // The tokenizer checks the closing '>' only on its way to the root
  // element, which a schema.put body does not have.
  size_t after = tokenizer.consumed_bytes();
  while (after < text.size() && IsXmlSpace(text[after])) ++after;
  if (after >= text.size() || text[after] != '>') {
    return Status::ParseError("expected '>' after DOCTYPE internal subset");
  }
  return DoctypeShell{std::string(event.name),
                      std::string(event.internal_subset)};
}

}  // namespace

Dispatcher::Dispatcher(DispatcherOptions options)
    : options_(std::move(options)),
      cache_(options_.cache),
      sessions_(options_.sessions),
      injector_(options_.faults),
      recorder_(options_.flight_recorder) {}

Response Dispatcher::ShedResponse(const std::string& reason) const {
  Response response =
      ErrorResponse(Status::Unavailable("overloaded: " + reason));
  response.headers["retry-after-ms"] =
      std::to_string(options_.retry_after_ms);
  return response;
}

RunOverrides Dispatcher::OverridesFor(const Request& request) const {
  RunOverrides overrides;
  uint64_t deadline_ms = options_.default_deadline_ms;
  uint64_t value = 0;
  if (ParseDecimal(request.header("deadline-ms"), &value)) {
    deadline_ms = value;
  }
  if (options_.max_deadline_ms > 0) {
    deadline_ms = deadline_ms == 0
                      ? options_.max_deadline_ms
                      : std::min(deadline_ms, options_.max_deadline_ms);
  }
  overrides.document_timeout_ms = deadline_ms;
  ResourceLimits limits = options_.limits;
  if (ParseDecimal(request.header("max-bytes"), &value) && value > 0 &&
      (limits.max_document_bytes == 0 ||
       value < limits.max_document_bytes)) {
    limits.max_document_bytes = value;
  }
  if (ParseDecimal(request.header("max-depth"), &value) && value > 0 &&
      (limits.max_tree_depth == 0 || value < limits.max_tree_depth)) {
    limits.max_tree_depth = value;
  }
  overrides.limits = limits;
  return overrides;
}

size_t Dispatcher::AttemptsFor(const Request& request) const {
  size_t attempts = options_.default_attempts;
  uint64_t retries = 0;
  if (ParseDecimal(request.header("retries"), &retries)) {
    // Capped before the +1, so a huge count cannot wrap to 0 attempts.
    retries = std::min<uint64_t>(retries, options_.max_attempts);
    attempts = static_cast<size_t>(retries) + 1;
  }
  return std::clamp<size_t>(attempts, 1, options_.max_attempts);
}

Result<PlanPtr> Dispatcher::CompileIntoCache(const std::string& schema_text,
                                             const std::string& fault_key,
                                             bool* cache_hit,
                                             RequestTiming* timing,
                                             const RunOverrides& overrides) {
  StreamTokenizerOptions shell_options;
  shell_options.limits = overrides.limits.value_or(options_.limits);
  if (uint64_t ms = overrides.document_timeout_ms.value_or(0); ms > 0) {
    shell_options.deadline = Deadline::AfterMillis(ms);
  }
  Result<DoctypeShell> shell = ExtractDoctype(schema_text, shell_options);
  if (!shell.ok()) return shell.status();
  const std::string key = ContentHash(shell.value().subset);
  return cache_.GetOrCompile(
      key,
      [&](const std::string& cache_key) -> Result<PlanPtr> {
        obs::ScopedSpan span("serve.compile", "serve");
        span.AddString("schema", cache_key);
        PhaseTimer compile_timer(timing == nullptr ? nullptr
                                                   : &timing->compile_us);
        if (Status s = injector_.MaybeFail("serve.compile", fault_key);
            !s.ok()) {
          XIC_COUNTER_ADD("serve.faults", 1);
          if (timing != nullptr) timing->fault = true;
          return s;
        }
        Result<DtdC> parsed =
            ParseDtdC(shell.value().subset, shell.value().name);
        if (!parsed.ok()) return parsed.status();
        auto plan = std::make_shared<CompiledPlan>();
        plan->key = cache_key;
        plan->dtd = std::move(parsed.value().dtd);
        if (parsed.value().sigma.has_value()) {
          plan->sigma = std::move(*parsed.value().sigma);
          if (Status wf = CheckWellFormed(plan->sigma, plan->dtd);
              !wf.ok()) {
            return wf;
          }
        }
        BatchOptions batch_options;
        batch_options.num_threads = 1;  // requests run inline per worker
        batch_options.limits = options_.limits;
        batch_options.validation.allow_missing_attributes = true;
        batch_options.faults = options_.faults;
        batch_options.stream_spill_budget_bytes =
            options_.stream_spill_budget_bytes;
        plan->validator = std::make_unique<BatchValidator>(
            plan->dtd, plan->sigma, batch_options);
        // Footprint estimate: automata and plan indexes scale with the
        // declaration text; the constant covers fixed per-plan overhead.
        plan->bytes = 4096 + shell.value().subset.size() * 16;
        return PlanPtr(std::move(plan));
      },
      cache_hit);
}

Result<PlanPtr> Dispatcher::ResolvePlan(const Request& request,
                                        const std::string& id,
                                        bool* cache_hit,
                                        RequestTiming* timing) {
  const std::string schema = request.header("schema");
  if (!schema.empty()) {
    PlanPtr plan = cache_.Lookup(schema);
    if (plan == nullptr) {
      if (cache_hit != nullptr) *cache_hit = false;
      return Status::InvalidArgument("unknown schema " + schema +
                                     " (send schema.put first)");
    }
    if (cache_hit != nullptr) *cache_hit = true;
    return plan;
  }
  return CompileIntoCache(request.body, id, cache_hit, timing,
                          OverridesFor(request));
}

Response Dispatcher::Handle(const Request& request) {
  const auto start = std::chrono::steady_clock::now();
  std::string id = request.id();
  if (id.empty()) {
    id = request.verb + "#" +
         std::to_string(
             next_request_id_.fetch_add(1, std::memory_order_relaxed));
  }
  // The trace id is the client's token (sanitized for header transport)
  // or, absent one, a hash of the request id -- either way a pure
  // function of the request, so the echoed header never breaks
  // byte-stability across thread counts. Installed as the thread's
  // ambient id BEFORE the first span opens, so every span this request
  // creates carries it, the engine's included: plans run their one
  // document inline on this thread.
  std::string trace_id = request.header("trace-id");
  trace_id = trace_id.empty() ? ContentHash(id) : HeaderSafe(trace_id);
  obs::ScopedTraceId scoped_trace(trace_id);
  obs::ScopedSpan span("serve.request", "serve");
  span.AddString("verb", request.verb);
  XIC_COUNTER_ADD("serve.requests", 1);
  RequestTiming timing;
  timing.queue_us = request.queue_us;
  // All exits funnel through the common tail below (headers, latency
  // histograms, flight record), so admission refusals are observed the
  // same way served requests are.
  Response response = [&]() -> Response {
    {
      // Admission: deterministic checks before any parsing. The
      // timing-dependent checks (queue depth, in-flight bytes) live in
      // the socket layer and reuse ShedResponse for identical wire bytes.
      obs::ScopedSpan admit_span("serve.admit", "serve");
      if (injector_.Faulted("serve.admit", id)) {
        XIC_COUNTER_ADD("serve.faults", 1);
        XIC_COUNTER_ADD("serve.shed", 1);
        timing.fault = true;
        return ShedResponse("admission fault injected");
      }
      if (options_.max_request_bytes > 0 &&
          request.body.size() > options_.max_request_bytes) {
        XIC_COUNTER_ADD("serve.rejected_bytes", 1);
        return ErrorResponse(Status::LimitExceeded(
            "max_request_bytes",
            "request body of " + std::to_string(request.body.size()) +
                " bytes exceeds " +
                std::to_string(options_.max_request_bytes)));
      }
    }
    const size_t attempts = AttemptsFor(request);
    Response attempt_response;
    for (size_t attempt = 0;; ++attempt) {
      if (attempt > 0) BackoffSleep(options_.backoff, id, attempt);
      attempt_response = HandleOnce(request, id, attempt, &timing);
      attempt_response.headers["attempts"] = std::to_string(attempt + 1);
      if (attempt_response.status.code() != StatusCode::kUnavailable ||
          attempt + 1 >= attempts) {
        break;
      }
      XIC_COUNTER_ADD("serve.retries", 1);
    }
    if (attempt_response.status.code() == StatusCode::kUnavailable) {
      attempt_response.headers["retry-after-ms"] =
          std::to_string(options_.retry_after_ms);
    }
    if (attempt_response.status.code() == StatusCode::kDeadlineExceeded) {
      XIC_COUNTER_ADD("serve.timeouts", 1);
    }
    if (!attempt_response.status.ok()) {
      XIC_COUNTER_ADD("serve.errors", 1);
    }
    return attempt_response;
  }();
  response.headers["id"] = HeaderSafe(id);
  response.headers["trace-id"] = trace_id;
  const uint64_t total_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  ObserveLatency(request.verb, total_us, timing);
  RecordFlight(request, response, trace_id, total_us, timing);
  return response;
}

Response Dispatcher::HandleOnce(const Request& request,
                                const std::string& id, size_t attempt,
                                RequestTiming* timing) {
  try {
    if (Status s = injector_.MaybeFail("serve.dispatch", id,
                                       static_cast<int>(attempt));
        !s.ok()) {
      XIC_COUNTER_ADD("serve.faults", 1);
      if (timing != nullptr) timing->fault = true;
      return ErrorResponse(s);
    }
    const std::string& verb = request.verb;
    if (verb == "ping") {
      Response response;
      response.body = "pong\n";
      return response;
    }
    if (verb == "validate") {
      return DoValidate(request, id, attempt, timing, /*stream=*/false);
    }
    if (verb == "validate.stream") {
      return DoValidate(request, id, attempt, timing, /*stream=*/true);
    }
    if (verb == "lint") return DoLint(request, id, timing);
    if (verb == "imply") return DoImply(request, id, timing);
    if (verb == "schema.put") return DoSchemaPut(request, id, timing);
    if (verb == "session.open" || verb == "session.apply" ||
        verb == "session.close") {
      return DoSession(request, id, timing);
    }
    if (verb == "stats") return DoStats(request);
    if (verb == "stats.prom") return DoStatsProm(request);
    if (verb == "debugz") return DoDebugz(request);
    return ErrorResponse(
        Status::InvalidArgument("unknown verb: " + verb));
  } catch (const std::exception& e) {
    // A request must never tear down the daemon: anything escaping the
    // verb handlers becomes this request's response.
    XIC_COUNTER_ADD("serve.request_exceptions", 1);
    return ErrorResponse(
        Status::Internal(std::string("uncaught exception: ") + e.what()));
  } catch (...) {
    XIC_COUNTER_ADD("serve.request_exceptions", 1);
    return ErrorResponse(Status::Internal("uncaught exception"));
  }
}

Response Dispatcher::DoSchemaPut(const Request& request,
                                 const std::string& id,
                                 RequestTiming* timing) {
  bool cache_hit = false;
  Result<PlanPtr> plan = CompileIntoCache(request.body, id, &cache_hit,
                                          timing, OverridesFor(request));
  if (!plan.ok()) return ErrorResponse(plan.status());
  Response response;
  response.headers["schema"] = plan.value()->key;
  response.headers["cache"] = cache_hit ? "hit" : "miss";
  response.body = "schema " + plan.value()->key + "\n";
  return response;
}

Response Dispatcher::DoValidate(const Request& request,
                                const std::string& id, size_t attempt,
                                RequestTiming* timing, bool stream) {
  bool cache_hit = false;
  Result<PlanPtr> plan = ResolvePlan(request, id, &cache_hit, timing);
  if (!plan.ok()) return ErrorResponse(plan.status());
  if (cache_hit) {
    obs::ScopedSpan hit_span("serve.cache_hit", "serve");
    hit_span.AddString("schema", plan.value()->key);
  }
  RunOverrides overrides = OverridesFor(request);
  // Handle() owns the retry loop (bounded attempts + backoff on
  // kUnavailable); the plan's validator runs one attempt per call.
  // Threading the outer attempt index into the engine's fault numbering
  // keeps injected transient faults clearing on the retry.
  overrides.attempt_base = attempt;
  BatchDocument document;
  document.name = request.header("name", "request:" + HeaderSafe(id));
  document.text = request.body;
  BatchReport report;
  {
    obs::ScopedSpan run_span("serve.run", "serve");
    PhaseTimer run_timer(timing == nullptr ? nullptr : &timing->run_us);
    report = plan.value()->validator->Run({document}, overrides);
  }
  const DocumentOutcome& outcome = report.outcomes[0];
  Response response;
  response.status = outcome.infrastructure_status();
  response.headers["schema"] = plan.value()->key;
  response.headers["cache"] = cache_hit ? "hit" : "miss";
  if (stream) response.headers["mode"] = "stream";
  if (response.status.ok()) {
    response.headers["verdict"] = outcome.verdict();
  } else {
    response.headers["error"] = HeaderSafe(response.status.message());
  }
  response.body = report.ToJson(plan.value()->sigma);
  return response;
}

Response Dispatcher::DoLint(const Request& request, const std::string& id,
                            RequestTiming* timing) {
  bool cache_hit = false;
  Result<PlanPtr> plan = ResolvePlan(request, id, &cache_hit, timing);
  if (!plan.ok()) return ErrorResponse(plan.status());
  RunOverrides overrides = OverridesFor(request);
  AnalysisOptions analysis;
  analysis.limits = overrides.limits.value_or(options_.limits);
  uint64_t deadline_ms = overrides.document_timeout_ms.value_or(0);
  if (deadline_ms > 0) {
    analysis.deadline = Deadline::AfterMillis(deadline_ms);
  }
  AnalysisReport report;
  {
    obs::ScopedSpan run_span("serve.run", "serve");
    PhaseTimer run_timer(timing == nullptr ? nullptr : &timing->run_us);
    report =
        Analyzer().Analyze(plan.value()->dtd, plan.value()->sigma, analysis);
  }
  Response response;
  response.status = report.status;
  response.headers["schema"] = plan.value()->key;
  response.headers["cache"] = cache_hit ? "hit" : "miss";
  response.headers["diagnostics"] =
      std::to_string(report.diagnostics.size());
  response.body = report.ToJson();
  return response;
}

Response Dispatcher::DoImply(const Request& request,
                             const std::string& /*id*/,
                             RequestTiming* timing) {
  const std::string lang = request.header("lang", "lid");
  const std::string schema = request.header("schema");
  const std::string memo_key = lang + '\n' + schema + '\n' + request.body;
  {
    util::MutexLock lock(&memo_mutex_);
    auto it = memo_index_.find(memo_key);
    if (it != memo_index_.end()) {
      memo_lru_.splice(memo_lru_.begin(), memo_lru_, it->second);
      XIC_COUNTER_ADD("serve.imply.memo_hits", 1);
      Response response;
      response.headers["memo"] = "hit";
      response.body = it->second->second;
      return response;
    }
  }
  // Split the body into the sigma section and the query section at the
  // first line consisting of "?".
  std::vector<std::string> lines = Split(request.body, '\n');
  std::string sigma_text;
  std::string query_text;
  bool in_query = false;
  for (const std::string& line : lines) {
    if (!in_query && StripWhitespace(line) == "?") {
      in_query = true;
      continue;
    }
    (in_query ? query_text : sigma_text) += line + "\n";
  }
  if (!in_query) {
    return ErrorResponse(Status::InvalidArgument(
        "imply body must contain a '?' separator line between Sigma and "
        "the queries"));
  }
  Language language = Language::kLid;
  if (lang == "lu" || lang == "lu-finite") {
    language = Language::kLu;
  } else if (lang == "lp") {
    language = Language::kL;
  } else if (lang != "lid") {
    return ErrorResponse(
        Status::InvalidArgument("unknown lang: " + lang));
  }
  Result<ConstraintSet> sigma = ParseConstraintSet(sigma_text, language);
  if (!sigma.ok()) return ErrorResponse(sigma.status());
  Result<std::vector<Constraint>> queries = ParseConstraints(query_text);
  if (!queries.ok()) return ErrorResponse(queries.status());
  if (queries.value().empty()) {
    return ErrorResponse(
        Status::InvalidArgument("imply needs at least one query"));
  }

  // The solver dance, one per language family.
  obs::ScopedSpan run_span("serve.run", "serve");
  PhaseTimer run_timer(timing == nullptr ? nullptr : &timing->run_us);
  std::string body;
  if (lang == "lid") {
    PlanPtr plan;
    if (!schema.empty()) {
      plan = cache_.Lookup(schema);
      if (plan == nullptr) {
        return ErrorResponse(Status::InvalidArgument(
            "unknown schema " + schema + " (send schema.put first)"));
      }
    } else {
      return ErrorResponse(Status::InvalidArgument(
          "lang=lid needs schema=<hash> (the DTD resolves .id fields)"));
    }
    LidSolver solver(plan->dtd, sigma.value());
    if (!solver.status().ok()) return ErrorResponse(solver.status());
    for (const Constraint& query : queries.value()) {
      body += std::string("implied ") +
              (solver.Implies(query) ? "true" : "false") + " " +
              query.ToString() + "\n";
    }
  } else if (lang == "lu" || lang == "lu-finite") {
    LuSolver solver(sigma.value());
    if (!solver.status().ok()) return ErrorResponse(solver.status());
    const bool finite = lang == "lu-finite";
    for (const Constraint& query : queries.value()) {
      bool implied = finite ? solver.FinitelyImplies(query)
                            : solver.Implies(query);
      body += std::string("implied ") + (implied ? "true" : "false") +
              " " + query.ToString() + "\n";
    }
  } else {  // lp
    LpSolver solver(sigma.value());
    if (!solver.status().ok()) return ErrorResponse(solver.status());
    for (const Constraint& query : queries.value()) {
      Result<bool> implied = solver.Implies(query);
      if (!implied.ok()) return ErrorResponse(implied.status());
      body += std::string("implied ") +
              (implied.value() ? "true" : "false") + " " +
              query.ToString() + "\n";
    }
  }

  {
    util::MutexLock lock(&memo_mutex_);
    if (memo_index_.find(memo_key) == memo_index_.end()) {
      memo_lru_.emplace_front(memo_key, body);
      memo_index_[memo_key] = memo_lru_.begin();
      while (memo_index_.size() > options_.imply_memo_entries &&
             memo_lru_.size() > 1) {
        memo_index_.erase(memo_lru_.back().first);
        memo_lru_.pop_back();
      }
    }
  }
  Response response;
  response.headers["memo"] = "miss";
  response.body = std::move(body);
  return response;
}

Response Dispatcher::DoSession(const Request& request,
                               const std::string& id,
                               RequestTiming* timing) {
  const std::string name = request.header("session");
  if (request.verb == "session.open") {
    if (sessions_.size() >= options_.sessions.max_sessions) {
      XIC_COUNTER_ADD("serve.shed", 1);
      return ShedResponse("session registry full");
    }
    bool cache_hit = false;
    Result<PlanPtr> plan = ResolvePlan(request, id, &cache_hit, timing);
    if (!plan.ok()) return ErrorResponse(plan.status());
    Result<std::string> opened = sessions_.Open(name, plan.value());
    if (!opened.ok()) return ErrorResponse(opened.status());
    Response response;
    response.headers["session"] = opened.value();
    response.headers["schema"] = plan.value()->key;
    response.body = "session " + opened.value() + "\n";
    return response;
  }
  if (name.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("missing session=<name> header"));
  }
  if (request.verb == "session.close") {
    if (Status s = sessions_.Close(name); !s.ok()) {
      return ErrorResponse(s);
    }
    Response response;
    response.body = "closed " + name + "\n";
    return response;
  }
  // session.apply
  Result<std::string> body = [&] {
    PhaseTimer run_timer(timing == nullptr ? nullptr : &timing->run_us);
    return sessions_.Apply(name, request.body, injector_, id);
  }();
  if (!body.ok()) return ErrorResponse(body.status());
  Response response;
  response.headers["session"] = name;
  response.body = body.value();
  return response;
}

Response Dispatcher::DoStats(const Request&) {
  using Layout = util::JsonWriter::Layout;
  PlanCache::Stats cache_stats = cache_.stats();
  SessionRegistry::Stats session_stats = sessions_.stats();
  util::JsonWriter w;
  w.BeginObject(Layout::kIndented);
  w.Key("schema");
  w.String("xic-serve-stats-v1");
  w.Key("cache");
  w.BeginObject(Layout::kInline);
  w.Key("entries");
  w.Number(static_cast<uint64_t>(cache_.entries()));
  w.Key("bytes");
  w.Number(static_cast<uint64_t>(cache_.bytes()));
  w.Key("hits");
  w.Number(cache_stats.hits);
  w.Key("misses");
  w.Number(cache_stats.misses);
  w.Key("evictions");
  w.Number(cache_stats.evictions);
  w.Key("negative_hits");
  w.Number(cache_stats.negative_hits);
  w.Key("compile_failures");
  w.Number(cache_stats.compile_failures);
  w.Key("single_flight_waits");
  w.Number(cache_stats.single_flight_waits);
  w.EndObject();
  w.Key("sessions");
  w.BeginObject(Layout::kInline);
  w.Key("open");
  w.Number(static_cast<uint64_t>(sessions_.size()));
  w.Key("opened");
  w.Number(session_stats.opened);
  w.Key("closed");
  w.Number(session_stats.closed);
  w.Key("reaped");
  w.Number(session_stats.reaped);
  w.Key("refused");
  w.Number(session_stats.refused);
  w.EndObject();
  w.Key("flightrec");
  w.BeginObject(Layout::kInline);
  w.Key("capacity");
  w.Number(static_cast<uint64_t>(recorder_.capacity()));
  w.Key("recorded");
  w.Number(recorder_.recorded());
  w.Key("dropped");
  w.Number(recorder_.dropped());
  w.EndObject();
  w.EndObject();
  Response response;
  response.body = w.TakeString() + "\n";
  return response;
}

Response Dispatcher::DoStatsProm(const Request&) {
  Response response;
  response.body = StatsProm();
  return response;
}

Response Dispatcher::DoDebugz(const Request&) {
  Response response;
  response.body = recorder_.DebugString();
  return response;
}

std::string Dispatcher::StatsProm() {
  obs::MetricsSnapshot snapshot = obs::Registry::Global().Snapshot();
  // Layer the dispatcher's own state over the registry: these live in
  // their subsystems' structs (not registry counters), and under
  // -DXIC_OBS=OFF they are the only metrics there are.
  PlanCache::Stats cache_stats = cache_.stats();
  SessionRegistry::Stats session_stats = sessions_.stats();
  snapshot.counters["serve.cache.hits"] = cache_stats.hits;
  snapshot.counters["serve.cache.misses"] = cache_stats.misses;
  snapshot.counters["serve.cache.evictions"] = cache_stats.evictions;
  snapshot.counters["serve.cache.negative_hits"] =
      cache_stats.negative_hits;
  snapshot.counters["serve.cache.compile_failures"] =
      cache_stats.compile_failures;
  snapshot.counters["serve.cache.single_flight_waits"] =
      cache_stats.single_flight_waits;
  snapshot.counters["serve.sessions.opened"] = session_stats.opened;
  snapshot.counters["serve.sessions.closed"] = session_stats.closed;
  snapshot.counters["serve.sessions.reaped"] = session_stats.reaped;
  snapshot.counters["serve.sessions.refused"] = session_stats.refused;
  snapshot.counters["serve.flightrec_recorded"] = recorder_.recorded();
  snapshot.counters["serve.flightrec_dropped"] = recorder_.dropped();
  snapshot.gauges["serve.cache.entries"] =
      static_cast<double>(cache_.entries());
  snapshot.gauges["serve.cache.bytes"] =
      static_cast<double>(cache_.bytes());
  snapshot.gauges["serve.sessions.open"] =
      static_cast<double>(sessions_.size());
  return obs::PrometheusText(snapshot);
}

void Dispatcher::ObserveLatency(const std::string& verb, uint64_t total_us,
                                const RequestTiming& timing) {
#if XIC_OBS_ENABLED
  const double total_ms = static_cast<double>(total_us) / 1000.0;
  XIC_HISTOGRAM_OBSERVE("serve.request.ms", total_ms,
                        XIC_SERVE_LATENCY_BUCKETS);
  // queue-wait is observed once per connection by the socket layer
  // ("serve.queue_wait.ms" in server.cc); here it only feeds the flight
  // recorder's breakdown, so it is not re-observed per request.
  if (timing.compile_us > 0) {
    XIC_HISTOGRAM_OBSERVE("serve.compile.ms",
                          static_cast<double>(timing.compile_us) / 1000.0,
                          XIC_SERVE_LATENCY_BUCKETS);
  }
  if (timing.run_us > 0) {
    XIC_HISTOGRAM_OBSERVE("serve.check.ms",
                          static_cast<double>(timing.run_us) / 1000.0,
                          XIC_SERVE_LATENCY_BUCKETS);
  }
  // Per-verb families. XIC_HISTOGRAM_OBSERVE caches its registry lookup
  // per call site, so each verb needs its own literal-name site; unknown
  // verbs share one family rather than minting unbounded metric names.
  if (verb == "validate") {
    XIC_HISTOGRAM_OBSERVE("serve.verb.validate.ms", total_ms,
                          XIC_SERVE_LATENCY_BUCKETS);
  } else if (verb == "validate.stream") {
    XIC_HISTOGRAM_OBSERVE("serve.verb.validate_stream.ms", total_ms,
                          XIC_SERVE_LATENCY_BUCKETS);
  } else if (verb == "ping") {
    XIC_HISTOGRAM_OBSERVE("serve.verb.ping.ms", total_ms,
                          XIC_SERVE_LATENCY_BUCKETS);
  } else if (verb == "lint") {
    XIC_HISTOGRAM_OBSERVE("serve.verb.lint.ms", total_ms,
                          XIC_SERVE_LATENCY_BUCKETS);
  } else if (verb == "imply") {
    XIC_HISTOGRAM_OBSERVE("serve.verb.imply.ms", total_ms,
                          XIC_SERVE_LATENCY_BUCKETS);
  } else if (verb == "schema.put") {
    XIC_HISTOGRAM_OBSERVE("serve.verb.schema_put.ms", total_ms,
                          XIC_SERVE_LATENCY_BUCKETS);
  } else if (verb == "session.open") {
    XIC_HISTOGRAM_OBSERVE("serve.verb.session_open.ms", total_ms,
                          XIC_SERVE_LATENCY_BUCKETS);
  } else if (verb == "session.apply") {
    XIC_HISTOGRAM_OBSERVE("serve.verb.session_apply.ms", total_ms,
                          XIC_SERVE_LATENCY_BUCKETS);
  } else if (verb == "session.close") {
    XIC_HISTOGRAM_OBSERVE("serve.verb.session_close.ms", total_ms,
                          XIC_SERVE_LATENCY_BUCKETS);
  } else if (verb == "stats" || verb == "stats.prom" || verb == "debugz") {
    XIC_HISTOGRAM_OBSERVE("serve.verb.stats.ms", total_ms,
                          XIC_SERVE_LATENCY_BUCKETS);
  } else {
    XIC_HISTOGRAM_OBSERVE("serve.verb.other.ms", total_ms,
                          XIC_SERVE_LATENCY_BUCKETS);
  }
#else
  (void)verb;
  (void)total_us;
  (void)timing;
#endif
}

void Dispatcher::RecordFlight(const Request& request,
                              const Response& response,
                              const std::string& trace_id,
                              uint64_t total_us,
                              const RequestTiming& timing) {
  if (!recorder_.enabled()) return;
  obs::FlightRecorder::Record record;
  record.verb = request.verb;
  record.trace_id = trace_id;
  record.status = std::string(WireCode(response.status.code()));
  record.duration_us = total_us;
  record.fault = timing.fault;
  // Load sheds are ShedResponse()-shaped: kUnavailable with the
  // "overloaded: " message prefix (plain transient failures are not
  // sheds). The socket layer's sheds never reach here; it records them
  // itself via flight_recorder().
  record.shed =
      response.status.code() == StatusCode::kUnavailable &&
      response.status.message().rfind("overloaded: ", 0) == 0;
  if (total_us >= recorder_.slow_threshold_us()) {
    // Slow request: promote the phase breakdown so the dump answers
    // "where did the time go" without a trace session.
    record.detail = "queue_us=" + std::to_string(timing.queue_us) +
                    " compile_us=" + std::to_string(timing.compile_us) +
                    " run_us=" + std::to_string(timing.run_us);
    auto attempts = response.headers.find("attempts");
    if (attempts != response.headers.end()) {
      record.detail += " attempts=" + attempts->second;
    }
  }
  recorder_.Add(std::move(record));
}

}  // namespace xic::serve
