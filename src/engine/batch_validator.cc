#include "engine/batch_validator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>

#include "engine/thread_pool.h"
#include "obs/obs.h"
#include "util/json_writer.h"

namespace xic {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::string Fmt(const char* format, double a, double b) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), format, a, b);
  return buffer;
}

// Status codes that mean "the pipeline could not finish", as opposed to a
// verdict about the document itself.
bool IsInfrastructureStatus(const Status& s) {
  switch (s.code()) {
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

}  // namespace

Status DocumentOutcome::infrastructure_status() const {
  if (!error.ok()) return error;
  if (IsInfrastructureStatus(parse)) return parse;
  if (IsInfrastructureStatus(structure.status)) return structure.status;
  if (IsInfrastructureStatus(constraints.status)) return constraints.status;
  return Status::OK();
}

const char* DocumentOutcome::verdict() const {
  if (infrastructure_failure()) return "infrastructure_failure";
  if (!parse.ok()) return "parse_error";
  if (!structure.ok()) return "invalid_structure";
  if (!constraints.ok()) return "constraint_violations";
  return "ok";
}

std::string BatchStats::ToString() const {
  // `ok_documents` is counted straight from the outcomes; deriving it as
  // documents minus the failure buckets underflowed when a document
  // landed in more than one bucket.
  std::string out;
  out += "batch: " + std::to_string(documents) + " document(s), " +
         std::to_string(ok_documents) + " ok, " +
         std::to_string(parse_failures) +
         " parse failure(s), " + std::to_string(structurally_invalid) +
         " structurally invalid, " + std::to_string(constraint_violating) +
         " with constraint violations, " +
         std::to_string(resource_failures) +
         " resource/fault failure(s), " + std::to_string(retries) +
         " retry(ies)\n";
  out += "       " + std::to_string(total_vertices) + " vertices, " +
         std::to_string(total_violations) + " violation(s)\n";
  double docs_per_sec = wall_seconds > 0 ? documents / wall_seconds : 0;
  out += Fmt("wall:  %.3f s (%.1f docs/s) on ", wall_seconds, docs_per_sec) +
         std::to_string(threads) + " thread(s)\n";
  out += Fmt("stage: parse+structure %.3f s, constraints %.3f s\n",
             parse_seconds, constraints_seconds);
  return out;
}

bool BatchReport::all_ok() const {
  for (const DocumentOutcome& outcome : outcomes) {
    if (!outcome.ok()) return false;
  }
  return true;
}

bool BatchReport::any_infrastructure_failure() const {
  for (const DocumentOutcome& outcome : outcomes) {
    if (outcome.infrastructure_failure()) return true;
  }
  return false;
}

std::string BatchReport::ViolationsToString(const ConstraintSet& sigma) const {
  std::string out;
  for (const DocumentOutcome& o : outcomes) {
    if (o.ok()) continue;
    if (!o.error.ok()) {
      out += o.name + ": " + o.error.ToString() + "\n";
      continue;
    }
    if (!o.parse.ok()) {
      out += o.name + ": " + o.parse.ToString() + "\n";
      continue;
    }
    if (!o.structure.status.ok()) {
      out += o.name + ": structure: " + o.structure.status.ToString() + "\n";
    }
    for (const Violation& v : o.structure.violations) {
      out += o.name + ": structure: vertex " + std::to_string(v.vertex) +
             ": " + v.message + "\n";
    }
    if (!o.constraints.status.ok()) {
      out += o.name + ": constraints: " + o.constraints.status.ToString() +
             "\n";
    }
    for (const ConstraintViolation& v : o.constraints.violations) {
      out += o.name + ": " +
             sigma.constraints[v.constraint_index].ToString() + ": " +
             v.message + "\n";
    }
  }
  return out;
}

namespace {

std::string Quoted(std::string_view s) {
  return "\"" + util::JsonWriter::Escape(s) + "\"";
}

bool HasCode(const DocumentOutcome& o, StatusCode code) {
  return o.error.code() == code || o.parse.code() == code ||
         o.structure.status.code() == code ||
         o.constraints.status.code() == code;
}

}  // namespace

std::string BatchReport::ToJson(const ConstraintSet& sigma) const {
  // Deterministic by construction: input order, no timings, no thread or
  // worker identities (`stats.threads` is also omitted so one corpus
  // renders identically at every --threads setting).
  std::string out = "{\n  \"schema\": \"xic-batch-report-v1\",\n";
  out += "  \"documents\": [";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const DocumentOutcome& o = outcomes[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": " + Quoted(o.name);
    out += ", \"verdict\": \"" + std::string(o.verdict()) + "\"";
    out += ", \"attempts\": " + std::to_string(o.attempts);
    out += ", \"retries\": " + std::to_string(o.attempts - 1);
    out += ", \"vertices\": " + std::to_string(o.vertices);
    out += std::string(", \"timed_out\": ") +
           (HasCode(o, StatusCode::kDeadlineExceeded) ? "true" : "false");
    out += std::string(", \"faulted\": ") +
           (HasCode(o, StatusCode::kUnavailable) ? "true" : "false");
    if (!o.error.ok()) {
      out += std::string(", \"error\": {\"code\": \"") +
             StatusCodeToString(o.error.code()) +
             "\", \"message\": " + Quoted(o.error.message()) + "}";
    }
    if (!o.parse.ok()) {
      out += ", \"parse_error\": " + Quoted(o.parse.ToString());
    }
    if (!o.structure.status.ok()) {
      out += ", \"structure_error\": " +
             Quoted(o.structure.status.ToString());
    }
    if (!o.constraints.status.ok()) {
      out += ", \"constraints_error\": " +
             Quoted(o.constraints.status.ToString());
    }
    if (!o.structure.violations.empty()) {
      out += ", \"structure_violations\": [";
      for (size_t v = 0; v < o.structure.violations.size(); ++v) {
        const Violation& viol = o.structure.violations[v];
        if (v > 0) out += ", ";
        out += "{\"vertex\": " + std::to_string(viol.vertex) +
               ", \"message\": " + Quoted(viol.message) + "}";
      }
      out += "]";
    }
    if (!o.constraints.violations.empty()) {
      out += ", \"constraint_violations\": [";
      for (size_t v = 0; v < o.constraints.violations.size(); ++v) {
        const ConstraintViolation& viol = o.constraints.violations[v];
        if (v > 0) out += ", ";
        out += "{\"constraint\": " +
               Quoted(
                   sigma.constraints[viol.constraint_index].ToString()) +
               ", \"message\": " + Quoted(viol.message) + "}";
      }
      out += "]";
    }
    out += "}";
  }
  out += outcomes.empty() ? "],\n" : "\n  ],\n";
  out += "  \"stats\": {";
  out += "\"documents\": " + std::to_string(stats.documents);
  out += ", \"ok_documents\": " + std::to_string(stats.ok_documents);
  out += ", \"parse_failures\": " + std::to_string(stats.parse_failures);
  out += ", \"structurally_invalid\": " +
         std::to_string(stats.structurally_invalid);
  out += ", \"constraint_violating\": " +
         std::to_string(stats.constraint_violating);
  out += ", \"resource_failures\": " +
         std::to_string(stats.resource_failures);
  out += ", \"retries\": " + std::to_string(stats.retries);
  out += ", \"total_vertices\": " + std::to_string(stats.total_vertices);
  out += ", \"total_violations\": " +
         std::to_string(stats.total_violations);
  out += "}\n}\n";
  return out;
}

namespace {

StreamOptions StreamOptionsFor(const BatchOptions& options) {
  StreamOptions stream;
  stream.validation = options.validation;
  // The single limits knob wins over whatever `validation` carried (the
  // CLI and tests set BatchOptions::limits only).
  stream.validation.limits = options.limits;
  stream.check = options.check;
  stream.limits = options.limits;
  stream.spill_budget_bytes = options.stream_spill_budget_bytes;
  return stream;
}

}  // namespace

BatchValidator::BatchValidator(const DtdStructure& dtd,
                               const ConstraintSet& sigma,
                               BatchOptions options)
    : options_(std::move(options)),
      streamer_(dtd, sigma, StreamOptionsFor(options_)),
      injector_(options_.faults) {}

Deadline BatchValidator::DocumentDeadline(
    const RunOverrides& overrides) const {
  uint64_t timeout_ms =
      overrides.document_timeout_ms.value_or(options_.document_timeout_ms);
  return timeout_ms == 0 ? Deadline::Infinite()
                         : Deadline::AfterMillis(timeout_ms);
}

DocumentOutcome BatchValidator::CheckOne(
    const BatchDocument& doc, const RunOverrides& overrides) const {
  const size_t max_attempts = std::max<size_t>(1, options_.max_attempts);
  DocumentOutcome outcome;
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    outcome = CheckOneAttempt(doc, overrides.attempt_base + attempt,
                              overrides);
    outcome.attempts = attempt + 1;
    // Only transient failures are worth retrying; limits and deadlines
    // would trip identically on the next attempt.
    if (outcome.error.code() != StatusCode::kUnavailable) break;
  }
  return outcome;
}

DocumentOutcome BatchValidator::CheckOneAttempt(
    const BatchDocument& doc, size_t attempt,
    const RunOverrides& overrides) const {
  DocumentOutcome outcome;
  outcome.name = doc.name;
  obs::ScopedSpan span("batch.attempt", "engine");
  span.SetSeq(static_cast<int64_t>(attempt));
  span.AddInt("attempt", static_cast<int64_t>(attempt));
  // The whole attempt runs under one try: anything a stage (or the fault
  // injector in throwing mode) throws becomes this document's outcome
  // instead of tearing down the batch.
  try {
    Clock::time_point start = Clock::now();
    if (Status s = injector_.MaybeFail("parse", doc.name,
                                       static_cast<int>(attempt));
        !s.ok()) {
      XIC_COUNTER_ADD("engine.batch.faults", 1);
      span.AddString("fault", "parse");
      outcome.error = std::move(s);
      return outcome;
    }
    StringSource source(doc.text);
    StreamOutcome so =
        streamer_.Run(source, DocumentDeadline(overrides),
                      overrides.limits.value_or(options_.limits));
    outcome.parse = std::move(so.parse);
    // A document that fails to parse never reaches a verdict and reports
    // zero vertices, not the count the pass had reached.
    outcome.vertices = outcome.parse.ok() ? so.stats.vertices : 0;
    outcome.structure = std::move(so.structure);
    outcome.constraints = std::move(so.constraints);
    outcome.constraints_seconds = so.stats.assemble_seconds;
    outcome.parse_seconds =
        Seconds(start, Clock::now()) - outcome.constraints_seconds;
  } catch (const std::exception& e) {
    outcome.error =
        Status::Internal(std::string("uncaught exception: ") + e.what());
  } catch (...) {
    outcome.error = Status::Internal("uncaught exception");
  }
  return outcome;
}

BatchReport BatchValidator::Run(
    const std::vector<BatchDocument>& corpus) const {
  return Run(corpus, RunOverrides{});
}

BatchReport BatchValidator::Run(const std::vector<BatchDocument>& corpus,
                                const RunOverrides& overrides) const {
  obs::ScopedSpan batch_span("batch.run", "engine");
  BatchReport report;
  report.outcomes.resize(corpus.size());
  Clock::time_point start = Clock::now();
  size_t threads = options_.num_threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  // One document's full pipeline (all attempts), wrapped in a span tagged
  // with its deterministic input index. queue_wait measures fan-out start
  // to pipeline start -- on the pool path that approximates time sitting
  // in the worker deques.
  auto run_one = [&](size_t i) {
    obs::ScopedSpan doc_span("batch.document", "engine");
    doc_span.SetSeq(static_cast<int64_t>(i));
    double queue_wait = Seconds(start, Clock::now());
    Clock::time_point doc_start = Clock::now();
    DocumentOutcome& o = report.outcomes[i];
    o = CheckOne(corpus[i], overrides);
    o.queue_wait_seconds = queue_wait;
    o.worker = ThreadPool::current_worker();
    double doc_seconds = Seconds(doc_start, Clock::now());
    XIC_COUNTER_ADD("engine.batch.documents", 1);
    XIC_COUNTER_ADD("engine.batch.retries", o.attempts - 1);
    XIC_HISTOGRAM_OBSERVE("engine.batch.doc_ms", doc_seconds * 1e3,
                          {0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0});
    if (doc_span.active()) {
      doc_span.AddString("doc", o.name);
      doc_span.AddInt("worker", o.worker);
      doc_span.AddInt("attempts", static_cast<int64_t>(o.attempts));
      doc_span.AddInt("vertices", static_cast<int64_t>(o.vertices));
      doc_span.AddInt("structure_steps",
                      static_cast<int64_t>(o.structure.steps));
      doc_span.AddInt("constraint_steps",
                      static_cast<int64_t>(o.constraints.steps));
      doc_span.AddDouble("queue_wait_ms", queue_wait * 1e3);
      doc_span.AddDouble("run_ms", doc_seconds * 1e3);
      if (!o.error.ok()) {
        doc_span.AddString("error", StatusCodeToString(o.error.code()));
      }
    }
  };
  if (threads <= 1 || corpus.size() <= 1) {
    threads = 1;
    for (size_t i = 0; i < corpus.size(); ++i) run_one(i);
  } else {
    ThreadPool pool(threads);
    // Each worker writes only its own outcome slot; the Wait() inside
    // ParallelFor publishes them to this thread.
    pool.ParallelFor(corpus.size(), run_one);
  }
  report.stats.wall_seconds = Seconds(start, Clock::now());
  report.stats.threads = threads;
  report.stats.documents = corpus.size();
  for (const DocumentOutcome& o : report.outcomes) {
    if (o.ok()) ++report.stats.ok_documents;
    if (o.attempts > 1) report.stats.retries += o.attempts - 1;
    if (o.infrastructure_failure()) {
      ++report.stats.resource_failures;
    } else if (!o.parse.ok()) {
      ++report.stats.parse_failures;
    } else if (!o.structure.ok()) {
      ++report.stats.structurally_invalid;
    } else if (!o.constraints.ok()) {
      ++report.stats.constraint_violating;
    }
    report.stats.total_vertices += o.vertices;
    report.stats.total_violations +=
        o.structure.violations.size() + o.constraints.violations.size();
    report.stats.parse_seconds += o.parse_seconds;
    report.stats.constraints_seconds += o.constraints_seconds;
  }
  XIC_COUNTER_ADD("engine.batch.runs", 1);
  XIC_COUNTER_ADD("engine.batch.resource_failures",
                  report.stats.resource_failures);
  if (batch_span.active()) {
    batch_span.AddInt("documents",
                      static_cast<int64_t>(report.stats.documents));
    batch_span.AddInt("threads", static_cast<int64_t>(threads));
    batch_span.AddInt("retries", static_cast<int64_t>(report.stats.retries));
    batch_span.AddInt("violations",
                      static_cast<int64_t>(report.stats.total_violations));
  }
  return report;
}

}  // namespace xic
