// Parallel batch validation: the paper's single-document check
// (Definition 2.4 structure + G |= Sigma) turned into a throughput-
// oriented pipeline.
//
// A BatchValidator compiles the expensive shared state once -- a
// StreamValidator (engine/stream_validator.h) holding the DTD's Glushkov
// automata and the constraint extraction plan -- and then fans a corpus
// of documents out across a work-stealing thread pool
// (engine/thread_pool.h). Per document one streaming pass tokenizes the
// bytes, runs the structural automata and extracts constraint tuples, and
// a post-pass evaluates G |= Sigma over the extent logs; no tree is
// built, so a worker's memory per document is bounded by the spill
// budget, not by the document. Every mutable intermediate lives on the
// worker's stack.
//
// Determinism: outcomes are stored at the document's input index, and the
// per-document pipeline is sequential, so the violation report is
// byte-identical no matter how many threads ran the batch (timings and
// throughput are reported separately in BatchStats).
//
// Fault isolation: a document that trips a resource limit, blows its
// per-document deadline, hits an injected fault, or throws is recorded as
// that document's outcome -- the batch always completes and reports every
// other document normally. Transient failures (kUnavailable, e.g. from
// the FaultInjector seam, whose one engine site is "parse") are retried
// at once, up to BatchOptions::max_attempts times; everything else fails
// fast.
// Injected fault decisions depend only on (seed, site, document name,
// attempt), so a faulted run's report is still byte-identical across
// thread counts.

#ifndef XIC_ENGINE_BATCH_VALIDATOR_H_
#define XIC_ENGINE_BATCH_VALIDATOR_H_

#include <optional>
#include <string>
#include <vector>

#include "engine/stream_validator.h"
#include "util/fault_injector.h"
#include "util/limits.h"
#include "util/status.h"

namespace xic {

/// One unit of batch input: a named raw XML document.
struct BatchDocument {
  std::string name;  // file name or synthetic id, echoed in reports
  std::string text;  // complete XML document
};

/// Everything the pipeline produced for one document.
struct DocumentOutcome {
  std::string name;
  Status parse = Status::OK();  // a parse failure ends the pipeline early
  ValidationReport structure;
  ConstraintReport constraints;
  /// Pipeline-level failure: an injected fault that exhausted its
  /// retries (kUnavailable), or an exception caught escaping a stage
  /// (kInternal). Distinct from the document merely being invalid.
  Status error = Status::OK();
  /// Attempts taken; > 1 when transient failures were retried.
  size_t attempts = 1;
  size_t vertices = 0;
  /// The streaming pass: tokenizing, the structural automata and tuple
  /// extraction interleave, so they are billed together.
  double parse_seconds = 0;
  /// Always 0: structure is checked inside the streaming pass (billed to
  /// parse_seconds). Kept so per-stage sums stay a stable interface.
  double structure_seconds = 0;
  /// The post-pass over the extent logs (StreamStats::assemble_seconds).
  double constraints_seconds = 0;
  /// Delay between batch fan-out and this document's pipeline starting
  /// (approximates time spent waiting in the pool's queues). Timing-only
  /// diagnostics: excluded from ToJson/ViolationsToString.
  double queue_wait_seconds = 0;
  /// Pool worker that ran the (final) attempt, -1 on the inline path.
  /// Scheduling-dependent; excluded from deterministic reports.
  int worker = -1;

  bool ok() const {
    return error.ok() && parse.ok() && structure.ok() && constraints.ok();
  }

  /// The first status that cut the pipeline short (a fault/exception, a
  /// resource limit, or a deadline), checked in pipeline order; OK when
  /// the pipeline reached a verdict, valid or not.
  Status infrastructure_status() const;

  /// True when the pipeline could not run to a verdict -- as opposed to
  /// the document being well-understood and invalid.
  bool infrastructure_failure() const {
    return !infrastructure_status().ok();
  }

  /// The verdict name the JSON report and xicd's `verdict` header carry:
  /// "infrastructure_failure", "parse_error", "invalid_structure",
  /// "constraint_violations" or "ok".
  const char* verdict() const;
};

/// Aggregate counters and timings for one batch run.
struct BatchStats {
  size_t documents = 0;
  /// Documents whose pipeline reached a fully-OK verdict. Counted
  /// directly from the outcomes, NOT derived by subtracting the failure
  /// counters from `documents`: a document can fail several ways at once
  /// (e.g. structurally invalid *and* constraint-violating after a
  /// deadline), so the subtraction underflows size_t.
  size_t ok_documents = 0;
  size_t parse_failures = 0;
  size_t structurally_invalid = 0;
  size_t constraint_violating = 0;
  /// Documents whose pipeline was cut short (limit, deadline, fault,
  /// exception) rather than reaching a verdict.
  size_t resource_failures = 0;
  /// Extra attempts beyond the first, summed over the batch.
  size_t retries = 0;
  size_t total_vertices = 0;
  size_t total_violations = 0;  // structural + constraint
  size_t threads = 1;
  double wall_seconds = 0;
  /// Per-stage times summed across workers (CPU-ish, exceeds wall time
  /// when the pool overlaps documents), split as in DocumentOutcome.
  double parse_seconds = 0;
  double constraints_seconds = 0;

  /// Human-readable stats block (counts, wall time, docs/s, stage times).
  std::string ToString() const;
};

struct BatchReport {
  std::vector<DocumentOutcome> outcomes;  // in input order
  BatchStats stats;

  bool all_ok() const;

  /// True when any document hit a limit, deadline, fault or exception --
  /// the batch's verdict on those documents is "could not check", not
  /// "invalid" (xicbatch maps this to exit code 2).
  bool any_infrastructure_failure() const;

  /// Every failure in input order: pipeline errors, parse errors,
  /// structural violations, constraint violations. Byte-identical across
  /// thread counts (absent per-document deadlines, whose expiry is
  /// inherently timing-dependent).
  std::string ViolationsToString(const ConstraintSet& sigma) const;

  /// Machine-readable batch report: one entry per document, in input
  /// order, with verdict, attempts/retries, fault/timeout classification
  /// and violation details, plus the aggregate counters. Deliberately
  /// excludes every timing and the worker assignment so the bytes are
  /// identical across thread counts (the batch engine's determinism
  /// guarantee, pinned by engine_test).
  std::string ToJson(const ConstraintSet& sigma) const;
};

struct BatchOptions {
  /// Worker threads; 0 picks hardware_concurrency, 1 runs the batch
  /// inline on the calling thread (the sequential baseline).
  size_t num_threads = 0;
  ValidationOptions validation;
  CheckOptions check;
  /// Hard input/search limits, copied over `validation.limits` (single
  /// knob for the whole pipeline).
  ResourceLimits limits;
  /// Wall-clock budget per document attempt, 0 = none. Covers the
  /// streaming pass and the constraint post-pass.
  uint64_t document_timeout_ms = 0;
  /// Attempts per document; transient (kUnavailable) failures are
  /// retried at once until this many attempts were made.
  size_t max_attempts = 1;
  /// Extent-log bytes per document before spilling to disk (0 = never
  /// spill).
  size_t stream_spill_budget_bytes = 64u << 20;
  /// Deterministic fault injection (off by default; see
  /// util/fault_injector.h).
  FaultConfig faults;
};

/// Per-call overrides for a compiled validator. A long-lived service
/// (xicd) compiles one BatchValidator per schema and then threads each
/// request's deadline and input limits through Run without recompiling;
/// absent fields fall back to the construction-time BatchOptions.
struct RunOverrides {
  /// Per-document wall-clock budget for this call, milliseconds (0 =
  /// none). Overrides BatchOptions::document_timeout_ms.
  std::optional<uint64_t> document_timeout_ms;
  /// Starting attempt index for fault-injection numbering. A caller that
  /// owns the retry loop itself (xicd's dispatcher, whose plans run one
  /// attempt per call) threads its outer attempt index here, so injected
  /// transient faults clear at the configured transient_attempts.
  size_t attempt_base = 0;
  /// Input bounds for this call (document bytes, nesting depth,
  /// expansion budget). Compiled-plan search bounds (automaton states
  /// etc.) stay at their construction-time values.
  std::optional<ResourceLimits> limits;
};

class BatchValidator {
 public:
  /// Compiles the DTD's content models and the constraint plan once. The
  /// DTD and Sigma must outlive the validator and stay unmodified.
  BatchValidator(const DtdStructure& dtd, const ConstraintSet& sigma,
                 BatchOptions options = {});

  /// Validates the whole corpus.
  BatchReport Run(const std::vector<BatchDocument>& corpus) const;

  /// Run with per-call overrides (request deadline, fault numbering,
  /// input limits) layered over the compiled options.
  BatchReport Run(const std::vector<BatchDocument>& corpus,
                  const RunOverrides& overrides) const;

 private:
  DocumentOutcome CheckOne(const BatchDocument& doc,
                           const RunOverrides& overrides) const;
  DocumentOutcome CheckOneAttempt(const BatchDocument& doc, size_t attempt,
                                  const RunOverrides& overrides) const;
  Deadline DocumentDeadline(const RunOverrides& overrides) const;

  BatchOptions options_;
  /// Shared read-only after construction; Run keeps per-document state
  /// on the worker's stack.
  StreamValidator streamer_;
  FaultInjector injector_;
};

}  // namespace xic

#endif  // XIC_ENGINE_BATCH_VALIDATOR_H_
