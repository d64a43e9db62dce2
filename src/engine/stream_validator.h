// Bounded-memory streaming validation: the full xicheck pipeline --
// structural validity (Definition 2.4) plus G |= Sigma -- evaluated over
// a StreamTokenizer event stream, without ever materializing the
// DataTree.
//
// How the two checks stream:
//
//   * Structure: each open element carries an incremental run of its
//     type's Glushkov automaton (GlushkovAutomaton::RunState); child
//     labels and qualifying text runs step it as they arrive, and
//     acceptance is decided at the end tag. Attribute checks run at the
//     start tag. Peak state is O(open-element depth), plus one interned
//     child-label word per open element (needed only to render the DOM
//     checker's exact violation message).
//
//   * Constraints: only the field tuples that constraints actually
//     mention are extracted -- attributes at the start tag, unique
//     sub-element text captured while the subtree streams by -- and
//     appended to per-constraint TupleLogs (engine/extent_log.h) keyed
//     by the vertex's pre-order id. A post-pass turns sorted scans of
//     those logs into the violation list: duplicate keys by group
//     iteration, foreign keys by merge-join against the target-key log,
//     document-wide IDs via a global ID log. Logs spill to disk past the
//     shared budget, so memory stays bounded by the spill budget, not
//     the extent sizes. (Exception: inverse constraints need random
//     access to both extents and are evaluated in memory; documents
//     whose *inverse-constrained* extents exceed memory are out of
//     scope, as DESIGN.md records.)
//
// Allocation discipline: per label or per run, never per element. What
// a label needs (its automaton plan, constraint roles, ID attribute and
// the tokenizing DTD's set-valued attributes) is resolved the first time
// the label is seen. Attributes are handled as views into the tokenizer's
// event and split into tokens, in a reused vector, only where a
// constraint field or the single-valued check reads them. Open elements
// live in frame slots reused by depth: a slot keeps its child word and
// field buffers for the next element opened at that depth, so a slot's
// retained capacity is that of the largest element seen at its depth,
// and peak memory stays O(open-element depth) as before. Per-element
// heap traffic is left only where the output itself grows: extent logs
// (amortized doubling), violations, and the in-memory inverse extents.
// tests/stream_alloc_test.cc pins the constant allocation count.
//
// Verdict parity: vertex ids equal the DOM parser's pre-order AddVertex
// ids, so this text feed over a document and the tree feed
// (CheckTreeConstraints) over its parsed tree append the same records to
// the same post-pass. Structural violations are re-ordered to the DOM
// validator's emission order, constraint violations to vertex order per
// constraint, and messages reuse the same rendering, so
// ValidationReport::ToString() and ConstraintReport::ToString() are
// byte-identical to the materialized pipeline on every document (pinned
// by the stream oracle in src/fuzzing/ and tests/stream_test.cc).

#ifndef XIC_ENGINE_STREAM_VALIDATOR_H_
#define XIC_ENGINE_STREAM_VALIDATOR_H_

#include <optional>
#include <string>
#include <vector>

#include "constraints/checker.h"
#include "model/structural_validator.h"
#include "util/limits.h"
#include "util/status.h"
#include "xml/stream_tokenizer.h"

namespace xic {

struct StreamOptions {
  /// Drop text runs consisting only of whitespace, like the DOM parser's
  /// XmlParseOptions::skip_ignorable_whitespace.
  bool skip_ignorable_whitespace = true;
  /// Structural-check options (allow_missing_attributes, max_violations;
  /// limits.max_automaton_states bounds content-model compilation).
  ValidationOptions validation;
  /// Constraint-check options (max_violations).
  CheckOptions check;
  /// Input bounds for the tokenizer (document bytes, depth, attributes,
  /// expansion), with the DOM parser's exact kResourceExhausted texts.
  ResourceLimits limits;
  /// Wall-clock budget; polled per start tag and per constraint.
  Deadline deadline;
  /// Tokenizer read granularity / text chunk ceiling.
  size_t chunk_bytes = 64 * 1024;
  /// Combined in-memory bytes for all extent logs before the largest
  /// spills to disk; 0 = never spill. The knob behind "peak RSS
  /// independent of document size".
  size_t spill_budget_bytes = 64u << 20;  // 64 MiB
};

/// Resource/diagnostic counters for one streaming run.
struct StreamStats {
  size_t vertices = 0;
  uint64_t input_bytes = 0;
  /// Extent-log records appended across all constraints.
  size_t extent_records = 0;
  uint64_t spilled_bytes = 0;
  size_t spill_runs = 0;
  /// Wall time of the post-pass that turns the extent logs into the
  /// violation lists (sorts, merges, report assembly). The rest of a run
  /// is the one pass that tokenizes, checks structure and extracts.
  double assemble_seconds = 0;
};

/// The streaming pipeline's verdict; mirrors DocumentOutcome's
/// parse/structure/constraints split so callers render identically.
struct StreamOutcome {
  Status parse = Status::OK();  // tokenizer / DTD errors end the run
  ValidationReport structure;
  ConstraintReport constraints;
  StreamStats stats;

  bool ok() const {
    return parse.ok() && structure.ok() && constraints.ok();
  }
};

struct SelfDescribingStreamResult;

/// The validate engine for one precompiled schema (BatchValidator and so
/// xicbatch and xicd run it): compile the DTD's automata and the
/// constraint plan once, then validate any number of byte streams against
/// them. Thread-safe after construction (Run() keeps all mutable state on
/// the caller's stack).
class StreamValidator {
 public:
  /// The DTD and Sigma must outlive the validator and stay unmodified.
  /// Sigma must be well-formed for the DTD (CheckWellFormed) -- the same
  /// contract the ConstraintChecker has.
  StreamValidator(const DtdStructure& dtd, const ConstraintSet& sigma,
                  StreamOptions options = {});

  /// Not-OK when content-model compilation hit a resource limit; Run()
  /// then reports it as every document's structure status.
  const Status& status() const { return validator_.status(); }

  StreamOutcome Run(ByteSource& source) const {
    return Run(source, options_.deadline, options_.limits);
  }
  /// Run with a per-call deadline and input limits (xicd threads each
  /// request's budget through here without recompiling).
  StreamOutcome Run(ByteSource& source, const Deadline& deadline,
                    const ResourceLimits& limits) const;

 private:
  friend SelfDescribingStreamResult StreamValidateSelfDescribing(
      ByteSource& source, const StreamOptions& options);

  /// Drives a tokenizer that already consumed any DOCTYPE. `pending` is
  /// the first content event when the caller pulled one, `tok_dtd` the
  /// DTD governing attribute tokenization (the document's own internal
  /// subset when present, like the DOM parser).
  StreamOutcome RunCore(StreamTokenizer& tok, const StreamEvent* pending,
                        const DtdStructure& tok_dtd,
                        const Deadline& deadline) const;

  ConstraintPlan plan_;
  StreamOptions options_;
  StructuralValidator validator_;
};

/// One-shot streaming check of a *self-describing* document (DTD^C in
/// the DOCTYPE internal subset), as xicheck runs it: the verdict of
/// ParseDocumentWithDtdC + StructuralValidator + ConstraintChecker
/// without building the tree.
struct SelfDescribingStreamResult {
  StreamOutcome outcome;
  std::string doctype_name;
  /// The document carried an internal subset (otherwise there is nothing
  /// to validate against and only `outcome.parse` is meaningful).
  bool has_dtd = false;
  std::optional<DtdStructure> dtd;
  /// Constraint set recovered from the subset's xic:constraints block.
  std::optional<ConstraintSet> sigma;
  /// CheckWellFormed(sigma, dtd) when sigma was recovered; constraints
  /// are only evaluated when this is OK (mirroring xicheck's guard).
  Status well_formed = Status::OK();
};
SelfDescribingStreamResult StreamValidateSelfDescribing(
    ByteSource& source, const StreamOptions& options = {});

/// The tree feed, behind ConstraintChecker::Check: the constraint half of
/// the engine run over an in-memory tree instead of tokenizer events.
/// Each vertex's seq is its own VertexId; every vertex is visited (the
/// root's subtree first, then vertices no path from the root reaches);
/// attribute value sets are the token sets as they stand; every text
/// child counts. The logs never spill (budget 0: the tree is already in
/// memory), no structural findings are made, and the deadline is polled
/// every 1,024 vertices and between constraints.
ConstraintReport CheckTreeConstraints(const ConstraintPlan& plan,
                                      const DataTree& tree,
                                      size_t max_violations,
                                      const Deadline& deadline);

}  // namespace xic

#endif  // XIC_ENGINE_STREAM_VALIDATOR_H_
