// Structured diagnostics for the static analysis of (DTD, constraint set)
// pairs.
//
// A Diagnostic is one finding of one lint rule: a stable code (XICnnn), a
// severity, a human-readable message, an optional source location (the
// index of the offending constraint plus line/column when the set came
// from text, or the element type for grammar findings), and optional
// notes (e.g. the derivation showing why a constraint is redundant).
//
// Code blocks, by hundreds:
//   XIC0xx  reference / kind errors (names absent from the DTD, ATTLIST
//           kinds contradicting the constraint semantics, shape errors,
//           duplicates)
//   XIC1xx  grammar hygiene (unreachable / non-productive element types,
//           content models failing the XML 1-unambiguity requirement)
//   XIC2xx  constraint-set analysis via the solvers (inconsistency,
//           redundancy, key subsumption, missing foreign-key targets)
//   XIC3xx  finite-vs-unrestricted divergence (portability)
//
// The rendering is deterministic: reports with the same input are
// byte-identical across runs (no pointers, timestamps or hashes), which
// makes the JSON output safe to golden-test and diff in CI.

#ifndef XIC_ANALYSIS_DIAGNOSTIC_H_
#define XIC_ANALYSIS_DIAGNOSTIC_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/status.h"

namespace xic {

enum class DiagSeverity {
  kError,    // the pair is broken: no document can be meaningfully checked
  kWarning,  // suspicious but checkable (redundancy, ambiguity, ...)
  kInfo,     // informational
};

const char* DiagSeverityToString(DiagSeverity severity);

/// Where a diagnostic points. All fields are optional; unset fields are
/// omitted from the rendering.
struct DiagLocation {
  /// Index into sigma.constraints, or -1 when the finding is not about a
  /// particular constraint.
  int constraint_index = -1;
  /// 1-based position in the constraint source text; 0 when unknown.
  size_t line = 0;
  size_t column = 0;
  /// The element type a grammar finding is about; empty otherwise.
  std::string element;

  friend bool operator==(const DiagLocation&, const DiagLocation&) = default;
};

struct Diagnostic {
  std::string code;      // stable, e.g. "XIC202"
  std::string rule;      // registry name of the emitting rule
  DiagSeverity severity = DiagSeverity::kWarning;
  std::string message;
  DiagLocation location;
  /// Supporting detail, one entry per line: derivations, chains, the
  /// offending content-model positions, ...
  std::vector<std::string> notes;

  /// "error[XIC202] redundancy: ..." with the location folded in.
  std::string ToString() const;
};

/// The outcome of one Analyzer run. [[nodiscard]]: a dropped report is
/// a lint run whose findings were silently thrown away.
struct [[nodiscard]] AnalysisReport {
  /// Infrastructure outcome: OK when every rule ran to completion;
  /// kDeadlineExceeded / kResourceExhausted when analysis was cut short
  /// (the diagnostics gathered so far are kept but incomplete).
  Status status;
  /// Findings, deterministically ordered (by constraint index, element,
  /// code, message).
  std::vector<Diagnostic> diagnostics;
  /// Rules that ran, in execution order (recorded for the JSON header).
  std::vector<std::string> rules_run;
  /// Language the analyzed set was declared in (rendered in the header).
  std::string language;

  size_t CountSeverity(DiagSeverity severity) const;
  size_t errors() const { return CountSeverity(DiagSeverity::kError); }
  size_t warnings() const { return CountSeverity(DiagSeverity::kWarning); }
  bool clean() const { return status.ok() && diagnostics.empty(); }

  /// xiclint's contract: 0 clean, 1 warnings only, 2 any error, 3
  /// infrastructure failure (status not OK).
  int ExitCode() const;

  /// Human-readable multi-line rendering (one diagnostic per line plus
  /// indented notes, then a summary line).
  std::string ToString() const;

  /// Machine-readable rendering; stable field order, 2-space indent,
  /// byte-identical for identical inputs.
  std::string ToJson() const;
};

}  // namespace xic

#endif  // XIC_ANALYSIS_DIAGNOSTIC_H_
