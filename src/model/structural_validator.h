// Structural validity of a data tree against a DTD structure
// (Definition 2.4 without the constraint-set condition G |= Sigma; the
// constraint half lives in constraints/checker.h).
//
// Checks, for every vertex v with label tau:
//   * the root is labeled r,
//   * tau is a declared element type,
//   * the child word of v (string children mapped to S) is in L(P(tau)),
//   * att(v, l) is defined iff R(tau, l) is defined (strict mode), and
//     single-valued attributes hold singleton sets.
//
// `allow_missing_attributes` relaxes the "only if" direction (XML
// #IMPLIED attributes); undeclared attributes are always rejected.
//
// There is one structural checker: Validate runs the streaming engine's
// tree feed (CheckTree, engine/stream_validator.h) with structural
// findings on, so the class compiles into xic_engine; its header stays
// here. NaiveValidate is Definition 2.4 as written, kept only as the test
// reference (tests/model_test.cc and the `stream` fuzz oracle).

#ifndef XIC_MODEL_STRUCTURAL_VALIDATOR_H_
#define XIC_MODEL_STRUCTURAL_VALIDATOR_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "model/data_tree.h"
#include "model/dtd_structure.h"
#include "regex/glushkov.h"
#include "util/limits.h"

namespace xic {

struct ValidationOptions {
  /// Permit a declared attribute to be absent on a vertex (the paper's
  /// Definition 2.4 is strict; XML's #IMPLIED is not).
  bool allow_missing_attributes = false;
  /// Stop after this many violations (0 = collect all).
  size_t max_violations = 0;
  /// max_automaton_states bounds the Glushkov positions of each compiled
  /// content model; a DTD exceeding it surfaces in status().
  ResourceLimits limits;
};

struct Violation {
  VertexId vertex;
  std::string message;
};

struct ValidationReport {
  std::vector<Violation> violations;
  /// Vertices the walk examined (== tree size unless cut short). Fed to
  /// the observability layer as the structure stage's step count; not
  /// part of ToString(), so rendered reports stay byte-stable.
  size_t steps = 0;
  /// Not-OK when the walk was cut short (deadline); the violation list is
  /// then a prefix, not a verdict.
  Status status = Status::OK();
  bool ok() const { return status.ok() && violations.empty(); }
  std::string ToString() const;
};

class StructuralValidator {
 public:
  /// Compiles the DTD's content models to Glushkov automata once; the
  /// validator can then be reused across documents.
  explicit StructuralValidator(const DtdStructure& dtd,
                               ValidationOptions options = {});

  /// Not-OK when compilation hit a resource limit (a content model
  /// larger than max_automaton_states). Validate() then reports this
  /// status on every document.
  const Status& status() const { return status_; }

  /// Validates the tree; the report lists every violation found, in
  /// vertex-id order. The deadline is polled every 1,024 vertices; on
  /// expiry the report carries "structural validation: deadline
  /// exceeded" and no violations.
  ValidationReport Validate(const DataTree& tree) const {
    return Validate(tree, Deadline::Infinite());
  }
  ValidationReport Validate(const DataTree& tree,
                            const Deadline& deadline) const;

  /// True iff every content model in the DTD is 1-unambiguous
  /// (deterministic per the XML spec) -- an extension check beyond the
  /// paper's model.
  bool AllContentModelsDeterministic() const;

  /// Read-only view of one element type's compiled plan, for callers that
  /// drive the automata themselves (the streaming validator steps them
  /// label-by-label instead of matching materialized child words).
  /// Nullopt for undeclared element types. Views stay valid as long as
  /// the validator does.
  struct PlanView {
    const GlushkovAutomaton* automaton = nullptr;
    const std::vector<std::string>* attr_names = nullptr;  // sorted
    const std::vector<bool>* attr_single = nullptr;        // parallel
  };
  std::optional<PlanView> PlanFor(std::string_view element) const;

 private:
  /// Per-element-type compiled form: the content-model automaton (none
  /// when the model does not parse) plus the declared attributes (sorted
  /// by name, as DtdStructure stores them). Built once in the constructor.
  struct ElementPlan {
    std::optional<GlushkovAutomaton> automaton;
    std::vector<std::string> attr_names;  // sorted
    std::vector<bool> attr_single;        // parallel: single-valued?
  };

  const DtdStructure& dtd_;
  ValidationOptions options_;
  Status status_;
  std::map<std::string, ElementPlan, std::less<>> plans_;
};

/// Definition 2.4 as written, the reference Validate is tested against:
/// per vertex in id order, GlushkovAutomaton::Matches on
/// DataTree::ChildWord (a fresh automaton each time) plus DTD attribute
/// lookups, no caches. Not a production path. Same status, violations
/// and order as StructuralValidator(dtd, options).Validate; the
/// deadline is polled once per vertex and `steps` stays 0.
ValidationReport NaiveValidate(const DtdStructure& dtd, const DataTree& tree,
                               const ValidationOptions& options = {},
                               const Deadline& deadline =
                                   Deadline::Infinite());

}  // namespace xic

#endif  // XIC_MODEL_STRUCTURAL_VALIDATOR_H_
