// Incremental constraint maintenance.
//
// The paper's conclusion envisions constraints "specified by the XML
// designer and maintained by the system". This module maintains
// satisfaction of a constraint set under document updates without
// re-checking the whole document: indexes are updated in O(affected
// values) per mutation and a running violation count answers
// consistency queries in O(1).
//
// Supported constraints: keys, ID constraints, foreign keys and
// set-valued foreign keys whose fields are *attributes*. Inverse
// constraints and sub-element fields are rejected with NotSupported
// (use the batch ConstraintChecker for those).
//
// Violation accounting (consistent() is true iff all counts are zero):
//   * key tau[X] -> tau: one violation per extra vertex sharing an
//     X-tuple, plus one per vertex with an incomplete tuple;
//   * ID constraint: one violation per *constrained* vertex whose ID
//     value is held by more than one ID-bearing vertex, plus missing
//     IDs on constrained types;
//   * (set-valued) foreign key: one violation per dangling source tuple
//     occurrence / set member, plus incomplete source tuples.
//
// The checker reads the batch checker's ConstraintPlan: every distinct
// extent (element type, ordered field list) has one log id, and a key,
// an ID constraint and every foreign key into that extent read one
// count index -- a map from encoded tuple (EncodeTupleInto) to the
// number of vertices holding it. An update retracts the vertex's tuples
// from the indexes its changed field feeds (-1), applies the change,
// and contributes them again (+1). When the count of tuple t in one
// index moves from `before` to `after`, each constraint reading that
// index changes by a closed form:
//   * key: extras(after) - extras(before), extras(n) = max(n - 1, 0);
//   * (set-valued) foreign key reading it as its source: +-1 when the
//     target index holds no t;
//   * foreign key reading it as its target: -+(sources at t) when t's
//     count crosses zero;
//   * a reflexive foreign key (source index == target index): 0;
// and an incomplete tuple moves every constraint reading the index as
// its extent (key, ID, foreign-key source) by +-1.

#ifndef XIC_CONSTRAINTS_INCREMENTAL_H_
#define XIC_CONSTRAINTS_INCREMENTAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "constraints/checker.h"
#include "constraints/constraint.h"
#include "model/data_tree.h"
#include "model/dtd_structure.h"
#include "util/status.h"

namespace xic {

class IncrementalChecker {
 public:
  /// Prepares indexes for `sigma` over an initially empty document.
  /// Unsupported constraint forms surface in status(). `dtd` must
  /// outlive the checker; `sigma` is copied.
  IncrementalChecker(const DtdStructure& dtd, const ConstraintSet& sigma);
  // The plan points into the checker's own copy of Sigma.
  IncrementalChecker(const IncrementalChecker&) = delete;
  IncrementalChecker& operator=(const IncrementalChecker&) = delete;

  const Status& status() const { return status_; }

  // -- Document construction / mutation ------------------------------------

  /// Adds an element labeled `label` under `parent` (kInvalidVertex for
  /// the root). Content models are not enforced here (use
  /// StructuralValidator for batch structural checks); constraint
  /// indexes are updated.
  Result<VertexId> AddElement(VertexId parent, const std::string& label);

  /// Sets (or replaces) attribute `attr` of `v`, updating all affected
  /// constraint indexes.
  Status SetAttribute(VertexId v, const std::string& attr, AttrValue value);

  /// Sets `attr` from its text form, split the way the XML parser splits
  /// attribute values (TokenizeAttrValue): on whitespace into a set when
  /// the DTD declares `attr` set-valued, else one value verbatim.
  Status SetAttribute(VertexId v, const std::string& attr,
                      std::string value);

  const DataTree& tree() const { return tree_; }

  // -- Constraint state -----------------------------------------------------

  /// True iff the current document satisfies every constraint in Sigma
  /// (O(1)).
  bool consistent() const { return total_violations_ == 0; }

  /// Current total violation count (see the accounting rules above).
  size_t violation_count() const { return total_violations_; }

  /// Per-constraint violation counts, aligned with sigma.constraints.
  /// Document-wide ID duplications are reported separately by
  /// id_conflicts() (they belong to every Id constraint at once).
  const std::vector<size_t>& per_constraint_violations() const {
    return violations_;
  }

  /// Constrained vertices whose ID value is duplicated document-wide.
  size_t id_conflicts() const { return id_conflicts_; }

 private:
  using Role = ConstraintPlan::Role;
  using TypePlan = ConstraintPlan::TypePlan;

  // A constraint that reads one count index, and how.
  struct Reader {
    enum Kind { kKey, kId, kSource, kTarget } kind;
    size_t constraint;
    size_t other;  // kSource: the target index; kTarget: the source index
  };
  struct IdValueEntry {
    size_t holders = 0;      // ID-bearing vertices holding the value
    size_t constrained = 0;  // of those, vertices of Id-constrained types
  };

  const TypePlan* PlanOf(const std::string& type) const;
  // Adds (sign +1) or removes (-1) v's tuple or values for `role`.
  void ApplyRole(VertexId v, const TypePlan& plan, const Role& role,
                 int sign);
  // Moves the count of the tuple in key_ in index `log` by `sign`.
  void ApplyTuple(size_t log, int sign);
  // Adds / removes v's value in the document-wide ID table.
  void ApplyId(VertexId v, const std::string& id_attr, bool constrained,
               int sign);
  // att(v, name), or null if undefined.
  const AttrValue* Values(VertexId v, const std::string& name) const;
  size_t CountAt(size_t log) const;
  void Bump(size_t index, int64_t delta);

  ConstraintSet sigma_;
  ConstraintPlan plan_;
  Status status_;
  DataTree tree_;

  std::vector<size_t> violations_;
  size_t total_violations_ = 0;
  // Per plan log id: encoded tuple -> vertices holding it, and the
  // constraints that read the index.
  std::vector<std::unordered_map<std::string, size_t>> counts_;
  std::vector<std::vector<Reader>> readers_;
  std::vector<bool> counted_;  // some reader of the index needs its counts
  // Global ID table: value -> holder counts.
  std::unordered_map<std::string, IdValueEntry> id_values_;
  size_t id_conflicts_ = 0;  // constrained holders of duplicated values
  // Scratch for ApplyRole: the tuple's values and their encoding.
  std::vector<std::string_view> views_;
  std::string key_;
};

}  // namespace xic

#endif  // XIC_CONSTRAINTS_INCREMENTAL_H_
