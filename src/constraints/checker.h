// Constraint satisfaction: does a data tree G satisfy a constraint set
// Sigma (the G |= Sigma half of Definition 2.4)?
//
// Evaluation follows the paper's semantics exactly:
//   * keys are scoped to ext(tau) (per element type),
//   * L_id ID constraints are scoped to the *whole document* (a value must
//     not recur in any vertex's ID attribute, regardless of type),
//   * foreign keys / set-valued foreign keys are value inclusions into the
//     target extent's key values,
//   * inverse constraints assert the two symmetric membership implications.
//
// Key and foreign-key positions may be unique sub-elements (Section 3.4);
// the value of a sub-element field is the concatenated character data of
// the unique child with that label.
//
// There is one evaluator. ConstraintChecker::Check replays the tree's
// vertices through the streaming engine's constraint extraction (the
// tree feed of engine/stream_validator.h) and reuses its post-pass:
// sorted extent logs, group iteration for keys and IDs, merge-joins for
// foreign keys. The tree is already in memory, so the logs never spill.
// NaiveCheck below is the nested-loop reference, kept only as a test
// oracle (tests/checker_diff_test.cc and the `checker` fuzz oracle hold
// the two to the same violations in the same order).
//
// Thread-safety: the constructor compiles everything derived from the DTD
// and Sigma into an immutable ConstraintPlan; Check() keeps all
// per-document state on the caller's stack. One checker can therefore
// validate many documents concurrently from different threads. The
// referenced DtdStructure and ConstraintSet must outlive the checker and
// stay unmodified.

#ifndef XIC_CONSTRAINTS_CHECKER_H_
#define XIC_CONSTRAINTS_CHECKER_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "constraints/constraint.h"
#include "model/data_tree.h"
#include "model/dtd_structure.h"
#include "util/limits.h"
#include "util/status.h"

namespace xic {

/// One constraint violation with the witnesses that falsify the formula.
struct ConstraintViolation {
  size_t constraint_index;  // into sigma.constraints
  std::string message;
  /// Falsifying vertices. For repairable violations the vertex to edit
  /// comes first (see constraints/repair.h).
  std::vector<VertexId> witnesses;
  /// The offending values: the dangling reference value(s), duplicated
  /// key tuple, or (for inverse violations) the key missing from the
  /// first witness's reference set.
  std::vector<std::string> values;
};

struct ConstraintReport {
  std::vector<ConstraintViolation> violations;
  /// Work performed: vertex-field evaluations. Fed to the observability
  /// layer as the constraint stage's step count; not part of ToString(),
  /// so rendered reports stay byte-stable.
  size_t steps = 0;
  /// Not-OK when the check was cut short (deadline); the violation list
  /// is then a prefix, not a verdict.
  Status status = Status::OK();
  bool ok() const { return status.ok() && violations.empty(); }
  std::string ToString(const ConstraintSet& sigma) const;
};

struct CheckOptions {
  /// Stop after this many violations (0 = collect all).
  size_t max_violations = 0;
};

/// The compiled constraint plan: what each element type must surrender
/// to evaluate Sigma, resolved once from the DTD and Sigma. Both feeds of
/// the streaming engine -- tokenizer events and DataTree vertices -- read
/// it, so do IncrementalChecker (one count index per log id) and
/// NaiveCheck (for the inverse keys).
struct ConstraintPlan {
  /// The DTD and Sigma must outlive the plan and stay unmodified.
  ConstraintPlan(const DtdStructure& dtd, const ConstraintSet& sigma);

  /// Per-vertex extraction roles of one element type. Every role fills
  /// one extent log; every constraint that reads the same extent names
  /// the same log (see `logs`).
  struct Role {
    enum Kind {
      kTuple,   // the encoded tuple of `fields` -> log `index`
      kValues,  // each value of the set-valued field -> log `index`,
                // encoded as a 1-tuple and ranked by its set position
      kRefPairs,   // fields {key, set}: each set value v -> log `index`
                   // as the 2-tuple (v, key), ranked as in kValues
      kBackPairs,  // ... as (key, v), ranked past every set position
    };
    Kind kind;
    size_t index;                // log id
    std::vector<size_t> fields;  // indexes into TypePlan::fields
  };

  /// Everything that must be extracted from vertices of one type.
  struct TypePlan {
    std::vector<std::string> fields;  // distinct field names
    /// Parallel: declared as an attribute in the DTD? (A declared-but-
    /// absent attribute is a missing field, never a sub-element -- the
    /// FieldValue contract.)
    std::vector<bool> field_declared;
    std::vector<Role> roles;
  };

  /// Key attributes of an inverse constraint: the named L_u keys, or the
  /// DTD's ID attributes in L_id. Empty when unresolvable (reported as
  /// "inverse constraint lacks key attributes").
  struct InverseKeys {
    std::string key, ref_key;
  };

  /// Constraint `i` is an inverse tau(k).l <-> tau(k).l whose two sides
  /// coincide: its two directions are one check, so NaiveCheck and the
  /// engine run (and the plan logs) only one of them.
  bool SelfInverse(size_t i) const;

  /// The extent logs one constraint reads, by log id: ext(tau) for keys,
  /// IDs and foreign-key sources; ext(tau') for foreign-key targets. A
  /// key, an ID and every foreign key into the same (type, ordered field
  /// list) share one log, so that extent is appended, sorted and spilled
  /// once. kNoLog where the constraint reads no such log. An inverse
  /// reads tau.l's values (`ext`) against tau''s key (`target`) and the
  /// (tau' key, tau key) pairs tau claims and tau' confirms (`pairs`);
  /// the `ref_` logs are the same for tau'.l' against tau's key (a
  /// SelfInverse reads the same logs and needs no `ref_pairs`).
  static constexpr size_t kNoLog = static_cast<size_t>(-1);
  struct ConstraintLogs {
    size_t ext = kNoLog;
    size_t target = kNoLog;
    size_t pairs = kNoLog;
    size_t ref_ext = kNoLog;
    size_t ref_target = kNoLog;
    size_t ref_pairs = kNoLog;
  };

  const DtdStructure& dtd;
  const ConstraintSet& sigma;
  std::map<std::string, TypePlan, std::less<>> type_plans;
  std::vector<ConstraintLogs> logs;  // parallel to sigma.constraints
  size_t log_count = 0;
  std::vector<InverseKeys> inverse_keys;  // parallel to sigma.constraints
  /// Some constraint is an L_id ID constraint, so the document-wide ID
  /// table is needed.
  bool needs_global_ids = false;
};

class ConstraintChecker {
 public:
  ConstraintChecker(const DtdStructure& dtd, const ConstraintSet& sigma,
                    CheckOptions options = {});

  /// Evaluates G |= Sigma; the report lists every violated constraint.
  /// Every vertex counts: the tree is a forest, and the vertices of a
  /// detached subtree belong to ext(tau) like the root's. The deadline
  /// is polled every 1,024 vertices of the walk and between
  /// constraints; on expiry the report carries kDeadlineExceeded.
  ConstraintReport Check(const DataTree& tree) const {
    return Check(tree, Deadline::Infinite());
  }
  ConstraintReport Check(const DataTree& tree,
                         const Deadline& deadline) const;

  /// The value of field `name` (attribute or unique sub-element) on vertex
  /// `v`, as a set of atomic values. Missing fields yield an error.
  Result<AttrValue> FieldValue(const DataTree& tree, VertexId v,
                               const std::string& name) const;

 private:
  ConstraintPlan plan_;
  CheckOptions options_;
};

/// The O(|ext(tau)| * |ext(tau')|) nested-loop evaluation of G |= Sigma:
/// the reference ConstraintChecker is tested against, and the naive side
/// of the B1 ablation benchmark. Not a production path. Reports the same
/// violations in the same order as ConstraintChecker at the same
/// `max_violations` (0 = collect all); `steps` stays 0.
ConstraintReport NaiveCheck(const DtdStructure& dtd,
                            const ConstraintSet& sigma, const DataTree& tree,
                            size_t max_violations = 0);

}  // namespace xic

#endif  // XIC_CONSTRAINTS_CHECKER_H_
