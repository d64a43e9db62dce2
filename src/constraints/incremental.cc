#include "constraints/incremental.h"

#include <algorithm>
#include <optional>

#include "engine/extent_log.h"
#include "xml/xml_parser.h"

namespace xic {

IncrementalChecker::IncrementalChecker(const DtdStructure& dtd,
                                       const ConstraintSet& sigma)
    : sigma_(sigma),
      plan_(dtd, sigma_),
      violations_(sigma_.constraints.size(), 0),
      counts_(plan_.log_count),
      readers_(plan_.log_count) {
  auto require_attributes = [&](const std::string& element,
                                const std::vector<std::string>& attrs) {
    for (const std::string& a : attrs) {
      if (!dtd.HasAttribute(element, a)) {
        status_ = Status::NotSupported(
            "incremental checking requires attribute fields; " + element +
            "." + a + " is not an attribute");
        return false;
      }
    }
    return true;
  };
  for (size_t i = 0; i < sigma_.constraints.size(); ++i) {
    const Constraint& c = sigma_.constraints[i];
    Reader::Kind kind = Reader::kSource;
    switch (c.kind) {
      case ConstraintKind::kKey:
        if (!require_attributes(c.element, c.attrs)) return;
        kind = Reader::kKey;
        break;
      case ConstraintKind::kForeignKey:
        if (!require_attributes(c.element, c.attrs) ||
            !require_attributes(c.ref_element, c.ref_attrs)) {
          return;
        }
        break;
      case ConstraintKind::kSetForeignKey:
        break;
      case ConstraintKind::kId:
        kind = Reader::kId;
        break;
      case ConstraintKind::kInverse:
        status_ = Status::NotSupported(
            "inverse constraints are not incrementally maintained; use "
            "ConstraintChecker");
        return;
    }
    const ConstraintPlan::ConstraintLogs& logs = plan_.logs[i];
    if (logs.ext != ConstraintPlan::kNoLog) {
      readers_[logs.ext].push_back(Reader{kind, i, logs.target});
    }
    if (logs.target != ConstraintPlan::kNoLog) {
      readers_[logs.target].push_back(Reader{Reader::kTarget, i, logs.ext});
    }
  }
  // An ID constraint alone needs no counts: its duplicates are the
  // document-wide ID table's, and its missing IDs are incomplete tuples.
  for (size_t log = 0; log < plan_.log_count; ++log) {
    counted_.push_back(std::any_of(
        readers_[log].begin(), readers_[log].end(),
        [](const Reader& r) { return r.kind != Reader::kId; }));
  }
}

// Counts are unsigned; adding a negative delta wraps around to the
// smaller value.
void IncrementalChecker::Bump(size_t index, int64_t delta) {
  violations_[index] += static_cast<size_t>(delta);
  total_violations_ += static_cast<size_t>(delta);
}

const IncrementalChecker::TypePlan* IncrementalChecker::PlanOf(
    const std::string& type) const {
  auto it = plan_.type_plans.find(type);
  return it == plan_.type_plans.end() ? nullptr : &it->second;
}

const AttrValue* IncrementalChecker::Values(VertexId v,
                                            const std::string& name) const {
  Symbol s = tree_.FindName(name);
  return s == kInvalidSymbol ? nullptr : tree_.FindAttr(v, s);
}

size_t IncrementalChecker::CountAt(size_t log) const {
  auto it = counts_[log].find(key_);
  return it == counts_[log].end() ? 0 : it->second;
}

void IncrementalChecker::ApplyTuple(size_t log, int sign) {
  if (!counted_[log]) return;
  std::unordered_map<std::string, size_t>& counts = counts_[log];
  size_t before = 0;
  size_t after = 0;
  if (sign > 0) {
    after = ++counts[key_];
    before = after - 1;
  } else {
    auto it = counts.find(key_);
    before = it->second;
    after = --it->second;
    if (after == 0) counts.erase(it);
  }
  auto extras = [](size_t n) -> int64_t {
    return n > 0 ? static_cast<int64_t>(n) - 1 : 0;
  };
  for (const Reader& r : readers_[log]) {
    // A reflexive foreign key's every source tuple is its own target.
    if (r.other == log) continue;
    switch (r.kind) {
      case Reader::kKey:
        Bump(r.constraint, extras(after) - extras(before));
        break;
      case Reader::kId:
        break;  // duplicates are document-wide: see ApplyId
      case Reader::kSource:
        if (CountAt(r.other) == 0) Bump(r.constraint, sign);
        break;
      case Reader::kTarget:
        if (before == 0 || after == 0) {
          Bump(r.constraint,
               -sign * static_cast<int64_t>(CountAt(r.other)));
        }
        break;
    }
  }
}

void IncrementalChecker::ApplyRole(VertexId v, const TypePlan& plan,
                                   const Role& role, int sign) {
  views_.clear();
  if (role.kind == Role::kValues) {
    if (const AttrValue* values = Values(v, plan.fields[role.fields[0]])) {
      for (const std::string& value : *values) {
        views_.assign(1, value);
        EncodeTupleInto(views_, &key_);
        ApplyTuple(role.index, sign);
      }
      return;
    }
  } else {
    for (size_t f : role.fields) {
      const AttrValue* value = Values(v, plan.fields[f]);
      if (value == nullptr || value->size() != 1) break;
      views_.push_back(*value->begin());
    }
    if (views_.size() == role.fields.size()) {
      EncodeTupleInto(views_, &key_);
      ApplyTuple(role.index, sign);
      return;
    }
  }
  // An incomplete tuple violates every constraint reading this extent.
  for (const Reader& r : readers_[role.index]) {
    if (r.kind != Reader::kTarget) Bump(r.constraint, sign);
  }
}

void IncrementalChecker::ApplyId(VertexId v, const std::string& id_attr,
                                 bool constrained, int sign) {
  const AttrValue* value = Values(v, id_attr);
  if (value == nullptr || value->size() != 1) return;
  const std::string& id = *value->begin();
  IdValueEntry& entry = id_values_[id];
  auto conflicts = [&] { return entry.holders >= 2 ? entry.constrained : 0; };
  const size_t before = conflicts();
  entry.holders += static_cast<size_t>(sign);
  if (constrained) entry.constrained += static_cast<size_t>(sign);
  const size_t delta = conflicts() - before;
  id_conflicts_ += delta;
  total_violations_ += delta;
  if (entry.holders == 0) id_values_.erase(id);
}

Result<VertexId> IncrementalChecker::AddElement(VertexId parent,
                                                const std::string& label) {
  XIC_RETURN_IF_ERROR(status_);
  if (!plan_.dtd.HasElement(label)) {
    return Status::InvalidArgument("undeclared element type " + label);
  }
  if (tree_.empty() != (parent == kInvalidVertex)) {
    return Status::InvalidArgument(
        tree_.empty() ? "first element must be the root (no parent)"
                      : "only the first element may omit a parent");
  }
  // Validate the parent *before* creating the vertex: a rejected update
  // must leave both the tree and the indexes untouched (an orphan vertex
  // would silently drift away from what the indexes cover).
  if (parent != kInvalidVertex && parent >= tree_.size()) {
    return Status::InvalidArgument("parent vertex id out of range");
  }
  VertexId v = tree_.AddVertex(label);
  if (parent != kInvalidVertex) {
    XIC_RETURN_IF_ERROR(tree_.AddChildVertex(parent, v));
  }
  // Every field is unset: each extent the type feeds gains an incomplete
  // tuple, and there is no ID value yet.
  if (const TypePlan* plan = PlanOf(label)) {
    for (const Role& role : plan->roles) ApplyRole(v, *plan, role, +1);
  }
  return v;
}

Status IncrementalChecker::SetAttribute(VertexId v, const std::string& attr,
                                        AttrValue value) {
  XIC_RETURN_IF_ERROR(status_);
  if (v >= tree_.size()) {
    return Status::InvalidArgument("vertex id out of range");
  }
  const DtdStructure& dtd = plan_.dtd;
  const std::string& type = tree_.label(v);
  if (!dtd.HasAttribute(type, attr)) {
    return Status::InvalidArgument("undeclared attribute " + type + "." +
                                   attr);
  }
  Result<AttrCardinality> card = dtd.Cardinality(type, attr);
  if (card.ok() && card.value() == AttrCardinality::kSingle &&
      value.size() != 1) {
    return Status::InvalidArgument("single-valued attribute " + type + "." +
                                   attr + " needs exactly one value");
  }
  // The roles whose tuples read `attr`.
  const TypePlan* plan = PlanOf(type);
  size_t field = 0;
  if (plan != nullptr) {
    field = static_cast<size_t>(
        std::find(plan->fields.begin(), plan->fields.end(), attr) -
        plan->fields.begin());
  }
  auto apply_roles = [&](int sign) {
    if (plan == nullptr) return;
    for (const Role& role : plan->roles) {
      if (std::find(role.fields.begin(), role.fields.end(), field) !=
          role.fields.end()) {
        ApplyRole(v, *plan, role, sign);
      }
    }
  };
  // The document-wide ID table follows every ID attribute once some
  // constraint is an ID constraint.
  std::optional<std::string> id_attr;
  bool constrained = false;
  if (plan_.needs_global_ids) {
    id_attr = dtd.IdAttribute(type);
    if (id_attr.has_value() && *id_attr != attr) id_attr.reset();
    if (id_attr.has_value() && plan != nullptr) {
      for (const Role& role : plan->roles) {
        for (const Reader& r : readers_[role.index]) {
          constrained = constrained || r.kind == Reader::kId;
        }
      }
    }
  }

  apply_roles(-1);
  if (id_attr.has_value()) ApplyId(v, *id_attr, constrained, -1);
  tree_.SetAttribute(v, attr, std::move(value));
  apply_roles(+1);
  if (id_attr.has_value()) ApplyId(v, *id_attr, constrained, +1);
  return Status::OK();
}

Status IncrementalChecker::SetAttribute(VertexId v, const std::string& attr,
                                        std::string value) {
  const bool set_valued =
      v < tree_.size() && plan_.dtd.IsSetValued(tree_.label(v), attr);
  return SetAttribute(v, attr, TokenizeAttrValue(value, set_valued));
}

}  // namespace xic
