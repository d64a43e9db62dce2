#include "constraints/checker.h"

#include <deque>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "engine/stream_validator.h"
#include "obs/obs.h"

namespace xic {

std::string ConstraintReport::ToString(const ConstraintSet& sigma) const {
  if (ok()) return "all constraints satisfied";
  std::string out;
  for (const ConstraintViolation& v : violations) {
    out += sigma.constraints[v.constraint_index].ToString() + ": " +
           v.message + "\n";
  }
  return out;
}

ConstraintPlan::ConstraintPlan(const DtdStructure& d, const ConstraintSet& s)
    : dtd(d), sigma(s), inverse_keys(s.constraints.size()) {
  auto field_index = [this](TypePlan* plan, const std::string& element,
                            const std::string& name) -> size_t {
    for (size_t i = 0; i < plan->fields.size(); ++i) {
      if (plan->fields[i] == name) return i;
    }
    plan->fields.push_back(name);
    plan->field_declared.push_back(dtd.HasAttribute(element, name));
    return plan->fields.size() - 1;
  };
  auto add_role = [&](const std::string& element, Role::Kind kind, size_t ci,
                      const std::vector<std::string>& names) {
    TypePlan& plan = type_plans[element];
    Role role;
    role.kind = kind;
    role.constraint = ci;
    role.fields.reserve(names.size());
    for (const std::string& name : names) {
      role.fields.push_back(field_index(&plan, element, name));
    }
    plan.roles.push_back(std::move(role));
  };
  for (size_t i = 0; i < sigma.constraints.size(); ++i) {
    const Constraint& c = sigma.constraints[i];
    switch (c.kind) {
      case ConstraintKind::kKey:
        add_role(c.element, Role::kKeyTuple, i, c.attrs);
        break;
      case ConstraintKind::kForeignKey:
        add_role(c.element, Role::kFkTuple, i, c.attrs);
        add_role(c.ref_element, Role::kFkTarget, i, c.ref_attrs);
        break;
      case ConstraintKind::kSetForeignKey:
        if (c.attrs.empty() || c.ref_attrs.empty()) break;
        add_role(c.element, Role::kSfkSource, i, {c.attr()});
        add_role(c.ref_element, Role::kSfkTarget, i, {c.ref_attr()});
        break;
      case ConstraintKind::kId:
        needs_global_ids = true;
        if (c.attrs.empty()) break;
        add_role(c.element, Role::kIdExt, i, {c.attr()});
        break;
      case ConstraintKind::kInverse: {
        InverseKeys& keys = inverse_keys[i];
        keys.key = c.inv_key.empty() ? dtd.IdAttribute(c.element).value_or("")
                                     : c.inv_key;
        keys.ref_key = c.inv_ref_key.empty()
                           ? dtd.IdAttribute(c.ref_element).value_or("")
                           : c.inv_ref_key;
        // Unresolvable keys are reported at check time; nothing to
        // extract.
        if (keys.key.empty() || keys.ref_key.empty()) break;
        if (c.attrs.empty() || c.ref_attrs.empty()) break;
        add_role(c.element, Role::kInvExt, i, {keys.key, c.attr()});
        add_role(c.ref_element, Role::kInvRef, i, {keys.ref_key, c.ref_attr()});
        break;
      }
    }
  }
}

ConstraintChecker::ConstraintChecker(const DtdStructure& dtd,
                                     const ConstraintSet& sigma,
                                     CheckOptions options)
    : plan_(dtd, sigma), options_(options) {}

namespace {

// Concatenated character data beneath `v` (depth-first).
std::string TextContent(const DataTree& tree, VertexId v) {
  std::string out;
  for (const Child& c : tree.children(v)) {
    if (const std::string* s = std::get_if<std::string>(&c)) {
      out += *s;
    } else {
      out += TextContent(tree, std::get<VertexId>(c));
    }
  }
  return out;
}

Result<AttrValue> FieldValueOf(const DtdStructure& dtd, const DataTree& tree,
                               VertexId v, const std::string& name) {
  if (tree.HasAttribute(v, name)) return tree.Attribute(v, name);
  // A name in Att(tau) always denotes the attribute: an unset declared
  // attribute is a missing field, never a sub-element fallback (keeps the
  // checker in agreement with IncrementalChecker, which only ever reads
  // attributes).
  if (dtd.HasAttribute(tree.label(v), name)) {
    return Status::InvalidArgument("field " + name + " undefined on vertex " +
                                   std::to_string(v) +
                                   " (declared attribute unset)");
  }
  // Section 3.4: a unique sub-element acts as a field whose value is its
  // character data.
  VertexId match = kInvalidVertex;
  int count = 0;
  for (VertexId child : tree.ChildVertices(v)) {
    if (tree.label(child) == name) {
      match = child;
      ++count;
    }
  }
  if (count == 1) return AttrValue{TextContent(tree, match)};
  return Status::InvalidArgument(
      "field " + name + " undefined on vertex " + std::to_string(v) +
      (count > 1 ? " (sub-element not unique)" : ""));
}

std::string JoinViews(const std::vector<std::string_view>& values,
                      std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(values[i]);
  }
  return out;
}

std::vector<std::string> ToStrings(const std::vector<std::string_view>& v) {
  return std::vector<std::string>(v.begin(), v.end());
}

}  // namespace

Result<AttrValue> ConstraintChecker::FieldValue(const DataTree& tree,
                                                VertexId v,
                                                const std::string& name) const {
  return FieldValueOf(plan_.dtd, tree, v, name);
}

ConstraintReport ConstraintChecker::Check(const DataTree& tree,
                                          const Deadline& deadline) const {
  obs::ScopedSpan span("constraints.check", "constraints");
  ConstraintReport report =
      CheckTreeConstraints(plan_, tree, options_.max_violations, deadline);
  span.AddInt("constraints",
              static_cast<int64_t>(plan_.sigma.constraints.size()));
  span.AddInt("steps", static_cast<int64_t>(report.steps));
  span.AddInt("violations", static_cast<int64_t>(report.violations.size()));
  XIC_COUNTER_ADD("constraints.checks", 1);
  XIC_COUNTER_ADD("constraints.steps", report.steps);
  XIC_COUNTER_ADD("constraints.violations", report.violations.size());
  return report;
}

ConstraintReport NaiveCheck(const DtdStructure& dtd,
                            const ConstraintSet& sigma, const DataTree& tree,
                            size_t max_violations) {
  const ConstraintPlan plan(dtd, sigma);
  ConstraintReport report;
  ExtentIndex extents(tree);
  auto full = [&] {
    return max_violations != 0 && report.violations.size() >= max_violations;
  };
  auto add = [&](size_t index, std::string msg, std::vector<VertexId> wit,
                 std::vector<std::string> values = {}) {
    if (!full()) {
      report.violations.push_back(
          {index, std::move(msg), std::move(wit), std::move(values)});
    }
  };

  // Field access works on views. The fast path returns a view straight
  // into the tree's attribute storage (FindAttr by interned symbol); the
  // cold paths -- sub-element fields, unset declared attributes --
  // materialize through FieldValueOf() and anchor the result in these
  // deques so the views stay valid for the whole check.
  std::deque<std::string> owned_strings;
  std::deque<AttrValue> owned_values;

  // Single value of a field, or nullopt (missing fields are reported by
  // the caller as violations of the constraint that needed them).
  auto single = [&](VertexId v, Symbol sym,
                    const std::string& name) -> std::optional<std::string_view> {
    if (sym != kInvalidSymbol) {
      if (const AttrValue* value = tree.FindAttr(v, sym)) {
        if (value->size() != 1) return std::nullopt;
        return std::string_view(*value->begin());
      }
    }
    Result<AttrValue> value = FieldValueOf(dtd, tree, v, name);
    if (!value.ok() || value.value().size() != 1) return std::nullopt;
    owned_strings.push_back(*value.value().begin());
    return std::string_view(owned_strings.back());
  };
  // The full value set of a field, or null when missing.
  auto field_ptr = [&](VertexId v, Symbol sym,
                       const std::string& name) -> const AttrValue* {
    if (sym != kInvalidSymbol) {
      if (const AttrValue* value = tree.FindAttr(v, sym)) return value;
    }
    Result<AttrValue> value = FieldValueOf(dtd, tree, v, name);
    if (!value.ok()) return nullptr;
    owned_values.push_back(std::move(value).value());
    return &owned_values.back();
  };
  // Evaluates the named fields of `v` into `out` (reused across
  // vertices); false if any field is missing or non-singleton.
  auto tuple_into = [&](VertexId v, const std::vector<std::string>& names,
                        const std::vector<Symbol>& syms,
                        std::vector<std::string_view>& out) -> bool {
    out.clear();
    for (size_t k = 0; k < names.size(); ++k) {
      std::optional<std::string_view> val = single(v, syms[k], names[k]);
      if (!val.has_value()) return false;
      out.push_back(*val);
    }
    return true;
  };
  // Interned ids of the named fields, resolved once per constraint.
  auto resolve = [&](const std::vector<std::string>& names,
                     std::vector<Symbol>& out) {
    out.clear();
    for (const std::string& name : names) out.push_back(tree.FindName(name));
  };

  // Global ID table for kId constraints: value -> vertices carrying it in
  // their type's ID attribute (document-wide scope).
  std::unordered_map<std::string_view, std::vector<VertexId>> global_ids;
  if (plan.needs_global_ids) {
    for (VertexId v = 0; v < tree.size(); ++v) {
      std::optional<std::string> id_attr = dtd.IdAttribute(tree.label(v));
      if (!id_attr.has_value()) continue;
      if (std::optional<std::string_view> val =
              single(v, tree.FindName(*id_attr), *id_attr)) {
        global_ids[*val].push_back(v);
      }
    }
  }

  std::vector<Symbol> attr_syms, ref_attr_syms;
  std::vector<std::string_view> tbuf, ubuf;
  for (size_t i = 0; i < sigma.constraints.size() && !full(); ++i) {
    const Constraint& c = sigma.constraints[i];
    const std::vector<VertexId>& ext = extents.Extent(c.element);
    const std::vector<VertexId>& ref_ext = extents.Extent(c.ref_element);
    resolve(c.attrs, attr_syms);
    resolve(c.ref_attrs, ref_attr_syms);

    switch (c.kind) {
      case ConstraintKind::kKey: {
        // Each duplicate is reported once, against the *first* vertex
        // carrying the same tuple (not once per earlier occurrence, which
        // over-reports on triples).
        for (size_t b = 0; b < ext.size() && !full(); ++b) {
          if (!tuple_into(ext[b], c.attrs, attr_syms, tbuf)) {
            add(i, "key field missing", {ext[b]});
            continue;
          }
          for (size_t a = 0; a < b; ++a) {
            if (tuple_into(ext[a], c.attrs, attr_syms, ubuf) && ubuf == tbuf) {
              add(i, "duplicate key [" + JoinViews(tbuf, ",") + "]",
                  {ext[a], ext[b]}, ToStrings(tbuf));
              break;
            }
          }
        }
        break;
      }

      case ConstraintKind::kId: {
        // Report each duplicated value once per constraint, not once per
        // vertex of ext(tau) holding it (the witnesses already list every
        // holder).
        std::unordered_set<std::string_view> reported;
        for (VertexId v : ext) {
          std::optional<std::string_view> val =
              single(v, attr_syms[0], c.attr());
          if (!val.has_value()) {
            add(i, "ID attribute missing", {v});
            continue;
          }
          auto it = global_ids.find(*val);
          if (it != global_ids.end() && it->second.size() > 1 &&
              reported.insert(*val).second) {
            add(i, "ID value \"" + std::string(*val) +
                       "\" is not document-unique",
                it->second, {std::string(*val)});
          }
          if (full()) break;
        }
        break;
      }

      case ConstraintKind::kForeignKey: {
        for (VertexId v : ext) {
          if (!tuple_into(v, c.attrs, attr_syms, tbuf)) {
            add(i, "foreign-key field missing", {v});
            continue;
          }
          bool found = false;
          for (VertexId w : ref_ext) {
            if (tuple_into(w, c.ref_attrs, ref_attr_syms, ubuf) &&
                ubuf == tbuf) {
              found = true;
              break;
            }
          }
          if (!found) {
            add(i, "dangling reference [" + JoinViews(tbuf, ",") + "]", {v},
                ToStrings(tbuf));
          }
          if (full()) break;
        }
        break;
      }

      case ConstraintKind::kSetForeignKey: {
        for (VertexId v : ext) {
          const AttrValue* vals = field_ptr(v, attr_syms[0], c.attr());
          if (vals == nullptr) {
            add(i, "set-valued field missing", {v});
            continue;
          }
          for (const std::string& val : *vals) {
            bool found = false;
            for (VertexId w : ref_ext) {
              std::optional<std::string_view> u =
                  single(w, ref_attr_syms[0], c.ref_attr());
              if (u.has_value() && *u == val) {
                found = true;
                break;
              }
            }
            if (!found) {
              add(i, "dangling reference \"" + val + "\"", {v}, {val});
              if (full()) break;
            }
          }
          if (full()) break;
        }
        break;
      }

      case ConstraintKind::kInverse: {
        const std::string& lk = plan.inverse_keys[i].key;
        const std::string& lk2 = plan.inverse_keys[i].ref_key;
        if (lk.empty() || lk2.empty()) {
          add(i, "inverse constraint lacks key attributes", {});
          break;
        }
        const Symbol lk_sym = tree.FindName(lk);
        const Symbol lk2_sym = tree.FindName(lk2);
        // key value -> vertices (multimap: key violations must not mask
        // inverse violations).
        std::unordered_map<std::string_view, std::vector<VertexId>> by_key;
        std::unordered_map<std::string_view, std::vector<VertexId>>
            ref_by_key;
        for (VertexId v : ext) {
          if (std::optional<std::string_view> val = single(v, lk_sym, lk)) {
            by_key[*val].push_back(v);
          }
        }
        for (VertexId w : ref_ext) {
          if (std::optional<std::string_view> val = single(w, lk2_sym, lk2)) {
            ref_by_key[*val].push_back(w);
          }
        }
        // Typed semantics (DESIGN.md): the referenced values must be keys
        // of the partner type (the containments Inv-SFK-ID derives).
        for (VertexId x : ext) {
          const AttrValue* xl = field_ptr(x, attr_syms[0], c.attr());
          if (xl == nullptr) continue;
          for (const std::string& val : *xl) {
            if (ref_by_key.count(std::string_view(val)) == 0) {
              add(i, "inverse reference \"" + val + "\" is not a " +
                         c.ref_element + " key",
                  {x}, {val});
              if (full()) break;
            }
          }
          if (full()) break;
        }
        for (VertexId y : ref_ext) {
          const AttrValue* yl = field_ptr(y, ref_attr_syms[0], c.ref_attr());
          if (yl == nullptr) continue;
          for (const std::string& val : *yl) {
            if (by_key.count(std::string_view(val)) == 0) {
              add(i, "inverse reference \"" + val + "\" is not a " +
                         c.element + " key",
                  {y}, {val});
              if (full()) break;
            }
          }
          if (full()) break;
        }
        // Direction 1: x.lk in y.l'  ==>  y.lk' in x.l.
        for (VertexId y : ref_ext) {
          const AttrValue* yl2 = field_ptr(y, ref_attr_syms[0], c.ref_attr());
          std::optional<std::string_view> ykey = single(y, lk2_sym, lk2);
          if (yl2 == nullptr || !ykey.has_value()) continue;
          for (const std::string& val : *yl2) {
            auto it = by_key.find(std::string_view(val));
            if (it == by_key.end()) continue;
            for (VertexId x : it->second) {
              const AttrValue* xl = field_ptr(x, attr_syms[0], c.attr());
              if (xl == nullptr || xl->count(std::string(*ykey)) == 0) {
                add(i, "inverse missing: " + c.ref_element + " \"" +
                           std::string(*ykey) + "\" references \"" + val +
                           "\" but not back",
                    {x, y}, {std::string(*ykey)});
              }
              if (full()) break;
            }
            if (full()) break;
          }
          if (full()) break;
        }
        // Direction 2 (symmetric).
        for (VertexId x : ext) {
          const AttrValue* xl = field_ptr(x, attr_syms[0], c.attr());
          std::optional<std::string_view> xkey = single(x, lk_sym, lk);
          if (xl == nullptr || !xkey.has_value()) continue;
          for (const std::string& val : *xl) {
            auto it = ref_by_key.find(std::string_view(val));
            if (it == ref_by_key.end()) continue;
            for (VertexId y : it->second) {
              const AttrValue* yl2 =
                  field_ptr(y, ref_attr_syms[0], c.ref_attr());
              if (yl2 == nullptr || yl2->count(std::string(*xkey)) == 0) {
                add(i, "inverse missing: " + c.element + " \"" +
                           std::string(*xkey) + "\" references \"" + val +
                           "\" but not back",
                    {y, x}, {std::string(*xkey)});
              }
              if (full()) break;
            }
            if (full()) break;
          }
          if (full()) break;
        }
        break;
      }
    }
  }
  return report;
}

}  // namespace xic
