#include "fuzzing/generate.h"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "constraints/well_formed.h"
#include "model/doc_generator.h"
#include "util/strings.h"

namespace xic::fuzz {

namespace {

std::string TypeName(size_t i) { return "t" + std::to_string(i); }
std::string PoolValue(Rng& rng, const GenOptions& opt) {
  return "v" + std::to_string(rng.Below(opt.value_pool));
}

// Escaping-hostile values for single-valued attributes (set-valued
// members are whitespace-tokenized by the parser, so control characters
// there could never round-trip by design).
std::string SpiceValue(Rng& rng) {
  static const std::vector<std::string> kSpice = {
      "a\nb", "a\tb", "a\rb",       "x<y",
      "p&q",  "qu\"ote", "ap'os",   "mix<&\"'\n\t;",
      "a b",  "&#10;",   "]]>", "v0\r\nv1"};
  return rng.Pick(kSpice);
}

// Key/foreign-key fields of `tau`: single-valued attributes plus unique
// sub-elements.
std::vector<std::string> KeyFields(const DtdStructure& dtd,
                                   const std::string& tau) {
  std::vector<std::string> out;
  for (const std::string& a : dtd.Attributes(tau)) {
    if (dtd.IsSingleValued(tau, a)) out.push_back(a);
  }
  if (dtd.IsUniqueSubElement(tau, "k") && !dtd.HasAttribute(tau, "k")) {
    out.push_back("k");
  }
  return out;
}

std::vector<std::string> SetAttrs(const DtdStructure& dtd,
                                  const std::string& tau) {
  std::vector<std::string> out;
  for (const std::string& a : dtd.Attributes(tau)) {
    if (dtd.IsSetValued(tau, a)) out.push_back(a);
  }
  return out;
}

// Single-valued IDREF attributes (L_id foreign-key sources).
std::vector<std::string> IdrefSingles(const DtdStructure& dtd,
                                      const std::string& tau) {
  std::vector<std::string> out;
  for (const std::string& a : dtd.Attributes(tau)) {
    if (dtd.IsSingleValued(tau, a) && dtd.Kind(tau, a) == AttrKind::kIdref) {
      out.push_back(a);
    }
  }
  return out;
}

std::vector<std::string> IdrefSets(const DtdStructure& dtd,
                                   const std::string& tau) {
  std::vector<std::string> out;
  for (const std::string& a : dtd.Attributes(tau)) {
    if (dtd.IsSetValued(tau, a) && dtd.Kind(tau, a) == AttrKind::kIdref) {
      out.push_back(a);
    }
  }
  return out;
}

void AddUnique(ConstraintSet* sigma, Constraint c) {
  if (!sigma->Contains(c)) sigma->constraints.push_back(std::move(c));
}

}  // namespace

DtdStructure GenerateDtd(Rng& rng, const GenOptions& opt) {
  DtdStructure dtd;
  size_t n = rng.Range(1, std::max<size_t>(1, opt.max_types));
  bool used_k = false;
  bool used_m = false;
  std::string root_content = "(";
  for (size_t i = 0; i < n; ++i) {
    root_content += (i ? "," : "") + TypeName(i) + "*";
  }
  root_content += ")";
  (void)dtd.AddElement("db", root_content);
  for (size_t i = 0; i < n; ++i) {
    std::string t = TypeName(i);
    bool sub_field = opt.sub_element_fields && rng.Chance(30);
    if (sub_field) {
      // "k" occurs exactly once in every word: a unique sub-element.
      if (rng.Chance(50)) {
        (void)dtd.AddElement(t, "(k,m*)");
        used_m = true;
      } else {
        (void)dtd.AddElement(t, "(k)");
      }
      used_k = true;
    } else if (rng.Chance(35)) {
      (void)dtd.AddElement(t, "(#PCDATA)");
    } else {
      (void)dtd.AddElement(t, "EMPTY");
    }
    (void)dtd.AddAttribute(t, "a", AttrCardinality::kSingle);
    if (rng.Chance(60)) {
      (void)dtd.AddAttribute(t, "b", AttrCardinality::kSingle);
      if (rng.Chance(40)) (void)dtd.SetKind(t, "b", AttrKind::kIdref);
    }
    if (rng.Chance(60)) {
      (void)dtd.AddAttribute(t, "r", AttrCardinality::kSet);
      if (rng.Chance(60)) (void)dtd.SetKind(t, "r", AttrKind::kIdref);
    }
    if (rng.Chance(50)) {
      (void)dtd.AddAttribute(t, "oid", AttrCardinality::kSingle);
      (void)dtd.SetKind(t, "oid", AttrKind::kId);
    }
    if (sub_field && rng.Chance(40)) {
      // The shadowing trap: an attribute and a child element share the
      // name "k"; Att(tau) membership must win everywhere.
      (void)dtd.AddAttribute(t, "k", AttrCardinality::kSingle);
    }
  }
  if (used_k) (void)dtd.AddElement("k", "(#PCDATA)");
  if (used_m) (void)dtd.AddElement("m", "(#PCDATA)");
  (void)dtd.SetRoot("db");
  return dtd;
}

ConstraintSet GenerateSigma(Rng& rng, const DtdStructure& dtd, Language lang,
                            const GenOptions& opt, bool well_formed) {
  ConstraintSet sigma;
  sigma.language = lang;
  std::vector<std::string> types;
  for (const std::string& e : dtd.Elements()) {
    if (e != "db" && e != "k" && e != "m") types.push_back(e);
  }
  size_t count = rng.Range(1, std::max<size_t>(1, opt.max_constraints));
  for (size_t step = 0; step < count; ++step) {
    const std::string& t = rng.Pick(types);
    const std::string& t2 = rng.Pick(types);
    std::vector<std::string> fields = KeyFields(dtd, t);
    std::vector<std::string> fields2 = KeyFields(dtd, t2);
    std::vector<std::string> sets = SetAttrs(dtd, t);
    std::optional<std::string> id = dtd.IdAttribute(t);
    std::optional<std::string> id2 = dtd.IdAttribute(t2);
    switch (lang) {
      case Language::kL: {
        if (fields.empty()) break;
        if (rng.Chance(55) || fields2.empty()) {
          // Multi-attribute key over distinct fields, kept sorted (the
          // canonical form CheckWellFormed's target-key lookup uses).
          std::set<std::string> x;
          size_t arity = rng.Range(1, std::min<size_t>(2, fields.size()));
          while (x.size() < arity) x.insert(rng.Pick(fields));
          AddUnique(&sigma,
                    Constraint::Key(t, {x.begin(), x.end()}));
        } else {
          size_t arity = rng.Range(
              1, std::min<size_t>(2, std::min(fields.size(), fields2.size())));
          std::set<std::string> x_set, y_set;
          while (x_set.size() < arity) x_set.insert(rng.Pick(fields));
          while (y_set.size() < arity) y_set.insert(rng.Pick(fields2));
          std::vector<std::string> x(x_set.begin(), x_set.end());
          std::vector<std::string> y(y_set.begin(), y_set.end());
          AddUnique(&sigma, Constraint::Key(t2, y));
          AddUnique(&sigma, Constraint::ForeignKey(t, x, t2, y));
        }
        break;
      }
      case Language::kLu: {
        size_t kind = rng.Below(100);
        if (kind < 30) {
          if (fields.empty()) break;
          AddUnique(&sigma, Constraint::UnaryKey(t, rng.Pick(fields)));
        } else if (kind < 55) {
          if (fields.empty() || fields2.empty()) break;
          const std::string& y = rng.Pick(fields2);
          AddUnique(&sigma, Constraint::UnaryKey(t2, y));
          AddUnique(&sigma, Constraint::UnaryForeignKey(t, rng.Pick(fields),
                                                        t2, y));
        } else if (kind < 85) {
          if (sets.empty() || fields2.empty()) break;
          const std::string& y = rng.Pick(fields2);
          AddUnique(&sigma, Constraint::UnaryKey(t2, y));
          AddUnique(&sigma,
                    Constraint::SetForeignKey(t, rng.Pick(sets), t2, y));
        } else {
          std::vector<std::string> sets2 = SetAttrs(dtd, t2);
          if (sets.empty() || sets2.empty() || fields.empty() ||
              fields2.empty()) {
            break;
          }
          const std::string& lk = rng.Pick(fields);
          const std::string& lk2 = rng.Pick(fields2);
          const std::string& r = rng.Pick(sets);
          const std::string& r2 = rng.Pick(sets2);
          AddUnique(&sigma, Constraint::UnaryKey(t, lk));
          AddUnique(&sigma, Constraint::UnaryKey(t2, lk2));
          if (rng.Chance(50)) {
            AddUnique(&sigma, Constraint::SetForeignKey(t, r, t2, lk2));
            AddUnique(&sigma, Constraint::SetForeignKey(t2, r2, t, lk));
          }
          AddUnique(&sigma, Constraint::InverseU(t, lk, r, t2, lk2, r2));
        }
        break;
      }
      case Language::kLid: {
        size_t kind = rng.Below(100);
        if (kind < 25) {
          if (id.has_value()) AddUnique(&sigma, Constraint::Id(t, *id));
        } else if (kind < 45) {
          if (fields.empty()) break;
          AddUnique(&sigma, Constraint::UnaryKey(t, rng.Pick(fields)));
        } else if (kind < 65) {
          std::vector<std::string> sources = IdrefSingles(dtd, t);
          if (sources.empty() || !id2.has_value()) break;
          AddUnique(&sigma, Constraint::Id(t2, *id2));
          AddUnique(&sigma, Constraint::UnaryForeignKey(t, rng.Pick(sources),
                                                        t2, *id2));
        } else if (kind < 90) {
          std::vector<std::string> sources = IdrefSets(dtd, t);
          if (sources.empty() || !id2.has_value()) break;
          AddUnique(&sigma, Constraint::Id(t2, *id2));
          AddUnique(&sigma, Constraint::SetForeignKey(t, rng.Pick(sources),
                                                      t2, *id2));
        } else {
          std::vector<std::string> sources = IdrefSets(dtd, t);
          std::vector<std::string> sources2 = IdrefSets(dtd, t2);
          if (sources.empty() || sources2.empty() || !id.has_value() ||
              !id2.has_value()) {
            break;
          }
          AddUnique(&sigma, Constraint::Id(t, *id));
          AddUnique(&sigma, Constraint::Id(t2, *id2));
          AddUnique(&sigma, Constraint::InverseId(t, rng.Pick(sources), t2,
                                                  rng.Pick(sources2)));
        }
        break;
      }
    }
  }
  if (well_formed) {
    // The construction above adds every support constraint eagerly, so
    // this loop is a safety net, not the normal path.
    while (!sigma.constraints.empty() &&
           !CheckWellFormed(sigma, dtd).ok()) {
      sigma.constraints.pop_back();
    }
  } else {
    // Near-valid sets for the lint oracle: strip a support constraint or
    // inject references to undeclared vocabulary.
    if (!sigma.constraints.empty() && rng.Chance(40)) {
      sigma.constraints.erase(sigma.constraints.begin() +
                              static_cast<std::ptrdiff_t>(
                                  rng.Below(sigma.constraints.size())));
    }
    if (rng.Chance(40)) {
      AddUnique(&sigma, Constraint::UnaryKey(rng.Pick(types), "zz"));
    }
    if (rng.Chance(30)) {
      AddUnique(&sigma, Constraint::UnaryForeignKey(rng.Pick(types), "a",
                                                    "ghost", "a"));
    }
  }
  return sigma;
}

Constraint GeneratePhi(Rng& rng, const DtdStructure& dtd,
                       const ConstraintSet& sigma, Language lang) {
  // Bias toward sigma's own vocabulary so a useful fraction of queries
  // is implied (or nearly so).
  if (!sigma.constraints.empty() && rng.Chance(40)) {
    return rng.Pick(sigma.constraints);
  }
  std::vector<std::string> types;
  for (const std::string& e : dtd.Elements()) {
    if (e != "db" && e != "k" && e != "m") types.push_back(e);
  }
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::string& t = rng.Pick(types);
    const std::string& t2 = rng.Pick(types);
    std::vector<std::string> fields = KeyFields(dtd, t);
    std::vector<std::string> fields2 = KeyFields(dtd, t2);
    Constraint phi;
    size_t kind = rng.Below(100);
    if (lang == Language::kLid && kind < 25) {
      std::optional<std::string> id = dtd.IdAttribute(t);
      if (!id.has_value()) continue;
      phi = Constraint::Id(t, *id);
    } else if (kind < 50) {
      if (fields.empty()) continue;
      phi = Constraint::UnaryKey(t, rng.Pick(fields));
    } else if (kind < 80) {
      if (lang == Language::kLid) {
        std::vector<std::string> sources = IdrefSingles(dtd, t);
        std::optional<std::string> id2 = dtd.IdAttribute(t2);
        if (sources.empty() || !id2.has_value()) continue;
        phi = Constraint::UnaryForeignKey(t, rng.Pick(sources), t2, *id2);
      } else {
        if (fields.empty() || fields2.empty()) continue;
        phi = Constraint::UnaryForeignKey(t, rng.Pick(fields), t2,
                                          rng.Pick(fields2));
      }
    } else {
      if (lang == Language::kL) {
        if (fields.empty()) continue;
        phi = Constraint::UnaryKey(t, rng.Pick(fields));
      } else if (lang == Language::kLid) {
        std::vector<std::string> sources = IdrefSets(dtd, t);
        std::optional<std::string> id2 = dtd.IdAttribute(t2);
        if (sources.empty() || !id2.has_value()) continue;
        phi = Constraint::SetForeignKey(t, rng.Pick(sources), t2, *id2);
      } else {
        std::vector<std::string> sets = SetAttrs(dtd, t);
        if (sets.empty() || fields2.empty()) continue;
        phi = Constraint::SetForeignKey(t, rng.Pick(sets), t2,
                                        rng.Pick(fields2));
      }
    }
    if (CheckConstraintShape(phi, lang, dtd).ok()) return phi;
  }
  // "a" is declared single-valued on every record type.
  return Constraint::UnaryKey(types.front(), "a");
}

Result<DataTree> GenerateDocument(Rng& rng, const DtdStructure& dtd,
                                  const GenOptions& opt) {
  DocGeneratorOptions doc_opt;
  doc_opt.seed = static_cast<uint32_t>(rng.Next() | 1);
  doc_opt.max_depth = 8;
  doc_opt.star_mean = 1.3;
  doc_opt.value_pool = opt.value_pool;
  DocGenerator generator(dtd, doc_opt);
  XIC_RETURN_IF_ERROR(generator.status());
  XIC_ASSIGN_OR_RETURN(DataTree tree, generator.Generate());
  // Constraint-relevant mutations: rewrite declared attributes from the
  // shared pool so key duplicates and dangling / satisfied references
  // all occur with useful frequency.
  for (size_t i = 0; i < opt.max_mutations && !tree.empty(); ++i) {
    VertexId v = static_cast<VertexId>(rng.Below(tree.size()));
    std::vector<std::string> attrs = dtd.Attributes(tree.label(v));
    if (attrs.empty()) continue;
    const std::string& attr = rng.Pick(attrs);
    if (dtd.IsSetValued(tree.label(v), attr)) {
      AttrValue value;
      size_t members = rng.Below(3);
      for (size_t m = 0; m < members; ++m) value.insert(PoolValue(rng, opt));
      tree.SetAttribute(v, attr, std::move(value));
    } else {
      tree.SetAttribute(v, attr,
                        rng.Chance(25) ? SpiceValue(rng) : PoolValue(rng, opt));
    }
  }
  return tree;
}

std::string FormatUpdate(const UpdateOp& op) {
  if (op.kind == UpdateOp::Kind::kAddElement) {
    return "add " + op.label + " " +
           (op.parent == kInvalidVertex ? std::string("-")
                                        : std::to_string(op.parent));
  }
  std::string out = "set " + std::to_string(op.vertex) + " " + op.attr;
  for (const std::string& v : op.values) out += " " + v;
  return out;
}

namespace {

Result<VertexId> ParseVertexId(const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument("not a vertex id: \"" + text + "\"");
  }
  return static_cast<VertexId>(std::strtoull(text.c_str(), nullptr, 10));
}

}  // namespace

Result<UpdateOp> ParseUpdate(const std::string& line) {
  std::vector<std::string> parts;
  for (const std::string& piece : Split(line, ' ')) {
    if (!piece.empty()) parts.push_back(piece);
  }
  if (parts.empty()) return Status::InvalidArgument("empty update line");
  UpdateOp op;
  if (parts[0] == "add") {
    if (parts.size() != 3) {
      return Status::InvalidArgument("add needs: add <label> <parent|->");
    }
    op.kind = UpdateOp::Kind::kAddElement;
    op.label = parts[1];
    if (parts[2] == "-") {
      op.parent = kInvalidVertex;
    } else {
      XIC_ASSIGN_OR_RETURN(op.parent, ParseVertexId(parts[2]));
    }
    return op;
  }
  if (parts[0] == "set") {
    if (parts.size() < 3) {
      return Status::InvalidArgument("set needs: set <vertex> <attr> [v...]");
    }
    op.kind = UpdateOp::Kind::kSetAttribute;
    XIC_ASSIGN_OR_RETURN(op.vertex, ParseVertexId(parts[1]));
    op.attr = parts[2];
    op.values.assign(parts.begin() + 3, parts.end());
    return op;
  }
  return Status::InvalidArgument("unknown update op: " + parts[0]);
}

std::vector<UpdateOp> GenerateUpdates(Rng& rng, const DtdStructure& dtd,
                                      const GenOptions& opt) {
  std::vector<UpdateOp> ops;
  std::vector<std::string> types;
  for (const std::string& e : dtd.Elements()) {
    if (e != dtd.root()) types.push_back(e);
  }
  // Labels of vertices that will exist after replaying the accepted
  // prefix (rejected ops are chosen knowingly and add nothing).
  std::vector<std::string> labels;
  UpdateOp root;
  root.kind = UpdateOp::Kind::kAddElement;
  root.label = dtd.root();
  root.parent = kInvalidVertex;
  ops.push_back(root);
  labels.push_back(dtd.root());
  // A tiny value pool maximizes delete-then-reinsert churn: the same
  // tuple is retracted and re-contributed over and over.
  size_t churn_pool = std::max<size_t>(2, opt.value_pool / 2);
  // A valid write of `attr` on vertex `v`: one pool value, or
  // `min_members` to two for a set-valued attribute.
  auto set_from_pool = [&](VertexId v, const std::string& attr,
                           size_t min_members) {
    UpdateOp op;
    op.kind = UpdateOp::Kind::kSetAttribute;
    op.vertex = v;
    op.attr = attr;
    size_t members = dtd.IsSetValued(labels[v], attr)
                         ? rng.Range(min_members, 2)
                         : 1;
    std::set<std::string> dedup;
    while (dedup.size() < members) {
      dedup.insert("v" + std::to_string(rng.Below(churn_pool)));
    }
    op.values.assign(dedup.begin(), dedup.end());
    return op;
  };
  size_t count = rng.Range(4, std::max<size_t>(4, opt.max_updates));
  for (size_t i = 0; i < count; ++i) {
    UpdateOp op;
    size_t kind = rng.Below(100);
    if (kind < 20) {
      op.kind = UpdateOp::Kind::kAddElement;
      op.label = rng.Pick(types);
      op.parent = static_cast<VertexId>(rng.Below(labels.size()));
      labels.push_back(op.label);
      ops.push_back(std::move(op));
      // Half of the new vertices get every attribute at once, so whole
      // key and foreign-key tuples exist, collide and join; a partial
      // tuple only ever reports its missing fields.
      if (rng.Chance(50)) {
        const VertexId added = static_cast<VertexId>(labels.size() - 1);
        for (const std::string& attr : dtd.Attributes(labels[added])) {
          ops.push_back(set_from_pool(added, attr, 1));
        }
      }
      continue;
    } else if (kind < 75) {
      // Valid attribute write, biased toward low vertex ids so the same
      // fields get rewritten repeatedly.
      VertexId v = static_cast<VertexId>(
          rng.Chance(60) ? rng.Below(std::min<size_t>(3, labels.size()))
                         : rng.Below(labels.size()));
      std::vector<std::string> attrs = dtd.Attributes(labels[v]);
      if (attrs.empty()) {
        --i;
        continue;
      }
      op = set_from_pool(v, rng.Pick(attrs), 0);
    } else if (kind < 85) {
      // Must-reject adds: undeclared type or out-of-range parent.
      op.kind = UpdateOp::Kind::kAddElement;
      if (rng.Chance(50)) {
        op.label = "ghost";
        op.parent = 0;
      } else {
        op.label = rng.Pick(types);
        op.parent = static_cast<VertexId>(labels.size() + 7);
      }
    } else {
      // Must-reject sets: undeclared attribute, bad vertex, or a
      // cardinality violation on a single-valued attribute.
      op.kind = UpdateOp::Kind::kSetAttribute;
      size_t flavor = rng.Below(3);
      if (flavor == 0) {
        op.vertex = static_cast<VertexId>(rng.Below(labels.size()));
        op.attr = "zz";
        op.values = {"v0"};
      } else if (flavor == 1) {
        op.vertex = static_cast<VertexId>(labels.size() + 9);
        op.attr = "a";
        op.values = {"v0"};
      } else {
        op.vertex = static_cast<VertexId>(rng.Below(labels.size()));
        op.attr = "a";
        op.values = rng.Chance(50)
                        ? std::vector<std::string>{}
                        : std::vector<std::string>{"v0", "v1"};
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace xic::fuzz
