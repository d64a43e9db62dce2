#include "relational/import_xml.h"

#include <set>

namespace xic {

namespace {

// Decomposes the root content model (r1*, r2*, ..., rn*) into the list
// of relation element names; fails on any other shape.
Status CollectRelations(const Regex& re, std::vector<std::string>* out) {
  switch (re.kind()) {
    case RegexKind::kEpsilon:
      return Status::OK();
    case RegexKind::kConcat:
      XIC_RETURN_IF_ERROR(CollectRelations(*re.left(), out));
      return CollectRelations(*re.right(), out);
    case RegexKind::kStar:
      if (re.inner()->kind() == RegexKind::kSymbol &&
          re.inner()->symbol() != kStringSymbol) {
        out->push_back(re.inner()->symbol());
        return Status::OK();
      }
      return Status::NotSupported(
          "root content model is not a sequence of starred elements");
    default:
      return Status::NotSupported(
          "root content model is not a sequence of starred elements");
  }
}

// Decomposes a relation's content model (f1, f2, ..., fk) into its
// sub-element field names.
Status CollectFields(const Regex& re, std::vector<std::string>* out) {
  switch (re.kind()) {
    case RegexKind::kEpsilon:
      return Status::OK();
    case RegexKind::kConcat:
      XIC_RETURN_IF_ERROR(CollectFields(*re.left(), out));
      return CollectFields(*re.right(), out);
    case RegexKind::kSymbol:
      if (re.symbol() == kStringSymbol) {
        return Status::NotSupported(
            "relation elements must not have mixed content");
      }
      out->push_back(re.symbol());
      return Status::OK();
    default:
      return Status::NotSupported(
          "relation content models must be plain field sequences");
  }
}

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

}  // namespace

Result<RelationalSchema> ImportRelationalSchema(const DtdStructure& dtd,
                                                const ConstraintSet& sigma) {
  if (sigma.language != Language::kL) {
    return Status::InvalidArgument(
        "relational import expects L constraints");
  }
  RelationalSchema schema;
  XIC_ASSIGN_OR_RETURN(RegexPtr root_model, dtd.ContentModel(dtd.root()));
  std::vector<std::string> relations;
  XIC_RETURN_IF_ERROR(CollectRelations(*root_model, &relations));

  for (const std::string& relation : relations) {
    XIC_ASSIGN_OR_RETURN(RegexPtr model, dtd.ContentModel(relation));
    std::vector<std::string> fields;
    XIC_RETURN_IF_ERROR(CollectFields(*model, &fields));
    // Sub-element fields must be string-typed and unique.
    std::set<std::string> seen;
    for (const std::string& field : fields) {
      if (!seen.insert(field).second) {
        return Status::NotSupported("repeated field " + field +
                                    " in relation " + relation);
      }
      XIC_ASSIGN_OR_RETURN(RegexPtr field_model, dtd.ContentModel(field));
      if (field_model->kind() != RegexKind::kSymbol ||
          field_model->symbol() != kStringSymbol) {
        return Status::NotSupported("field " + field +
                                    " does not hold string content");
      }
    }
    // Single-valued attributes are fields too.
    for (const std::string& attr : dtd.Attributes(relation)) {
      if (!dtd.IsSingleValued(relation, attr)) {
        return Status::NotSupported("set-valued attribute " + relation +
                                    "." + attr +
                                    " has no relational counterpart");
      }
      if (!seen.insert(attr).second) {
        return Status::NotSupported("attribute " + attr +
                                    " collides with a sub-element field");
      }
      fields.push_back(attr);
    }
    XIC_RETURN_IF_ERROR(schema.AddRelation(relation, fields));
  }
  // Constraints.
  for (const Constraint& c : sigma.constraints) {
    switch (c.kind) {
      case ConstraintKind::kKey:
        XIC_RETURN_IF_ERROR(schema.AddKey(c.element, c.attrs));
        break;
      case ConstraintKind::kForeignKey:
        XIC_RETURN_IF_ERROR(schema.AddForeignKey(
            {c.element, c.attrs, c.ref_element, c.ref_attrs}));
        break;
      default:
        return Status::InvalidArgument("constraint kind not in L: " +
                                       c.ToString());
    }
  }
  XIC_RETURN_IF_ERROR(schema.Validate());
  return schema;
}

Result<RelationalImport> ImportRelational(const DataTree& tree,
                                          const DtdStructure& dtd,
                                          const ConstraintSet& sigma) {
  RelationalImport out;
  XIC_ASSIGN_OR_RETURN(out.schema, ImportRelationalSchema(dtd, sigma));
  if (tree.empty()) return out;
  for (VertexId row : tree.ChildVertices(tree.root())) {
    const RelationDef* rel = out.schema.Find(tree.label(row));
    if (rel == nullptr) {
      return Status::ValidationError("unexpected element " +
                                     tree.label(row) + " under the root");
    }
    RelationalTuple tuple;
    for (const std::string& field : rel->attributes) {
      if (tree.HasAttribute(row, field)) {
        XIC_ASSIGN_OR_RETURN(std::string value,
                             tree.SingleAttribute(row, field));
        tuple.push_back(std::move(value));
        continue;
      }
      // Unique sub-element.
      std::optional<std::string> value;
      for (VertexId child : tree.ChildVertices(row)) {
        if (tree.label(child) == field) {
          if (value.has_value()) {
            return Status::ValidationError("field " + field +
                                           " repeated in a row");
          }
          value = TextContent(tree, child);
        }
      }
      if (!value.has_value()) {
        return Status::ValidationError("field " + field +
                                       " missing in a row of " + rel->name);
      }
      tuple.push_back(std::move(*value));
    }
    out.rows[rel->name].push_back(std::move(tuple));
  }
  return out;
}

Status PopulateInstance(const RelationalImport& import,
                        RelationalInstance* instance) {
  if (instance == nullptr) {
    return Status::InvalidArgument("null instance");
  }
  for (const auto& [relation, tuples] : import.rows) {
    for (const RelationalTuple& tuple : tuples) {
      XIC_RETURN_IF_ERROR(instance->Insert(relation, tuple));
    }
  }
  return Status::OK();
}

}  // namespace xic
