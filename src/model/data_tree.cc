#include "model/data_tree.h"

#include <algorithm>

namespace xic {

VertexId DataTree::AddVertex(std::string_view element_name) {
  VertexId id = static_cast<VertexId>(labels_.size());
  labels_.push_back(symbols_.Intern(element_name));
  children_.emplace_back();
  parents_.push_back(kInvalidVertex);
  attributes_.emplace_back();
  if (root_ == kInvalidVertex) root_ = id;
  return id;
}

Status DataTree::AddChildVertex(VertexId parent, VertexId child) {
  if (parent >= size() || child >= size()) {
    return Status::InvalidArgument("vertex id out of range");
  }
  if (child == root_) {
    return Status::InvalidArgument("the root cannot become a child");
  }
  if (parents_[child] != kInvalidVertex) {
    return Status::InvalidArgument("vertex already has a parent");
  }
  // A child with no vertex children is no vertex's ancestor, so only a
  // self-loop can close a cycle: every ParseXml attach (a fresh vertex)
  // stops here. Otherwise walk `parent`'s ancestor chain.
  const std::vector<Child>& below = children_[child];
  if (child == parent ||
      std::any_of(below.begin(), below.end(), [](const Child& c) {
        return std::holds_alternative<VertexId>(c);
      })) {
    for (VertexId a = parent; a != kInvalidVertex; a = parents_[a]) {
      if (a == child) {
        return Status::InvalidArgument("the edge would close a parent cycle");
      }
    }
  }
  parents_[child] = parent;
  children_[parent].emplace_back(child);
  return Status::OK();
}

void DataTree::AddChildText(VertexId parent, std::string text) {
  children_[parent].emplace_back(std::move(text));
}

void DataTree::SetAttributeImpl(VertexId v, std::string_view name,
                                AttrValue value) {
  Symbol s = symbols_.Intern(name);
  std::vector<AttrEntry>& entries = attributes_[v];
  for (AttrEntry& e : entries) {
    if (e.name == s) {
      e.value = std::move(value);
      return;
    }
  }
  // Insert keeping lexicographic name order (attribute counts per vertex
  // are tiny, so a linear scan beats any cleverness).
  auto pos = entries.begin();
  while (pos != entries.end() && symbols_.name(pos->name) < name) ++pos;
  entries.insert(pos, AttrEntry{s, std::move(value)});
}

void DataTree::SetAttribute(VertexId v, std::string_view name,
                            AttrValue value) {
  SetAttributeImpl(v, name, std::move(value));
}

void DataTree::SetAttribute(VertexId v, std::string_view name,
                            std::string value) {
  SetAttributeImpl(v, name, AttrValue{std::move(value)});
}

bool DataTree::HasAttribute(VertexId v, std::string_view name) const {
  return FindAttr(v, name) != nullptr;
}

Result<AttrValue> DataTree::Attribute(VertexId v,
                                      std::string_view name) const {
  const AttrValue* value = FindAttr(v, name);
  if (value == nullptr) {
    return Status::InvalidArgument("attribute " + std::string(name) +
                                   " undefined on vertex");
  }
  return *value;
}

Result<std::string> DataTree::SingleAttribute(VertexId v,
                                              std::string_view name) const {
  const AttrValue* value = FindAttr(v, name);
  if (value == nullptr) {
    return Status::InvalidArgument("attribute " + std::string(name) +
                                   " undefined on vertex");
  }
  if (value->size() != 1) {
    return Status::InvalidArgument("attribute " + std::string(name) +
                                   " is not single-valued on vertex");
  }
  return *value->begin();
}

std::vector<VertexId> DataTree::Extent(std::string_view element_name) const {
  std::vector<VertexId> out;
  Symbol s = symbols_.Find(element_name);
  if (s == kInvalidSymbol) return out;
  for (VertexId v = 0; v < size(); ++v) {
    if (labels_[v] == s) out.push_back(v);
  }
  return out;
}

std::set<std::string> DataTree::Labels() const {
  std::set<std::string> out;
  for (Symbol s : labels_) out.insert(symbols_.name(s));
  return out;
}

std::vector<VertexId> DataTree::ChildVertices(VertexId v) const {
  std::vector<VertexId> out;
  for (const Child& c : children_[v]) {
    if (const VertexId* id = std::get_if<VertexId>(&c)) out.push_back(*id);
  }
  return out;
}

std::vector<std::string> DataTree::ChildWord(VertexId v) const {
  std::vector<std::string> out;
  for (const Child& c : children_[v]) {
    if (const VertexId* id = std::get_if<VertexId>(&c)) {
      out.push_back(label(*id));
    } else {
      out.push_back("#PCDATA");
    }
  }
  return out;
}

ExtentIndex::ExtentIndex(const DataTree& tree)
    : tree_(tree), extents_(tree.symbols().size()) {
  for (VertexId v = 0; v < tree.size(); ++v) {
    extents_[tree.label_symbol(v)].push_back(v);
  }
}

const std::vector<VertexId>& ExtentIndex::Extent(
    std::string_view element_name) const {
  Symbol s = tree_.FindName(element_name);
  return s == kInvalidSymbol ? empty_ : Extent(s);
}

}  // namespace xic
