// The XML data model of Definition 2.1.
//
// A data tree is (V, elem, att, root):
//   * V     -- a set of vertices,
//   * elem  -- maps each vertex to its element name and ordered list of
//              children (string values or vertices), forming a tree,
//   * att   -- partial map from (vertex, attribute name) to a *set* of
//              atomic values (single-valued attributes hold singletons),
//   * root  -- the distinguished root vertex.
//
// Memory layout (see DESIGN.md "Memory layout"): vertices are dense
// VertexId indexes into columnar per-field vectors, and every element and
// attribute *name* is interned into the tree's SymbolTable, so labels_ is
// a flat vector of 32-bit ids and per-vertex attributes are a small
// sorted vector of (Symbol, value) entries instead of a node-based
// std::map. ext(tau) and all pipeline indexes key on Symbol ids; the
// string-based accessors below are kept for the cold paths and resolve
// through the table. Symbol ids are assigned in first-appearance order
// during construction, so two parses of the same document produce
// identical ids regardless of which thread ran them.

#ifndef XIC_MODEL_DATA_TREE_H_
#define XIC_MODEL_DATA_TREE_H_

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/status.h"
#include "util/symbol_table.h"

namespace xic {

using VertexId = uint32_t;
inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// A child of a vertex: either a string value or a sub-tree vertex.
using Child = std::variant<std::string, VertexId>;

/// The (unordered) value of one attribute: a set of atomic values.
using AttrValue = std::set<std::string>;

class DataTree {
 public:
  /// One attribute of one vertex: interned name plus value set. Entries
  /// are kept sorted by name (lexicographically), preserving the
  /// iteration order of the std::map this storage replaced.
  struct AttrEntry {
    Symbol name;
    AttrValue value;
  };

  /// Read-only view of one vertex's attributes. Iterates in name order,
  /// yielding (const std::string& name, const AttrValue& value) pairs, so
  /// range-for with structured bindings works as it did over std::map.
  class VertexAttrs {
   public:
    class iterator {
     public:
      using value_type = std::pair<const std::string&, const AttrValue&>;

      value_type operator*() const {
        return {table_->name(it_->name), it_->value};
      }
      iterator& operator++() {
        ++it_;
        return *this;
      }
      bool operator==(const iterator& o) const { return it_ == o.it_; }
      bool operator!=(const iterator& o) const { return it_ != o.it_; }

     private:
      friend class VertexAttrs;
      iterator(const SymbolTable* table,
               std::vector<AttrEntry>::const_iterator it)
          : table_(table), it_(it) {}
      const SymbolTable* table_;
      std::vector<AttrEntry>::const_iterator it_;
    };

    iterator begin() const { return {table_, entries_->begin()}; }
    iterator end() const { return {table_, entries_->end()}; }
    size_t size() const { return entries_->size(); }
    bool empty() const { return entries_->empty(); }

    /// The raw sorted entries (hot paths index these by Symbol).
    const std::vector<AttrEntry>& entries() const { return *entries_; }

    /// Name-and-value equality, comparable across trees with different
    /// symbol tables (both sides iterate in name order).
    friend bool operator==(const VertexAttrs& a, const VertexAttrs& b) {
      if (a.size() != b.size()) return false;
      auto ia = a.begin(), ib = b.begin();
      for (; ia != a.end(); ++ia, ++ib) {
        if ((*ia).first != (*ib).first || (*ia).second != (*ib).second) {
          return false;
        }
      }
      return true;
    }
    friend bool operator!=(const VertexAttrs& a, const VertexAttrs& b) {
      return !(a == b);
    }

   private:
    friend class DataTree;
    VertexAttrs(const SymbolTable* table,
                const std::vector<AttrEntry>* entries)
        : table_(table), entries_(entries) {}
    const SymbolTable* table_;
    const std::vector<AttrEntry>* entries_;
  };

  DataTree() = default;

  /// Creates a vertex labeled `element_name`; the first vertex created
  /// becomes the root. Returns its id.
  VertexId AddVertex(std::string_view element_name);

  /// Appends `child` as the last child of `parent`. Fails if `child`
  /// already has a parent or if the edge would break the tree shape: the
  /// root as a child, `child == parent`, or `child` an ancestor of
  /// `parent`. The cycle check is O(1) when `child` has no vertex
  /// children and walks `parent`'s ancestors otherwise, so the vertices
  /// always form a forest.
  Status AddChildVertex(VertexId parent, VertexId child);

  /// Appends a string child (character data) to `parent`.
  void AddChildText(VertexId parent, std::string text);

  /// Sets attribute `name` of `v` to the given set of values, replacing
  /// any previous value.
  void SetAttribute(VertexId v, std::string_view name, AttrValue value);

  /// Convenience for single-valued attributes.
  void SetAttribute(VertexId v, std::string_view name, std::string value);

  size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }
  VertexId root() const { return root_; }

  const std::string& label(VertexId v) const {
    return symbols_.name(labels_[v]);
  }
  /// Interned label id of `v` (the hot-path equivalent of label()).
  Symbol label_symbol(VertexId v) const { return labels_[v]; }

  /// The tree's name table. Symbols returned by label_symbol() and
  /// AttrEntry::name index into it.
  const SymbolTable& symbols() const { return symbols_; }

  /// The id of `name` in this tree's table, or kInvalidSymbol if the name
  /// never occurs as a label or attribute name (then no vertex has it).
  Symbol FindName(std::string_view name) const {
    return symbols_.Find(name);
  }

  const std::vector<Child>& children(VertexId v) const {
    return children_[v];
  }
  /// Parent of `v`, or kInvalidVertex for the root.
  VertexId parent(VertexId v) const { return parents_[v]; }

  /// The attributes of `v` as a name-ordered view (name -> set of
  /// values).
  VertexAttrs attributes(VertexId v) const {
    return VertexAttrs(&symbols_, &attributes_[v]);
  }

  /// True iff att(v, name) is defined.
  bool HasAttribute(VertexId v, std::string_view name) const;
  bool HasAttribute(VertexId v, Symbol name) const {
    return FindAttr(v, name) != nullptr;
  }

  /// att(v, name); fails if undefined.
  Result<AttrValue> Attribute(VertexId v, std::string_view name) const;

  /// att(v, name) by interned id, or null if undefined. The hot-path
  /// accessor: no copy, no Status construction.
  const AttrValue* FindAttr(VertexId v, Symbol name) const {
    for (const AttrEntry& e : attributes_[v]) {
      if (e.name == name) return &e.value;
    }
    return nullptr;
  }

  /// The single value of a single-valued attribute; fails if undefined or
  /// not a singleton.
  Result<std::string> SingleAttribute(VertexId v,
                                      std::string_view name) const;

  /// ext(tau): ids of all vertices labeled `element_name`, in creation
  /// order. O(|V|) per call; see ExtentIndex for repeated queries.
  std::vector<VertexId> Extent(std::string_view element_name) const;

  /// All distinct labels in the tree.
  std::set<std::string> Labels() const;

  /// Vertex-labelled children only (skipping string children), in order.
  std::vector<VertexId> ChildVertices(VertexId v) const;

  /// Labels of all children in order, with string children rendered as
  /// the reserved S symbol -- the word checked against P(tau).
  std::vector<std::string> ChildWord(VertexId v) const;

 private:
  const AttrValue* FindAttr(VertexId v, std::string_view name) const {
    Symbol s = symbols_.Find(name);
    return s == kInvalidSymbol ? nullptr : FindAttr(v, s);
  }
  void SetAttributeImpl(VertexId v, std::string_view name, AttrValue value);

  SymbolTable symbols_;
  std::vector<Symbol> labels_;
  std::vector<std::vector<Child>> children_;
  std::vector<VertexId> parents_;
  std::vector<std::vector<AttrEntry>> attributes_;  // sorted by name
  VertexId root_ = kInvalidVertex;
};

/// Precomputed ext(tau) index over an immutable DataTree: one flat
/// vector of extents indexed by label Symbol.
class ExtentIndex {
 public:
  explicit ExtentIndex(const DataTree& tree);

  /// ext(tau) (empty if the label does not occur).
  const std::vector<VertexId>& Extent(std::string_view element_name) const;
  const std::vector<VertexId>& Extent(Symbol label) const {
    return label < extents_.size() ? extents_[label] : empty_;
  }

 private:
  const DataTree& tree_;
  std::vector<std::vector<VertexId>> extents_;  // indexed by Symbol
  std::vector<VertexId> empty_;
};

}  // namespace xic

#endif  // XIC_MODEL_DATA_TREE_H_
