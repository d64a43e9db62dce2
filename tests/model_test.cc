#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/data_tree.h"
#include "model/doc_generator.h"
#include "model/dtd_structure.h"
#include "model/structural_validator.h"

namespace xic {
namespace {

// The paper's book DTD (Sections 1 / 2.4), without author/title detail
// elements spelled out as strings.
DtdStructure BookDtd() {
  DtdStructure dtd;
  EXPECT_TRUE(dtd.AddElement("book", "(entry, author*, section*, ref)").ok());
  EXPECT_TRUE(dtd.AddElement("entry", "(title, publisher)").ok());
  EXPECT_TRUE(dtd.AddElement("author", "(#PCDATA)").ok());
  EXPECT_TRUE(dtd.AddElement("title", "(#PCDATA)").ok());
  EXPECT_TRUE(dtd.AddElement("publisher", "(#PCDATA)").ok());
  EXPECT_TRUE(dtd.AddElement("text", "(#PCDATA)").ok());
  EXPECT_TRUE(dtd.AddElement("section", "(title, (text|section)*)").ok());
  EXPECT_TRUE(dtd.AddElement("ref", "EMPTY").ok());
  EXPECT_TRUE(
      dtd.AddAttribute("entry", "isbn", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(
      dtd.AddAttribute("section", "sid", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.AddAttribute("ref", "to", AttrCardinality::kSet).ok());
  EXPECT_TRUE(dtd.SetRoot("book").ok());
  EXPECT_TRUE(dtd.Validate().ok());
  return dtd;
}

// A small valid book document.
DataTree BookTree() {
  DataTree t;
  VertexId book = t.AddVertex("book");
  VertexId entry = t.AddVertex("entry");
  EXPECT_TRUE(t.AddChildVertex(book, entry).ok());
  t.SetAttribute(entry, "isbn", std::string("1-55860-622-X"));
  VertexId title = t.AddVertex("title");
  EXPECT_TRUE(t.AddChildVertex(entry, title).ok());
  t.AddChildText(title, "Data on the Web");
  VertexId publisher = t.AddVertex("publisher");
  EXPECT_TRUE(t.AddChildVertex(entry, publisher).ok());
  t.AddChildText(publisher, "Morgan Kaufmann");
  VertexId author = t.AddVertex("author");
  EXPECT_TRUE(t.AddChildVertex(book, author).ok());
  t.AddChildText(author, "Abiteboul");
  VertexId section = t.AddVertex("section");
  EXPECT_TRUE(t.AddChildVertex(book, section).ok());
  t.SetAttribute(section, "sid", std::string("s1"));
  VertexId stitle = t.AddVertex("title");
  EXPECT_TRUE(t.AddChildVertex(section, stitle).ok());
  t.AddChildText(stitle, "Introduction");
  VertexId ref = t.AddVertex("ref");
  EXPECT_TRUE(t.AddChildVertex(book, ref).ok());
  t.SetAttribute(ref, "to", AttrValue{"1-55860-622-X"});
  return t;
}

TEST(DataTree, BasicShape) {
  DataTree t = BookTree();
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.label(t.root()), "book");
  EXPECT_EQ(t.parent(t.root()), kInvalidVertex);
  EXPECT_EQ(t.ChildVertices(t.root()).size(), 4u);
  EXPECT_EQ(t.ChildWord(t.root()),
            (std::vector<std::string>{"entry", "author", "section", "ref"}));
}

TEST(DataTree, TreeInvariantEnforced) {
  DataTree t;
  VertexId a = t.AddVertex("a");
  VertexId b = t.AddVertex("b");
  VertexId c = t.AddVertex("c");
  EXPECT_TRUE(t.AddChildVertex(a, b).ok());
  // b already has a parent.
  EXPECT_FALSE(t.AddChildVertex(c, b).ok());
  // The root cannot become a child.
  EXPECT_FALSE(t.AddChildVertex(b, a).ok());
  // Out-of-range ids rejected.
  EXPECT_FALSE(t.AddChildVertex(a, 99).ok());
}

TEST(DataTree, CyclesRejected) {
  DataTree t;
  VertexId root = t.AddVertex("r");
  VertexId a = t.AddVertex("a");
  VertexId b = t.AddVertex("b");
  VertexId c = t.AddVertex("c");
  EXPECT_EQ(t.AddChildVertex(a, a).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(t.AddChildVertex(a, b).ok());
  EXPECT_EQ(t.AddChildVertex(b, a).code(), StatusCode::kInvalidArgument);
  t.AddChildText(c, "text only");
  ASSERT_TRUE(t.AddChildVertex(b, c).ok());
  EXPECT_EQ(t.AddChildVertex(c, a).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.AddChildVertex(c, c).code(), StatusCode::kInvalidArgument);
  // The refused edges left nothing behind.
  EXPECT_EQ(t.parent(a), kInvalidVertex);
  EXPECT_TRUE(t.ChildVertices(c).empty());
  // The detached subtree a -> b -> c still attaches elsewhere.
  ASSERT_TRUE(t.AddChildVertex(root, a).ok());
  EXPECT_EQ(t.parent(a), root);
  EXPECT_EQ(t.ChildVertices(root), std::vector<VertexId>{a});
}

TEST(DataTree, Attributes) {
  DataTree t = BookTree();
  VertexId entry = t.ChildVertices(t.root())[0];
  EXPECT_TRUE(t.HasAttribute(entry, "isbn"));
  EXPECT_FALSE(t.HasAttribute(entry, "nope"));
  EXPECT_EQ(t.SingleAttribute(entry, "isbn").value(), "1-55860-622-X");
  EXPECT_FALSE(t.SingleAttribute(entry, "nope").ok());

  VertexId ref = t.ChildVertices(t.root())[3];
  t.SetAttribute(ref, "to", AttrValue{"a", "b"});
  EXPECT_EQ(t.Attribute(ref, "to").value().size(), 2u);
  // Multi-valued attribute is not single.
  EXPECT_FALSE(t.SingleAttribute(ref, "to").ok());
}

TEST(DataTree, ExtentAndLabels) {
  DataTree t = BookTree();
  EXPECT_EQ(t.Extent("title").size(), 2u);
  EXPECT_EQ(t.Extent("book").size(), 1u);
  EXPECT_EQ(t.Extent("missing").size(), 0u);
  EXPECT_TRUE(t.Labels().count("section"));

  ExtentIndex index(t);
  EXPECT_EQ(index.Extent("title").size(), 2u);
  EXPECT_EQ(index.Extent("missing").size(), 0u);
}

TEST(DtdStructure, Accessors) {
  DtdStructure dtd = BookDtd();
  EXPECT_TRUE(dtd.HasElement("book"));
  EXPECT_FALSE(dtd.HasElement("nope"));
  EXPECT_EQ(dtd.Elements().size(), 8u);
  EXPECT_EQ(dtd.root(), "book");
  EXPECT_EQ(dtd.Attributes("entry"), (std::vector<std::string>{"isbn"}));
  EXPECT_TRUE(dtd.IsSingleValued("entry", "isbn"));
  EXPECT_TRUE(dtd.IsSetValued("ref", "to"));
  EXPECT_FALSE(dtd.IsSetValued("entry", "isbn"));
  EXPECT_FALSE(dtd.HasAttribute("book", "isbn"));
  EXPECT_EQ(dtd.ContentModel("entry").value()->ToString(),
            "title, publisher");
}

TEST(DtdStructure, UniqueSubElements) {
  DtdStructure dtd = BookDtd();
  // entry and ref occur exactly once in every book; author does not.
  EXPECT_TRUE(dtd.IsUniqueSubElement("book", "entry"));
  EXPECT_TRUE(dtd.IsUniqueSubElement("book", "ref"));
  EXPECT_FALSE(dtd.IsUniqueSubElement("book", "author"));
  EXPECT_FALSE(dtd.IsUniqueSubElement("book", "title"));
  EXPECT_TRUE(dtd.IsUniqueSubElement("section", "title"));
  EXPECT_FALSE(dtd.IsUniqueSubElement("section", "section"));
}

TEST(DtdStructure, IdInvariants) {
  DtdStructure dtd;
  ASSERT_TRUE(dtd.AddElement("person", "EMPTY").ok());
  ASSERT_TRUE(
      dtd.AddAttribute("person", "oid", AttrCardinality::kSingle).ok());
  ASSERT_TRUE(
      dtd.AddAttribute("person", "friends", AttrCardinality::kSet).ok());
  ASSERT_TRUE(
      dtd.AddAttribute("person", "oid2", AttrCardinality::kSingle).ok());
  // kind requires a declared attribute.
  EXPECT_FALSE(dtd.SetKind("person", "ghost", AttrKind::kId).ok());
  // Set-valued attributes cannot be IDs.
  EXPECT_FALSE(dtd.SetKind("person", "friends", AttrKind::kId).ok());
  // One ID attribute per element.
  EXPECT_TRUE(dtd.SetKind("person", "oid", AttrKind::kId).ok());
  EXPECT_FALSE(dtd.SetKind("person", "oid2", AttrKind::kId).ok());
  EXPECT_EQ(dtd.IdAttribute("person"), "oid");
  EXPECT_EQ(dtd.Kind("person", "oid"), AttrKind::kId);
  // IDREFS: set-valued IDREF is fine.
  EXPECT_TRUE(dtd.SetKind("person", "friends", AttrKind::kIdref).ok());
}

TEST(DtdStructure, ValidateCatchesDanglingReferences) {
  DtdStructure dtd;
  ASSERT_TRUE(dtd.AddElement("a", "(ghost)").ok());
  ASSERT_TRUE(dtd.SetRoot("a").ok());
  EXPECT_FALSE(dtd.Validate().ok());

  DtdStructure no_root;
  ASSERT_TRUE(no_root.AddElement("a", "EMPTY").ok());
  EXPECT_FALSE(no_root.Validate().ok());

  DtdStructure bad_root;
  ASSERT_TRUE(bad_root.AddElement("a", "EMPTY").ok());
  ASSERT_TRUE(bad_root.SetRoot("b").ok());
  EXPECT_FALSE(bad_root.Validate().ok());
}

TEST(StructuralValidator, AcceptsValidBook) {
  DtdStructure dtd = BookDtd();
  DataTree t = BookTree();
  StructuralValidator validator(dtd);
  ValidationReport report = validator.Validate(t);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(validator.AllContentModelsDeterministic());
}

TEST(StructuralValidator, RejectsWrongRoot) {
  DtdStructure dtd = BookDtd();
  DataTree t;
  t.AddVertex("entry");
  StructuralValidator validator(dtd);
  EXPECT_FALSE(validator.Validate(t).ok());
}

TEST(StructuralValidator, RejectsContentModelViolation) {
  DtdStructure dtd = BookDtd();
  DataTree t = BookTree();
  // Add a second entry to the book: the model allows exactly one.
  VertexId extra = t.AddVertex("entry");
  ASSERT_TRUE(t.AddChildVertex(t.root(), extra).ok());
  t.SetAttribute(extra, "isbn", std::string("zzz"));
  StructuralValidator validator(dtd, {.allow_missing_attributes = true});
  ValidationReport report = validator.Validate(t);
  EXPECT_FALSE(report.ok());
}

TEST(StructuralValidator, RejectsUndeclaredElementAndAttribute) {
  DtdStructure dtd = BookDtd();
  DataTree t = BookTree();
  VertexId alien = t.AddVertex("alien");
  ASSERT_TRUE(t.AddChildVertex(t.root(), alien).ok());
  StructuralValidator validator(dtd);
  ValidationReport report = validator.Validate(t);
  EXPECT_FALSE(report.ok());

  DataTree t2 = BookTree();
  t2.SetAttribute(t2.root(), "bogus", std::string("x"));
  EXPECT_FALSE(validator.Validate(t2).ok());
}

TEST(StructuralValidator, StrictAttributePresence) {
  DtdStructure dtd = BookDtd();
  DataTree t = BookTree();
  VertexId entry = t.ChildVertices(t.root())[0];
  (void)entry;
  // Remove isbn by rebuilding without it: easier -- new tree with a
  // missing sid on section.
  DataTree t2 = BookTree();
  VertexId section = t2.ChildVertices(t2.root())[2];
  (void)section;
  // Definition 2.4 is strict: a declared attribute must be present.
  DataTree t3;
  VertexId book = t3.AddVertex("book");
  VertexId e = t3.AddVertex("entry");
  ASSERT_TRUE(t3.AddChildVertex(book, e).ok());
  // entry lacks isbn and children; multiple violations expected.
  StructuralValidator strict(dtd);
  EXPECT_FALSE(strict.Validate(t3).ok());
  StructuralValidator relaxed(dtd, {.allow_missing_attributes = true});
  ValidationReport report = relaxed.Validate(t3);
  // Still invalid (content models), but no missing-attribute violation.
  for (const Violation& v : report.violations) {
    EXPECT_EQ(v.message.find("missing declared attribute"),
              std::string::npos);
  }
}

TEST(StructuralValidator, SingleValuedAttributesMustBeSingletons) {
  DtdStructure dtd = BookDtd();
  DataTree t = BookTree();
  VertexId entry = t.ChildVertices(t.root())[0];
  t.SetAttribute(entry, "isbn", AttrValue{"a", "b"});
  StructuralValidator validator(dtd);
  EXPECT_FALSE(validator.Validate(t).ok());
}

TEST(StructuralValidator, MaxViolationsCap) {
  DtdStructure dtd = BookDtd();
  DataTree t;
  VertexId book = t.AddVertex("book");
  for (int i = 0; i < 10; ++i) {
    VertexId alien = t.AddVertex("alien");
    ASSERT_TRUE(t.AddChildVertex(book, alien).ok());
  }
  StructuralValidator validator(dtd, {.max_violations = 3});
  EXPECT_EQ(validator.Validate(t).violations.size(), 3u);
}

// -- Validate against NaiveValidate -----------------------------------------

std::string Render(const ValidationReport& report) {
  std::string out = report.status.ToString() + "\n";
  for (const Violation& v : report.violations) {
    out += std::to_string(v.vertex) + "|" + v.message + "\n";
  }
  return out;
}

// The engine-backed validator and Definition 2.4 as written agree on
// the status, the violations and their order, at every truncation and
// in both attribute modes.
void ExpectAgree(const DtdStructure& dtd, const DataTree& tree,
                 const std::string& what,
                 ValidationOptions base = {},
                 const Deadline& deadline = Deadline::Infinite()) {
  for (bool allow_missing : {false, true}) {
    for (size_t cap : {0, 1, 2}) {
      ValidationOptions options = base;
      options.allow_missing_attributes = allow_missing;
      options.max_violations = cap;
      EXPECT_EQ(Render(StructuralValidator(dtd, options).Validate(tree,
                                                                  deadline)),
                Render(NaiveValidate(dtd, tree, options, deadline)))
          << what << " (allow_missing " << allow_missing << ", cap " << cap
          << ")";
    }
  }
}

// ExpectAgree on a tree that must be invalid, so the comparison is not
// vacuous.
void ExpectAgreeInvalid(const DtdStructure& dtd, const DataTree& tree,
                        const std::string& what) {
  EXPECT_FALSE(NaiveValidate(dtd, tree).ok()) << what;
  ExpectAgree(dtd, tree, what);
}

VertexId AddChild(DataTree* tree, VertexId parent, const std::string& label) {
  VertexId v = tree->AddVertex(label);
  EXPECT_TRUE(tree->AddChildVertex(parent, v).ok());
  return v;
}

TEST(StructuralValidator, AgreesWithNaiveOnGeneratedDocuments) {
  const DtdStructure dtd = BookDtd();
  const std::vector<std::string> labels = {"book", "entry", "title",
                                           "section", "ref", "alien"};
  size_t invalid = 0;
  for (uint32_t seed = 1; seed <= 25; ++seed) {
    DocGenerator gen(dtd, {.seed = seed});
    Result<DataTree> doc = gen.Generate();
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    DataTree tree = std::move(doc).value();
    const std::string what = "seed " + std::to_string(seed);
    EXPECT_TRUE(NaiveValidate(dtd, tree).ok()) << what;
    ExpectAgree(dtd, tree, what);
    // Seeded edits of every kind a vertex can violate Definition 2.4 by.
    std::mt19937 rng(seed);
    auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
    for (int edit = 0; edit < 4; ++edit) {
      const VertexId v = static_cast<VertexId>(pick(tree.size()));
      switch (pick(6)) {
        case 0:
          tree.AddChildText(v, pick(2) == 0 ? "" : "x");
          break;
        case 1:
          AddChild(&tree, v, labels[pick(labels.size())]);
          break;
        case 2:
          tree.SetAttribute(v, "bogus", "y");
          break;
        case 3:
          tree.SetAttribute(v, "isbn", AttrValue{"p", "q"});
          break;
        case 4:
          tree.SetAttribute(v, "sid", AttrValue{});
          break;
        default:
          tree.AddVertex(labels[pick(labels.size())]);  // detached
      }
    }
    if (!NaiveValidate(dtd, tree).ok()) ++invalid;
    ExpectAgree(dtd, tree, what + ", edited");
  }
  EXPECT_GE(invalid, 20u);
}

TEST(StructuralValidator, AgreesWithNaiveOnHandBuiltTrees) {
  const DtdStructure dtd = BookDtd();
  {
    // Detached vertices are checked like any other, in id order.
    DataTree t = BookTree();
    VertexId section = t.AddVertex("section");
    AddChild(&t, section, "alien");
    t.AddVertex("alien");
    AddChild(&t, t.AddVertex("title"), "ref");
    ExpectAgreeInvalid(dtd, t, "detached vertices");
  }
  {
    // Every text child counts, adjacent and empty ones included.
    DataTree t = BookTree();
    VertexId author = t.ChildVertices(t.root())[1];
    t.AddChildText(author, "");
    VertexId ref = t.ChildVertices(t.root())[3];
    t.AddChildText(ref, "");
    VertexId title = t.ChildVertices(t.ChildVertices(t.root())[0])[0];
    t.AddChildText(title, "more");
    ExpectAgreeInvalid(dtd, t, "adjacent and empty text children");
  }
  {
    // An empty text child is a whole #PCDATA child: the title is valid,
    // the text-less publisher is not.
    DataTree bare;
    VertexId book = bare.AddVertex("book");
    VertexId entry = AddChild(&bare, book, "entry");
    bare.SetAttribute(entry, "isbn", "i");
    bare.AddChildText(AddChild(&bare, entry, "title"), "");
    AddChild(&bare, entry, "publisher");
    AddChild(&bare, book, "ref");
    ExpectAgreeInvalid(dtd, bare, "empty text child");
  }
  {
    // A single-valued attribute holding no value, and one holding two.
    DataTree t = BookTree();
    t.SetAttribute(t.ChildVertices(t.root())[0], "isbn", AttrValue{});
    t.SetAttribute(t.ChildVertices(t.root())[2], "sid", AttrValue{"a", "b"});
    ExpectAgreeInvalid(dtd, t, "single-valued attribute with 0 and 2 values");
  }
  {
    // An undeclared element's attributes are not checked.
    DataTree t = BookTree();
    VertexId alien = AddChild(&t, t.root(), "alien");
    t.SetAttribute(alien, "isbn", AttrValue{"a", "b"});
    t.SetAttribute(alien, "zz", "z");
    ExpectAgreeInvalid(dtd, t, "undeclared element with attributes");
  }
  {
    // An undeclared child fails its parent's content model.
    DataTree t = BookTree();
    VertexId section = t.ChildVertices(t.root())[2];
    AddChild(&t, section, "alien");
    AddChild(&t, section, "text");
    ExpectAgreeInvalid(dtd, t, "undeclared child in a content model");
  }
  {
    // A wrong root label, attributes in name order, several findings on
    // one vertex.
    DataTree t;
    VertexId section = t.AddVertex("section");
    t.SetAttribute(section, "zeta", "1");
    t.SetAttribute(section, "alpha", "2");
    AddChild(&t, section, "ref");
    ExpectAgreeInvalid(dtd, t, "wrong root");
  }
  ExpectAgreeInvalid(dtd, DataTree(), "empty tree");
  {
    // A DTD over max_automaton_states: the status, on every document.
    ValidationOptions tight;
    tight.limits.max_automaton_states = 2;
    ASSERT_FALSE(StructuralValidator(dtd, tight).status().ok());
    ExpectAgree(dtd, BookTree(), "automaton limit", tight);
    ExpectAgree(dtd, DataTree(), "automaton limit, empty tree", tight);
  }
  {
    // An expired deadline: the status, no violations.
    DataTree t;
    t.AddVertex("alien");
    ValidationReport report =
        StructuralValidator(dtd).Validate(t, Deadline::Expired());
    EXPECT_EQ(report.status.ToString(),
              Status::DeadlineExceeded(
                  "structural validation: deadline exceeded")
                  .ToString());
    EXPECT_TRUE(report.violations.empty());
    ExpectAgree(dtd, t, "expired deadline", {}, Deadline::Expired());
  }
}

}  // namespace
}  // namespace xic
