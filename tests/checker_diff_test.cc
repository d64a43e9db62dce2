// Differential suite: ConstraintChecker (the streaming engine's tree
// feed: sorted extent logs and merge-joins) and NaiveCheck (nested loops
// over the tree) must report the *same* violations in the same order on
// every document, at every max_violations truncation. Generated documents
// with a tiny attribute value pool make duplicate keys and dangling
// references common, so both strategies get exercised on violating
// inputs, not just clean ones. Hand-built trees add the shapes a parser
// never produces but the tree API allows: ids out of pre-order, vertices
// outside the root's subtree (detached or on a parent cycle),
// whitespace-only field text, multi-valued single-valued attributes, set
// members containing spaces.

#include <string>

#include <gtest/gtest.h>

#include "constraints/checker.h"
#include "constraints/constraint_parser.h"
#include "model/doc_generator.h"

namespace {

using namespace xic;

std::string Render(const ConstraintReport& report) {
  std::string out;
  for (const ConstraintViolation& v : report.violations) {
    out += std::to_string(v.constraint_index) + "|" + v.message + "|";
    for (VertexId w : v.witnesses) out += std::to_string(w) + ",";
    out += "|";
    for (const std::string& s : v.values) out += s + ",";
    out += "\n";
  }
  return out;
}

DtdStructure DiffDtd() {
  DtdStructure dtd;
  EXPECT_TRUE(dtd.AddElement("catalog", "(book*)").ok());
  EXPECT_TRUE(dtd.AddElement("book", "(entry, ref*)").ok());
  EXPECT_TRUE(dtd.AddElement("entry", "(#PCDATA)").ok());
  EXPECT_TRUE(dtd.AddElement("ref", "EMPTY").ok());
  EXPECT_TRUE(
      dtd.AddAttribute("entry", "isbn", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.AddAttribute("ref", "main", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.AddAttribute("ref", "to", AttrCardinality::kSet).ok());
  EXPECT_TRUE(dtd.SetRoot("catalog").ok());
  return dtd;
}

ConstraintSet DiffSigma() {
  return ParseConstraintSet("key entry.isbn\n"
                            "fk ref.main -> entry.isbn\n"
                            "sfk ref.to -> entry.isbn",
                            Language::kLu)
      .value();
}

// The engine and the naive reference render identically at every
// truncation the fuzz oracle uses.
void ExpectAgree(const DtdStructure& dtd, const ConstraintSet& sigma,
                 const DataTree& tree, const std::string& what) {
  for (size_t max_violations : {size_t{0}, size_t{1}, size_t{2}}) {
    ConstraintChecker checker(dtd, sigma, {.max_violations = max_violations});
    ConstraintReport report = checker.Check(tree);
    ASSERT_TRUE(report.status.ok()) << what << ": " << report.status;
    EXPECT_EQ(Render(report),
              Render(NaiveCheck(dtd, sigma, tree, max_violations)))
        << what << ", max_violations " << max_violations;
  }
}

VertexId AddChild(DataTree* tree, VertexId parent, const std::string& label) {
  VertexId v = tree->AddVertex(label);
  EXPECT_TRUE(tree->AddChildVertex(parent, v).ok());
  return v;
}

TEST(CheckerDiff, FastAndNaiveAgreeOnGeneratedDocuments) {
  DtdStructure dtd = DiffDtd();
  ConstraintSet sigma = DiffSigma();
  size_t violating_docs = 0;
  for (uint32_t seed = 1; seed <= 25; ++seed) {
    // A 4-value pool over dozens of vertices guarantees key collisions
    // and frequent dangling references.
    DocGenerator generator(dtd, {.seed = seed,
                                 .max_depth = 6,
                                 .star_mean = 4.0,
                                 .value_pool = 4});
    ASSERT_TRUE(generator.status().ok()) << generator.status();
    Result<DataTree> tree = generator.Generate();
    ASSERT_TRUE(tree.ok()) << tree.status();
    ExpectAgree(dtd, sigma, tree.value(), "seed " + std::to_string(seed));
    if (!NaiveCheck(dtd, sigma, tree.value()).ok()) ++violating_docs;
  }
  // The differential test is vacuous if no generated document violates.
  EXPECT_GT(violating_docs, 0u);
}

TEST(CheckerDiff, FastAndNaiveAgreeOnTreeFeedEdgeCases) {
  const DtdStructure dtd = DiffDtd();
  const ConstraintSet sigma = DiffSigma();
  // Each case must violate something, or the comparison is vacuous.
  auto expect_violating = [](const DtdStructure& d, const ConstraintSet& s,
                             const DataTree& t, const std::string& what) {
    EXPECT_FALSE(NaiveCheck(d, s, t).ok()) << what;
    ExpectAgree(d, s, t, what);
  };

  {
    // Ids out of pre-order: the ref and the third entry are added under
    // the first book after the second book exists (as
    // IncrementalChecker::AddElement does), so the walk meets vertices
    // 5 and 6 before 3 and 4.
    DataTree tree;
    VertexId root = tree.AddVertex("catalog");
    VertexId book1 = AddChild(&tree, root, "book");
    tree.SetAttribute(AddChild(&tree, book1, "entry"), "isbn", "a");
    VertexId book2 = AddChild(&tree, root, "book");
    tree.SetAttribute(AddChild(&tree, book2, "entry"), "isbn", "b");
    VertexId ref = AddChild(&tree, book1, "ref");
    tree.SetAttribute(ref, "main", "zz");
    tree.SetAttribute(ref, "to", AttrValue{"a", "q"});
    tree.SetAttribute(AddChild(&tree, book1, "entry"), "isbn", "b");
    expect_violating(dtd, sigma, tree, "ids out of pre-order");
  }
  {
    // Vertices no path from the root reaches still belong to ext(tau).
    DataTree tree;
    VertexId root = tree.AddVertex("catalog");
    VertexId book = AddChild(&tree, root, "book");
    tree.SetAttribute(AddChild(&tree, book, "entry"), "isbn", "a");
    tree.SetAttribute(tree.AddVertex("entry"), "isbn", "a");
    VertexId ref = tree.AddVertex("ref");
    tree.SetAttribute(ref, "main", "missing");
    tree.SetAttribute(ref, "to", AttrValue{"a"});
    expect_violating(dtd, sigma, tree, "detached vertices");
  }
  {
    // AddChildVertex does not reject a parent cycle between two
    // non-root vertices; the entry beneath the cycle still counts.
    DataTree tree;
    VertexId root = tree.AddVertex("catalog");
    tree.SetAttribute(AddChild(&tree, AddChild(&tree, root, "book"), "entry"),
                      "isbn", "a");
    VertexId book1 = tree.AddVertex("book");
    VertexId book2 = AddChild(&tree, book1, "book");
    ASSERT_TRUE(tree.AddChildVertex(book2, book1).ok());
    tree.SetAttribute(AddChild(&tree, book2, "entry"), "isbn", "a");
    expect_violating(dtd, sigma, tree, "parent cycle");
  }
  {
    // A sub-element field whose text is whitespace only: " " and "  "
    // are distinct keys, and "\t" references neither.
    DtdStructure sub;
    ASSERT_TRUE(sub.AddElement("db", "(item*, tag*)").ok());
    ASSERT_TRUE(sub.AddElement("item", "(code)").ok());
    ASSERT_TRUE(sub.AddElement("tag", "(code)").ok());
    ASSERT_TRUE(sub.AddElement("code", "(#PCDATA)").ok());
    ASSERT_TRUE(sub.SetRoot("db").ok());
    ConstraintSet sub_sigma =
        ParseConstraintSet("key item.code\nfk tag.code -> item.code",
                           Language::kLu)
            .value();
    DataTree tree;
    VertexId root = tree.AddVertex("db");
    for (const char* text : {" ", "  "}) {
      tree.AddChildText(AddChild(&tree, AddChild(&tree, root, "item"), "code"),
                        text);
    }
    tree.AddChildText(AddChild(&tree, AddChild(&tree, root, "tag"), "code"),
                      "\t");
    expect_violating(sub, sub_sigma, tree, "whitespace-only field text");
  }
  {
    // Attributes the DTD declares single-valued holding two values are
    // missing key and foreign-key fields, and no target key.
    DataTree tree;
    VertexId root = tree.AddVertex("catalog");
    VertexId book = AddChild(&tree, root, "book");
    tree.SetAttribute(AddChild(&tree, book, "entry"), "isbn",
                      AttrValue{"a", "b"});
    VertexId ref = AddChild(&tree, book, "ref");
    tree.SetAttribute(ref, "main", AttrValue{"a", "b"});
    tree.SetAttribute(ref, "to", AttrValue{"a"});
    expect_violating(dtd, sigma, tree, "two-valued single attribute");
  }
  {
    // A set member containing a space is one value, never two tokens.
    DataTree tree;
    VertexId root = tree.AddVertex("catalog");
    VertexId book = AddChild(&tree, root, "book");
    tree.SetAttribute(AddChild(&tree, book, "entry"), "isbn", "a b");
    VertexId ref = AddChild(&tree, book, "ref");
    tree.SetAttribute(ref, "main", "a b");
    tree.SetAttribute(ref, "to", AttrValue{"a b", "c"});
    expect_violating(dtd, sigma, tree, "set member with a space");
  }
  // The empty tree satisfies everything.
  ExpectAgree(dtd, sigma, DataTree(), "empty tree");
  {
    // An inverse whose key attributes do not resolve (no ID attributes
    // in the DTD), followed by a violated key so truncation matters.
    DtdStructure inv;
    ASSERT_TRUE(inv.AddElement("db", "(person*, group*)").ok());
    ASSERT_TRUE(inv.AddElement("person", "EMPTY").ok());
    ASSERT_TRUE(inv.AddElement("group", "EMPTY").ok());
    ASSERT_TRUE(
        inv.AddAttribute("person", "pid", AttrCardinality::kSingle).ok());
    ASSERT_TRUE(
        inv.AddAttribute("person", "groups", AttrCardinality::kSet).ok());
    ASSERT_TRUE(
        inv.AddAttribute("group", "members", AttrCardinality::kSet).ok());
    ASSERT_TRUE(inv.SetRoot("db").ok());
    ConstraintSet inv_sigma;
    inv_sigma.language = Language::kLid;
    inv_sigma.constraints.push_back(
        Constraint::InverseId("person", "groups", "group", "members"));
    inv_sigma.constraints.push_back(Constraint::UnaryKey("person", "pid"));
    DataTree tree;
    VertexId root = tree.AddVertex("db");
    for (int i = 0; i < 2; ++i) {
      VertexId person = AddChild(&tree, root, "person");
      tree.SetAttribute(person, "pid", "p");
      tree.SetAttribute(person, "groups", AttrValue{"g"});
    }
    tree.SetAttribute(AddChild(&tree, root, "group"), "members",
                      AttrValue{"p"});
    expect_violating(inv, inv_sigma, tree, "unresolvable inverse keys");
  }
}

TEST(CheckerDiff, TripleDuplicateKeyIsReportedOncePerExtraVertex) {
  // Regression: the naive path used to report one violation per *pair*
  // (3 for a triple), the hash-index checker that preceded the engine
  // one per extra occurrence (2).
  DtdStructure dtd = DiffDtd();
  ConstraintSet sigma = DiffSigma();
  DataTree tree;
  VertexId root = tree.AddVertex("catalog");
  for (int i = 0; i < 3; ++i) {
    VertexId book = tree.AddVertex("book");
    ASSERT_TRUE(tree.AddChildVertex(root, book).ok());
    VertexId entry = tree.AddVertex("entry");
    ASSERT_TRUE(tree.AddChildVertex(book, entry).ok());
    tree.SetAttribute(entry, "isbn", "same");
  }
  ConstraintReport fast_report = ConstraintChecker(dtd, sigma).Check(tree);
  EXPECT_EQ(fast_report.violations.size(), 2u);
  EXPECT_EQ(Render(fast_report), Render(NaiveCheck(dtd, sigma, tree)));
  // Both extra occurrences are reported against the first one.
  for (const ConstraintViolation& v : fast_report.violations) {
    ASSERT_EQ(v.witnesses.size(), 2u);
    EXPECT_EQ(v.witnesses[0], fast_report.violations[0].witnesses[0]);
  }
}

TEST(CheckerDiff, DuplicatedIdValueReportedOncePerConstraint) {
  // Regression: a duplicated ID value used to yield one violation per
  // vertex of ext(tau) holding it; the witnesses already list every
  // holder, so one violation per value suffices.
  DtdStructure dtd;
  ASSERT_TRUE(dtd.AddElement("db", "(person*)").ok());
  ASSERT_TRUE(dtd.AddElement("person", "EMPTY").ok());
  ASSERT_TRUE(
      dtd.AddAttribute("person", "oid", AttrCardinality::kSingle).ok());
  ASSERT_TRUE(dtd.SetKind("person", "oid", AttrKind::kId).ok());
  ASSERT_TRUE(dtd.SetRoot("db").ok());
  ConstraintSet sigma =
      ParseConstraintSet("id person.oid", Language::kLid).value();
  DataTree tree;
  VertexId root = tree.AddVertex("db");
  for (int i = 0; i < 3; ++i) {
    VertexId person = tree.AddVertex("person");
    ASSERT_TRUE(tree.AddChildVertex(root, person).ok());
    tree.SetAttribute(person, "oid", "shared");
  }
  ConstraintChecker checker(dtd, sigma);
  ConstraintReport report = checker.Check(tree);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].witnesses.size(), 3u);
  EXPECT_EQ(report.violations[0].values,
            std::vector<std::string>{"shared"});
}

}  // namespace
