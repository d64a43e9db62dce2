#include <gtest/gtest.h>

#include "constraints/checker.h"
#include "constraints/constraint_parser.h"
#include "xml/xml_parser.h"

namespace xic {
namespace {

// Book document with two entries under a catalog root so key constraints
// can actually be violated.
Result<XmlDocument> Catalog(const std::string& body) {
  std::string text = R"(<!DOCTYPE catalog [
    <!ELEMENT catalog (book*)>
    <!ELEMENT book (entry, ref)>
    <!ELEMENT entry (title)>
    <!ATTLIST entry isbn CDATA #REQUIRED>
    <!ELEMENT title (#PCDATA)>
    <!ELEMENT ref EMPTY>
    <!ATTLIST ref to NMTOKENS #REQUIRED>
  ]>
  <catalog>)" + body + "</catalog>";
  return ParseXml(text);
}

std::string Book(const std::string& isbn, const std::string& refs) {
  return "<book><entry isbn=\"" + isbn + "\"><title>t</title></entry>" +
         "<ref to=\"" + refs + "\"/></book>";
}

ConstraintSet BookSigma() {
  Result<ConstraintSet> sigma = ParseConstraintSet(
      "key entry.isbn; sfk ref.to -> entry.isbn", Language::kLu);
  EXPECT_TRUE(sigma.ok());
  return sigma.value();
}

TEST(Checker, SatisfiedBookConstraints) {
  Result<XmlDocument> doc =
      Catalog(Book("a", "a b") + Book("b", "a"));
  ASSERT_TRUE(doc.ok()) << doc.status();
  ConstraintSet sigma = BookSigma();
  ConstraintChecker checker(*doc.value().dtd, sigma);
  ConstraintReport report = checker.Check(doc.value().tree);
  EXPECT_TRUE(report.ok()) << report.ToString(sigma);
}

TEST(Checker, DetectsDuplicateKey) {
  Result<XmlDocument> doc = Catalog(Book("a", "a") + Book("a", "a"));
  ASSERT_TRUE(doc.ok());
  ConstraintSet sigma = BookSigma();
  ConstraintChecker checker(*doc.value().dtd, sigma);
  ConstraintReport report = checker.Check(doc.value().tree);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].constraint_index, 0u);
  EXPECT_NE(report.violations[0].message.find("duplicate key"),
            std::string::npos);
  EXPECT_EQ(report.violations[0].witnesses.size(), 2u);
}

TEST(Checker, DetectsDanglingSetReference) {
  Result<XmlDocument> doc = Catalog(Book("a", "a ghost"));
  ASSERT_TRUE(doc.ok());
  ConstraintSet sigma = BookSigma();
  ConstraintChecker checker(*doc.value().dtd, sigma);
  ConstraintReport report = checker.Check(doc.value().tree);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].message.find("ghost"), std::string::npos);
}

TEST(Checker, NaiveModeAgrees) {
  Result<XmlDocument> good = Catalog(Book("a", "a") + Book("b", "a b"));
  Result<XmlDocument> bad = Catalog(Book("a", "z") + Book("a", "a"));
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(bad.ok());
  ConstraintSet sigma = BookSigma();
  for (const auto* doc : {&good.value(), &bad.value()}) {
    ConstraintChecker checker(*doc->dtd, sigma);
    EXPECT_EQ(checker.Check(doc->tree).ok(),
              NaiveCheck(*doc->dtd, sigma, doc->tree).ok());
  }
}

TEST(Checker, MultiAttributeKeyAndForeignKey) {
  // The paper's publishers/editors example with sub-element fields.
  const char* text = R"(<!DOCTYPE db [
    <!ELEMENT db (publisher*, editor*)>
    <!ELEMENT publisher (pname, country, address)>
    <!ELEMENT editor (name, pname, country)>
    <!ELEMENT pname (#PCDATA)>
    <!ELEMENT country (#PCDATA)>
    <!ELEMENT address (#PCDATA)>
    <!ELEMENT name (#PCDATA)>
  ]>
  <db>
    <publisher><pname>MK</pname><country>USA</country><address>a</address></publisher>
    <publisher><pname>MK</pname><country>UK</country><address>b</address></publisher>
    <editor><name>ed1</name><pname>MK</pname><country>USA</country></editor>
  </db>)";
  Result<XmlDocument> doc = ParseXml(text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  Result<ConstraintSet> sigma = ParseConstraintSet(R"(
    key publisher[pname, country]
    key editor.name
    fk editor[pname, country] -> publisher[pname, country]
  )", Language::kL);
  ASSERT_TRUE(sigma.ok());
  ConstraintChecker checker(*doc.value().dtd, sigma.value());
  EXPECT_TRUE(checker.Check(doc.value().tree).ok())
      << checker.Check(doc.value().tree).ToString(sigma.value());

  // Breaking the foreign key: editor references a missing (pname,country).
  Result<ConstraintSet> sigma_bad = ParseConstraintSet(R"(
    key publisher[pname, country]
    fk editor[pname, country] -> publisher[pname, country]
  )", Language::kL);
  ASSERT_TRUE(sigma_bad.ok());
  const char* text2 = R"(<!DOCTYPE db [
    <!ELEMENT db (publisher*, editor*)>
    <!ELEMENT publisher (pname, country, address)>
    <!ELEMENT editor (name, pname, country)>
    <!ELEMENT pname (#PCDATA)> <!ELEMENT country (#PCDATA)>
    <!ELEMENT address (#PCDATA)> <!ELEMENT name (#PCDATA)>
  ]>
  <db>
    <publisher><pname>MK</pname><country>USA</country><address>a</address></publisher>
    <editor><name>e</name><pname>MK</pname><country>France</country></editor>
  </db>)";
  Result<XmlDocument> doc2 = ParseXml(text2);
  ASSERT_TRUE(doc2.ok());
  ConstraintChecker checker2(*doc2.value().dtd, sigma_bad.value());
  EXPECT_FALSE(checker2.Check(doc2.value().tree).ok());
}

// L_id: the person/dept document.
Result<XmlDocument> PersonDeptDoc(const std::string& body) {
  std::string text = R"(<!DOCTYPE db [
    <!ELEMENT db (person*, dept*)>
    <!ELEMENT person (name)>
    <!ATTLIST person oid ID #REQUIRED in_dept IDREFS #REQUIRED>
    <!ELEMENT name (#PCDATA)>
    <!ELEMENT dname (#PCDATA)>
    <!ELEMENT dept (dname)>
    <!ATTLIST dept oid ID #REQUIRED manager IDREF #REQUIRED
              has_staff IDREFS #REQUIRED>
  ]>
  <db>)" + body + "</db>";
  return ParseXml(text);
}

ConstraintSet PersonDeptSigma() {
  Result<ConstraintSet> sigma = ParseConstraintSet(R"(
    id person.oid
    id dept.oid
    key person.name
    sfk person.in_dept -> dept.oid
    fk dept.manager -> person.oid
    sfk dept.has_staff -> person.oid
    inverse dept.has_staff <-> person.in_dept
  )", Language::kLid);
  EXPECT_TRUE(sigma.ok()) << sigma.status();
  return sigma.value();
}

TEST(Checker, LidDocumentSatisfied) {
  Result<XmlDocument> doc = PersonDeptDoc(R"(
    <person oid="p1" in_dept="d1"><name>An</name></person>
    <person oid="p2" in_dept="d1"><name>Bo</name></person>
    <dept oid="d1" manager="p1" has_staff="p1 p2"><dname>CS</dname></dept>
  )");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ConstraintSet sigma = PersonDeptSigma();
  ConstraintChecker checker(*doc.value().dtd, sigma);
  ConstraintReport report = checker.Check(doc.value().tree);
  EXPECT_TRUE(report.ok()) << report.ToString(sigma);
}

TEST(Checker, IdConstraintIsDocumentWide) {
  // person p1 and dept p1 share an id value: per-type keys would accept
  // this, the L_id ID constraint must not.
  Result<XmlDocument> doc = PersonDeptDoc(R"(
    <person oid="p1" in_dept="p1"><name>An</name></person>
    <dept oid="p1" manager="p1" has_staff="p1"><dname>CS</dname></dept>
  )");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ConstraintSet sigma = PersonDeptSigma();
  ConstraintChecker checker(*doc.value().dtd, sigma);
  ConstraintReport report = checker.Check(doc.value().tree);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const ConstraintViolation& v : report.violations) {
    if (v.message.find("not document-unique") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << report.ToString(sigma);
}

TEST(Checker, SubElementKeyViolation) {
  // Two persons with the same name sub-element value.
  Result<XmlDocument> doc = PersonDeptDoc(R"(
    <person oid="p1" in_dept="d1"><name>An</name></person>
    <person oid="p2" in_dept="d1"><name>An</name></person>
    <dept oid="d1" manager="p1" has_staff="p1 p2"><dname>CS</dname></dept>
  )");
  ASSERT_TRUE(doc.ok());
  ConstraintSet sigma = PersonDeptSigma();
  ConstraintChecker checker(*doc.value().dtd, sigma);
  ConstraintReport report = checker.Check(doc.value().tree);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString(sigma).find("person.name -> person"),
            std::string::npos);
}

TEST(Checker, InverseViolationDetected) {
  // d1 lists p2 as staff but p2's in_dept omits d1.
  Result<XmlDocument> doc = PersonDeptDoc(R"(
    <person oid="p1" in_dept="d1"><name>An</name></person>
    <person oid="p2" in_dept=""><name>Bo</name></person>
    <dept oid="d1" manager="p1" has_staff="p1 p2"><dname>CS</dname></dept>
  )");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ConstraintSet sigma = PersonDeptSigma();
  ConstraintChecker checker(*doc.value().dtd, sigma);
  ConstraintReport report = checker.Check(doc.value().tree);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const ConstraintViolation& v : report.violations) {
    if (v.message.find("inverse missing") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << report.ToString(sigma);
}

TEST(Checker, DanglingIdRef) {
  Result<XmlDocument> doc = PersonDeptDoc(R"(
    <person oid="p1" in_dept="ghost"><name>An</name></person>
    <dept oid="d1" manager="p1" has_staff="p1"><dname>CS</dname></dept>
  )");
  ASSERT_TRUE(doc.ok());
  ConstraintSet sigma = PersonDeptSigma();
  ConstraintChecker checker(*doc.value().dtd, sigma);
  ConstraintReport report = checker.Check(doc.value().tree);
  EXPECT_FALSE(report.ok());
}

TEST(Checker, MaxViolationsCap) {
  std::string body;
  for (int i = 0; i < 10; ++i) body += Book("dup", "dup");
  Result<XmlDocument> doc = Catalog(body);
  ASSERT_TRUE(doc.ok());
  ConstraintSet sigma = BookSigma();
  ConstraintChecker checker(*doc.value().dtd, sigma, {.max_violations = 2});
  EXPECT_EQ(checker.Check(doc.value().tree).violations.size(), 2u);
}

TEST(Checker, FieldValueResolvesSubElements) {
  Result<XmlDocument> doc = PersonDeptDoc(R"(
    <person oid="p1" in_dept="d1"><name>An</name></person>
    <dept oid="d1" manager="p1" has_staff="p1"><dname>CS</dname></dept>
  )");
  ASSERT_TRUE(doc.ok());
  ConstraintSet sigma = PersonDeptSigma();
  ConstraintChecker checker(*doc.value().dtd, sigma);
  const DataTree& t = doc.value().tree;
  VertexId person = t.Extent("person")[0];
  EXPECT_EQ(checker.FieldValue(t, person, "oid").value(), AttrValue{"p1"});
  EXPECT_EQ(checker.FieldValue(t, person, "name").value(), AttrValue{"An"});
  EXPECT_FALSE(checker.FieldValue(t, person, "ghost").ok());
}

}  // namespace
}  // namespace xic
