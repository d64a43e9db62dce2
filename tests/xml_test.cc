#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "model/structural_validator.h"
#include "xml/dtd_parser.h"
#include "xml/serializer.h"
#include "xml/stream_tokenizer.h"
#include "xml/xml_parser.h"

namespace xic {
namespace {

// The paper's book document (Section 1), with the DTD as internal subset.
const char* kBookXml = R"(<?xml version="1.0"?>
<!DOCTYPE book [
  <!ELEMENT book     (entry, author*, section*, ref)>
  <!ELEMENT entry    (title, publisher)>
  <!ATTLIST entry    isbn   CDATA   #REQUIRED>
  <!ELEMENT title    (#PCDATA)>
  <!ELEMENT publisher (#PCDATA)>
  <!ELEMENT author   (#PCDATA)>
  <!ELEMENT text     (#PCDATA)>
  <!ELEMENT section  (title, (text|section)*)>
  <!ATTLIST section  sid    ID      #REQUIRED>
  <!ELEMENT ref      EMPTY>
  <!ATTLIST ref      to     IDREFS  #IMPLIED>
]>
<book>
  <entry isbn="1-55860-622-X">
    <title>Data on the Web</title>
    <publisher>Morgan Kaufmann</publisher>
  </entry>
  <author>Serge Abiteboul</author>
  <author>Peter Buneman</author>
  <section sid="s1">
    <title>Introduction</title>
    <text>Web data...</text>
    <section sid="s1.1">
      <title>Audience</title>
    </section>
  </section>
  <ref to="1-55860-622-X 1-55860-000-0"/>
</book>
)";

TEST(XmlParser, ParsesBookDocument) {
  Result<XmlDocument> doc = ParseXml(kBookXml);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const DataTree& t = doc.value().tree;
  EXPECT_EQ(doc.value().doctype_name, "book");
  ASSERT_TRUE(doc.value().dtd.has_value());
  EXPECT_EQ(t.label(t.root()), "book");
  EXPECT_EQ(t.Extent("author").size(), 2u);
  EXPECT_EQ(t.Extent("section").size(), 2u);
  // IDREFS value tokenized into a set of two.
  VertexId ref = t.Extent("ref")[0];
  EXPECT_EQ(t.Attribute(ref, "to").value().size(), 2u);
  EXPECT_TRUE(t.Attribute(ref, "to").value().count("1-55860-622-X"));
}

TEST(XmlParser, DocumentValidatesAgainstItsInternalSubset) {
  Result<XmlDocument> doc = ParseXml(kBookXml);
  ASSERT_TRUE(doc.ok());
  StructuralValidator validator(*doc.value().dtd,
                                {.allow_missing_attributes = true});
  ValidationReport report = validator.Validate(doc.value().tree);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(XmlParser, TextAndEntities) {
  Result<XmlDocument> doc = ParseXml(
      "<a x=\"1 &lt; 2\">Tom &amp; Jerry &#65;&#x42;</a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const DataTree& t = doc.value().tree;
  ASSERT_EQ(t.children(t.root()).size(), 1u);
  EXPECT_EQ(std::get<std::string>(t.children(t.root())[0]),
            "Tom & Jerry AB");
  EXPECT_EQ(t.SingleAttribute(t.root(), "x").value(), "1 < 2");
}

TEST(XmlParser, CdataAndComments) {
  Result<XmlDocument> doc =
      ParseXml("<a><!-- note --><![CDATA[<raw> & stuff]]></a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const DataTree& t = doc.value().tree;
  ASSERT_EQ(t.children(t.root()).size(), 1u);
  EXPECT_EQ(std::get<std::string>(t.children(t.root())[0]),
            "<raw> & stuff");
}

TEST(XmlParser, SelfClosingAndNesting) {
  Result<XmlDocument> doc = ParseXml("<a><b/><c><d/></c></a>");
  ASSERT_TRUE(doc.ok());
  const DataTree& t = doc.value().tree;
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.ChildWord(t.root()), (std::vector<std::string>{"b", "c"}));
}

TEST(XmlParser, WhitespaceHandling) {
  Result<XmlDocument> kept =
      ParseXml("<a> <b/> </a>", {.skip_ignorable_whitespace = false});
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.value().tree.children(kept.value().tree.root()).size(), 3u);
  Result<XmlDocument> skipped = ParseXml("<a> <b/> </a>");
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(
      skipped.value().tree.children(skipped.value().tree.root()).size(), 1u);
}

TEST(XmlParser, Errors) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());                  // unterminated
  EXPECT_FALSE(ParseXml("<a></b>").ok());              // mismatched tags
  EXPECT_FALSE(ParseXml("<a x=1/>").ok());             // unquoted attribute
  EXPECT_FALSE(ParseXml("<a>&unknown;</a>").ok());     // unknown entity
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());             // two roots
  EXPECT_FALSE(ParseXml("text only").ok());
  // Errors carry line/column info.
  Status s = ParseXml("<a>\n  <b>\n</a>").status();
  EXPECT_NE(s.message().find("line 3"), std::string::npos) << s;
}

TEST(XmlParser, ExternalDtdOptionTokenizesSets) {
  DtdStructure dtd;
  ASSERT_TRUE(dtd.AddElement("r", "EMPTY").ok());
  ASSERT_TRUE(dtd.AddAttribute("r", "refs", AttrCardinality::kSet).ok());
  ASSERT_TRUE(dtd.SetRoot("r").ok());
  Result<XmlDocument> doc = ParseXml("<r refs=\"a b c\"/>", {.dtd = &dtd});
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(
      doc.value().tree.Attribute(doc.value().tree.root(), "refs").value(),
      (AttrValue{"a", "b", "c"}));
}

TEST(XmlParser, CharacterReferenceValidity) {
  // Decimal and hex forms, boundary-valid code points.
  Result<XmlDocument> doc = ParseXml("<a>&#9;&#xA;&#x20;&#xD7FF;&#xE000;"
                                     "&#xFFFD;&#x10000;&#x10FFFF;</a>");
  EXPECT_TRUE(doc.ok()) << doc.status();
  // Section 2.2: references must denote XML Chars.
  EXPECT_FALSE(ParseXml("<a>&#0;</a>").ok());       // NUL
  EXPECT_FALSE(ParseXml("<a>&#x1;</a>").ok());      // C0 control
  EXPECT_FALSE(ParseXml("<a>&#8;</a>").ok());       // backspace
  EXPECT_FALSE(ParseXml("<a>&#xD800;</a>").ok());   // surrogate low bound
  EXPECT_FALSE(ParseXml("<a>&#xDFFF;</a>").ok());   // surrogate high bound
  EXPECT_FALSE(ParseXml("<a>&#xFFFE;</a>").ok());   // noncharacter
  EXPECT_FALSE(ParseXml("<a>&#xFFFF;</a>").ok());   // noncharacter
  EXPECT_FALSE(ParseXml("<a>&#x110000;</a>").ok()); // beyond Unicode
  EXPECT_FALSE(ParseXml("<a>&#;</a>").ok());        // no digits
  EXPECT_FALSE(ParseXml("<a>&#x;</a>").ok());       // no hex digits
}

TEST(XmlParser, CdataCloseSequenceInContent) {
  // Section 2.4: "]]>" must not appear in character data...
  EXPECT_FALSE(ParseXml("<a>x]]>y</a>").ok());
  // ...but a lone "]]" or an escaped ">" is fine.
  EXPECT_TRUE(ParseXml("<a>x]]y</a>").ok());
  EXPECT_TRUE(ParseXml("<a>x]]&gt;y</a>").ok());
  // And inside a CDATA section the text up to "]]>" is raw.
  Result<XmlDocument> doc = ParseXml("<a><![CDATA[x]]y]]></a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const DataTree& t = doc.value().tree;
  EXPECT_EQ(std::get<std::string>(t.children(t.root())[0]), "x]]y");
}

TEST(XmlParser, LineEndNormalization) {
  // Section 2.11: \r\n and bare \r both become \n, in text and CDATA.
  Result<XmlDocument> doc =
      ParseXml("<a>l1\r\nl2\rl3</a>", {.skip_ignorable_whitespace = false});
  ASSERT_TRUE(doc.ok()) << doc.status();
  const DataTree& t = doc.value().tree;
  EXPECT_EQ(std::get<std::string>(t.children(t.root())[0]), "l1\nl2\nl3");
  Result<XmlDocument> cdata = ParseXml("<a><![CDATA[l1\r\nl2\rl3]]></a>");
  ASSERT_TRUE(cdata.ok()) << cdata.status();
  const DataTree& ct = cdata.value().tree;
  EXPECT_EQ(std::get<std::string>(ct.children(ct.root())[0]), "l1\nl2\nl3");
  // A character reference is not a literal \r and survives.
  Result<XmlDocument> ref =
      ParseXml("<a>x&#13;y</a>", {.skip_ignorable_whitespace = false});
  ASSERT_TRUE(ref.ok()) << ref.status();
  const DataTree& rt = ref.value().tree;
  EXPECT_EQ(std::get<std::string>(rt.children(rt.root())[0]), "x\ry");
}

TEST(XmlParser, AttributeValueNormalization) {
  // Section 3.3.3: literal tab/newline/CR become spaces (\r\n one space);
  // characters entering via references keep their literal value.
  Result<XmlDocument> doc =
      ParseXml("<a x=\"p\tq\nr\r\ns\rt\" y=\"p&#9;q&#10;r&#13;s\"/>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const DataTree& t = doc.value().tree;
  EXPECT_EQ(t.SingleAttribute(t.root(), "x").value(), "p q r s t");
  EXPECT_EQ(t.SingleAttribute(t.root(), "y").value(), "p\tq\nr\rs");
}

TEST(XmlParser, RawLessThanInAttributeValueRejected) {
  // Well-formedness: '<' cannot appear literally in an attribute value.
  EXPECT_FALSE(ParseXml("<a x=\"1<2\"/>").ok());
  EXPECT_TRUE(ParseXml("<a x=\"1&lt;2\"/>").ok());
}

// -- The DataTree builder over the tokenizer's kText chunks ---------------

// ParseXml reads with the tokenizer's default chunk size; every run below
// is several chunks long.
constexpr size_t kChunkBytes = StreamTokenizerOptions{}.chunk_bytes;

// Asserts the root's children: text children equal to the strings in
// `want`, element children given as "<label>". Mismatches report sizes
// (gtest's diff of megabyte strings takes minutes).
void ExpectRootChildren(const DataTree& t,
                        const std::vector<std::string>& want) {
  const std::vector<Child>& children = t.children(t.root());
  ASSERT_EQ(children.size(), want.size());
  for (size_t i = 0; i < children.size(); ++i) {
    const std::string* text = std::get_if<std::string>(&children[i]);
    const std::string got =
        text != nullptr ? *text
                        : "<" + t.label(std::get<VertexId>(children[i])) + ">";
    EXPECT_TRUE(got == want[i]) << "child " << i << ": " << got.size()
                                << " bytes, want " << want[i].size();
  }
}

// Character data that a reference and \r\n line ends break into pieces
// the tokenizer copies and flushes a chunk at a time: raw and parsed.
void ChunkedText(std::string* raw, std::string* parsed) {
  while (parsed->size() < 3 * kChunkBytes) {
    *raw += "abc&amp;def\r\n";
    *parsed += "abc&def\n";
  }
}

TEST(XmlBuilder, TextRunLongerThanAChunkIsOneTextNode) {
  // A plain run, then one the tokenizer delivers in several chunks.
  std::string plain(3 * kChunkBytes + 17, 'p');
  std::string mixed_raw, mixed;
  ChunkedText(&mixed_raw, &mixed);
  Result<XmlDocument> doc = ParseXml("<r>" + plain + "<e/>" + mixed_raw +
                                     "</r>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ExpectRootChildren(doc.value().tree, {plain, "<e>", mixed});
}

TEST(XmlBuilder, CdataLongerThanAChunkIsOneTextNode) {
  std::string body_raw, body;
  while (body.size() < 3 * kChunkBytes) {
    body_raw += "x<&]y\r\nz\r";
    body += "x<&]y\nz\n";
  }
  // A section alone, and one inside a run whose text on either side
  // arrives in chunks of its own.
  std::string before_raw, before;
  ChunkedText(&before_raw, &before);
  Result<XmlDocument> doc =
      ParseXml("<r><![CDATA[" + body_raw + "]]><e/>" + before_raw +
               "<![CDATA[" + body_raw + "]]>after</r>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ExpectRootChildren(doc.value().tree,
                     {body, "<e>", before + body + "after"});
}

TEST(XmlBuilder, WhitespaceRunAcrossChunks) {
  // Layout whitespace with line ends and a character reference, so the
  // run reaches the builder as several chunks, each all-space.
  std::string raw, normalized;
  while (normalized.size() < 3 * kChunkBytes) {
    raw += " \t\r\n&#32;";
    normalized += " \t\n ";
  }
  const std::string text = "<r>" + raw + "<e/>" + raw + "</r>";
  XmlParseOptions skip;
  Result<XmlDocument> dropped = ParseXml(text, skip);
  ASSERT_TRUE(dropped.ok()) << dropped.status();
  ExpectRootChildren(dropped.value().tree, {"<e>"});

  XmlParseOptions keep;
  keep.skip_ignorable_whitespace = false;
  Result<XmlDocument> kept = ParseXml(text, keep);
  ASSERT_TRUE(kept.ok()) << kept.status();
  ExpectRootChildren(kept.value().tree, {normalized, "<e>", normalized});
}

TEST(XmlBuilder, MalformedInternalSubsetReportsTheDtdError) {
  // The DOCTYPE is also missing its '>': the DTD error comes first.
  Result<XmlDocument> doc =
      ParseXml("<!DOCTYPE r [<!ELEMENT r (e>]\n<r/>");
  ASSERT_FALSE(doc.ok());
  Result<DtdStructure> dtd = ParseDtd("<!ELEMENT r (e>", "r");
  ASSERT_FALSE(dtd.ok());
  EXPECT_EQ(doc.status().ToString(), dtd.status().ToString());
  EXPECT_EQ(doc.status().ToString().find("closing DOCTYPE"),
            std::string::npos);
}

TEST(DtdParser, ParsesPersonDeptDtd) {
  // The paper's object-database DTD (Section 1).
  const char* dtd_text = R"(
    <!ELEMENT db (person*, dept*)>
    <!ELEMENT person (name, address)>
    <!ATTLIST person
              oid       ID      #required
              in_dept   IDREFS  #implied>
    <!ELEMENT name (#PCDATA)>
    <!ELEMENT address (#PCDATA)>
    <!ELEMENT dname (#PCDATA)>
    <!ELEMENT dept (dname)>
    <!ATTLIST dept
              oid        ID     #required
              manager    IDREF  #required
              has_staff  IDREFS #implied>
  )";
  Result<DtdStructure> dtd = ParseDtd(dtd_text, "db");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  EXPECT_EQ(dtd.value().IdAttribute("person"), "oid");
  EXPECT_EQ(dtd.value().Kind("person", "in_dept"), AttrKind::kIdref);
  EXPECT_TRUE(dtd.value().IsSetValued("person", "in_dept"));
  EXPECT_TRUE(dtd.value().IsSingleValued("dept", "manager"));
  EXPECT_EQ(dtd.value().Kind("dept", "manager"), AttrKind::kIdref);
  EXPECT_TRUE(dtd.value().IsUniqueSubElement("person", "name"));
}

TEST(DtdParser, AttributeTypeMapping) {
  const char* dtd_text = R"(
    <!ELEMENT e EMPTY>
    <!ATTLIST e
              a CDATA #IMPLIED
              b NMTOKEN #IMPLIED
              c NMTOKENS #IMPLIED
              d (x|y|z) "x"
              f ID #REQUIRED>
  )";
  Result<DtdStructure> dtd = ParseDtd(dtd_text, "e");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  EXPECT_TRUE(dtd.value().IsSingleValued("e", "a"));
  EXPECT_TRUE(dtd.value().IsSingleValued("e", "b"));
  EXPECT_TRUE(dtd.value().IsSetValued("e", "c"));
  EXPECT_TRUE(dtd.value().IsSingleValued("e", "d"));
  EXPECT_EQ(dtd.value().IdAttribute("e"), "f");
}

TEST(DtdParser, SkipsEntityAndNotationDecls) {
  const char* dtd_text = R"(
    <!ENTITY copy "(c) 2000">
    <!ELEMENT e EMPTY>
    <!-- a comment -->
  )";
  Result<DtdStructure> dtd = ParseDtd(dtd_text, "e");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
}

TEST(DtdParser, Errors) {
  EXPECT_FALSE(ParseDtd("<!ELEMENT e EMPTY>", "missing_root").ok());
  EXPECT_FALSE(ParseDtd("<!BOGUS e>", "e").ok());
  EXPECT_FALSE(ParseDtd("<!ELEMENT e (unclosed>", "e").ok());
  EXPECT_EQ(ParseDtd("%param;", "e").status().code(),
            StatusCode::kNotSupported);
  // Duplicate ID attribute.
  EXPECT_FALSE(ParseDtd("<!ELEMENT e EMPTY>"
                        "<!ATTLIST e a ID #REQUIRED b ID #REQUIRED>",
                        "e")
                   .ok());
}

TEST(Serializer, RoundTrip) {
  Result<XmlDocument> doc = ParseXml(kBookXml);
  ASSERT_TRUE(doc.ok());
  std::string serialized = SerializeXml(doc.value().tree);
  // Reparse with the same DTD so IDREFS tokenize again.
  Result<XmlDocument> again =
      ParseXml(serialized, {.dtd = &*doc.value().dtd});
  ASSERT_TRUE(again.ok()) << again.status() << "\n" << serialized;
  const DataTree& a = doc.value().tree;
  const DataTree& b = again.value().tree;
  ASSERT_EQ(a.size(), b.size());
  for (VertexId v = 0; v < a.size(); ++v) {
    EXPECT_EQ(a.label(v), b.label(v));
    EXPECT_EQ(a.attributes(v), b.attributes(v));
    EXPECT_EQ(a.ChildWord(v), b.ChildWord(v));
  }
}

TEST(Serializer, Escaping) {
  EXPECT_EQ(EscapeXml("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
  DataTree t;
  VertexId root = t.AddVertex("a");
  t.SetAttribute(root, "x", std::string("1<2"));
  t.AddChildText(root, "a&b");
  std::string out = SerializeXml(t, {.pretty = false});
  EXPECT_NE(out.find("x=\"1&lt;2\""), std::string::npos) << out;
  EXPECT_NE(out.find("a&amp;b"), std::string::npos) << out;
}

}  // namespace
}  // namespace xic
