// Streaming validation: tokenizer event goldens, DOM-vs-stream verdict
// parity (byte-identical reports across the committed corpus and across
// spill budgets), spill-threshold behavior, and the XML-parser
// conformance regressions that rode along with the tokenizer work
// (reserved PI targets, XML-S whitespace, deep documents).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "constraints/checker.h"
#include "constraints/well_formed.h"
#include "engine/stream_validator.h"
#include "fuzzing/chunked_source.h"
#include "fuzzing/corpus.h"
#include "model/structural_validator.h"
#include "obs/obs.h"
#include "util/strings.h"
#include "xml/dtdc_io.h"
#include "xml/stream_tokenizer.h"
#include "xml/xml_parser.h"

namespace xic {
namespace {

// -- Tokenizer event goldens ----------------------------------------------

// Renders the full event stream, aggregating consecutive kText chunks
// into one entry (the run split is an implementation detail callers are
// told to paper over). The input is served `read_bytes` per read
// through the tokenizer's sliding window -- the path files and sockets
// take -- while ParseXml reads its string in place, so comparing the two
// pins the windowed path (refills, compaction, line counting) to the
// other.
std::vector<std::string> Events(const std::string& text,
                                size_t chunk_bytes = 64 * 1024,
                                Status* error = nullptr,
                                size_t read_bytes = 16) {
  ChunkedSource source(text, read_bytes);
  StreamTokenizerOptions options;
  options.chunk_bytes = chunk_bytes;
  StreamTokenizer tok(source, options);
  std::vector<std::string> out;
  std::string run;
  auto flush = [&] {
    if (!run.empty()) out.push_back("text[" + run + "]");
    run.clear();
  };
  StreamEvent ev;
  for (;;) {
    Status s = tok.Next(&ev);
    if (!s.ok()) {
      if (error != nullptr) *error = s;
      flush();
      out.push_back("ERROR");
      return out;
    }
    switch (ev.kind) {
      case StreamEventKind::kDoctype:
        flush();
        out.push_back(std::string("doctype:") + std::string(ev.name) +
                      (ev.has_internal_subset ? "[subset]" : ""));
        break;
      case StreamEventKind::kStartElement: {
        flush();
        std::string e = "start:" + std::string(ev.name);
        for (const StreamEvent::Attr& a : ev.attrs) {
          e += " " + std::string(a.name) + "=" + std::string(a.value);
        }
        out.push_back(e);
        break;
      }
      case StreamEventKind::kEndElement:
        flush();
        out.push_back("end:" + std::string(ev.name));
        break;
      case StreamEventKind::kText:
        run.append(ev.text);
        break;
      case StreamEventKind::kEndDocument:
        flush();
        out.push_back("eod");
        return out;
    }
  }
}

TEST(StreamTokenizer, EventGolden) {
  std::vector<std::string> events = Events(
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE r [<!ELEMENT r ANY>]>\n"
      "<r a=\"x&amp;y\"  b=\" 1\n2 \"><e/>hi<![CDATA[<&]]></r>");
  std::vector<std::string> want = {
      "doctype:r[subset]",
      // Attribute values arrive normalized (Section 3.3.3: the newline
      // became a space) and entity-expanded.
      "start:r a=x&y b= 1 2 ",
      "start:e",
      "end:e",  // synthesized for the self-closing tag
      "text[hi<&]",
      "end:r",
      "eod",
  };
  EXPECT_EQ(events, want);
}

TEST(StreamTokenizer, TextRunsSplitIntoChunksReassembleExactly) {
  std::string big(10000, 'x');
  big[137] = '\n';
  std::string text = "<r>" + big + "</r>";
  // A 64-byte chunk ceiling forces the run through many kText events;
  // the reassembled bytes must equal the DOM parser's one text child.
  std::vector<std::string> events = Events(text, 64);
  Result<XmlDocument> dom = ParseXml(text);
  ASSERT_TRUE(dom.ok()) << dom.status();
  const DataTree& t = dom.value().tree;
  ASSERT_EQ(t.children(t.root()).size(), 1u);
  const std::string& dom_text =
      std::get<std::string>(t.children(t.root())[0]);
  std::vector<std::string> want = {"start:r", "text[" + dom_text + "]",
                                   "end:r", "eod"};
  EXPECT_EQ(events, want);
}

TEST(StreamTokenizer, StartTagSurvivesTheWindowGrowing) {
  // Reads that fill the window leave it full; a reference within a few
  // bytes of a start tag's end then reads past the buffered tag, and
  // the refill compacts the window -- moving the tag -- mid-tag. A tag
  // longer than the window (a 700-byte value) doubles it instead, and a
  // \r\n in its last value refills too. Sweep the tag across the end of
  // a full 512-byte window.
  const std::string long_value(700, 'y');
  for (size_t pad = 400; pad < 1100; ++pad) {
    const std::string text =
        "<r>" + std::string(pad, 'x') + "<element a=\"&amp;\"/>" +
        "<long b=\"" + long_value + "\" a=\"&amp;\r\n\"/></r>";
    std::vector<std::string> want = {
        "start:r", "text[" + std::string(pad, 'x') + "]",
        "start:element a=&", "end:element",
        "start:long b=" + long_value + " a=& ", "end:long", "end:r", "eod"};
    EXPECT_EQ(Events(text, 256, nullptr, 4096), want) << pad;
  }
}

TEST(StreamTokenizer, DoctypeDistinguishesEmptySubsetFromNone) {
  // "<!DOCTYPE r []>" carries an (empty) DTD; "<!DOCTYPE r>" carries
  // none -- the DOM parser treats them differently and so must we.
  std::vector<std::string> with = Events("<!DOCTYPE r []><r/>");
  std::vector<std::string> without = Events("<!DOCTYPE r><r/>");
  ASSERT_FALSE(with.empty());
  ASSERT_FALSE(without.empty());
  EXPECT_EQ(with[0], "doctype:r[subset]");
  EXPECT_EQ(without[0], "doctype:r");
}

TEST(StreamTokenizer, ErrorsMatchDomParserByteForByte) {
  // 30 lines of content (about 650 bytes: dozens of window compactions
  // at 16-byte reads) ahead of each multi-line case's error.
  std::string lines;
  for (int i = 0; i < 30; ++i) {
    lines += "<e a=\"" + std::to_string(i) + "\">line " + std::to_string(i) +
             (i % 2 == 0 ? "</e>\n" : "</e>\r\n");
  }
  const std::string cases[] = {
      "<r>unclosed",
      "<r></mismatch>",
      "<r>a ]]> b</r>",
      "<r>&bogus;</r>",
      "<r a=\"1\" a=\"1\"><r/>",
      "no markup at all",
      "<r/><r2/>",
      // Errors many lines in: the cursor's line and column must survive
      // every memmove of the window.
      "<r>\n" + lines + "a ]]> b</r>",
      "<r>\n" + lines + "x &bogus; y</r>",
      "<r>\n" + lines + "</mismatch>",
      "<r>\n" + lines + "<e a=\"1<2\"/></r>",
      "<r>\n" + lines + "<e\n  a=\"1\"\n  b=2/></r>",
      "<r>\n" + lines + "</r>\n" + lines,
      // Errors reported at a position recorded before the compactions.
      "<r>\n" + lines + "<!-- open\n" + lines,
      "<r>\n" + lines + "<![CDATA[ open\n" + lines,
      "<r>\n" + lines + "<?pi open\n" + lines,
      "<!-- " + lines + " -->\n<!DOCTYPE r [\n" + lines,
  };
  for (const std::string& text : cases) {
    Result<XmlDocument> dom = ParseXml(text);
    ASSERT_FALSE(dom.ok()) << text;
    Status stream_error = Status::OK();
    Events(text, 64, &stream_error);
    EXPECT_EQ(dom.status().ToString(), stream_error.ToString()) << text;
  }
}

// -- XML parser conformance regressions -----------------------------------

TEST(XmlConformance, XmlStylesheetPiIsNotReserved) {
  // Only the exact target "xml" (case-insensitive) is reserved; a PI
  // target that merely *starts* with those letters is an ordinary PI.
  const std::string text =
      "<?xml version=\"1.0\"?>\n"
      "<?xml-stylesheet type=\"text/css\" href=\"s.css\"?>\n"
      "<!DOCTYPE r [<!ELEMENT r (#PCDATA)>]>\n"
      "<?xmlfoo keep going?>\n"
      "<r>body<?xml-model here too?></r>\n"
      "<?xml-stylesheet in the epilog?>";
  Result<XmlDocument> dom = ParseXml(text);
  ASSERT_TRUE(dom.ok()) << dom.status();
  const DataTree& t = dom.value().tree;
  ASSERT_EQ(t.children(t.root()).size(), 1u);
  EXPECT_EQ(std::get<std::string>(t.children(t.root())[0]), "body");
  // The tokenizer agrees: PIs vanish, the text child survives.
  std::vector<std::string> events = Events(text);
  std::vector<std::string> want = {"doctype:r[subset]", "start:r",
                                   "text[body]", "end:r", "eod"};
  EXPECT_EQ(events, want);
}

TEST(XmlConformance, FormFeedAndVerticalTabAreNotXmlSpace) {
  // XML S is exactly {0x20, 0x9, 0xA, 0xD}; std::isspace's extra \f and
  // \v must not make a text run "ignorable"...
  EXPECT_FALSE(IsXmlSpace('\f'));
  EXPECT_FALSE(IsXmlSpace('\v'));
  EXPECT_TRUE(IsXmlSpace(' ') && IsXmlSpace('\t') && IsXmlSpace('\n') &&
              IsXmlSpace('\r'));
  const std::string text =
      "<!DOCTYPE r [<!ELEMENT r (e*)><!ELEMENT e EMPTY>]>\n"
      "<r>\f<e/></r>";
  Result<XmlDocument> dom = ParseXml(text);
  ASSERT_TRUE(dom.ok()) << dom.status();
  const DataTree& t = dom.value().tree;
  // The \f run is real character data: it must survive as a text child
  // and fail the element-only content model.
  ASSERT_EQ(t.children(t.root()).size(), 2u);
  StructuralValidator validator(*dom.value().dtd);
  ValidationReport report = validator.Validate(t);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].message,
            "children [#PCDATA e] do not match content model of r");
  // ...and must not split set-valued attribute values either.
  EXPECT_EQ(TokenizeAttrValue("a\fb \vc", true),
            (AttrValue{"a\fb", "\vc"}));
}

TEST(XmlConformance, DeepDocumentParsesWithoutRecursion) {
  // 50k nested elements: the iterative ParseElement and the tokenizer's
  // explicit stack both survive depths that would overflow a recursive
  // descent, once max_tree_depth is raised.
  constexpr size_t kDepth = 50000;
  std::string text = "<!DOCTYPE a [<!ELEMENT a (a?)>]>\n";
  for (size_t i = 0; i < kDepth; ++i) text += "<a>";
  for (size_t i = 0; i < kDepth; ++i) text += "</a>";
  XmlParseOptions options;
  options.limits.max_tree_depth = kDepth + 1;
  Result<XmlDocument> dom = ParseXml(text, options);
  ASSERT_TRUE(dom.ok()) << dom.status();
  EXPECT_EQ(dom.value().tree.size(), kDepth);
  StreamOptions sopt;
  sopt.limits.max_tree_depth = kDepth + 1;
  StringSource source(text);
  SelfDescribingStreamResult stream =
      StreamValidateSelfDescribing(source, sopt);
  ASSERT_TRUE(stream.outcome.parse.ok()) << stream.outcome.parse;
  EXPECT_EQ(stream.outcome.stats.vertices, kDepth);
  EXPECT_TRUE(stream.outcome.structure.ok())
      << stream.outcome.structure.ToString();
}

// -- DOM / stream verdict parity ------------------------------------------

// Runs the xicheck pipeline both ways, streaming from `source` (which
// serves `text`), and demands byte-identical verdicts at every stage;
// returns an explanation on divergence.
testing::AssertionResult VerdictsAgreeFrom(ByteSource& source,
                                           const std::string& text,
                                           size_t spill_budget,
                                           bool allow_missing) {
  StreamOptions sopt;
  sopt.validation.allow_missing_attributes = allow_missing;
  sopt.spill_budget_bytes = spill_budget;
  sopt.chunk_bytes = 96;
  SelfDescribingStreamResult s = StreamValidateSelfDescribing(source, sopt);

  Result<SelfDescribingDocument> parsed = ParseDocumentWithDtdC(text);
  std::string dom_parse = parsed.ok() ? "OK" : parsed.status().ToString();
  std::string stream_parse =
      s.outcome.parse.ok() ? "OK" : s.outcome.parse.ToString();
  if (dom_parse != stream_parse) {
    return testing::AssertionFailure() << "parse status: DOM \"" << dom_parse
                                       << "\" vs stream \"" << stream_parse
                                       << "\"";
  }
  if (!parsed.ok()) return testing::AssertionSuccess();
  const SelfDescribingDocument& doc = parsed.value();
  if (doc.document.dtd.has_value() != s.has_dtd) {
    return testing::AssertionFailure() << "DTD presence diverged";
  }
  if (!doc.document.dtd.has_value()) return testing::AssertionSuccess();
  const DtdStructure& dtd = *doc.document.dtd;

  ValidationOptions vopt;
  vopt.allow_missing_attributes = allow_missing;
  StructuralValidator validator(dtd, vopt);
  ValidationReport dom_structure = validator.Validate(doc.document.tree);
  if (dom_structure.ToString() != s.outcome.structure.ToString()) {
    return testing::AssertionFailure()
           << "structure reports:\n--- DOM ---\n" << dom_structure.ToString()
           << "--- stream ---\n" << s.outcome.structure.ToString();
  }
  if (doc.sigma.has_value() != s.sigma.has_value()) {
    return testing::AssertionFailure() << "sigma presence diverged";
  }
  if (!doc.sigma.has_value()) return testing::AssertionSuccess();
  const ConstraintSet& sigma = *doc.sigma;
  Status wf = CheckWellFormed(sigma, dtd);
  if (wf.ToString() != s.well_formed.ToString()) {
    return testing::AssertionFailure()
           << "well-formedness: DOM \"" << wf.ToString() << "\" vs stream \""
           << s.well_formed.ToString() << "\"";
  }
  if (!wf.ok()) return testing::AssertionSuccess();
  ConstraintChecker checker(dtd, sigma);
  ConstraintReport dom_report = checker.Check(doc.document.tree);
  if (dom_report.ToString(sigma) != s.outcome.constraints.ToString(sigma)) {
    return testing::AssertionFailure()
           << "constraint reports (spill budget " << spill_budget
           << "):\n--- DOM ---\n" << dom_report.ToString(sigma)
           << "--- stream ---\n" << s.outcome.constraints.ToString(sigma);
  }
  return testing::AssertionSuccess();
}

// VerdictsAgreeFrom over both readers: in place, and through the window
// in 96-byte reads (refills, compaction, text runs split into chunks).
testing::AssertionResult VerdictsAgree(const std::string& text,
                                       size_t spill_budget,
                                       bool allow_missing) {
  StringSource in_place(text);
  if (testing::AssertionResult r =
          VerdictsAgreeFrom(in_place, text, spill_budget, allow_missing);
      !r) {
    return r << " (in place)";
  }
  ChunkedSource windowed(text, 96);
  if (testing::AssertionResult r =
          VerdictsAgreeFrom(windowed, text, spill_budget, allow_missing);
      !r) {
    return r << " (windowed, 96-byte reads)";
  }
  return testing::AssertionSuccess();
}

TEST(StreamParity, EveryCommittedCorpusDocumentAgrees) {
  size_t seen = 0;
  for (const auto& it : std::filesystem::directory_iterator(XIC_CORPUS_DIR)) {
    if (it.path().extension() != ".corpus") continue;
    std::ifstream in(it.path());
    ASSERT_TRUE(in) << it.path();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Result<fuzz::CorpusEntry> entry = fuzz::ParseCorpusEntry(buffer.str());
    ASSERT_TRUE(entry.ok()) << it.path() << ": " << entry.status();
    ++seen;
    // Every committed document -- whatever oracle family it pins -- must
    // validate identically both ways, spilling or not.
    for (size_t budget : {size_t{0}, size_t{1}}) {
      EXPECT_TRUE(VerdictsAgree(entry.value().document, budget, true))
          << it.path() << " (spill budget " << budget << ")";
      EXPECT_TRUE(VerdictsAgree(entry.value().document, budget, false))
          << it.path() << " (strict attributes, spill budget " << budget
          << ")";
    }
  }
  EXPECT_GE(seen, 12u) << "corpus directory went missing?";
}

// A document whose key/ID/FK extents dwarf any sane budget.
std::string WideDocument(size_t rows) {
  std::string text =
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE db [\n"
      "<!ELEMENT db (t*)>\n"
      "<!ELEMENT t EMPTY>\n"
      "<!ATTLIST t k CDATA #REQUIRED r IDREF #REQUIRED oid ID #REQUIRED>\n"
      "<!-- xic:constraints language=L_id\n"
      "  id t.oid\n"
      "  key t.k\n"
      "  fk t.r -> t.oid\n"
      "-->\n"
      "]>\n"
      "<db>\n";
  for (size_t i = 0; i < rows; ++i) {
    std::string n = std::to_string(i);
    // Sprinkle duplicate keys, dangling references and duplicate IDs.
    std::string k = (i % 97 == 0) ? "dup" : "k" + n;
    std::string r = (i % 89 == 0) ? "nowhere" : "o" + n;
    std::string oid = (i % 101 == 0) ? "same" : "o" + n;
    text += "<t k=\"" + k + "\" r=\"" + r + "\" oid=\"" + oid + "\"/>\n";
  }
  text += "</db>\n";
  return text;
}

TEST(StreamSpill, CrossingTheBudgetSpillsAndPreservesTheVerdict) {
  std::string text = WideDocument(3000);
  // Unlimited in-memory first, as the reference verdict.
  StreamOptions keep;
  keep.validation.allow_missing_attributes = true;
  keep.spill_budget_bytes = 0;
  StringSource s1(text);
  SelfDescribingStreamResult in_memory = StreamValidateSelfDescribing(s1, keep);
  ASSERT_TRUE(in_memory.outcome.parse.ok()) << in_memory.outcome.parse;
  EXPECT_EQ(in_memory.outcome.stats.spilled_bytes, 0u);
  ASSERT_TRUE(in_memory.sigma.has_value());
  EXPECT_FALSE(in_memory.outcome.constraints.ok());

  // A 4 KiB budget forces every extent through the disk path.
  StreamOptions spill = keep;
  spill.spill_budget_bytes = 4096;
  StringSource s2(text);
  SelfDescribingStreamResult spilled = StreamValidateSelfDescribing(s2, spill);
  ASSERT_TRUE(spilled.outcome.parse.ok()) << spilled.outcome.parse;
  EXPECT_GT(spilled.outcome.stats.spilled_bytes, 0u);
  EXPECT_GT(spilled.outcome.stats.spill_runs, 0u);
  EXPECT_GT(spilled.outcome.stats.extent_records, 0u);
  EXPECT_EQ(in_memory.outcome.structure.ToString(),
            spilled.outcome.structure.ToString());
  EXPECT_EQ(in_memory.outcome.constraints.ToString(*in_memory.sigma),
            spilled.outcome.constraints.ToString(*spilled.sigma));
  // And both agree with the materialized checker.
  EXPECT_TRUE(VerdictsAgree(text, 4096, true));
}

#if XIC_OBS_ENABLED
// Every extent record passes through the batch sort exactly once, whether
// its batch spills or stays in memory, so the sort counter rises by the
// run's record count. ID values go to the document-wide ID log, which
// StreamStats::extent_records does not count, so this document declares
// no ID attribute.
TEST(StreamSpill, EveryExtentRecordIsSortedExactlyOnce) {
  std::string text =
      "<!DOCTYPE db [\n"
      "<!ELEMENT db (t*)>\n"
      "<!ELEMENT t EMPTY>\n"
      "<!ATTLIST t k CDATA #REQUIRED r CDATA #REQUIRED>\n"
      "<!-- xic:constraints language=L\n"
      "  key t.k\n"
      "  fk t.r -> t.k\n"
      "-->\n"
      "]>\n"
      "<db>\n";
  for (size_t i = 0; i < 3000; ++i) {
    const std::string n = std::to_string(i);
    text += "<t k=\"" + std::string(i % 97 == 0 ? "dup" : "k" + n) +
            "\" r=\"" + std::string(i % 89 == 0 ? "nowhere" : "k" + n) +
            "\"/>\n";
  }
  text += "</db>\n";
  obs::Counter& sorted =
      obs::Registry::Global().GetCounter("stream.extent_sorted_records");
  for (size_t budget : {size_t{0}, size_t{4096}, size_t{64} << 20}) {
    StreamOptions options;
    options.spill_budget_bytes = budget;
    StringSource source(text);
    const uint64_t before = sorted.value();
    SelfDescribingStreamResult run =
        StreamValidateSelfDescribing(source, options);
    ASSERT_TRUE(run.outcome.parse.ok()) << run.outcome.parse;
    EXPECT_FALSE(run.outcome.constraints.ok()) << budget;
    EXPECT_EQ(run.outcome.stats.spill_runs > 0, budget == 4096) << budget;
    // One record per <t> in each of two logs: the foreign key's source
    // and the key's extent, which is also the foreign key's target.
    EXPECT_EQ(run.outcome.stats.extent_records, 6000u) << budget;
    EXPECT_EQ(sorted.value() - before, run.outcome.stats.extent_records)
        << "spill budget " << budget;
  }
}
#endif  // XIC_OBS_ENABLED

// -- Extents shared between constraints ----------------------------------
//
// The plan gives each distinct (type, ordered field list) one extent log:
// a key, an ID and every foreign key into the same extent read one log,
// appended once per vertex. Each case holds the streaming report (spill
// budgets 0, 1 and 4096) and the tree feed's to NaiveCheck, violation
// for violation, and pins the exact number of extent records, which a
// duplicated extent would raise.

// Every field of every violation, so witnesses and values are compared
// too, not only the rendered messages.
std::string Render(const ConstraintReport& report) {
  std::string out = report.status.ToString() + "\n";
  for (const ConstraintViolation& v : report.violations) {
    out += std::to_string(v.constraint_index) + " " + v.message + " @";
    for (VertexId w : v.witnesses) out += " " + std::to_string(w);
    out += " |";
    for (const std::string& value : v.values) out += " " + value;
    out += "\n";
  }
  return out;
}

// Checks `text` through the tree feed and the text feed at each spill
// budget, at `max_violations`; returns NaiveCheck's violation count.
size_t ExpectSharedExtentParity(
    const std::string& text, size_t records, size_t max_violations = 0,
    std::vector<size_t> budgets = {0, 1, 4096}) {
  Result<SelfDescribingDocument> parsed = ParseDocumentWithDtdC(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  if (!parsed.ok()) return 0;
  const DtdStructure& dtd = *parsed.value().document.dtd;
  const ConstraintSet& sigma = *parsed.value().sigma;
  const DataTree& tree = parsed.value().document.tree;
  EXPECT_TRUE(CheckWellFormed(sigma, dtd).ok()) << CheckWellFormed(sigma, dtd);
  const std::string naive =
      Render(NaiveCheck(dtd, sigma, tree, max_violations));

  StreamOptions options;
  options.check.max_violations = max_violations;
  const ConstraintPlan plan(dtd, sigma);
  StreamOutcome from_tree =
      CheckTree(plan, nullptr, tree, options, Deadline::Infinite());
  EXPECT_EQ(Render(from_tree.constraints), naive) << "tree feed";
  EXPECT_EQ(from_tree.stats.extent_records, records) << "tree feed";

  for (size_t budget : budgets) {
    options.spill_budget_bytes = budget;
    StringSource source(text);
    SelfDescribingStreamResult s = StreamValidateSelfDescribing(source, options);
    EXPECT_TRUE(s.outcome.parse.ok()) << s.outcome.parse;
    EXPECT_TRUE(s.well_formed.ok()) << s.well_formed;
    EXPECT_EQ(Render(s.outcome.constraints), naive) << "budget " << budget;
    EXPECT_EQ(s.outcome.stats.extent_records, records) << "budget " << budget;
    EXPECT_EQ(s.outcome.stats.spill_runs > 0, budget != 0)
        << "budget " << budget;
  }
  return NaiveCheck(dtd, sigma, tree, max_violations).violations.size();
}

// Books, publications and citations over `rows` rows. Book i has isbn
// "i<i % isbn_mod>", except every 50th book has none; publication i
// cites one isbn and citation i two distinct ones, some past the last
// book (dangling).
std::string Catalog(const std::string& constraints, size_t rows,
                    size_t isbn_mod) {
  std::string text =
      "<!DOCTYPE db [\n"
      "<!ELEMENT db (b | p | c)*>\n"
      "<!ELEMENT b EMPTY>\n"
      "<!ATTLIST b isbn CDATA #IMPLIED>\n"
      "<!ELEMENT p EMPTY>\n"
      "<!ATTLIST p of CDATA #IMPLIED>\n"
      "<!ELEMENT c EMPTY>\n"
      "<!ATTLIST c to NMTOKENS #IMPLIED>\n"
      "<!-- xic:constraints language=L_u\n" +
      constraints +
      "-->\n"
      "]>\n"
      "<db>\n";
  for (size_t i = 0; i < rows; ++i) {
    const std::string isbn = "i" + std::to_string(i % isbn_mod);
    text += i % 50 == 0 ? "<b/>" : "<b isbn=\"" + isbn + "\"/>";
    text += "<p of=\"i" + std::to_string(i * 7 % (rows + 20)) + "\"/>";
    text += "<c to=\"i" + std::to_string(i) + " i" +
            std::to_string(i + 3) + "\"/>\n";
  }
  return text + "</db>\n";
}

// A 300-row catalog's extents: 294 isbns (every 50th book has none), 300
// publication references, 600 citation tokens.
constexpr size_t kCatalogRecords = 294 + 300 + 600;

TEST(SharedExtent, KeyForeignKeyAndSetForeignKeyReadOneLog) {
  // The last foreign key is reflexive: its source and target are the
  // key's own log, read by two cursors at once.
  const std::string text = Catalog(
      "  key b.isbn\n"
      "  fk p.of -> b.isbn\n"
      "  sfk c.to -> b.isbn\n"
      "  fk b.isbn -> b.isbn\n",
      300, 1000);
  EXPECT_GT(ExpectSharedExtentParity(text, kCatalogRecords), 0u);
}

TEST(SharedExtent, ForeignKeyListedBeforeItsKey) {
  const std::string text = Catalog(
      "  fk p.of -> b.isbn\n"
      "  sfk c.to -> b.isbn\n"
      "  key b.isbn\n",
      300, 1000);
  EXPECT_GT(ExpectSharedExtentParity(text, kCatalogRecords), 0u);
}

TEST(SharedExtent, ViolatedTargetKeyLeavesDuplicatesInTheSharedLog) {
  // isbn_mod 120: books 120..299 repeat earlier isbns, so the log the
  // foreign keys join against holds runs of equal tuples.
  const std::string text = Catalog(
      "  key b.isbn\n"
      "  fk p.of -> b.isbn\n"
      "  sfk c.to -> b.isbn\n",
      300, 120);
  EXPECT_GT(ExpectSharedExtentParity(text, kCatalogRecords), 150u);
}

TEST(SharedExtent, ForeignKeyIntoAPermutedKeyKeepsItsOwnLog) {
  // key t[a, b] logs (a, b); the first foreign key's target is (b, a),
  // a log of its own; the second's target is the key's log.
  std::string text =
      "<!DOCTYPE db [\n"
      "<!ELEMENT db (t | s)*>\n"
      "<!ELEMENT t EMPTY>\n"
      "<!ATTLIST t a CDATA #IMPLIED b CDATA #IMPLIED>\n"
      "<!ELEMENT s EMPTY>\n"
      "<!ATTLIST s x CDATA #IMPLIED y CDATA #IMPLIED>\n"
      "<!-- xic:constraints language=L\n"
      "  key t[b, a]\n"
      "  fk s[x, y] -> t[b, a]\n"
      "  fk s[y, x] -> t[a, b]\n"
      "-->\n"
      "]>\n"
      "<db>\n";
  for (size_t i = 0; i < 300; ++i) {
    // (i % 40, i % 7) repeats from row 280 on: duplicate keys.
    const std::string a = "a" + std::to_string(i % 40);
    const std::string b = "b" + std::to_string(i % 7);
    text += i % 60 == 0 ? "<t b=\"" + b + "\"/>"
                        : "<t a=\"" + a + "\" b=\"" + b + "\"/>";
    // s[x, y] = (b, a) of some row, or of none when i % 3 == 0.
    const std::string x = "b" + std::to_string((i + (i % 3 == 0)) % 7);
    text += "<s x=\"" + x + "\" y=\"" + a + "\"/>\n";
  }
  text += "</db>\n";
  // Two t logs of 295 tuples (every 60th t lacks a), two s logs of 300.
  EXPECT_GT(ExpectSharedExtentParity(text, 295 + 295 + 300 + 300), 0u);
}

TEST(SharedExtent, IdAttributeIsAlsoTheReferenceTarget) {
  // t.oid's log serves the ID constraint and both references into it;
  // u.uid values clash with some t.oid values document-wide.
  std::string text =
      "<!DOCTYPE db [\n"
      "<!ELEMENT db (t | u)*>\n"
      "<!ELEMENT t EMPTY>\n"
      "<!ATTLIST t oid ID #IMPLIED r IDREF #IMPLIED rs IDREFS #IMPLIED>\n"
      "<!ELEMENT u EMPTY>\n"
      "<!ATTLIST u uid ID #REQUIRED>\n"
      "<!-- xic:constraints language=L_id\n"
      "  fk t.r -> t.oid\n"
      "  id t.oid\n"
      "  sfk t.rs -> t.oid\n"
      "  id u.uid\n"
      "-->\n"
      "]>\n"
      "<db>\n";
  for (size_t i = 0; i < 300; ++i) {
    const std::string n = std::to_string(i);
    const std::string oid = i % 61 == 0 ? "same" : "o" + n;
    text += i % 40 == 0 ? "<t" : "<t oid=\"" + oid + "\"";
    text += " r=\"o" + std::to_string(i * 5 % 330) + "\"";
    text += " rs=\"o" + std::to_string(i + 1) + " u" + n + "\"/>";
    text += "<u uid=\"" + (i % 9 == 0 ? "o" + std::to_string(i * 2) : "u" + n) +
            "\"/>\n";
  }
  text += "</db>\n";
  // t.oid 292 (every 40th t has none), u.uid 300, t.r 300, t.rs 600.
  EXPECT_GT(ExpectSharedExtentParity(text, 292 + 300 + 300 + 600), 0u);
}

TEST(SharedExtent, TruncationAcrossConstraintsThatShareALog) {
  const std::string text = Catalog(
      "  sfk c.to -> b.isbn\n"
      "  key b.isbn\n"
      "  fk p.of -> b.isbn\n"
      "  fk b.isbn -> b.isbn\n",
      60, 25);
  // 58 isbns (books 0 and 50 have none), 60 references, 120 tokens.
  const size_t records = 58 + 60 + 120;
  const size_t total = ExpectSharedExtentParity(text, records);
  ASSERT_GT(total, 20u);
  for (size_t cap = 1; cap <= total + 1; ++cap) {
    EXPECT_EQ(ExpectSharedExtentParity(text, records, cap),
              std::min(cap, total))
        << "max_violations " << cap;
  }
}

// -- Inverse constraints ---------------------------------------------------
//
// An inverse reads each direction as a set-valued foreign key into the
// partner's key log plus one pair log (ConstraintPlan::ConstraintLogs),
// all spillable. This document trips all four of NaiveCheck's passes in
// each direction: p <-> d across two types, and f <-> f on one.
//   p1 claims d1, which two d vertices hold; only d4 lists p1.
//   p2 claims "dX", no d key; d1 claims "pY", no p key.
//   p3 and d5 lack a key, p4 and d6 a set; d2 lists p4, p7 claims d6.
//   p5 and p6 share key "p5": d2 and d3 each list it, and each holder
//   claims only one of them.
//   f0 and f4 share key "f0"; f0 lists itself, f4 does not list f0.
//   f2 claims "fZ", no f key, and does not return f1's claim.
//   p8 claims d9 and d10, whose sets (one empty) do not return it: its
//   set order ("d10" < "d9") is not its encoded order ("2:d9" first).
std::string InverseDocument() {
  return "<!DOCTYPE db [\n"
         "<!ELEMENT db (p | d | f)*>\n"
         "<!ELEMENT p EMPTY>\n"
         "<!ATTLIST p k CDATA #IMPLIED in NMTOKENS #IMPLIED>\n"
         "<!ELEMENT d EMPTY>\n"
         "<!ATTLIST d k CDATA #IMPLIED has NMTOKENS #IMPLIED>\n"
         "<!ELEMENT f EMPTY>\n"
         "<!ATTLIST f k CDATA #IMPLIED friends NMTOKENS #IMPLIED>\n"
         "<!-- xic:constraints language=L_u\n"
         "  key p.k\n"
         "  key d.k\n"
         "  key f.k\n"
         "  inverse p(k).in <-> d(k).has\n"
         "  inverse f(k).friends <-> f(k).friends\n"
         "-->\n"
         "]>\n"
         "<db>\n"
         "<p k=\"p0\" in=\"d0\"/><p k=\"p1\" in=\"d0 d1\"/>\n"
         "<d k=\"d0\" has=\"p0 p1\"/><d k=\"d1\" has=\"p2 pY\"/>\n"
         "<p k=\"p2\" in=\"dX d1\"/><p in=\"d1\"/><p k=\"p4\"/>\n"
         "<f k=\"f0\" friends=\"f1 f0\"/><f k=\"f1\" friends=\"f0 f2\"/>\n"
         "<p k=\"p5\" in=\"d2\"/><p k=\"p5\" in=\"d3\"/>\n"
         "<d k=\"d2\" has=\"p4 p5\"/><d k=\"d3\" has=\"p5\"/>\n"
         "<f k=\"f2\" friends=\"fZ\"/><f friends=\"f0\"/>\n"
         "<d k=\"d1\" has=\"p1\"/><d has=\"p0\"/><d k=\"d6\"/>\n"
         "<p k=\"p7\" in=\"d6\"/><f k=\"f0\" friends=\"f1\"/>\n"
         "<p k=\"p8\" in=\"d9 d10\"/><d k=\"d9\" has=\"p0\"/>"
         "<d k=\"d10\" has=\"\"/>\n"
         "</db>\n";
}

// p <-> d: 11 p.in and 10 d.has values, 8 p and 8 d keys (the keys'
// logs), and two pair logs of 10 + 9 (members of a set whose vertex has
// a key). f <-> f is one direction: one values log (7), one key log (4)
// and one pair log of 6 + 6.
constexpr size_t kInverseRecords = 11 + 10 + 8 + 8 + 2 * 19 + 7 + 4 + 12;
// The document's logs fit 4 KiB; budget 1 spills every record.
const std::vector<size_t> kInverseBudgets = {0, 1};

TEST(InverseExtent, EveryPassMatchesNaiveCheck) {
  const std::string text = InverseDocument();
  const size_t total =
      ExpectSharedExtentParity(text, kInverseRecords, 0, kInverseBudgets);
  Result<SelfDescribingDocument> parsed = ParseDocumentWithDtdC(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const std::string naive =
      NaiveCheck(*parsed.value().document.dtd, *parsed.value().sigma,
                 parsed.value().document.tree)
          .ToString(*parsed.value().sigma);
  EXPECT_EQ(static_cast<size_t>(std::count(naive.begin(), naive.end(), '\n')),
            total);
  // Each pass of each constraint reports something.
  for (const char* pass :
       {"\"dX\" is not a d key", "\"pY\" is not a p key",
        "\"fZ\" is not a f key", "missing: d \"d2\" references \"p4\"",
        "missing: d \"d3\" references \"p5\"",
        "missing: p \"p1\" references \"d1\"",
        "missing: p \"p2\" references \"d1\"",
        "missing: p \"p7\" references \"d6\"",
        "missing: p \"p8\" references \"d10\"",
        "missing: d \"d9\" references \"p0\"",
        "missing: f \"f1\" references \"f2\"",
        "missing: f \"f0\" references \"f0\""}) {
    EXPECT_NE(naive.find(pass), std::string::npos) << pass << "\n" << naive;
  }
  // f <-> f runs one direction: each of its violations is reported once.
  std::istringstream lines(naive);
  std::map<std::string, int> f_lines;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("f(k).friends") != std::string::npos) ++f_lines[line];
  }
  EXPECT_FALSE(f_lines.empty()) << naive;
  for (const auto& [line, count] : f_lines) EXPECT_EQ(count, 1) << line;
}

TEST(InverseExtent, TruncationLandsInEveryPass) {
  const std::string text = InverseDocument();
  const size_t total =
      ExpectSharedExtentParity(text, kInverseRecords, 0, kInverseBudgets);
  ASSERT_GT(total, 10u);
  for (size_t cap = 1; cap <= total + 1; ++cap) {
    EXPECT_EQ(
        ExpectSharedExtentParity(text, kInverseRecords, cap, kInverseBudgets),
              std::min(cap, total))
        << "max_violations " << cap;
  }
}

TEST(StreamParity, TruncationAndStrictAttributesMatch) {
  // max_violations truncation must keep the DOM checkers' prefix, and
  // strict attribute mode must report missing declared attributes in
  // plan order.
  std::string text =
      "<!DOCTYPE db [\n"
      "<!ELEMENT db (t*)>\n"
      "<!ELEMENT t EMPTY>\n"
      "<!ATTLIST t a CDATA #REQUIRED b CDATA #REQUIRED>\n"
      "<!-- xic:constraints language=L\n"
      "  key t.a\n"
      "-->\n"
      "]>\n"
      "<db><t/><t b=\"1\"/><t a=\"1\"/><t a=\"1\"/><x/></db>\n";
  for (bool allow_missing : {true, false}) {
    StreamOptions sopt;
    sopt.validation.allow_missing_attributes = allow_missing;
    sopt.validation.max_violations = 2;
    sopt.check.max_violations = 1;
    StringSource source(text);
    SelfDescribingStreamResult s = StreamValidateSelfDescribing(source, sopt);
    ASSERT_TRUE(s.outcome.parse.ok()) << s.outcome.parse;

    Result<SelfDescribingDocument> parsed = ParseDocumentWithDtdC(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ValidationOptions vopt;
    vopt.allow_missing_attributes = allow_missing;
    vopt.max_violations = 2;
    StructuralValidator validator(*parsed.value().document.dtd, vopt);
    EXPECT_EQ(validator.Validate(parsed.value().document.tree).ToString(),
              s.outcome.structure.ToString());
    CheckOptions copt;
    copt.max_violations = 1;
    ConstraintChecker checker(*parsed.value().document.dtd,
                              *parsed.value().sigma, copt);
    EXPECT_EQ(
        checker.Check(parsed.value().document.tree).ToString(
            *parsed.value().sigma),
        s.outcome.constraints.ToString(*s.sigma));
  }
}

// -- Parity where reused per-element state could leak ---------------------
//
// StreamRun keeps one frame slot per depth and reuses its field buffers
// for the next element opened there, and splits attribute values into
// tokens only on demand. Each case below is a document on which state
// left over from a previous element, or a skipped split, would change
// the verdict bytes.

// The streaming constraint report of a self-describing document, after
// checking that its constraints were recovered and well-formed: parity
// on a document whose constraints never run would prove nothing.
std::string StreamConstraintReport(const std::string& text) {
  StringSource source(text);
  SelfDescribingStreamResult s = StreamValidateSelfDescribing(source);
  EXPECT_TRUE(s.outcome.parse.ok()) << s.outcome.parse;
  EXPECT_TRUE(s.sigma.has_value());
  EXPECT_TRUE(s.well_formed.ok()) << s.well_formed;
  if (!s.sigma.has_value()) return "";
  return s.outcome.constraints.ToString(*s.sigma);
}

TEST(StreamParity, SiblingsOfDifferentTypesReuseOneFrameSlot) {
  // Depth 2 alternates between a type with two fields (an attribute and
  // a captured sub-element), a type with one, and a type with none.
  std::string text =
      "<!DOCTYPE db [\n"
      "<!ELEMENT db (a | b | c)*>\n"
      "<!ELEMENT a (n)>\n"
      "<!ATTLIST a k CDATA #IMPLIED>\n"
      "<!ELEMENT b (n?)>\n"
      "<!ELEMENT c (n)>\n"
      "<!ELEMENT n (#PCDATA)>\n"
      "<!-- xic:constraints language=L\n"
      "  key a[k, n]\n"
      "  key a.n\n"
      "  key c.n\n"
      "  fk c.n -> a.n\n"
      "-->\n"
      "]>\n"
      "<db><a k=\"1\"><n>x</n></a><b><n>x</n></b><a><n>x</n></a>"
      "<c><n>y</n></c><b/><c><n>x</n></c><a k=\"1\"><n>x</n></a>"
      "<c><n>y</n></c><a k=\"2\"/><c/><b><n>z</n></b><c><n>z</n></c></db>\n";
  for (size_t budget : {size_t{0}, size_t{1}}) {
    EXPECT_TRUE(VerdictsAgree(text, budget, true)) << budget;
    EXPECT_TRUE(VerdictsAgree(text, budget, false)) << budget;
  }
  const std::string report = StreamConstraintReport(text);
  EXPECT_NE(report.find("duplicate key [1,x]"), std::string::npos) << report;
  EXPECT_NE(report.find("dangling reference [z]"), std::string::npos)
      << report;
}

TEST(StreamParity, SetValuedTokensDeduplicateAndSkipWhitespace) {
  std::string text =
      "<!DOCTYPE catalog [\n"
      "<!ELEMENT catalog (book*)>\n"
      "<!ELEMENT book (cites?)>\n"
      "<!ATTLIST book isbn CDATA #REQUIRED>\n"
      "<!ELEMENT cites EMPTY>\n"
      "<!ATTLIST cites to NMTOKENS #REQUIRED>\n"
      "<!-- xic:constraints language=L_u\n"
      "  key book.isbn\n"
      "  sfk cites.to -> book.isbn\n"
      "-->\n"
      "]>\n"
      "<catalog>\n"
      "<book isbn=\"b0\"><cites to=\"b0  b0\"/></book>\n"
      "<book isbn=\"b1\"><cites to=\" \"/></book>\n"
      "<book isbn=\"b2\"><cites to=\"\tb9 b1\n b9 b0 \"/></book>\n"
      "<book isbn=\"b3\"><cites to=\"\"/></book>\n"
      "<book isbn=\"b4\"><cites to=\"b8\"/></book>\n"
      "</catalog>\n";
  for (size_t budget : {size_t{0}, size_t{1}}) {
    EXPECT_TRUE(VerdictsAgree(text, budget, true)) << budget;
  }
  // "b9" twice in one value is one reference.
  EXPECT_EQ(StreamConstraintReport(text),
            "cites.to <=S book.isbn: dangling reference \"b9\"\n"
            "cites.to <=S book.isbn: dangling reference \"b8\"\n");
}

TEST(StreamParity, FieldFromSubElementAfterSiblingFromAttribute) {
  // `name` is a unique sub-element of person, but an (undeclared)
  // attribute of the same name takes precedence when present. The slot
  // the first person leaves behind holds an attribute value; the next
  // person's field must come from its sub-element alone.
  std::string text =
      "<!DOCTYPE db [\n"
      "<!ELEMENT db (person*)>\n"
      "<!ELEMENT person (name)>\n"
      "<!ELEMENT name (#PCDATA)>\n"
      "<!-- xic:constraints language=L\n"
      "  key person.name\n"
      "-->\n"
      "]>\n"
      "<db>\n"
      "<person name=\"Bob\"><name>Ann</name></person>\n"
      "<person><name>Bob</name></person>\n"
      "<person name=\"Ann Lee\"><name>Cy</name></person>\n"
      "<person><name>Ann</name></person>\n"
      "<person><name>Cy</name></person>\n"
      "</db>\n";
  for (size_t budget : {size_t{0}, size_t{1}}) {
    EXPECT_TRUE(VerdictsAgree(text, budget, true)) << budget;
    EXPECT_TRUE(VerdictsAgree(text, budget, false)) << budget;
  }
  EXPECT_EQ(StreamConstraintReport(text),
            "person.name -> person: duplicate key [Bob]\n");
}

TEST(StreamParity, UndeclaredAttributesOnManyElements) {
  std::string text =
      "<!DOCTYPE db [\n"
      "<!ELEMENT db (t*)>\n"
      "<!ELEMENT t EMPTY>\n"
      "<!ATTLIST t k CDATA #REQUIRED s NMTOKENS #IMPLIED>\n"
      "<!-- xic:constraints language=L\n"
      "  key t.k\n"
      "-->\n"
      "]>\n"
      "<db>\n";
  for (int i = 0; i < 200; ++i) {
    std::string n = std::to_string(i % 150);
    text += "<t zz=\"" + n + " " + n + "\" k=\"k" + n +
            "\" extra=\"a b\" s=\"" + n + "  x\" aa=\"\"/>\n";
  }
  text += "</db>\n";
  for (size_t budget : {size_t{0}, size_t{1}}) {
    EXPECT_TRUE(VerdictsAgree(text, budget, true)) << budget;
    EXPECT_TRUE(VerdictsAgree(text, budget, false)) << budget;
  }
  EXPECT_NE(StreamConstraintReport(text).find("duplicate key [k0]"),
            std::string::npos);
}

// The precompiled-schema pipelines (BatchValidator, xicd): a document's
// own internal subset governs how attribute values split into tokens,
// while the compiled schema decides what is valid. Returns an
// explanation when the DOM and stream verdicts differ.
testing::AssertionResult PrecompiledVerdictsAgree(const std::string& schema,
                                                  const std::string& root,
                                                  const std::string& text) {
  Result<DtdC> compiled = ParseDtdC(schema, root);
  if (!compiled.ok()) {
    return testing::AssertionFailure() << "schema: " << compiled.status();
  }
  const DtdStructure& dtd = compiled.value().dtd;
  const ConstraintSet& sigma = *compiled.value().sigma;
  if (Status wf = CheckWellFormed(sigma, dtd); !wf.ok()) {
    return testing::AssertionFailure() << "schema sigma: " << wf;
  }
  StreamValidator streamer(dtd, sigma);
  StringSource source(text);
  StreamOutcome s = streamer.Run(source);

  XmlParseOptions parse;
  parse.dtd = &dtd;
  Result<XmlDocument> parsed = ParseXml(text, parse);
  std::string dom_parse = parsed.ok() ? "OK" : parsed.status().ToString();
  std::string stream_parse = s.parse.ok() ? "OK" : s.parse.ToString();
  if (dom_parse != stream_parse) {
    return testing::AssertionFailure() << "parse status: DOM \"" << dom_parse
                                       << "\" vs stream \"" << stream_parse
                                       << "\"";
  }
  if (!parsed.ok()) return testing::AssertionSuccess();
  const DataTree& tree = parsed.value().tree;
  std::string dom_structure =
      StructuralValidator(dtd).Validate(tree).ToString();
  if (dom_structure != s.structure.ToString()) {
    return testing::AssertionFailure()
           << "structure reports:\n--- DOM ---\n" << dom_structure
           << "--- stream ---\n" << s.structure.ToString();
  }
  std::string dom_constraints =
      ConstraintChecker(dtd, sigma).Check(tree).ToString(sigma);
  if (dom_constraints != s.constraints.ToString(sigma)) {
    return testing::AssertionFailure()
           << "constraint reports:\n--- DOM ---\n" << dom_constraints
           << "--- stream ---\n" << s.constraints.ToString(sigma);
  }
  return testing::AssertionSuccess();
}

TEST(StreamParity, SetValuedValueOnSingleValuedAttribute) {
  // The schema declares t.a single-valued; the document's own subset
  // declares it NMTOKENS, so "x y" tokenizes to two values and the
  // schema's single-valued check must say so.
  const std::string schema =
      "<!ELEMENT db (t*)>\n"
      "<!ELEMENT t EMPTY>\n"
      "<!ATTLIST t a CDATA #REQUIRED>\n"
      "<!-- xic:constraints language=L\n  key t.a\n-->\n";
  const std::string text =
      "<!DOCTYPE db [\n"
      "<!ELEMENT db (t*)>\n"
      "<!ELEMENT t EMPTY>\n"
      "<!ATTLIST t a NMTOKENS #REQUIRED>\n"
      "]>\n"
      "<db><t a=\"x y\"/><t a=\"x x\"/><t a=\" \"/><t a=\"y\"/>"
      "<t a=\"z  y x\"/></db>\n";
  EXPECT_TRUE(PrecompiledVerdictsAgree(schema, "db", text));
  StringSource source(text);
  Result<DtdC> compiled = ParseDtdC(schema, "db");
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  StreamValidator streamer(compiled.value().dtd, *compiled.value().sigma);
  StreamOutcome s = streamer.Run(source);
  EXPECT_NE(s.structure.ToString().find(
                "single-valued attribute t.a holds 2 values"),
            std::string::npos)
      << s.structure.ToString();
}

TEST(StreamParity, IdAttributeWithTwoTokens) {
  // An ID declared single-valued in the schema but IDREFS in the
  // document's subset: a two-token value is no ID at all, neither for
  // the document-wide ID table nor for the id constraint's field.
  const std::string schema =
      "<!ELEMENT db (t*)>\n"
      "<!ELEMENT t EMPTY>\n"
      "<!ATTLIST t oid ID #REQUIRED>\n"
      "<!-- xic:constraints language=L_id\n  id t.oid\n-->\n";
  const std::string text =
      "<!DOCTYPE db [\n"
      "<!ELEMENT db (t*)>\n"
      "<!ELEMENT t EMPTY>\n"
      "<!ATTLIST t oid IDREFS #REQUIRED>\n"
      "]>\n"
      "<db><t oid=\"o1 o2\"/><t oid=\"o1\"/><t oid=\"o2 o2\"/><t oid=\"o2\"/>"
      "<t oid=\"o1 o2\"/></db>\n";
  EXPECT_TRUE(PrecompiledVerdictsAgree(schema, "db", text));
}

TEST(StreamValidator, PrecompiledPlanRunsManyDocuments) {
  // The StreamValidator front door: compile once, stream many.
  Result<DtdC> schema = ParseDtdC(
      "<!ELEMENT db (t*)>\n"
      "<!ELEMENT t EMPTY>\n"
      "<!ATTLIST t k CDATA #REQUIRED>\n"
      "<!-- xic:constraints language=L\n  key t.k\n-->\n",
      "db");
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_TRUE(schema.value().sigma.has_value());
  StreamOptions options;
  options.spill_budget_bytes = 1;  // force the spill path
  StreamValidator validator(schema.value().dtd, *schema.value().sigma,
                            options);
  ASSERT_TRUE(validator.status().ok()) << validator.status();

  StringSource good("<db><t k=\"a\"/><t k=\"b\"/></db>");
  StreamOutcome ok = validator.Run(good);
  EXPECT_TRUE(ok.ok()) << ok.parse << ok.structure.ToString();

  StringSource dup("<db><t k=\"a\"/><t k=\"a\"/></db>");
  StreamOutcome bad = validator.Run(dup);
  ASSERT_TRUE(bad.parse.ok());
  ASSERT_EQ(bad.constraints.violations.size(), 1u);
  EXPECT_EQ(bad.constraints.violations[0].message, "duplicate key [a]");
  EXPECT_EQ(bad.constraints.violations[0].witnesses,
            (std::vector<VertexId>{1, 2}));
}

TEST(StreamValidator, DocumentWithoutSubsetHasNoDtd) {
  StreamOptions options;
  StringSource source("<!DOCTYPE r>\n<r>anything</r>");
  SelfDescribingStreamResult s = StreamValidateSelfDescribing(source, options);
  EXPECT_TRUE(s.outcome.parse.ok()) << s.outcome.parse;
  EXPECT_EQ(s.doctype_name, "r");
  EXPECT_FALSE(s.has_dtd);
}

}  // namespace
}  // namespace xic
