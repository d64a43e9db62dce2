// Differential-fuzzing suite: committed-corpus replay, per-oracle smoke
// runs, the ddmin reducer, the corpus text format, and regressions for
// the parity bugs the fuzzer found (reflexive-FK double-retract,
// rejected-update state leaks, declared-but-unset attribute shadowing,
// attribute-value control-character escaping).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "constraints/checker.h"
#include "constraints/incremental.h"
#include "fuzzing/corpus.h"
#include "fuzzing/fuzzer.h"
#include "fuzzing/generate.h"
#include "fuzzing/oracles.h"
#include "fuzzing/reducer.h"
#include "fuzzing/rng.h"
#include "xml/dtd_parser.h"
#include "xml/serializer.h"

namespace xic {
namespace {

using fuzz::CorpusEntry;
using fuzz::FuzzOptions;
using fuzz::FuzzResult;
using fuzz::GenOptions;
using fuzz::OracleId;
using fuzz::OracleOutcome;
using fuzz::Rng;

std::vector<std::filesystem::path> CorpusFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& it : std::filesystem::directory_iterator(XIC_CORPUS_DIR)) {
    if (it.path().extension() == ".corpus") files.push_back(it.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

// -- Committed corpus -----------------------------------------------------

TEST(CorpusReplay, EveryCommittedEntryReplaysClean) {
  std::vector<std::filesystem::path> files = CorpusFiles();
  ASSERT_GE(files.size(), 10u) << "corpus directory went missing?";
  for (const auto& path : files) {
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Result<CorpusEntry> entry = fuzz::ParseCorpusEntry(buffer.str());
    ASSERT_TRUE(entry.ok()) << path << ": " << entry.status();
    Result<OracleOutcome> outcome = fuzz::ReplayEntry(entry.value());
    ASSERT_TRUE(outcome.ok()) << path << ": " << outcome.status();
    EXPECT_FALSE(outcome.value().mismatch)
        << path << ": " << outcome.value().detail;
  }
}

TEST(CorpusReplay, CorpusCoversEveryOracleFamily) {
  std::set<std::string> oracles;
  for (const auto& path : CorpusFiles()) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Result<CorpusEntry> entry = fuzz::ParseCorpusEntry(buffer.str());
    ASSERT_TRUE(entry.ok()) << path;
    oracles.insert(entry.value().oracle);
  }
  for (OracleId id : fuzz::kAllOracles) {
    EXPECT_TRUE(oracles.count(fuzz::OracleName(id)))
        << "no committed corpus entry for oracle " << fuzz::OracleName(id);
  }
}

// -- Seed-driven smoke runs -----------------------------------------------

class OracleSmoke : public ::testing::TestWithParam<OracleId> {};

TEST_P(OracleSmoke, TrialsFindNoMismatch) {
  FuzzResult result = fuzz::RunFuzz(GetParam(), 1, 120, FuzzOptions{});
  EXPECT_EQ(result.trials, 120u);
  for (const auto& mismatch : result.mismatches) {
    ADD_FAILURE() << fuzz::OracleName(GetParam()) << " seed "
                  << mismatch.seed << ": " << mismatch.detail << "\n"
                  << fuzz::WriteCorpusEntry(mismatch.entry);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOracles, OracleSmoke,
                         ::testing::ValuesIn(fuzz::kAllOracles),
                         [](const auto& param_info) {
                           return std::string(
                               fuzz::OracleName(param_info.param));
                         });

TEST(Determinism, SameSeedSameOutcome) {
  GenOptions opt;
  for (OracleId oracle : fuzz::kAllOracles) {
    OracleOutcome a = fuzz::RunTrial(oracle, 42, opt);
    OracleOutcome b = fuzz::RunTrial(oracle, 42, opt);
    EXPECT_EQ(a.mismatch, b.mismatch) << fuzz::OracleName(oracle);
    EXPECT_EQ(a.skipped, b.skipped) << fuzz::OracleName(oracle);
    EXPECT_EQ(a.detail, b.detail) << fuzz::OracleName(oracle);
  }
}

TEST(Determinism, GeneratorsAreSeedStable) {
  GenOptions opt;
  Rng r1(7), r2(7);
  EXPECT_EQ(fuzz::GenerateDtd(r1, opt).ToString(),
            fuzz::GenerateDtd(r2, opt).ToString());
  EXPECT_EQ(r1.Next(), r2.Next());
}

// -- Corpus format --------------------------------------------------------

TEST(CorpusFormat, WriteParseRoundTrip) {
  CorpusEntry entry;
  entry.oracle = "incremental";
  entry.seed = 99;
  entry.note = "a note";
  entry.phi = "key t0.a";
  entry.updates = {"add db -", "add t0 0", "set 1 a v0"};
  entry.document = "<?xml version=\"1.0\"?>\n<db/>\n";
  Result<CorpusEntry> parsed =
      fuzz::ParseCorpusEntry(fuzz::WriteCorpusEntry(entry));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().oracle, entry.oracle);
  EXPECT_EQ(parsed.value().seed, entry.seed);
  EXPECT_EQ(parsed.value().note, entry.note);
  EXPECT_EQ(parsed.value().phi, entry.phi);
  EXPECT_EQ(parsed.value().updates, entry.updates);
  EXPECT_EQ(parsed.value().document, entry.document);
}

TEST(CorpusFormat, RejectsMalformedEntries) {
  EXPECT_FALSE(fuzz::ParseCorpusEntry("").ok());
  EXPECT_FALSE(fuzz::ParseCorpusEntry("oracle: checker\n").ok())
      << "document section is mandatory";
  EXPECT_FALSE(
      fuzz::ParseCorpusEntry("bogus: x\n--- document ---\n<db/>\n").ok());
  EXPECT_FALSE(fuzz::ParseCorpusEntry("--- document ---\n<db/>\n").ok())
      << "oracle line is mandatory";
}

TEST(CorpusFormat, UpdateOpsRoundTrip) {
  Rng rng(3);
  GenOptions opt;
  DtdStructure dtd = fuzz::GenerateDtd(rng, opt);
  std::vector<fuzz::UpdateOp> ops = fuzz::GenerateUpdates(rng, dtd, opt);
  ASSERT_FALSE(ops.empty());
  for (const fuzz::UpdateOp& op : ops) {
    Result<fuzz::UpdateOp> back = fuzz::ParseUpdate(fuzz::FormatUpdate(op));
    ASSERT_TRUE(back.ok()) << fuzz::FormatUpdate(op);
    EXPECT_TRUE(back.value() == op) << fuzz::FormatUpdate(op);
  }
  EXPECT_FALSE(fuzz::ParseUpdate("frob 1 2").ok());
  EXPECT_FALSE(fuzz::ParseUpdate("add").ok());
  EXPECT_FALSE(fuzz::ParseUpdate("set x a v").ok());
}

// -- Reducer --------------------------------------------------------------

TEST(Reducer, ShrinksUpdatesToThePredicateCore) {
  CorpusEntry entry;
  entry.oracle = "incremental";
  entry.updates = {"add db -",  "add t0 0", "set 1 a v0",
                   "set 1 b v1", "add t1 0", "set 1 a v2"};
  entry.document = "<db/>\n";
  fuzz::CorpusEntry reduced = fuzz::ReduceEntry(
      entry,
      [](const CorpusEntry& candidate) {
        for (const std::string& op : candidate.updates) {
          if (op == "set 1 b v1") return true;
        }
        return false;
      },
      fuzz::ReduceOptions{});
  EXPECT_EQ(reduced.updates, std::vector<std::string>{"set 1 b v1"});
}

TEST(Reducer, ShrinksDocumentWhileKeepingTheNeedle) {
  // A real self-describing document: the reducer must drop the
  // constraint, the sibling subtrees and the unrelated attributes while
  // the predicate only pins one attribute value.
  CorpusEntry entry;
  entry.oracle = "roundtrip";
  entry.document = R"(<?xml version="1.0"?>
<!DOCTYPE db [
<!ELEMENT db (t0*)>
<!ELEMENT t0 (#PCDATA)>
<!ATTLIST t0
          a CDATA #IMPLIED
          b CDATA #IMPLIED>
<!-- xic:constraints language=L_u
  key t0.a
-->
]>
<db>
  <t0 a="needle" b="chaff">text</t0>
  <t0 a="other" b="more">words</t0>
  <t0 a="third"/>
</db>
)";
  fuzz::CorpusEntry reduced = fuzz::ReduceEntry(
      entry,
      [](const CorpusEntry& candidate) {
        return candidate.document.find("needle") != std::string::npos;
      },
      fuzz::ReduceOptions{});
  EXPECT_NE(reduced.document.find("needle"), std::string::npos);
  EXPECT_EQ(reduced.document.find("other"), std::string::npos);
  EXPECT_EQ(reduced.document.find("chaff"), std::string::npos);
  EXPECT_EQ(reduced.document.find("text"), std::string::npos);
  EXPECT_EQ(reduced.document.find("key t0.a"), std::string::npos);
  // The DOCTYPE declarations stay (the reducer shrinks constraints, the
  // tree and values, not the DTD), so compare against the whole input.
  EXPECT_LT(reduced.document.size(), entry.document.size());
}

TEST(Reducer, LeavesNonReproducingEntriesAlone) {
  CorpusEntry entry;
  entry.oracle = "checker";
  entry.updates = {"add db -"};
  entry.document = "<db/>\n";
  fuzz::CorpusEntry reduced = fuzz::ReduceEntry(
      entry, [](const CorpusEntry&) { return false; },
      fuzz::ReduceOptions{});
  EXPECT_EQ(reduced.updates, entry.updates);
  EXPECT_EQ(reduced.document, entry.document);
}

// -- Regressions for the bugs this fuzzer found ---------------------------

DtdStructure ShadowDtd() {
  Result<DtdStructure> dtd = ParseDtd(R"(<!ELEMENT db (t0*)>
<!ELEMENT k (#PCDATA)>
<!ELEMENT t0 (k)>
<!ATTLIST t0 k CDATA #IMPLIED>)",
                                      "db");
  EXPECT_TRUE(dtd.ok()) << dtd.status();
  return dtd.value();
}

TEST(ParityRegression, DeclaredUnsetAttributeDoesNotFallBackToSubElement) {
  DtdStructure dtd = ShadowDtd();
  ConstraintSet sigma;
  sigma.language = Language::kLu;
  sigma.constraints.push_back(Constraint::UnaryKey("t0", "k"));
  DataTree tree;
  VertexId root = tree.AddVertex("db");
  VertexId v = tree.AddVertex("t0");
  ASSERT_TRUE(tree.AddChildVertex(root, v).ok());
  VertexId sub = tree.AddVertex("k");
  ASSERT_TRUE(tree.AddChildVertex(v, sub).ok());
  tree.AddChildText(sub, "shadowed");

  // The declared attribute `k` is unset, so the field is *undefined* --
  // the batch checker must not read the unique sub-element instead.
  for (bool naive : {false, true}) {
    ConstraintReport report = naive ? NaiveCheck(dtd, sigma, tree)
                                    : ConstraintChecker(dtd, sigma).Check(tree);
    ASSERT_TRUE(report.status.ok());
    ASSERT_EQ(report.violations.size(), 1u) << "naive=" << naive;
    EXPECT_NE(report.violations[0].message.find("key field missing"),
              std::string::npos);
  }

  // ... and it must agree with the incremental checker's accounting.
  IncrementalChecker incremental(dtd, sigma);
  ASSERT_TRUE(incremental.status().ok());
  ASSERT_TRUE(incremental.AddElement(kInvalidVertex, "db").ok());
  ASSERT_TRUE(incremental.AddElement(0, "t0").ok());
  ASSERT_TRUE(incremental.AddElement(1, "k").ok());
  EXPECT_FALSE(incremental.consistent());
}

TEST(ParityRegression, ReflexiveForeignKeyDoesNotUnderflowCounts) {
  Result<DtdStructure> dtd = ParseDtd(R"(<!ELEMENT db (t0*)>
<!ELEMENT t0 EMPTY>
<!ATTLIST t0 a CDATA #IMPLIED>)",
                                      "db");
  ASSERT_TRUE(dtd.ok());
  ConstraintSet sigma;
  sigma.language = Language::kLu;
  sigma.constraints.push_back(Constraint::UnaryKey("t0", "a"));
  sigma.constraints.push_back(
      Constraint::UnaryForeignKey("t0", "a", "t0", "a"));
  IncrementalChecker incremental(dtd.value(), sigma);
  ASSERT_TRUE(incremental.status().ok());
  ASSERT_TRUE(incremental.AddElement(kInvalidVertex, "db").ok());
  ASSERT_TRUE(incremental.AddElement(0, "t0").ok());
  // Pre-fix, (t0, a) was registered once per role; the double retract
  // then wrapped the pending count to SIZE_MAX.
  ASSERT_TRUE(incremental.SetAttribute(1, "a", std::string("v0")).ok());
  EXPECT_TRUE(incremental.consistent())
      << incremental.violation_count() << " violations counted";
  ConstraintChecker batch(dtd.value(), sigma);
  EXPECT_TRUE(batch.Check(incremental.tree()).violations.empty());
}

TEST(ParityRegression, RejectedAddLeavesNoOrphanVertex) {
  Result<DtdStructure> dtd = ParseDtd(R"(<!ELEMENT db (t0*)>
<!ELEMENT t0 EMPTY>)",
                                      "db");
  ASSERT_TRUE(dtd.ok());
  ConstraintSet sigma;
  sigma.language = Language::kLu;
  IncrementalChecker incremental(dtd.value(), sigma);
  ASSERT_TRUE(incremental.status().ok());
  ASSERT_TRUE(incremental.AddElement(kInvalidVertex, "db").ok());
  size_t before = incremental.tree().size();
  EXPECT_FALSE(incremental.AddElement(17, "t0").ok());
  EXPECT_EQ(incremental.tree().size(), before)
      << "rejected AddElement must not leave an orphan vertex";
}

TEST(ParityRegression, AttributeControlCharactersEscape) {
  EXPECT_EQ(EscapeXmlAttribute("a\nb\tc\rd"), "a&#10;b&#9;c&#13;d");
  EXPECT_EQ(EscapeXmlAttribute("<&\"'>"),
            "&lt;&amp;&quot;&apos;&gt;");
  // Content keeps literal newlines/tabs (they survive parsing) but must
  // escape \r, which line-end normalization would otherwise rewrite.
  EXPECT_EQ(EscapeXml("a\nb\tc"), "a\nb\tc");
  EXPECT_EQ(EscapeXml("a\rb"), "a&#13;b");
}

}  // namespace
}  // namespace xic
