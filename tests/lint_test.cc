// Tests for the static-analysis engine behind xiclint: every diagnostic
// code fires at least once, the paper's book example lints clean, and the
// JSON rendering is byte-stable.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "analysis/rule.h"
#include "constraints/constraint_parser.h"
#include "xml/dtd_parser.h"

namespace xic {
namespace {

// The book DTD of Section 2 with the paper's constraints: the canonical
// "clean" input.
constexpr char kBookDtd[] = R"(
<!ELEMENT book (entry, author*, section*, ref)>
<!ELEMENT entry (title, publisher)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT section (text | section)*>
<!ELEMENT text (#PCDATA)>
<!ELEMENT ref EMPTY>
<!ATTLIST entry isbn CDATA #REQUIRED>
<!ATTLIST section sid CDATA #REQUIRED>
<!ATTLIST ref to IDREFS #REQUIRED>
)";

constexpr char kBookConstraints[] =
    "key entry.isbn\nkey section.sid\nsfk ref.to -> entry.isbn\n";

DtdStructure MustParseDtd(const std::string& text, const std::string& root) {
  Result<DtdStructure> dtd = ParseDtd(text, root);
  EXPECT_TRUE(dtd.ok()) << dtd.status();
  return dtd.value();
}

ConstraintSet MustParseSigma(const std::string& text, Language lang) {
  Result<ConstraintSet> sigma = ParseConstraintSet(text, lang);
  EXPECT_TRUE(sigma.ok()) << sigma.status();
  return sigma.value();
}

AnalysisReport Lint(const std::string& dtd_text, const std::string& root,
                    const std::string& sigma_text, Language lang,
                    AnalysisOptions options = {}) {
  DtdStructure dtd = MustParseDtd(dtd_text, root);
  ConstraintSet sigma = MustParseSigma(sigma_text, lang);
  return Analyzer().Analyze(dtd, sigma, options);
}

std::vector<std::string> Codes(const AnalysisReport& report) {
  std::vector<std::string> out;
  for (const Diagnostic& d : report.diagnostics) out.push_back(d.code);
  return out;
}

bool HasCode(const AnalysisReport& report, const std::string& code) {
  const std::vector<std::string> codes = Codes(report);
  return std::find(codes.begin(), codes.end(), code) != codes.end();
}

const Diagnostic& FindCode(const AnalysisReport& report,
                           const std::string& code) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == code) return d;
  }
  ADD_FAILURE() << "no diagnostic with code " << code << " in\n"
                << report.ToString();
  static Diagnostic missing;
  return missing;
}

// ---------------------------------------------------------------------------
// The canonical clean input

TEST(Lint, BookExampleIsClean) {
  AnalysisReport report =
      Lint(kBookDtd, "book", kBookConstraints, Language::kLu);
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(report.ExitCode(), 0);
  // All built-in rules ran.
  EXPECT_EQ(report.rules_run.size(), RuleRegistry::Builtin().rules().size());
}

TEST(Lint, EmptySigmaOnCleanDtdIsClean) {
  AnalysisReport report = Lint(kBookDtd, "book", "", Language::kLu);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

// ---------------------------------------------------------------------------
// XIC0xx: reference / kind / shape / duplicate findings

TEST(Lint, Xic001UnknownElementType) {
  AnalysisReport report =
      Lint(kBookDtd, "book", "key chapter.num", Language::kLu);
  const Diagnostic& d = FindCode(report, "XIC001");
  EXPECT_EQ(d.severity, DiagSeverity::kError);
  EXPECT_NE(d.message.find("undeclared element type \"chapter\""),
            std::string::npos)
      << d.message;
  EXPECT_EQ(d.location.constraint_index, 0);
  EXPECT_EQ(report.ExitCode(), 2);
}

TEST(Lint, Xic001ReportsBothSidesOfForeignKey) {
  AnalysisReport report =
      Lint(kBookDtd, "book", "sfk ghost.to -> phantom.id", Language::kLu);
  size_t count = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == "XIC001") ++count;
  }
  EXPECT_EQ(count, 2u) << report.ToString();
}

TEST(Lint, Xic002UnknownField) {
  AnalysisReport report =
      Lint(kBookDtd, "book", "key entry.issn", Language::kLu);
  const Diagnostic& d = FindCode(report, "XIC002");
  EXPECT_EQ(d.severity, DiagSeverity::kError);
  EXPECT_NE(d.message.find("no attribute or unique sub-element \"issn\""),
            std::string::npos)
      << d.message;
  // The unknown field does not *also* produce a shape finding: one root
  // cause, one diagnostic.
  EXPECT_FALSE(HasCode(report, "XIC004")) << report.ToString();
}

TEST(Lint, Xic003LidKindContradictionIsError) {
  // In L_id the named ID attribute must be the declared one.
  const char* dtd = R"(
<!ELEMENT db (person*)>
<!ELEMENT person (#PCDATA)>
<!ATTLIST person oid ID #REQUIRED name CDATA #REQUIRED>
)";
  AnalysisReport report = Lint(dtd, "db", "id person.name", Language::kLid);
  const Diagnostic& d = FindCode(report, "XIC003");
  EXPECT_EQ(d.severity, DiagSeverity::kError);
  EXPECT_NE(d.message.find("not the ID attribute"), std::string::npos)
      << d.message;
}

TEST(Lint, Xic003AdvisoryKindMismatchIsWarningOutsideLid) {
  // A key over an IDREFS attribute is legal in L_u but contradicts the
  // L_id reading of the same ATTLIST: advisory warning, not error.
  AnalysisReport report = Lint(kBookDtd, "book",
                               "key entry.isbn\nkey ref.to\n"
                               "sfk ref.to -> entry.isbn",
                               Language::kLu);
  bool found = false;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code != "XIC003") continue;
    found = true;
    EXPECT_EQ(d.severity, DiagSeverity::kWarning);
    EXPECT_NE(d.message.find("declared IDREF"), std::string::npos)
        << d.message;
  }
  EXPECT_TRUE(found) << report.ToString();
}

TEST(Lint, Xic004ShapeViolation) {
  // Multi-attribute keys are outside L_u: element and fields resolve
  // fine, so the residual shape check reports what the targeted
  // reference checks cannot.
  const char* dtd = R"(
<!ELEMENT db (publisher*)>
<!ELEMENT publisher (#PCDATA)>
<!ATTLIST publisher pname CDATA #REQUIRED country CDATA #REQUIRED>
)";
  AnalysisReport report = Lint(
      dtd, "db", "key publisher[pname]\nkey publisher[pname, country]",
      Language::kLu);
  // publisher[pname] normalizes to a unary key; the two-attribute key
  // does not fit L_u.
  const Diagnostic& d = FindCode(report, "XIC004");
  EXPECT_EQ(d.severity, DiagSeverity::kError);
  EXPECT_EQ(d.location.constraint_index, 1);
}

TEST(Lint, Xic005DuplicateConstraint) {
  AnalysisReport report = Lint(
      kBookDtd, "book", "key entry.isbn\nkey section.sid\nkey entry.isbn",
      Language::kLu);
  const Diagnostic& d = FindCode(report, "XIC005");
  EXPECT_EQ(d.severity, DiagSeverity::kWarning);
  EXPECT_EQ(d.location.constraint_index, 2);
  EXPECT_NE(d.message.find("first defined as constraint #0"),
            std::string::npos)
      << d.message;
  EXPECT_EQ(report.ExitCode(), 1);  // warnings only
}

// ---------------------------------------------------------------------------
// XIC1xx: grammar hygiene

TEST(Lint, Xic101UnreachableElementType) {
  const char* dtd = R"(
<!ELEMENT book (entry*)>
<!ELEMENT entry (#PCDATA)>
<!ELEMENT appendix (#PCDATA)>
)";
  AnalysisReport report = Lint(dtd, "book", "", Language::kLu);
  const Diagnostic& d = FindCode(report, "XIC101");
  EXPECT_EQ(d.severity, DiagSeverity::kWarning);
  EXPECT_EQ(d.location.element, "appendix");
  EXPECT_EQ(d.location.constraint_index, -1);
}

TEST(Lint, Xic102NonProductiveRootIsError) {
  // Every expansion of `node` requires another `node`: no finite
  // document exists at all.
  const char* dtd = "<!ELEMENT node (node)>";
  AnalysisReport report = Lint(dtd, "node", "", Language::kLu);
  const Diagnostic& d = FindCode(report, "XIC102");
  EXPECT_EQ(d.severity, DiagSeverity::kError);
  EXPECT_NE(d.message.find("no valid document"), std::string::npos)
      << d.message;
  EXPECT_EQ(report.ExitCode(), 2);
}

TEST(Lint, Xic102NonProductiveNonRootIsWarning) {
  const char* dtd = R"(
<!ELEMENT book (entry | bad)>
<!ELEMENT entry (#PCDATA)>
<!ELEMENT bad (bad)>
)";
  AnalysisReport report = Lint(dtd, "book", "", Language::kLu);
  const Diagnostic& d = FindCode(report, "XIC102");
  EXPECT_EQ(d.severity, DiagSeverity::kWarning);
  EXPECT_EQ(d.location.element, "bad");
}

TEST(Lint, Xic103NonDeterministicContentModel) {
  // ((a,b)|(a,c)) is the textbook 1-ambiguous model: after reading "a"
  // the matcher cannot tell which branch it is in.
  const char* dtd = R"(
<!ELEMENT r ((a, b) | (a, c))>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT c (#PCDATA)>
)";
  AnalysisReport report = Lint(dtd, "r", "", Language::kLu);
  const Diagnostic& d = FindCode(report, "XIC103");
  EXPECT_EQ(d.severity, DiagSeverity::kWarning);
  EXPECT_EQ(d.location.element, "r");
  // The witness names the two competing occurrences of "a".
  EXPECT_NE(d.message.find("occurrences #0 and #2 of \"a\""),
            std::string::npos)
      << d.message;
  ASSERT_FALSE(d.notes.empty());
  EXPECT_NE(d.notes[0].find("content model:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// XIC2xx: solver-backed constraint-set analysis

TEST(Lint, Xic201InconsistentSet) {
  // The DTD forces two `a` elements but at most one `b`; the tight
  // foreign key a.x -> b.y (a.x is a key of a) caps ext(a) at ext(b):
  // no document can satisfy both, so the pair is unsatisfiable.
  const char* dtd = R"(
<!ELEMENT r (a, a, b)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
)";
  AnalysisReport report = Lint(
      dtd, "r", "key a.x\nkey b.y\nfk a.x -> b.y", Language::kLu);
  const Diagnostic& d = FindCode(report, "XIC201");
  EXPECT_EQ(d.severity, DiagSeverity::kError);
  EXPECT_NE(d.message.find("unsatisfiable"), std::string::npos) << d.message;
  // The notes reconstruct the cardinality argument.
  ASSERT_GE(d.notes.size(), 2u);
  EXPECT_NE(d.notes[0].find("ext(a) <= ext(b)"), std::string::npos)
      << d.notes[0];
  EXPECT_NE(d.notes.back().find("at least 2"), std::string::npos)
      << d.notes.back();
  EXPECT_EQ(report.ExitCode(), 2);
}

TEST(Lint, Xic201SilentWhenExtentsFit) {
  // Same constraints, but the DTD allows arbitrarily many b elements.
  const char* dtd = R"(
<!ELEMENT r (a, a, b*)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
)";
  AnalysisReport report = Lint(
      dtd, "r", "key a.x\nkey b.y\nfk a.x -> b.y", Language::kLu);
  EXPECT_FALSE(HasCode(report, "XIC201")) << report.ToString();
}

TEST(Lint, Xic202RedundantConstraintWithDerivation) {
  // ID-Key: document-wide uniqueness implies per-type uniqueness, so the
  // explicit key adds nothing over the ID constraint.
  const char* dtd = R"(
<!ELEMENT db (person*)>
<!ELEMENT person (#PCDATA)>
<!ATTLIST person oid ID #REQUIRED>
)";
  AnalysisReport report = Lint(
      dtd, "db", "id person.oid\nkey person.oid", Language::kLid);
  const Diagnostic& d = FindCode(report, "XIC202");
  EXPECT_EQ(d.severity, DiagSeverity::kWarning);
  EXPECT_EQ(d.location.constraint_index, 1);
  EXPECT_NE(d.message.find("redundant"), std::string::npos) << d.message;
  // The derivation from the solver rides along as notes.
  EXPECT_FALSE(d.notes.empty()) << d.ToString();
}

TEST(Lint, Xic202NotFiredWhenRemovalBreaksWellFormedness) {
  // `key entry.isbn` is derivable from the set foreign key via SFK-K,
  // but removing it leaves the sfk without its target key: that is a
  // structural dependency, not redundancy.
  AnalysisReport report =
      Lint(kBookDtd, "book", kBookConstraints, Language::kLu);
  EXPECT_FALSE(HasCode(report, "XIC202")) << report.ToString();
}

TEST(Lint, Xic203KeySubsumedBySubsetKey) {
  const char* dtd = R"(
<!ELEMENT db (publisher*)>
<!ELEMENT publisher (#PCDATA)>
<!ATTLIST publisher pname CDATA #REQUIRED country CDATA #REQUIRED>
)";
  AnalysisReport report = Lint(
      dtd, "db", "key publisher[pname]\nkey publisher[pname, country]",
      Language::kL);
  const Diagnostic& d = FindCode(report, "XIC203");
  EXPECT_EQ(d.severity, DiagSeverity::kWarning);
  EXPECT_EQ(d.location.constraint_index, 1);
  EXPECT_NE(d.message.find("every superset of a key is a key"),
            std::string::npos)
      << d.message;
}

TEST(Lint, Xic204ForeignKeyWithoutTargetKey) {
  AnalysisReport report =
      Lint(kBookDtd, "book", "sfk ref.to -> entry.isbn", Language::kLu);
  const Diagnostic& d = FindCode(report, "XIC204");
  EXPECT_EQ(d.severity, DiagSeverity::kError);
  EXPECT_NE(d.message.find("lacks the target key"), std::string::npos)
      << d.message;
}

// ---------------------------------------------------------------------------
// XIC3xx: finite vs unrestricted implication divergence

TEST(Lint, Xic301FiniteUnrestrictedDivergence) {
  // b carries two key attributes and the tight foreign keys close a
  // cycle a -> b -> a through *different* attributes of b. In finite
  // documents the cycle forces |ext(a)| = |ext(b)| and every tight
  // inclusion becomes an equality (cycle rules C_k), so the reversals
  // are finitely implied -- but not implied over unrestricted models.
  const char* dtd = R"(
<!ELEMENT r (a*, b*)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b k1 CDATA #REQUIRED k2 CDATA #REQUIRED>
)";
  AnalysisReport report = Lint(dtd, "r",
                               "key a.x\nkey b.k1\nkey b.k2\n"
                               "fk a.x -> b.k1\nfk b.k2 -> a.x",
                               Language::kLu);
  const Diagnostic& d = FindCode(report, "XIC301");
  EXPECT_EQ(d.severity, DiagSeverity::kWarning);
  EXPECT_NE(d.message.find("finite and unrestricted implication diverge"),
            std::string::npos)
      << d.message;
  EXPECT_FALSE(d.notes.empty()) << d.ToString();
}

TEST(Lint, Xic301SilentUnderPrimaryKeyRestriction) {
  // One key per element type: Theorem 3.4 -- implication and finite
  // implication coincide, so there is nothing to warn about even though
  // the foreign keys form a cycle.
  const char* dtd = R"(
<!ELEMENT r (a*, b*)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
)";
  AnalysisReport report = Lint(dtd, "r",
                               "key a.x\nkey b.y\n"
                               "fk a.x -> b.y\nfk b.y -> a.x",
                               Language::kLu);
  EXPECT_FALSE(HasCode(report, "XIC301")) << report.ToString();
}

// ---------------------------------------------------------------------------
// Engine mechanics: locations, rule selection, determinism, governance

TEST(Lint, LocationsFromParserSurfaceInDiagnostics) {
  Result<std::vector<LocatedConstraint>> located = ParseConstraintsLocated(
      "key entry.isbn\n  key chapter.num\n");
  ASSERT_TRUE(located.ok()) << located.status();
  AnalysisOptions options;
  ConstraintSet sigma;
  sigma.language = Language::kLu;
  for (const LocatedConstraint& lc : located.value()) {
    sigma.constraints.push_back(lc.constraint);
    DiagLocation loc;
    loc.line = lc.line;
    loc.column = lc.column;
    options.locations.push_back(loc);
  }
  DtdStructure dtd = MustParseDtd(kBookDtd, "book");
  AnalysisReport report = Analyzer().Analyze(dtd, sigma, options);
  const Diagnostic& d = FindCode(report, "XIC001");
  EXPECT_EQ(d.location.constraint_index, 1);
  EXPECT_EQ(d.location.line, 2u);
  EXPECT_EQ(d.location.column, 3u);
  EXPECT_NE(d.ToString().find("at 2:3"), std::string::npos) << d.ToString();
}

TEST(Lint, RuleFilterRunsOnlySelectedRules) {
  AnalysisOptions options;
  options.rules = {"references"};
  // The sfk's missing target key (XIC204, rule "targets") must not be
  // reported when only "references" is selected.
  AnalysisReport report = Lint(kBookDtd, "book", "sfk ref.to -> entry.isbn",
                               Language::kLu, options);
  EXPECT_EQ(report.rules_run, std::vector<std::string>{"references"});
  EXPECT_FALSE(HasCode(report, "XIC204"));
}

TEST(Lint, ExpiredDeadlineIsInfrastructureFailure) {
  AnalysisOptions options;
  options.deadline = Deadline::AfterMillis(0);
  AnalysisReport report =
      Lint(kBookDtd, "book", kBookConstraints, Language::kLu, options);
  EXPECT_FALSE(report.status.ok());
  EXPECT_EQ(report.ExitCode(), 3);
}

TEST(Lint, BuiltinRegistryIsStable) {
  const RuleRegistry& registry = RuleRegistry::Builtin();
  std::vector<std::string> names;
  for (const auto& rule : registry.rules()) {
    names.push_back(rule->name());
    EXPECT_FALSE(rule->description().empty());
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"references", "reachability",
                                      "productivity", "determinism",
                                      "targets", "consistency", "redundancy",
                                      "key-subsumption", "divergence"}));
  EXPECT_EQ(registry.Find("redundancy")->name(), "redundancy");
  EXPECT_EQ(registry.Find("nonexistent"), nullptr);
}

TEST(Lint, ReportsAreDeterministic) {
  const char* sigma =
      "key chapter.num\nkey entry.issn\nsfk ref.to -> entry.isbn";
  AnalysisReport a = Lint(kBookDtd, "book", sigma, Language::kLu);
  AnalysisReport b = Lint(kBookDtd, "book", sigma, Language::kLu);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.ToJson(), b.ToJson());
  // Constraint-anchored diagnostics come first, in source order.
  ASSERT_GE(a.diagnostics.size(), 3u);
  EXPECT_LE(a.diagnostics[0].location.constraint_index,
            a.diagnostics[1].location.constraint_index);
}

// ---------------------------------------------------------------------------
// JSON rendering

TEST(Lint, JsonGoldenCleanReport) {
  AnalysisReport report =
      Lint(kBookDtd, "book", kBookConstraints, Language::kLu);
  EXPECT_EQ(report.ToJson(),
            "{\n"
            "  \"version\": 1,\n"
            "  \"language\": \"L_u\",\n"
            "  \"status\": \"OK\",\n"
            "  \"rules\": [\"references\", \"reachability\", "
            "\"productivity\", \"determinism\", \"targets\", "
            "\"consistency\", \"redundancy\", \"key-subsumption\", "
            "\"divergence\"],\n"
            "  \"summary\": {\"errors\": 0, \"warnings\": 0, \"infos\": 0},\n"
            "  \"diagnostics\": [],\n"
            "  \"exit_code\": 0\n"
            "}\n");
}

TEST(Lint, JsonGoldenSingleDiagnostic) {
  AnalysisOptions options;
  options.rules = {"references"};
  Result<std::vector<LocatedConstraint>> located =
      ParseConstraintsLocated("key chapter.num");
  ASSERT_TRUE(located.ok());
  ConstraintSet sigma;
  sigma.language = Language::kLu;
  sigma.constraints.push_back(located.value()[0].constraint);
  DiagLocation loc;
  loc.line = located.value()[0].line;
  loc.column = located.value()[0].column;
  options.locations.push_back(loc);
  DtdStructure dtd = MustParseDtd(kBookDtd, "book");
  AnalysisReport report = Analyzer().Analyze(dtd, sigma, options);
  EXPECT_EQ(report.ToJson(),
            "{\n"
            "  \"version\": 1,\n"
            "  \"language\": \"L_u\",\n"
            "  \"status\": \"OK\",\n"
            "  \"rules\": [\"references\"],\n"
            "  \"summary\": {\"errors\": 1, \"warnings\": 0, \"infos\": 0},\n"
            "  \"diagnostics\": [\n"
            "    {\n"
            "      \"code\": \"XIC001\",\n"
            "      \"rule\": \"references\",\n"
            "      \"severity\": \"error\",\n"
            "      \"message\": \"constraint \\\"chapter.num -> chapter\\\" "
            "names undeclared element type \\\"chapter\\\"\",\n"
            "      \"constraint\": 0,\n"
            "      \"line\": 1,\n"
            "      \"column\": 1\n"
            "    }\n"
            "  ],\n"
            "  \"exit_code\": 2\n"
            "}\n");
}

// ---------------------------------------------------------------------------
// Constraint-parser error paths (structured messages with positions)

TEST(ConstraintParserErrors, UnknownKeywordNamesItAndThePosition) {
  Result<std::vector<Constraint>> r = ParseConstraints("foo entry.isbn");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown constraint keyword \"foo\""),
            std::string::npos)
      << r.status();
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos)
      << r.status();
}

TEST(ConstraintParserErrors, MissingAttributeAfterDot) {
  Result<std::vector<Constraint>> r = ParseConstraints("key entry.");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("expected name"), std::string::npos)
      << r.status();
}

TEST(ConstraintParserErrors, MissingArrowInForeignKey) {
  Result<std::vector<Constraint>> r =
      ParseConstraints("fk ref.to entry.isbn");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("expected \"->\""), std::string::npos)
      << r.status();
}

TEST(ConstraintParserErrors, PositionsAreOneBasedAndLineAware) {
  // The error is on line 3, after two good statements.
  Result<std::vector<Constraint>> r = ParseConstraints(
      "key entry.isbn\nkey section.sid\nkey entry[\n");
  ASSERT_FALSE(r.ok());
  const std::string& message = r.status().message();
  EXPECT_NE(message.find("line 4"), std::string::npos) << message;
  EXPECT_NE(message.find("column 1"), std::string::npos) << message;
}

TEST(ConstraintParserErrors, NonUnaryIdRejected) {
  Result<std::vector<Constraint>> r = ParseConstraints("id person[a, b]");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("id constraints are unary"),
            std::string::npos)
      << r.status();
}

TEST(ConstraintParserErrors, ForeignKeyArityMismatchRejected) {
  Result<std::vector<Constraint>> r =
      ParseConstraints("fk editor[pname, country] -> publisher[pname]");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(
      r.status().message().find("attribute lists differ in length"),
      std::string::npos)
      << r.status();
}

TEST(ConstraintParserErrors, LocatedStatementsRecordStartPositions) {
  Result<std::vector<LocatedConstraint>> r = ParseConstraintsLocated(
      "# leading comment\nkey entry.isbn;  key section.sid\n");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value()[0].line, 2u);
  EXPECT_EQ(r.value()[0].column, 1u);
  EXPECT_EQ(r.value()[1].line, 2u);
  EXPECT_EQ(r.value()[1].column, 18u);
}

// Duplicate definitions are not a *parse* error (the linter reports them
// as XIC005 with both indices); the parser must keep both.
TEST(ConstraintParserErrors, DuplicatesSurviveParsingForTheLinter) {
  Result<std::vector<Constraint>> r =
      ParseConstraints("key entry.isbn\nkey entry.isbn");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().size(), 2u);
}

}  // namespace
}  // namespace xic
