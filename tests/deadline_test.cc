// Deadline plumbing: an already-expired deadline must make every stage of
// the parse -> validate -> solve pipeline return kDeadlineExceeded
// promptly, with no partial-result crashes. The tests use
// Deadline::Expired() (deterministic -- no sleeping) and only assert a
// generous wall-clock ceiling, so they stay green under sanitizers and on
// loaded machines.

#include <chrono>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "constraints/checker.h"
#include "constraints/constraint.h"
#include "implication/countermodel.h"
#include "implication/l_general_solver.h"
#include "implication/lp_solver.h"
#include "model/structural_validator.h"
#include "paths/path_solver.h"
#include "regex/content_model.h"
#include "regex/inclusion.h"
#include "util/limits.h"
#include "xml/dtd_parser.h"
#include "xml/xml_parser.h"

namespace {

using namespace xic;

// Fails the test if `fn` takes absurdly long (a stuck loop would
// otherwise only die at the ctest timeout). 10s is orders of magnitude
// above what an expired deadline should cost, even under TSan.
template <typename Fn>
void ExpectFast(Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

// -- Deadline / CancellationToken basics ------------------------------------

TEST(Deadline, DefaultNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(d.Check("anything").ok());
}

TEST(Deadline, ExpiredReportsDeadlineExceeded) {
  Deadline d = Deadline::Expired();
  EXPECT_TRUE(d.expired());
  Status s = d.Check("unit test");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(s.message().find("unit test"), std::string::npos);
}

TEST(Deadline, GenerousBudgetDoesNotExpire) {
  Deadline d = Deadline::AfterMillis(60'000);
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(d.Check("slack").ok());
}

TEST(Deadline, UnrepresentableBudgetMeansNoDeadline) {
  for (uint64_t ms : {UINT64_MAX, uint64_t{10'000'000'000'000}}) {
    Deadline d = Deadline::AfterMillis(ms);
    EXPECT_FALSE(d.expired()) << ms;
    EXPECT_TRUE(d.Check("huge budget").ok()) << ms;
  }
  EXPECT_TRUE(Deadline::AfterMillis(UINT64_MAX).infinite());
}

TEST(Deadline, CancellationTokenTripsInfiniteDeadline) {
  CancellationToken token;
  Deadline d = Deadline::Infinite().WithToken(&token);
  EXPECT_FALSE(d.expired());
  token.Cancel();
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.Check("cancelled op").code(), StatusCode::kDeadlineExceeded);
}

// -- Parsers -----------------------------------------------------------------

TEST(DeadlinePlumbing, XmlParser) {
  ExpectFast([] {
    XmlParseOptions options;
    options.deadline = Deadline::Expired();
    Result<XmlDocument> r = ParseXml("<a><b/><b/></a>", options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  });
}

TEST(DeadlinePlumbing, DtdParser) {
  ExpectFast([] {
    DtdParseOptions options;
    options.deadline = Deadline::Expired();
    Result<DtdStructure> r =
        ParseDtd("<!ELEMENT r (a*)>\n<!ELEMENT a EMPTY>", "r", options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  });
}

// -- Validation --------------------------------------------------------------

TEST(DeadlinePlumbing, StructuralValidator) {
  ExpectFast([] {
    DtdStructure dtd;
    ASSERT_TRUE(dtd.AddElement("r", "(a*)").ok());
    ASSERT_TRUE(dtd.AddElement("a", "EMPTY").ok());
    ASSERT_TRUE(dtd.SetRoot("r").ok());
    StructuralValidator validator(dtd);
    ASSERT_TRUE(validator.status().ok());
    DataTree tree;
    VertexId root = tree.AddVertex("r");
    ASSERT_TRUE(tree.AddChildVertex(root, tree.AddVertex("a")).ok());
    ValidationReport report = validator.Validate(tree, Deadline::Expired());
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.status.code(), StatusCode::kDeadlineExceeded);
  });
}

TEST(DeadlinePlumbing, ConstraintChecker) {
  ExpectFast([] {
    DtdStructure dtd;
    ASSERT_TRUE(dtd.AddElement("r", "(a*)").ok());
    ASSERT_TRUE(dtd.AddElement("a", "EMPTY").ok());
    ASSERT_TRUE(dtd.AddAttribute("a", "k", AttrCardinality::kSingle).ok());
    ASSERT_TRUE(dtd.SetRoot("r").ok());
    ConstraintSet sigma;
    sigma.language = Language::kLu;
    sigma.constraints.push_back(Constraint::Key("a", {"k"}));
    ConstraintChecker checker(dtd, sigma);
    DataTree tree;
    VertexId root = tree.AddVertex("r");
    VertexId a = tree.AddVertex("a");
    ASSERT_TRUE(tree.AddChildVertex(root, a).ok());
    tree.SetAttribute(a, "k", std::string("1"));
    ConstraintReport report = checker.Check(tree, Deadline::Expired());
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.status.code(), StatusCode::kDeadlineExceeded);
  });
}

// -- Decision procedures -----------------------------------------------------

TEST(DeadlinePlumbing, CountermodelEnumeration) {
  ExpectFast([] {
    ConstraintSet sigma;
    sigma.language = Language::kLu;
    sigma.constraints.push_back(Constraint::Key("a", {"x"}));
    Constraint phi = Constraint::Key("a", {"y"});
    EnumerationBounds bounds;
    bounds.deadline = Deadline::Expired();
    EnumerationOutcome outcome =
        EnumerateCountermodelBounded(sigma, phi, bounds);
    EXPECT_FALSE(outcome.countermodel.has_value());
    EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(outcome.inspected, 0u);
  });
}

TEST(DeadlinePlumbing, RegexInclusion) {
  ExpectFast([] {
    RegexPtr a = ParseContentModel("(a, b*)").value();
    RegexPtr b = ParseContentModel("(a | b)*").value();
    InclusionBounds bounds;
    bounds.deadline = Deadline::Expired();
    Result<bool> r = RegexLanguageIncludedBounded(a, b, bounds);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  });
}

TEST(DeadlinePlumbing, Chase) {
  ExpectFast([] {
    ConstraintSet sigma;
    sigma.language = Language::kL;
    sigma.constraints.push_back(
        Constraint::ForeignKey("a", {"x"}, "b", {"k"}));
    Constraint phi = Constraint::Key("a", {"x"});
    GeneralOptions options;
    options.deadline = Deadline::Expired();
    GeneralResult result = ChaseImplication(sigma, phi, options);
    EXPECT_EQ(result.outcome, ImplicationOutcome::kUnknown);
    EXPECT_EQ(result.decided_by, "deadline");
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  });
}

TEST(DeadlinePlumbing, LpClosure) {
  ExpectFast([] {
    ConstraintSet sigma;
    sigma.language = Language::kL;
    sigma.constraints.push_back(
        Constraint::ForeignKey("a", {"x"}, "b", {"k"}));
    LpOptions options;
    options.deadline = Deadline::Expired();
    LpSolver solver(sigma, options);
    ASSERT_FALSE(solver.status().ok());
    EXPECT_EQ(solver.status().code(), StatusCode::kDeadlineExceeded);
  });
}

TEST(DeadlinePlumbing, PathSolver) {
  ExpectFast([] {
    DtdStructure dtd;
    ASSERT_TRUE(dtd.AddElement("r", "(a*)").ok());
    ASSERT_TRUE(dtd.AddElement("a", "EMPTY").ok());
    ASSERT_TRUE(
        dtd.AddAttribute("a", "k", AttrCardinality::kSingle).ok());
    ASSERT_TRUE(dtd.SetKind("a", "k", AttrKind::kId).ok());
    ASSERT_TRUE(dtd.SetRoot("r").ok());
    ConstraintSet sigma;
    sigma.language = Language::kLid;
    sigma.constraints.push_back(Constraint::Id("a", "k"));
    PathContext context(dtd, sigma);
    ASSERT_TRUE(context.status().ok());
    PathSolver solver(context, Deadline::Expired());

    PathFunctionalConstraint fc{"a", Path::Parse("k").value(),
                                Path::Parse("k").value()};
    Result<bool> f = solver.ImpliesFunctional(fc);
    ASSERT_FALSE(f.ok());
    EXPECT_EQ(f.status().code(), StatusCode::kDeadlineExceeded);

    PathInclusionConstraint ic{"a", Path::Parse("k").value(), "a",
                               Path::Parse("k").value()};
    Result<bool> i = solver.ImpliesInclusion(ic);
    ASSERT_FALSE(i.ok());
    EXPECT_EQ(i.status().code(), StatusCode::kDeadlineExceeded);

    PathInverseConstraint vc{"a", Path::Parse("k").value(), "a",
                             Path::Parse("k").value()};
    Result<bool> v = solver.ImpliesInverse(vc);
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.status().code(), StatusCode::kDeadlineExceeded);
  });
}

// A near-zero (but not pre-expired) budget must also terminate promptly:
// the amortized polls fire within a bounded amount of work.
TEST(DeadlinePlumbing, TinyBudgetTerminatesLargeEnumeration) {
  ExpectFast([] {
    ConstraintSet sigma;
    sigma.language = Language::kLu;
    sigma.constraints.push_back(Constraint::Key("a", {"x"}));
    // No countermodel search bound tight enough to finish fast: force the
    // deadline to be what stops it.
    Constraint phi = Constraint::Key("b", {"y"});
    EnumerationBounds bounds;
    bounds.max_rows_per_type = 3;
    bounds.num_values = 3;
    bounds.max_instances = 0;  // unlimited -- only the deadline can stop it
    bounds.deadline = Deadline::AfterMillis(1);
    EnumerationOutcome outcome =
        EnumerateCountermodelBounded(sigma, phi, bounds);
    // Either it found the (easy) countermodel quickly or the deadline cut
    // it off -- both are fine; the test is that it returns at all, fast.
    if (!outcome.status.ok()) {
      EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded);
    }
  });
}

}  // namespace
