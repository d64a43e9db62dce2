#include <gtest/gtest.h>

#include <random>

#include "constraints/checker.h"
#include "constraints/constraint_parser.h"
#include "constraints/incremental.h"
#include "fuzzing/oracles.h"

namespace xic {
namespace {

// db -> (person*, dept*): attribute-only fields so incremental mode
// applies.
DtdStructure MakeDtd() {
  DtdStructure dtd;
  EXPECT_TRUE(dtd.AddElement("db", "(person*, dept*)").ok());
  EXPECT_TRUE(dtd.AddElement("person", "EMPTY").ok());
  EXPECT_TRUE(dtd.AddElement("dept", "EMPTY").ok());
  EXPECT_TRUE(
      dtd.AddAttribute("person", "oid", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.SetKind("person", "oid", AttrKind::kId).ok());
  EXPECT_TRUE(
      dtd.AddAttribute("person", "name", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(
      dtd.AddAttribute("person", "dept", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(
      dtd.AddAttribute("person", "friends", AttrCardinality::kSet).ok());
  EXPECT_TRUE(dtd.AddAttribute("dept", "oid", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.SetKind("dept", "oid", AttrKind::kId).ok());
  EXPECT_TRUE(
      dtd.AddAttribute("dept", "dname", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.SetRoot("db").ok());
  EXPECT_TRUE(dtd.Validate().ok());
  return dtd;
}

ConstraintSet MakeSigma() {
  Result<ConstraintSet> sigma = ParseConstraintSet(R"(
    key person.name
    key dept.dname
    fk person.dept -> dept.dname
    sfk person.friends -> person.name
    id person.oid
    id dept.oid
  )", Language::kLid);
  EXPECT_TRUE(sigma.ok()) << sigma.status();
  return sigma.value();
}

TEST(Incremental, StartsConsistentAndTracksKeyViolations) {
  DtdStructure dtd = MakeDtd();
  ConstraintSet sigma = MakeSigma();
  IncrementalChecker inc(dtd, sigma);
  ASSERT_TRUE(inc.status().ok()) << inc.status();
  EXPECT_TRUE(inc.consistent());

  Result<VertexId> root = inc.AddElement(kInvalidVertex, "db");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(inc.consistent());

  // A person with unset fields is inconsistent (incomplete tuples).
  Result<VertexId> p1 = inc.AddElement(root.value(), "person");
  ASSERT_TRUE(p1.ok());
  EXPECT_FALSE(inc.consistent());

  // Filling in every field restores consistency (with a dept to refer
  // to).
  Result<VertexId> d1 = inc.AddElement(root.value(), "dept");
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(inc.SetAttribute(d1.value(), "oid", "d1").ok());
  ASSERT_TRUE(inc.SetAttribute(d1.value(), "dname", "CS").ok());
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "oid", "p1").ok());
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "name", "Ada").ok());
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "dept", "CS").ok());
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "friends", AttrValue{}).ok());
  EXPECT_TRUE(inc.consistent()) << inc.violation_count();

  // Duplicate key: second person with the same name.
  Result<VertexId> p2 = inc.AddElement(root.value(), "person");
  ASSERT_TRUE(p2.ok());
  ASSERT_TRUE(inc.SetAttribute(p2.value(), "oid", "p2").ok());
  ASSERT_TRUE(inc.SetAttribute(p2.value(), "name", "Ada").ok());
  ASSERT_TRUE(inc.SetAttribute(p2.value(), "dept", "CS").ok());
  ASSERT_TRUE(inc.SetAttribute(p2.value(), "friends", AttrValue{}).ok());
  EXPECT_FALSE(inc.consistent());
  // Renaming repairs it.
  ASSERT_TRUE(inc.SetAttribute(p2.value(), "name", "Bob").ok());
  EXPECT_TRUE(inc.consistent());
}

TEST(Incremental, ForeignKeyDanglingAndRepair) {
  DtdStructure dtd = MakeDtd();
  ConstraintSet sigma = MakeSigma();
  IncrementalChecker inc(dtd, sigma);
  Result<VertexId> root = inc.AddElement(kInvalidVertex, "db");
  Result<VertexId> p = inc.AddElement(root.value(), "person");
  ASSERT_TRUE(inc.SetAttribute(p.value(), "oid", "p1").ok());
  ASSERT_TRUE(inc.SetAttribute(p.value(), "name", "Ada").ok());
  ASSERT_TRUE(inc.SetAttribute(p.value(), "friends", AttrValue{}).ok());
  ASSERT_TRUE(inc.SetAttribute(p.value(), "dept", "Ghost").ok());
  EXPECT_FALSE(inc.consistent());  // dangling fk
  // Creating the dept repairs the reference.
  Result<VertexId> d = inc.AddElement(root.value(), "dept");
  ASSERT_TRUE(inc.SetAttribute(d.value(), "oid", "d1").ok());
  ASSERT_TRUE(inc.SetAttribute(d.value(), "dname", "Ghost").ok());
  EXPECT_TRUE(inc.consistent()) << inc.violation_count();
  // Renaming the dept re-breaks it.
  ASSERT_TRUE(inc.SetAttribute(d.value(), "dname", "Other").ok());
  EXPECT_FALSE(inc.consistent());
}

TEST(Incremental, SetForeignKeyMembers) {
  DtdStructure dtd = MakeDtd();
  ConstraintSet sigma = MakeSigma();
  IncrementalChecker inc(dtd, sigma);
  Result<VertexId> root = inc.AddElement(kInvalidVertex, "db");
  Result<VertexId> p1 = inc.AddElement(root.value(), "person");
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "oid", "p1").ok());
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "name", "Ada").ok());
  Result<VertexId> d = inc.AddElement(root.value(), "dept");
  ASSERT_TRUE(inc.SetAttribute(d.value(), "oid", "d1").ok());
  ASSERT_TRUE(inc.SetAttribute(d.value(), "dname", "CS").ok());
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "dept", "CS").ok());
  // friends refer to person names (self-type set fk).
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "friends",
                               AttrValue{"Ada"}).ok());
  EXPECT_TRUE(inc.consistent()) << inc.violation_count();
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "friends",
                               AttrValue{"Ada", "Nobody"}).ok());
  EXPECT_FALSE(inc.consistent());
  ASSERT_TRUE(inc.SetAttribute(p1.value(), "friends", AttrValue{}).ok());
  EXPECT_TRUE(inc.consistent());
}

TEST(Incremental, DocumentWideIdConflicts) {
  DtdStructure dtd = MakeDtd();
  ConstraintSet sigma = MakeSigma();
  IncrementalChecker inc(dtd, sigma);
  Result<VertexId> root = inc.AddElement(kInvalidVertex, "db");
  Result<VertexId> p = inc.AddElement(root.value(), "person");
  ASSERT_TRUE(inc.SetAttribute(p.value(), "oid", "x").ok());
  ASSERT_TRUE(inc.SetAttribute(p.value(), "name", "Ada").ok());
  ASSERT_TRUE(inc.SetAttribute(p.value(), "friends", AttrValue{}).ok());
  Result<VertexId> d = inc.AddElement(root.value(), "dept");
  ASSERT_TRUE(inc.SetAttribute(d.value(), "oid", "x").ok());  // clash!
  ASSERT_TRUE(inc.SetAttribute(d.value(), "dname", "CS").ok());
  ASSERT_TRUE(inc.SetAttribute(p.value(), "dept", "CS").ok());
  EXPECT_FALSE(inc.consistent());
  EXPECT_EQ(inc.id_conflicts(), 2u);  // both holders are constrained
  ASSERT_TRUE(inc.SetAttribute(d.value(), "oid", "y").ok());
  EXPECT_TRUE(inc.consistent()) << inc.violation_count();
  EXPECT_EQ(inc.id_conflicts(), 0u);
}

TEST(Incremental, RejectsUnsupportedForms) {
  DtdStructure dtd = MakeDtd();
  // Inverse constraints are unsupported.
  ConstraintSet with_inverse;
  with_inverse.language = Language::kLid;
  with_inverse.constraints = {
      Constraint::InverseId("person", "friends", "dept", "dname")};
  EXPECT_EQ(IncrementalChecker(dtd, with_inverse).status().code(),
            StatusCode::kNotSupported);
  // Sub-element fields are unsupported.
  ConstraintSet with_subelement;
  with_subelement.language = Language::kLu;
  with_subelement.constraints = {Constraint::UnaryKey("person", "ghost")};
  EXPECT_EQ(IncrementalChecker(dtd, with_subelement).status().code(),
            StatusCode::kNotSupported);
}

TEST(Incremental, UpdateValidation) {
  DtdStructure dtd = MakeDtd();
  ConstraintSet sigma = MakeSigma();
  IncrementalChecker inc(dtd, sigma);
  EXPECT_FALSE(inc.AddElement(kInvalidVertex, "alien").ok());
  Result<VertexId> root = inc.AddElement(kInvalidVertex, "db");
  ASSERT_TRUE(root.ok());
  EXPECT_FALSE(inc.AddElement(kInvalidVertex, "person").ok());
  Result<VertexId> p = inc.AddElement(root.value(), "person");
  EXPECT_FALSE(inc.SetAttribute(p.value(), "bogus", "x").ok());
  EXPECT_FALSE(
      inc.SetAttribute(p.value(), "name", AttrValue{"a", "b"}).ok());
  EXPECT_FALSE(inc.SetAttribute(99, "name", "x").ok());
}

// The incremental state agrees with a batch check of its tree: the same
// verdict and, constraint by constraint, the same violation count.
void ExpectMatchesBatch(const IncrementalChecker& inc,
                        const DtdStructure& dtd, const ConstraintSet& sigma,
                        const std::string& where) {
  ConstraintReport report = ConstraintChecker(dtd, sigma).Check(inc.tree());
  ASSERT_TRUE(report.status.ok()) << report.status;
  EXPECT_EQ(inc.consistent(), report.violations.empty()) << where;
  EXPECT_EQ(inc.per_constraint_violations(),
            fuzz::IncrementalCounts(sigma, report))
      << where << "\n"
      << report.ToString(sigma);
}

TEST(Incremental, RepeatedIdConstraintCountsEachMissingId) {
  DtdStructure dtd;
  ASSERT_TRUE(dtd.AddElement("r", "(t*)").ok());
  ASSERT_TRUE(dtd.AddElement("t", "EMPTY").ok());
  ASSERT_TRUE(dtd.AddAttribute("t", "a", AttrCardinality::kSingle).ok());
  ASSERT_TRUE(dtd.SetKind("t", "a", AttrKind::kId).ok());
  ASSERT_TRUE(dtd.SetRoot("r").ok());
  Result<ConstraintSet> sigma =
      ParseConstraintSet("id t.a\nid t.a\n", Language::kLid);
  ASSERT_TRUE(sigma.ok()) << sigma.status();
  IncrementalChecker inc(dtd, sigma.value());
  ASSERT_TRUE(inc.status().ok()) << inc.status();
  Result<VertexId> root = inc.AddElement(kInvalidVertex, "r");
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(inc.AddElement(root.value(), "t").ok());
  // The batch checker reports "ID attribute missing" for both.
  EXPECT_EQ(inc.per_constraint_violations(), (std::vector<size_t>{1, 1}));
  EXPECT_EQ(inc.violation_count(), 2u);
  ExpectMatchesBatch(inc, dtd, sigma.value(), "one t without a");
  ASSERT_TRUE(inc.SetAttribute(1, "a", "v").ok());
  EXPECT_EQ(inc.per_constraint_violations(), (std::vector<size_t>{0, 0}));
  EXPECT_TRUE(inc.consistent());
}

// r -> (t*, u*); t has single-valued x, y and set-valued refs; u has a
// single-valued ref. Every constraint below reads these attributes only.
DtdStructure MakeChurnDtd() {
  DtdStructure dtd;
  EXPECT_TRUE(dtd.AddElement("r", "(t*, u*)").ok());
  EXPECT_TRUE(dtd.AddElement("t", "EMPTY").ok());
  EXPECT_TRUE(dtd.AddElement("u", "EMPTY").ok());
  EXPECT_TRUE(dtd.AddAttribute("t", "x", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.AddAttribute("t", "y", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.AddAttribute("t", "refs", AttrCardinality::kSet).ok());
  EXPECT_TRUE(dtd.AddAttribute("u", "ref", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.SetRoot("r").ok());
  EXPECT_TRUE(dtd.Validate().ok());
  return dtd;
}

// Adds t and u elements and rewrites their attributes from a three-value
// pool, comparing with the batch checker after every operation.
void ChurnAgainstBatch(const std::string& constraints, Language language) {
  DtdStructure dtd = MakeChurnDtd();
  Result<ConstraintSet> sigma = ParseConstraintSet(constraints, language);
  ASSERT_TRUE(sigma.ok()) << sigma.status();
  IncrementalChecker inc(dtd, sigma.value());
  ASSERT_TRUE(inc.status().ok()) << inc.status();
  Result<VertexId> root = inc.AddElement(kInvalidVertex, "r");
  ASSERT_TRUE(root.ok());
  std::mt19937 rng(7);
  const std::vector<std::string> pool = {"a", "b", "c"};
  auto value = [&] { return pool[rng() % pool.size()]; };
  std::vector<VertexId> ts, us;
  for (int step = 0; step < 300; ++step) {
    switch (rng() % 6) {
      case 0:
        ts.push_back(inc.AddElement(root.value(), "t").value());
        break;
      case 1:
        us.push_back(inc.AddElement(root.value(), "u").value());
        break;
      case 2:
      case 3:
        if (!ts.empty()) {
          ASSERT_TRUE(inc.SetAttribute(ts[rng() % ts.size()],
                                       rng() % 2 ? "x" : "y", value())
                          .ok());
        }
        break;
      case 4:
        if (!ts.empty()) {
          AttrValue refs;
          for (size_t i = rng() % 3; i > 0; --i) refs.insert(value());
          ASSERT_TRUE(
              inc.SetAttribute(ts[rng() % ts.size()], "refs", refs).ok());
        }
        break;
      case 5:
        if (!us.empty()) {
          ASSERT_TRUE(
              inc.SetAttribute(us[rng() % us.size()], "ref", value()).ok());
        }
        break;
    }
    ExpectMatchesBatch(inc, dtd, sigma.value(),
                       constraints + " step " + std::to_string(step));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(Incremental, KeyAndForeignKeysShareOneExtent) {
  ChurnAgainstBatch(
      "key t.x\nfk t.y -> t.x\nfk u.ref -> t.x\nsfk t.refs -> t.x\n",
      Language::kLu);
}

TEST(Incremental, ForeignKeyIntoItsOwnSwappedFields) {
  ChurnAgainstBatch("fk t[x,y] -> t[y,x]\n", Language::kL);
}

TEST(Incremental, ReflexiveForeignKey) {
  ChurnAgainstBatch("fk t.x -> t.x\nkey t.x\n", Language::kLu);
}

// Randomized parity with the batch checker: after every mutation, the
// incremental verdict and per-constraint counts equal ConstraintChecker's.
class IncrementalParity : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalParity, MatchesBatchChecker) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 2654435761u);
  DtdStructure dtd = MakeDtd();
  ConstraintSet sigma = MakeSigma();
  IncrementalChecker inc(dtd, sigma);
  ASSERT_TRUE(inc.status().ok());
  Result<VertexId> root = inc.AddElement(kInvalidVertex, "db");
  ASSERT_TRUE(root.ok());
  ConstraintChecker batch(dtd, sigma);

  std::vector<VertexId> persons, depts;
  const std::vector<std::string> values = {"a", "b", "c"};
  auto value = [&] { return values[rng() % values.size()]; };

  for (int step = 0; step < 160; ++step) {
    switch (rng() % 6) {
      case 0: {
        Result<VertexId> p = inc.AddElement(root.value(), "person");
        ASSERT_TRUE(p.ok());
        // Populate all fields so "missing" semantics matches the batch
        // checker's strict reading.
        ASSERT_TRUE(inc.SetAttribute(p.value(), "oid",
                                     "p" + std::to_string(step)).ok());
        ASSERT_TRUE(inc.SetAttribute(p.value(), "name", value()).ok());
        ASSERT_TRUE(inc.SetAttribute(p.value(), "dept", value()).ok());
        ASSERT_TRUE(
            inc.SetAttribute(p.value(), "friends", AttrValue{}).ok());
        persons.push_back(p.value());
        break;
      }
      case 1: {
        Result<VertexId> d = inc.AddElement(root.value(), "dept");
        ASSERT_TRUE(d.ok());
        ASSERT_TRUE(inc.SetAttribute(d.value(), "oid",
                                     "d" + std::to_string(step)).ok());
        ASSERT_TRUE(inc.SetAttribute(d.value(), "dname", value()).ok());
        depts.push_back(d.value());
        break;
      }
      case 2:
        if (!persons.empty()) {
          ASSERT_TRUE(inc.SetAttribute(persons[rng() % persons.size()],
                                       "name", value())
                          .ok());
        }
        break;
      case 3:
        if (!persons.empty()) {
          AttrValue friends;
          for (size_t i = rng() % 3; i > 0; --i) friends.insert(value());
          ASSERT_TRUE(inc.SetAttribute(persons[rng() % persons.size()],
                                       "friends", std::move(friends))
                          .ok());
        }
        break;
      case 4:
        if (!depts.empty()) {
          ASSERT_TRUE(inc.SetAttribute(depts[rng() % depts.size()], "dname",
                                       value())
                          .ok());
        }
        break;
      case 5:
        if (!persons.empty() && rng() % 4 == 0) {
          // Occasionally forge an ID clash.
          ASSERT_TRUE(inc.SetAttribute(persons[rng() % persons.size()],
                                       "oid", "clash")
                          .ok());
        } else if (!persons.empty()) {
          ASSERT_TRUE(inc.SetAttribute(persons[rng() % persons.size()],
                                       "dept", value())
                          .ok());
        }
        break;
    }
    ConstraintReport report = batch.Check(inc.tree());
    ASSERT_EQ(inc.consistent(), report.ok())
        << "step " << step << ", incremental count "
        << inc.violation_count();
    ASSERT_EQ(inc.per_constraint_violations(),
              fuzz::IncrementalCounts(sigma, report))
        << "step " << step << "\n"
        << report.ToString(sigma);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalParity,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace xic
