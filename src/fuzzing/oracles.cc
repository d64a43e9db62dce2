#include "fuzzing/oracles.h"

#include <optional>
#include <sstream>

#include "analysis/analyzer.h"
#include "constraints/checker.h"
#include "constraints/constraint_parser.h"
#include "constraints/incremental.h"
#include "constraints/well_formed.h"
#include "engine/stream_validator.h"
#include "fuzzing/chunked_source.h"
#include "implication/countermodel.h"
#include "implication/l_general_solver.h"
#include "implication/lid_solver.h"
#include "implication/lu_solver.h"
#include "util/strings.h"
#include "xml/dtdc_io.h"
#include "xml/serializer.h"

namespace xic::fuzz {

const char* OracleName(OracleId id) {
  switch (id) {
    case OracleId::kChecker:
      return "checker";
    case OracleId::kIncremental:
      return "incremental";
    case OracleId::kImplication:
      return "implication";
    case OracleId::kRoundTrip:
      return "roundtrip";
    case OracleId::kLint:
      return "lint";
    case OracleId::kStream:
      return "stream";
  }
  return "unknown";
}

std::optional<OracleId> ParseOracleName(const std::string& name) {
  for (OracleId id : kAllOracles) {
    if (name == OracleName(id)) return id;
  }
  return std::nullopt;
}

namespace {

Language PickLanguage(Rng& rng) {
  switch (rng.Below(3)) {
    case 0:
      return Language::kL;
    case 1:
      return Language::kLu;
    default:
      return Language::kLid;
  }
}

// Canonical comparable rendering of a violation report (steps excluded:
// the two modes legitimately do different amounts of work).
std::string RenderReport(const ConstraintReport& report) {
  std::string out;
  for (const ConstraintViolation& v : report.violations) {
    out += std::to_string(v.constraint_index) + "|" + v.message + "|";
    for (VertexId w : v.witnesses) out += std::to_string(w) + ",";
    out += "|";
    for (const std::string& value : v.values) out += value + ",";
    out += "\n";
  }
  return out;
}

bool SubtreesEqual(const DataTree& a, VertexId va, const DataTree& b,
                   VertexId vb, std::string* why) {
  if (a.label(va) != b.label(vb)) {
    *why = "label " + a.label(va) + " vs " + b.label(vb);
    return false;
  }
  if (a.attributes(va) != b.attributes(vb)) {
    *why = "attributes of <" + a.label(va) + "> vertex " +
           std::to_string(va) + " differ";
    return false;
  }
  const std::vector<Child>& ca = a.children(va);
  const std::vector<Child>& cb = b.children(vb);
  if (ca.size() != cb.size()) {
    *why = "<" + a.label(va) + "> has " + std::to_string(ca.size()) + " vs " +
           std::to_string(cb.size()) + " children";
    return false;
  }
  for (size_t i = 0; i < ca.size(); ++i) {
    const std::string* ta = std::get_if<std::string>(&ca[i]);
    const std::string* tb = std::get_if<std::string>(&cb[i]);
    if ((ta == nullptr) != (tb == nullptr)) {
      *why = "child " + std::to_string(i) + " of <" + a.label(va) +
             "> changed kind";
      return false;
    }
    if (ta != nullptr) {
      if (*ta != *tb) {
        *why = "text \"" + *ta + "\" vs \"" + *tb + "\"";
        return false;
      }
    } else if (!SubtreesEqual(a, std::get<VertexId>(ca[i]), b,
                              std::get<VertexId>(cb[i]), why)) {
      return false;
    }
  }
  return true;
}

bool TreesEqual(const DataTree& a, const DataTree& b, std::string* why) {
  if (a.empty() != b.empty()) {
    *why = "one tree is empty";
    return false;
  }
  if (a.empty()) return true;
  return SubtreesEqual(a, a.root(), b, b.root(), why);
}

DataTree MinimalTree(const DtdStructure& dtd) {
  DataTree tree;
  tree.AddVertex(dtd.root());
  return tree;
}

CorpusEntry MakeEntry(OracleId oracle, uint64_t seed, std::string note,
                      const DtdStructure& dtd, const ConstraintSet& sigma,
                      const DataTree& tree) {
  CorpusEntry entry;
  entry.oracle = OracleName(oracle);
  entry.seed = seed;
  // Notes are single-line headers in the corpus format.
  for (char& c : note) {
    if (c == '\n') c = ' ';
  }
  entry.note = std::move(note);
  entry.document = WriteDocumentWithDtdC(tree, dtd, sigma);
  return entry;
}

// -- Oracle 1: NaiveCheck vs. ConstraintChecker (the tree feed) -----------

// The rendered reports of the two at one max_violations, or nullopt when
// they agree.
std::optional<std::string> CompareWithNaive(const DtdStructure& dtd,
                                            const ConstraintSet& sigma,
                                            const DataTree& tree,
                                            const ConstraintReport& report,
                                            size_t max_violations) {
  ConstraintReport naive = NaiveCheck(dtd, sigma, tree, max_violations);
  if (!report.status.ok()) {
    return "checker status not OK: " + report.status.ToString();
  }
  if (RenderReport(report) != RenderReport(naive)) {
    return "NaiveCheck and the engine diverge (max_violations=" +
           std::to_string(max_violations) + ")\n--- engine ---\n" +
           RenderReport(report) + "--- naive ---\n" + RenderReport(naive);
  }
  return std::nullopt;
}

std::optional<std::string> CompareCheckerModes(const DtdStructure& dtd,
                                               const ConstraintSet& sigma,
                                               const DataTree& tree) {
  for (size_t max_violations : {size_t{0}, size_t{1}, size_t{2}}) {
    ConstraintChecker checker(dtd, sigma, {.max_violations = max_violations});
    std::optional<std::string> detail = CompareWithNaive(
        dtd, sigma, tree, checker.Check(tree), max_violations);
    if (detail.has_value()) return detail;
  }
  return std::nullopt;
}

// -- Oracle 2: incremental vs. batch --------------------------------------

Status ApplyUpdate(IncrementalChecker* checker, const UpdateOp& op) {
  if (op.kind == UpdateOp::Kind::kAddElement) {
    return checker->AddElement(op.parent, op.label).status();
  }
  return checker->SetAttribute(op.vertex, op.attr,
                               AttrValue(op.values.begin(), op.values.end()));
}

std::optional<std::string> RunIncrementalSequence(
    const DtdStructure& dtd, const ConstraintSet& sigma,
    const std::vector<UpdateOp>& ops) {
  IncrementalChecker incremental(dtd, sigma);
  if (!incremental.status().ok()) {
    // Unsupported sigma: every operation must fail and leave the
    // (empty) document untouched.
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ApplyUpdate(&incremental, ops[i]).ok()) {
        return "op " + std::to_string(i) + " (" + FormatUpdate(ops[i]) +
               ") succeeded on a NotSupported checker";
      }
    }
    if (!incremental.tree().empty() || incremental.violation_count() != 0) {
      return "NotSupported checker mutated its state";
    }
    return std::nullopt;
  }
  ConstraintChecker batch(dtd, sigma);
  for (size_t i = 0; i < ops.size(); ++i) {
    size_t size_before = incremental.tree().size();
    bool consistent_before = incremental.consistent();
    Status applied = ApplyUpdate(&incremental, ops[i]);
    if (!applied.ok()) {
      if (incremental.tree().size() != size_before ||
          incremental.consistent() != consistent_before) {
        return "rejected op " + std::to_string(i) + " (" +
               FormatUpdate(ops[i]) + ") changed state: " +
               applied.ToString();
      }
    }
    ConstraintReport report = batch.Check(incremental.tree());
    if (!report.status.ok()) {
      return "batch check failed after op " + std::to_string(i) + ": " +
             report.status.ToString();
    }
    bool batch_consistent = report.violations.empty();
    if (incremental.consistent() != batch_consistent) {
      return "after op " + std::to_string(i) + " (" + FormatUpdate(ops[i]) +
             "): incremental says " +
             (incremental.consistent() ? "consistent" : "violated") + " (" +
             std::to_string(incremental.violation_count()) +
             " counted), batch found " +
             std::to_string(report.violations.size()) + " violation(s)";
    }
  }
  return std::nullopt;
}

// -- Oracle 3: solvers vs. countermodel enumeration -----------------------

bool VerifiedCountermodel(const TableInstance& instance,
                          const ConstraintSet& sigma, const Constraint& phi,
                          const DtdStructure* dtd, std::string* why) {
  if (!SatisfiesAll(instance, sigma, dtd)) {
    *why = "claimed countermodel violates sigma";
    return false;
  }
  if (Satisfies(instance, phi, dtd)) {
    *why = "claimed countermodel satisfies phi";
    return false;
  }
  return true;
}

// Replays a countermodel through LiftToDocument + the real checker: the
// lifted document must satisfy sigma and violate phi. Only meaningful
// for L / L_u (lifting loses the ID kinds L_id semantics needs).
std::optional<std::string> LiftCrossCheck(const TableInstance& instance,
                                          const ConstraintSet& sigma,
                                          const Constraint& phi) {
  TableSchema schema = TableSchema::Infer(sigma, phi);
  Result<LiftedDocument> lifted = LiftToDocument(instance, schema);
  if (!lifted.ok()) {
    return "LiftToDocument failed on a countermodel: " +
           lifted.status().ToString();
  }
  ConstraintChecker sigma_checker(lifted.value().dtd, sigma);
  ConstraintReport sigma_report = sigma_checker.Check(lifted.value().tree);
  if (!sigma_report.violations.empty()) {
    return "lifted countermodel violates sigma under ConstraintChecker: " +
           sigma_report.violations.front().message;
  }
  ConstraintSet phi_set;
  phi_set.language = sigma.language;
  phi_set.constraints.push_back(phi);
  ConstraintChecker phi_checker(lifted.value().dtd, phi_set);
  ConstraintReport phi_report = phi_checker.Check(lifted.value().tree);
  if (phi_report.violations.empty()) {
    return "lifted countermodel satisfies phi under ConstraintChecker "
           "(enumerator and checker disagree)";
  }
  return std::nullopt;
}

bool ChaseApplicable(const ConstraintSet& sigma, const Constraint& phi) {
  auto plain = [](const Constraint& c) {
    return c.kind == ConstraintKind::kKey ||
           c.kind == ConstraintKind::kForeignKey;
  };
  for (const Constraint& c : sigma.constraints) {
    if (!plain(c)) return false;
  }
  return plain(phi);
}

struct ImplicationVerdict {
  bool skipped = false;
  std::optional<std::string> detail;
};

ImplicationVerdict CompareImplication(const DtdStructure& dtd,
                                      const ConstraintSet& sigma,
                                      const Constraint& phi) {
  ImplicationVerdict verdict;
  EnumerationBounds bounds;
  bounds.max_rows_per_type = 2;
  bounds.num_values = 2;
  bounds.max_instances = 150'000;
  bounds.deadline = Deadline::AfterMillis(2000);
  const DtdStructure* dtd_for_semantics =
      sigma.language == Language::kLid ? &dtd : nullptr;

  bool implied = false;           // finite implication verdict
  bool implied_unrestricted = false;
  if (sigma.language == Language::kLu) {
    LuSolver solver(sigma);
    implied_unrestricted = solver.Implies(phi);
    implied = solver.FinitelyImplies(phi);
    if (implied_unrestricted && !implied) {
      verdict.detail =
          "LuSolver: unrestricted implication without finite implication";
      return verdict;
    }
  } else if (sigma.language == Language::kLid) {
    LidSolver solver(dtd, sigma);
    implied = solver.Implies(phi);
    implied_unrestricted = implied;  // L_id: the two coincide (Section 3.1)
  } else {
    GeneralOptions options;
    options.max_chase_steps = 400;
    options.max_chase_rows = 200;
    options.deadline = Deadline::AfterMillis(1500);
    GeneralResult result = ChaseImplication(sigma, phi, options);
    if (result.outcome == ImplicationOutcome::kUnknown) {
      verdict.skipped = true;
      return verdict;
    }
    implied = result.outcome == ImplicationOutcome::kImplied;
    implied_unrestricted = implied;
    if (result.outcome == ImplicationOutcome::kNotImplied) {
      if (!result.countermodel.has_value()) {
        verdict.detail = "chase reported kNotImplied without a countermodel";
        return verdict;
      }
      std::string why;
      if (!VerifiedCountermodel(*result.countermodel, sigma, phi, nullptr,
                                &why)) {
        verdict.detail = "chase countermodel fails verification: " + why;
        return verdict;
      }
      verdict.detail = LiftCrossCheck(*result.countermodel, sigma, phi);
      if (verdict.detail.has_value()) return verdict;
    }
  }

  EnumerationOutcome outcome =
      EnumerateCountermodelBounded(sigma, phi, bounds, dtd_for_semantics);
  if (outcome.countermodel.has_value()) {
    std::string why;
    if (!VerifiedCountermodel(*outcome.countermodel, sigma, phi,
                              dtd_for_semantics, &why)) {
      verdict.detail = "enumerator countermodel fails verification: " + why;
      return verdict;
    }
    if (implied) {
      verdict.detail = "solver finitely implies " + phi.ToString() +
                       " but a verified countermodel exists:\n" +
                       outcome.countermodel->ToString();
      return verdict;
    }
    if (sigma.language != Language::kLid) {
      verdict.detail = LiftCrossCheck(*outcome.countermodel, sigma, phi);
      if (verdict.detail.has_value()) return verdict;
    }
  } else if (!implied && !outcome.status.ok()) {
    // "Not implied" that the cut-short enumeration could not refute:
    // inconclusive, not disagreement.
    verdict.skipped = true;
    return verdict;
  }

  // Cross-check the L_u axioms against the chase where both apply.
  if (sigma.language == Language::kLu && ChaseApplicable(sigma, phi)) {
    GeneralOptions options;
    options.max_chase_steps = 400;
    options.max_chase_rows = 200;
    options.deadline = Deadline::AfterMillis(1500);
    GeneralResult chase = ChaseImplication(sigma, phi, options);
    if (chase.outcome == ImplicationOutcome::kImplied &&
        !implied_unrestricted) {
      verdict.detail = "chase proves " + phi.ToString() +
                       " but LuSolver::Implies denies it";
    } else if (chase.outcome == ImplicationOutcome::kNotImplied && implied) {
      verdict.detail = "chase found a finite countermodel for " +
                       phi.ToString() +
                       " but LuSolver::FinitelyImplies holds";
    }
  }
  return verdict;
}

// -- Oracle 4: parse -> serialize -> parse fixpoint -----------------------

std::optional<std::string> CompareRoundTripText(const std::string& text) {
  Result<SelfDescribingDocument> first = ParseDocumentWithDtdC(text);
  if (!first.ok()) {
    return "initial document does not parse: " + first.status().ToString();
  }
  if (!first.value().document.dtd.has_value()) {
    return std::optional<std::string>{};  // nothing to round-trip against
  }
  const DtdStructure& dtd = *first.value().document.dtd;
  ConstraintSet sigma;
  if (first.value().sigma.has_value()) sigma = *first.value().sigma;
  std::string once =
      WriteDocumentWithDtdC(first.value().document.tree, dtd, sigma);
  Result<SelfDescribingDocument> second = ParseDocumentWithDtdC(once);
  if (!second.ok()) {
    return "serialized document does not re-parse: " +
           second.status().ToString() + "\n--- serialized ---\n" + once;
  }
  std::string why;
  if (!TreesEqual(first.value().document.tree, second.value().document.tree,
                  &why)) {
    return "tree changed across serialize -> parse: " + why;
  }
  if (!second.value().document.dtd.has_value() ||
      second.value().document.dtd->ToString() != dtd.ToString()) {
    return "DTD changed across serialize -> parse";
  }
  ConstraintSet sigma2;
  if (second.value().sigma.has_value()) sigma2 = *second.value().sigma;
  if (sigma2.language != sigma.language ||
      sigma2.constraints != sigma.constraints) {
    return "constraint block changed across serialize -> parse";
  }
  std::string twice =
      WriteDocumentWithDtdC(second.value().document.tree, dtd, sigma2);
  if (once != twice) {
    return "serialization is not a fixpoint\n--- first ---\n" + once +
           "--- second ---\n" + twice;
  }
  return std::nullopt;
}

// -- Oracle 5: lint determinism and round-trip invariance -----------------

std::optional<std::string> CompareLint(const DtdStructure& dtd,
                                       const ConstraintSet& sigma) {
  Analyzer analyzer;
  AnalysisReport first = analyzer.Analyze(dtd, sigma);
  AnalysisReport second = analyzer.Analyze(dtd, sigma);
  std::string first_json = first.ToJson();
  if (first_json != second.ToJson()) {
    return "analyzer output is not deterministic across runs";
  }
  std::string text = WriteDtdC(dtd, sigma);
  Result<DtdC> reparsed = ParseDtdC(text, dtd.root());
  if (!reparsed.ok()) {
    return "WriteDtdC output does not re-parse: " +
           reparsed.status().ToString();
  }
  ConstraintSet sigma2;
  sigma2.language = sigma.language;
  if (reparsed.value().sigma.has_value()) sigma2 = *reparsed.value().sigma;
  AnalysisReport third = analyzer.Analyze(reparsed.value().dtd, sigma2);
  if (first_json != third.ToJson()) {
    return "analyzer verdict changed across a DtdC round-trip\n"
           "--- original ---\n" +
           first_json + "\n--- round-tripped ---\n" + third.ToJson();
  }
  if (first.ExitCode() != third.ExitCode()) {
    return "xiclint exit code changed across a DtdC round-trip";
  }
  return std::nullopt;
}

// -- Trial drivers --------------------------------------------------------

OracleOutcome CheckerTrial(uint64_t seed, const GenOptions& opt) {
  OracleOutcome outcome;
  Rng rng(seed);
  DtdStructure dtd = GenerateDtd(rng, opt);
  Language lang = PickLanguage(rng);
  ConstraintSet sigma = GenerateSigma(rng, dtd, lang, opt);
  Result<DataTree> doc = GenerateDocument(rng, dtd, opt);
  if (!doc.ok()) {
    outcome.skipped = true;
    return outcome;
  }
  std::optional<std::string> detail =
      CompareCheckerModes(dtd, sigma, doc.value());
  if (detail.has_value()) {
    outcome.mismatch = true;
    outcome.detail = *detail;
    outcome.entry = MakeEntry(OracleId::kChecker, seed, *detail, dtd, sigma,
                              doc.value());
  }
  return outcome;
}

OracleOutcome IncrementalTrial(uint64_t seed, const GenOptions& opt) {
  OracleOutcome outcome;
  Rng rng(seed);
  GenOptions attr_only = opt;
  attr_only.sub_element_fields = rng.Chance(25);  // mostly supported sigma
  DtdStructure dtd = GenerateDtd(rng, attr_only);
  Language lang = PickLanguage(rng);
  ConstraintSet sigma = GenerateSigma(rng, dtd, lang, attr_only);
  std::vector<UpdateOp> ops = GenerateUpdates(rng, dtd, attr_only);
  std::optional<std::string> detail =
      RunIncrementalSequence(dtd, sigma, ops);
  if (detail.has_value()) {
    outcome.mismatch = true;
    outcome.detail = *detail;
    outcome.entry = MakeEntry(OracleId::kIncremental, seed, *detail, dtd,
                              sigma, MinimalTree(dtd));
    for (const UpdateOp& op : ops) {
      outcome.entry.updates.push_back(FormatUpdate(op));
    }
  }
  return outcome;
}

OracleOutcome ImplicationTrial(uint64_t seed, const GenOptions& opt) {
  OracleOutcome outcome;
  Rng rng(seed);
  GenOptions small = opt;
  small.max_types = 2;  // keep exhaustive enumeration tractable
  DtdStructure dtd = GenerateDtd(rng, small);
  Language lang = PickLanguage(rng);
  ConstraintSet sigma = GenerateSigma(rng, dtd, lang, small);
  Constraint phi = GeneratePhi(rng, dtd, sigma, lang);
  ImplicationVerdict verdict = CompareImplication(dtd, sigma, phi);
  outcome.skipped = verdict.skipped;
  if (verdict.detail.has_value()) {
    outcome.mismatch = true;
    outcome.detail = *verdict.detail;
    outcome.entry = MakeEntry(OracleId::kImplication, seed, *verdict.detail,
                              dtd, sigma, MinimalTree(dtd));
    outcome.entry.phi = WriteConstraintStatement(phi);
  }
  return outcome;
}

OracleOutcome RoundTripTrial(uint64_t seed, const GenOptions& opt) {
  OracleOutcome outcome;
  Rng rng(seed);
  DtdStructure dtd = GenerateDtd(rng, opt);
  Language lang = PickLanguage(rng);
  ConstraintSet sigma = GenerateSigma(rng, dtd, lang, opt);
  Result<DataTree> doc = GenerateDocument(rng, dtd, opt);
  if (!doc.ok()) {
    outcome.skipped = true;
    return outcome;
  }
  std::string text = WriteDocumentWithDtdC(doc.value(), dtd, sigma);
  std::optional<std::string> detail;
  // The in-memory tree must survive the first serialization too (a
  // text-only fixpoint would miss lossy escaping of generated values).
  Result<SelfDescribingDocument> parsed = ParseDocumentWithDtdC(text);
  if (!parsed.ok()) {
    detail = "generated document does not parse: " +
             parsed.status().ToString() + "\n--- text ---\n" + text;
  } else {
    std::string why;
    if (!TreesEqual(doc.value(), parsed.value().document.tree, &why)) {
      detail = "generated tree changed across serialize -> parse: " + why;
    } else {
      detail = CompareRoundTripText(text);
    }
  }
  if (detail.has_value()) {
    outcome.mismatch = true;
    outcome.detail = *detail;
    outcome.entry = MakeEntry(OracleId::kRoundTrip, seed, *detail, dtd,
                              sigma, doc.value());
  }
  return outcome;
}

OracleOutcome LintTrial(uint64_t seed, const GenOptions& opt) {
  OracleOutcome outcome;
  Rng rng(seed);
  DtdStructure dtd = GenerateDtd(rng, opt);
  Language lang = PickLanguage(rng);
  bool well_formed = rng.Chance(50);
  ConstraintSet sigma = GenerateSigma(rng, dtd, lang, opt, well_formed);
  std::optional<std::string> detail = CompareLint(dtd, sigma);
  if (detail.has_value()) {
    outcome.mismatch = true;
    outcome.detail = *detail;
    outcome.entry =
        MakeEntry(OracleId::kLint, seed, *detail, dtd, sigma,
                  MinimalTree(dtd));
  }
  return outcome;
}

// -- Oracle 6: streaming vs. materialized validation ----------------------

// Comparable rendering of a structural report, witnesses included
// (ToString() carries the vertex ids too, but keep the comparison
// independent of its formatting).
std::string RenderValidation(const ValidationReport& report) {
  std::string out;
  for (const Violation& v : report.violations) {
    out += std::to_string(v.vertex) + "|" + v.message + "\n";
  }
  return out;
}

// Runs the full xicheck pipeline both ways -- materialized
// (ParseDocumentWithDtdC + StructuralValidator + ConstraintChecker, the
// engine's tree feed) and streaming (StreamValidateSelfDescribing, its
// text feed) -- and demands byte-identical verdicts at every stage. Both
// constraint reports share one evaluator, so the tree's is also held to
// NaiveCheck, the independent reference. `text` need not be well-formed
// XML: a parse failure is itself compared (same status text, same
// position).
std::optional<std::string> CompareStream(const std::string& text,
                                         size_t spill_budget,
                                         bool allow_missing) {
  StreamOptions sopt;
  sopt.validation.allow_missing_attributes = allow_missing;
  sopt.spill_budget_bytes = spill_budget;
  // Tiny chunks so one text run regularly spans several kText events, and
  // 64-byte reads through the tokenizer's window (ParseXml reads its
  // string in place), so refills and compaction stay under the oracle.
  sopt.chunk_bytes = 64;
  ChunkedSource source(text, 64);
  SelfDescribingStreamResult s = StreamValidateSelfDescribing(source, sopt);

  Result<SelfDescribingDocument> parsed = ParseDocumentWithDtdC(text);
  std::string dom_parse = parsed.ok() ? "OK" : parsed.status().ToString();
  std::string stream_parse =
      s.outcome.parse.ok() ? "OK" : s.outcome.parse.ToString();
  if (dom_parse != stream_parse) {
    return "parse status diverged:\n  DOM:    " + dom_parse +
           "\n  stream: " + stream_parse;
  }
  if (!parsed.ok()) return std::nullopt;
  const SelfDescribingDocument& doc = parsed.value();
  if (doc.document.dtd.has_value() != s.has_dtd) {
    return std::string("DTD presence diverged: DOM ") +
           (doc.document.dtd.has_value() ? "has" : "lacks") +
           " a DTD, stream " + (s.has_dtd ? "has" : "lacks") + " one";
  }
  if (!doc.document.dtd.has_value()) return std::nullopt;
  const DtdStructure& dtd = *doc.document.dtd;

  ValidationOptions vopt;
  vopt.allow_missing_attributes = allow_missing;
  StructuralValidator validator(dtd, vopt);
  ValidationReport dom_structure = validator.Validate(doc.document.tree);
  if (dom_structure.status.ToString() !=
      s.outcome.structure.status.ToString()) {
    return "structure status diverged:\n  DOM:    " +
           dom_structure.status.ToString() +
           "\n  stream: " + s.outcome.structure.status.ToString();
  }
  if (RenderValidation(dom_structure) !=
          RenderValidation(s.outcome.structure) ||
      dom_structure.ToString() != s.outcome.structure.ToString()) {
    return "structure report diverged:\n--- DOM ---\n" +
           dom_structure.ToString() + "--- stream ---\n" +
           s.outcome.structure.ToString();
  }

  if (doc.sigma.has_value() != s.sigma.has_value()) {
    return std::string("constraint-block presence diverged: DOM ") +
           (doc.sigma.has_value() ? "has" : "lacks") + " sigma, stream " +
           (s.sigma.has_value() ? "has" : "lacks") + " sigma";
  }
  if (!doc.sigma.has_value()) return std::nullopt;
  const ConstraintSet& sigma = *doc.sigma;
  Status wf = CheckWellFormed(sigma, dtd);
  if (wf.ToString() != s.well_formed.ToString()) {
    return "well-formedness status diverged:\n  DOM:    " + wf.ToString() +
           "\n  stream: " + s.well_formed.ToString();
  }
  if (!wf.ok()) return std::nullopt;

  ConstraintChecker checker(dtd, sigma);
  ConstraintReport dom_report = checker.Check(doc.document.tree);
  if (dom_report.status.ToString() !=
      s.outcome.constraints.status.ToString()) {
    return "constraint status diverged:\n  DOM:    " +
           dom_report.status.ToString() +
           "\n  stream: " + s.outcome.constraints.status.ToString();
  }
  if (RenderReport(dom_report) != RenderReport(s.outcome.constraints) ||
      dom_report.ToString(sigma) != s.outcome.constraints.ToString(sigma)) {
    return "constraint report diverged (spill budget " +
           std::to_string(spill_budget) + "):\n--- DOM ---\n" +
           dom_report.ToString(sigma) + "--- stream ---\n" +
           s.outcome.constraints.ToString(sigma);
  }
  return CompareWithNaive(dtd, sigma, doc.document.tree, dom_report,
                          sopt.check.max_violations);
}

// Every committed stream entry is replayed across this budget/option
// grid (the trial that found it used one random point of it).
std::optional<std::string> CompareStreamGrid(const std::string& text) {
  for (size_t budget : {size_t{0}, size_t{1}}) {
    for (bool allow_missing : {true, false}) {
      std::optional<std::string> detail =
          CompareStream(text, budget, allow_missing);
      if (detail.has_value()) return detail;
    }
  }
  return std::nullopt;
}

OracleOutcome StreamTrial(uint64_t seed, const GenOptions& opt) {
  OracleOutcome outcome;
  Rng rng(seed);
  DtdStructure dtd = GenerateDtd(rng, opt);
  Language lang = PickLanguage(rng);
  bool well_formed = rng.Chance(80);
  ConstraintSet sigma = GenerateSigma(rng, dtd, lang, opt, well_formed);
  Result<DataTree> doc = GenerateDocument(rng, dtd, opt);
  if (!doc.ok()) {
    outcome.skipped = true;
    return outcome;
  }
  std::string text = WriteDocumentWithDtdC(doc.value(), dtd, sigma);
  // A third of the trials corrupt the bytes: both paths must then fail
  // with the identical status (message, line, column) -- this is what
  // keeps the windowed reader's error surface pinned to the in-place
  // one's.
  if (rng.Chance(33)) {
    size_t edits = rng.Range(1, 3);
    for (size_t i = 0; i < edits && !text.empty(); ++i) {
      size_t pos = rng.Below(text.size());
      char byte = static_cast<char>(rng.Range(32, 126));
      switch (rng.Below(3)) {
        case 0:
          text[pos] = byte;
          break;
        case 1:
          text.erase(pos, 1);
          break;
        default:
          text.insert(pos, 1, byte);
      }
    }
  }
  static constexpr size_t kBudgets[] = {0, 1, 256, 1u << 20};
  size_t budget = kBudgets[rng.Below(4)];
  bool allow_missing = rng.Chance(50);
  std::optional<std::string> detail =
      CompareStream(text, budget, allow_missing);
  if (detail.has_value()) {
    outcome.mismatch = true;
    outcome.detail = *detail;
    outcome.entry = MakeEntry(OracleId::kStream, seed, *detail, dtd, sigma,
                              doc.value());
    // The (possibly corrupted) bytes ARE the reproduction; MakeEntry's
    // re-serialization would lose the corruption.
    outcome.entry.document = text;
  }
  return outcome;
}

}  // namespace

OracleOutcome RunTrial(OracleId oracle, uint64_t seed,
                       const GenOptions& opt) {
  switch (oracle) {
    case OracleId::kChecker:
      return CheckerTrial(seed, opt);
    case OracleId::kIncremental:
      return IncrementalTrial(seed, opt);
    case OracleId::kImplication:
      return ImplicationTrial(seed, opt);
    case OracleId::kRoundTrip:
      return RoundTripTrial(seed, opt);
    case OracleId::kLint:
      return LintTrial(seed, opt);
    case OracleId::kStream:
      return StreamTrial(seed, opt);
  }
  OracleOutcome outcome;
  outcome.skipped = true;
  return outcome;
}

Result<OracleOutcome> ReplayEntry(const CorpusEntry& entry) {
  std::optional<OracleId> oracle = ParseOracleName(entry.oracle);
  if (!oracle.has_value()) {
    return Status::InvalidArgument("unknown oracle \"" + entry.oracle + "\"");
  }
  if (*oracle == OracleId::kStream) {
    // Stream entries replay on the raw bytes -- they may deliberately
    // not parse (the oracle compares the two parsers' failures too), so
    // they skip the materialized-parse gate below.
    OracleOutcome outcome;
    std::optional<std::string> detail = CompareStreamGrid(entry.document);
    if (detail.has_value()) {
      outcome.mismatch = true;
      outcome.detail = *detail;
      outcome.entry = entry;
    }
    return outcome;
  }
  Result<SelfDescribingDocument> parsed =
      ParseDocumentWithDtdC(entry.document);
  if (!parsed.ok()) {
    return Status::InvalidArgument("corpus document does not parse: " +
                                   parsed.status().ToString());
  }
  if (!parsed.value().document.dtd.has_value()) {
    return Status::InvalidArgument("corpus document carries no DTD");
  }
  const DtdStructure& dtd = *parsed.value().document.dtd;
  ConstraintSet sigma;
  if (parsed.value().sigma.has_value()) sigma = *parsed.value().sigma;

  OracleOutcome outcome;
  std::optional<std::string> detail;
  switch (*oracle) {
    case OracleId::kChecker:
      detail = CompareCheckerModes(dtd, sigma, parsed.value().document.tree);
      break;
    case OracleId::kIncremental: {
      std::vector<UpdateOp> ops;
      for (const std::string& line : entry.updates) {
        XIC_ASSIGN_OR_RETURN(UpdateOp op, ParseUpdate(line));
        ops.push_back(std::move(op));
      }
      detail = RunIncrementalSequence(dtd, sigma, ops);
      break;
    }
    case OracleId::kImplication: {
      if (entry.phi.empty()) {
        return Status::InvalidArgument(
            "implication entry lacks a phi section");
      }
      XIC_ASSIGN_OR_RETURN(std::vector<Constraint> phis,
                           ParseConstraints(entry.phi));
      if (phis.size() != 1) {
        return Status::InvalidArgument(
            "implication entry needs exactly one phi constraint");
      }
      ImplicationVerdict verdict =
          CompareImplication(dtd, sigma, phis.front());
      outcome.skipped = verdict.skipped;
      detail = verdict.detail;
      break;
    }
    case OracleId::kRoundTrip:
      detail = CompareRoundTripText(entry.document);
      break;
    case OracleId::kLint:
      detail = CompareLint(dtd, sigma);
      break;
    case OracleId::kStream:
      break;  // handled above, before the parse gate
  }
  if (detail.has_value()) {
    outcome.mismatch = true;
    outcome.detail = *detail;
    outcome.entry = entry;
  }
  return outcome;
}

}  // namespace xic::fuzz
