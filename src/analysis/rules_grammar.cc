// Grammar-hygiene diagnostics (XIC1xx) over the DTD's extended CFG:
// element types unreachable from the root, element types that cannot
// derive any finite subtree, and content models failing the XML
// 1-unambiguity (deterministic content model) requirement.

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/rule.h"
#include "regex/glushkov.h"

namespace xic {

namespace {

constexpr char kCodeUnreachable[] = "XIC101";
constexpr char kCodeNonProductive[] = "XIC102";
constexpr char kCodeAmbiguous[] = "XIC103";

Diagnostic GrammarDiag(const char* code, const std::string& rule,
                       DiagSeverity severity, const std::string& element,
                       std::string message) {
  Diagnostic d;
  d.code = code;
  d.rule = rule;
  d.severity = severity;
  d.message = std::move(message);
  d.location.element = element;
  return d;
}

// Element names mentioned by declared content models, per type. Unknown
// names (the DTD may be incoherent) are kept: reachability should not
// hide behind a missing declaration.
std::map<std::string, std::set<std::string>> ChildMap(
    const DtdStructure& dtd) {
  std::map<std::string, std::set<std::string>> children;
  for (const std::string& tau : dtd.Elements()) {
    Result<RegexPtr> content = dtd.ContentModel(tau);
    if (!content.ok()) continue;
    std::set<std::string> symbols = content.value()->Symbols();
    symbols.erase(kStringSymbol);
    children.emplace(tau, std::move(symbols));
  }
  return children;
}

class ReachabilityRule final : public LintRule {
 public:
  std::string name() const override { return "reachability"; }
  std::string description() const override {
    return "every declared element type should be reachable from the root "
           "through content models";
  }

  Status Run(const AnalysisInput& input,
             std::vector<Diagnostic>* out) const override {
    const DtdStructure& dtd = input.dtd;
    if (dtd.root().empty() || !dtd.HasElement(dtd.root())) {
      return Status::OK();  // nothing to anchor reachability on
    }
    std::map<std::string, std::set<std::string>> children = ChildMap(dtd);
    std::set<std::string> reached{dtd.root()};
    std::deque<std::string> queue{dtd.root()};
    while (!queue.empty()) {
      std::string tau = std::move(queue.front());
      queue.pop_front();
      auto it = children.find(tau);
      if (it == children.end()) continue;
      for (const std::string& child : it->second) {
        if (reached.insert(child).second) queue.push_back(child);
      }
    }
    for (const std::string& tau : dtd.Elements()) {
      if (reached.count(tau) == 0) {
        out->push_back(GrammarDiag(
            kCodeUnreachable, name(), DiagSeverity::kWarning, tau,
            "element type \"" + tau +
                "\" is unreachable from root \"" + dtd.root() +
                "\": no valid document contains it"));
      }
    }
    return Status::OK();
  }
};

// Is some word of L(re) derivable using only productive symbols?
bool RegexProductive(const Regex& re, const std::set<std::string>& ok) {
  switch (re.kind()) {
    case RegexKind::kEpsilon:
      return true;
    case RegexKind::kSymbol:
      return re.symbol() == kStringSymbol || ok.count(re.symbol()) > 0;
    case RegexKind::kUnion:
      return RegexProductive(*re.left(), ok) ||
             RegexProductive(*re.right(), ok);
    case RegexKind::kConcat:
      return RegexProductive(*re.left(), ok) &&
             RegexProductive(*re.right(), ok);
    case RegexKind::kStar:
      return true;  // zero repetitions always derive epsilon
  }
  return false;
}

class ProductivityRule final : public LintRule {
 public:
  std::string name() const override { return "productivity"; }
  std::string description() const override {
    return "every element type should derive at least one finite subtree";
  }

  Status Run(const AnalysisInput& input,
             std::vector<Diagnostic>* out) const override {
    const DtdStructure& dtd = input.dtd;
    std::vector<std::string> elements = dtd.Elements();
    std::set<std::string> productive;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const std::string& tau : elements) {
        if (productive.count(tau) > 0) continue;
        Result<RegexPtr> content = dtd.ContentModel(tau);
        if (!content.ok()) continue;
        if (RegexProductive(*content.value(), productive)) {
          productive.insert(tau);
          changed = true;
        }
      }
    }
    for (const std::string& tau : elements) {
      if (productive.count(tau) > 0) continue;
      bool is_root = tau == dtd.root();
      out->push_back(GrammarDiag(
          kCodeNonProductive, name(),
          is_root ? DiagSeverity::kError : DiagSeverity::kWarning, tau,
          "element type \"" + tau +
              "\" is non-productive: every expansion of its content model "
              "requires another non-productive type, so no finite subtree "
              "exists" +
              (is_root ? std::string("; the DTD admits no valid document")
                       : std::string())));
    }
    return Status::OK();
  }
};

class DeterminismRule final : public LintRule {
 public:
  std::string name() const override { return "determinism"; }
  std::string description() const override {
    return "content models must be 1-unambiguous (XML deterministic "
           "content models)";
  }

  Status Run(const AnalysisInput& input,
             std::vector<Diagnostic>* out) const override {
    for (const std::string& tau : input.dtd.Elements()) {
      XIC_RETURN_IF_ERROR(input.deadline.Check("determinism lint"));
      Result<RegexPtr> content = input.dtd.ContentModel(tau);
      if (!content.ok()) continue;
      GlushkovAutomaton nfa(content.value());
      XIC_RETURN_IF_ERROR(CheckLimit(
          nfa.num_positions(), input.limits.max_automaton_states,
          "max_automaton_states",
          [&] {
            return "content model of " + tau + " has too many positions";
          }));
      std::optional<AmbiguityWitness> w = nfa.OneUnambiguityWitness();
      if (!w.has_value()) continue;
      std::string reason =
          w->via < 0
              ? "both can start a match"
              : "both can follow occurrence #" + std::to_string(w->via) +
                    " (\"" + nfa.symbols()[w->via] + "\")";
      Diagnostic d = GrammarDiag(
          kCodeAmbiguous, name(), DiagSeverity::kWarning, tau,
          "content model of \"" + tau + "\" is not 1-unambiguous: "
              "occurrences #" + std::to_string(w->pos1) + " and #" +
              std::to_string(w->pos2) + " of \"" + w->symbol +
              "\" compete -- " + reason);
      d.notes.push_back("content model: " + content.value()->ToString());
      d.notes.push_back(
          "XML requires deterministic content models; a matcher cannot "
          "decide which occurrence consumed the label without lookahead");
      out->push_back(std::move(d));
    }
    return Status::OK();
  }
};

}  // namespace

void RegisterGrammarRules(RuleRegistry* registry) {
  registry->Register(std::make_unique<ReachabilityRule>());
  registry->Register(std::make_unique<ProductivityRule>());
  registry->Register(std::make_unique<DeterminismRule>());
}

}  // namespace xic
