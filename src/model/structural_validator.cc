#include "model/structural_validator.h"

#include "constraints/checker.h"
#include "engine/stream_validator.h"
#include "obs/obs.h"
#include "regex/glushkov.h"
#include "util/strings.h"

namespace xic {

std::string ValidationReport::ToString() const {
  if (ok()) return "valid";
  std::string out;
  if (!status.ok()) out += status.ToString() + "\n";
  for (const Violation& v : violations) {
    out += "vertex " + std::to_string(v.vertex) + ": " + v.message + "\n";
  }
  return out;
}

StructuralValidator::StructuralValidator(const DtdStructure& dtd,
                                         ValidationOptions options)
    : dtd_(dtd), options_(options) {
  for (const std::string& element : dtd_.Elements()) {
    ElementPlan& plan = plans_[element];
    if (Result<RegexPtr> content = dtd_.ContentModel(element); content.ok()) {
      plan.automaton.emplace(content.value());
      if (status_.ok()) {
        status_ = CheckLimit(plan.automaton->num_positions(),
                             options_.limits.max_automaton_states,
                             "max_automaton_states",
                             [&] { return "content model of " + element; });
      }
    }
    plan.attr_names = dtd_.Attributes(element);
    for (const std::string& attr : plan.attr_names) {
      plan.attr_single.push_back(dtd_.IsSingleValued(element, attr));
    }
  }
}

ValidationReport StructuralValidator::Validate(
    const DataTree& tree, const Deadline& deadline) const {
  obs::ScopedSpan span("validate.structure", "model");
  static const ConstraintSet kNoConstraints;
  StreamOptions options;
  options.validation = options_;
  ValidationReport report =
      CheckTree(ConstraintPlan(dtd_, kNoConstraints), this, tree, options,
                deadline)
          .structure;
  span.AddInt("vertices", static_cast<int64_t>(tree.size()));
  span.AddInt("steps", static_cast<int64_t>(report.steps));
  span.AddInt("violations", static_cast<int64_t>(report.violations.size()));
  XIC_COUNTER_ADD("validate.documents", 1);
  XIC_COUNTER_ADD("validate.steps", report.steps);
  XIC_COUNTER_ADD("validate.violations", report.violations.size());
  return report;
}

std::optional<StructuralValidator::PlanView> StructuralValidator::PlanFor(
    std::string_view element) const {
  auto it = plans_.find(element);
  if (it == plans_.end()) return std::nullopt;
  const ElementPlan& plan = it->second;
  return PlanView{plan.automaton ? &*plan.automaton : nullptr,
                  &plan.attr_names, &plan.attr_single};
}

bool StructuralValidator::AllContentModelsDeterministic() const {
  for (const auto& [element, plan] : plans_) {
    if (plan.automaton && !plan.automaton->IsOneUnambiguous()) return false;
  }
  return true;
}

ValidationReport NaiveValidate(const DtdStructure& dtd, const DataTree& tree,
                               const ValidationOptions& options,
                               const Deadline& deadline) {
  ValidationReport report;
  for (const std::string& element : dtd.Elements()) {
    Result<RegexPtr> content = dtd.ContentModel(element);
    if (!content.ok()) continue;
    report.status = CheckLimit(
        GlushkovAutomaton(content.value()).num_positions(),
        options.limits.max_automaton_states, "max_automaton_states",
        [&] { return "content model of " + element; });
    if (!report.status.ok()) return report;
  }
  auto add = [&](VertexId v, std::string msg) {
    if (options.max_violations == 0 ||
        report.violations.size() < options.max_violations) {
      report.violations.push_back({v, std::move(msg)});
    }
  };
  if (tree.empty()) add(kInvalidVertex, "empty document");
  for (VertexId v = 0; v < tree.size(); ++v) {
    if (Status s = deadline.Check("structural validation"); !s.ok()) {
      report.status = std::move(s);
      report.violations.clear();
      return report;
    }
    const std::string& tau = tree.label(v);
    if (v == tree.root() && tau != dtd.root()) {
      add(v, "root labeled " + tau + ", expected " + dtd.root());
    }
    if (!dtd.HasElement(tau)) {
      add(v, "undeclared element type " + tau);
      continue;
    }
    Result<RegexPtr> content = dtd.ContentModel(tau);
    const std::vector<std::string> word = tree.ChildWord(v);
    if (content.ok() && !GlushkovAutomaton(content.value()).Matches(word)) {
      add(v, "children [" + Join(word, " ") +
                 "] do not match content model of " + tau);
    }
    for (const auto& [name, value] : tree.attributes(v)) {
      if (!dtd.HasAttribute(tau, name)) {
        add(v, "undeclared attribute " + tau + "." + name);
      } else if (dtd.IsSingleValued(tau, name) && value.size() != 1) {
        add(v, "single-valued attribute " + tau + "." + name + " holds " +
                   std::to_string(value.size()) + " values");
      }
    }
    if (options.allow_missing_attributes) continue;
    for (const std::string& attr : dtd.Attributes(tau)) {
      if (!tree.HasAttribute(v, attr)) {
        add(v, "missing declared attribute " + tau + "." + attr);
      }
    }
  }
  return report;
}

}  // namespace xic
