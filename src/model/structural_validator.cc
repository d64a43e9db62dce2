#include "model/structural_validator.h"

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
    Result<RegexPtr> content = dtd_.ContentModel(element);
    if (content.ok()) {
      GlushkovAutomaton automaton(content.value());
      if (status_.ok()) {
        status_ = CheckLimit(automaton.num_positions(),
                             options_.limits.max_automaton_states,
                             "max_automaton_states",
                             [&] { return "content model of " + element; });
      }
      automata_.emplace(element, std::move(automaton));
    }
  }
  for (const std::string& element : dtd_.Elements()) {
    ElementPlan plan;
    plan.index = static_cast<int>(plans_.size());
    auto it = automata_.find(element);
    if (it != automata_.end()) plan.automaton = &it->second;
    plan.attr_names = dtd_.Attributes(element);
    plan.attr_single.reserve(plan.attr_names.size());
    for (const std::string& attr : plan.attr_names) {
      plan.attr_single.push_back(dtd_.IsSingleValued(element, attr));
    }
    plans_.emplace(element, std::move(plan));
  }
}

ValidationReport StructuralValidator::Validate(
    const DataTree& tree, const Deadline& deadline) const {
  obs::ScopedSpan span("validate.structure", "model");
  ValidationReport report = ValidateImpl(tree, deadline);
  span.AddInt("vertices", static_cast<int64_t>(tree.size()));
  span.AddInt("steps", static_cast<int64_t>(report.steps));
  span.AddInt("violations", static_cast<int64_t>(report.violations.size()));
  XIC_COUNTER_ADD("validate.documents", 1);
  XIC_COUNTER_ADD("validate.steps", report.steps);
  XIC_COUNTER_ADD("validate.violations", report.violations.size());
  return report;
}

ValidationReport StructuralValidator::ValidateImpl(
    const DataTree& tree, const Deadline& deadline) const {
  ValidationReport report;
  if (!status_.ok()) {
    report.status = status_;
    return report;
  }
  auto add = [&](VertexId v, std::string msg) {
    if (options_.max_violations == 0 ||
        report.violations.size() < options_.max_violations) {
      report.violations.push_back({v, std::move(msg)});
    }
  };
  auto full = [&] {
    return options_.max_violations != 0 &&
           report.violations.size() >= options_.max_violations;
  };

  if (tree.empty()) {
    add(kInvalidVertex, "empty document");
    return report;
  }
  if (tree.label(tree.root()) != dtd_.root()) {
    add(tree.root(), "root labeled " + tree.label(tree.root()) +
                         ", expected " + dtd_.root());
  }

  // Translate the document's interned names to element plans once: after
  // this loop no per-vertex work touches a string except to render a
  // violation message.
  const SymbolTable& syms = tree.symbols();
  const size_t nsyms = syms.size();
  std::vector<const ElementPlan*> plan_of(nsyms, nullptr);
  for (Symbol s = 0; s < nsyms; ++s) {
    auto it = plans_.find(syms.name(s));
    if (it != plans_.end()) plan_of[s] = &it->second;
  }
  // Per-plan translation caches, built lazily for the element types this
  // document actually uses:
  //   alpha_of[plan]: tree Symbol -> alphabet id of the plan's automaton
  //                   (slot nsyms holds kStringSymbol for text children),
  //   attr_sym_of[plan]: declared-attribute slot -> tree Symbol.
  std::vector<std::vector<int>> alpha_of(plans_.size());
  std::vector<std::vector<Symbol>> attr_sym_of(plans_.size());
  std::vector<char> plan_ready(plans_.size(), 0);
  auto prepare_plan = [&](const ElementPlan& plan) {
    if (plan_ready[plan.index]) return;
    plan_ready[plan.index] = 1;
    if (plan.automaton != nullptr) {
      std::vector<int>& alpha = alpha_of[plan.index];
      alpha.resize(nsyms + 1);
      for (Symbol s = 0; s < nsyms; ++s) {
        alpha[s] = plan.automaton->FindAlphabetId(syms.name(s));
      }
      alpha[nsyms] = plan.automaton->FindAlphabetId(kStringSymbol);
    }
    std::vector<Symbol>& attr_syms = attr_sym_of[plan.index];
    attr_syms.reserve(plan.attr_names.size());
    for (const std::string& attr : plan.attr_names) {
      attr_syms.push_back(tree.FindName(attr));
    }
  };
  std::vector<int> word;  // child-word scratch, reused across vertices

  for (VertexId v = 0; v < tree.size() && !full(); ++v) {
    if ((v & 0x3F) == 0) {
      if (Status s = deadline.Check("structural validation"); !s.ok()) {
        report.status = std::move(s);
        return report;
      }
    }
    ++report.steps;
    const Symbol tau_sym = tree.label_symbol(v);
    const ElementPlan* plan = plan_of[tau_sym];
    if (plan == nullptr) {
      add(v, "undeclared element type " + tree.label(v));
      continue;
    }
    prepare_plan(*plan);
    // Children against L(P(tau)).
    if (plan->automaton != nullptr) {
      const std::vector<int>& alpha = alpha_of[plan->index];
      word.clear();
      for (const Child& c : tree.children(v)) {
        if (const VertexId* id = std::get_if<VertexId>(&c)) {
          word.push_back(alpha[tree.label_symbol(*id)]);
        } else {
          word.push_back(alpha[nsyms]);
        }
      }
      if (!plan->automaton->MatchesIds(word.data(), word.size())) {
        std::string rendered = Join(tree.ChildWord(v), " ");
        add(v, "children [" + rendered + "] do not match content model of " +
                   tree.label(v));
      }
    }
    // Attributes: declared <-> present, single-valued are singletons.
    const std::vector<Symbol>& attr_syms = attr_sym_of[plan->index];
    size_t declared_present = 0;
    for (const DataTree::AttrEntry& e : tree.attributes(v).entries()) {
      size_t slot = attr_syms.size();
      for (size_t j = 0; j < attr_syms.size(); ++j) {
        if (attr_syms[j] == e.name) {
          slot = j;
          break;
        }
      }
      if (slot == attr_syms.size()) {
        add(v, "undeclared attribute " + tree.label(v) + "." +
                   syms.name(e.name));
        continue;
      }
      ++declared_present;
      if (plan->attr_single[slot] && e.value.size() != 1) {
        add(v, "single-valued attribute " + tree.label(v) + "." +
                   syms.name(e.name) + " holds " +
                   std::to_string(e.value.size()) + " values");
      }
    }
    if (!options_.allow_missing_attributes &&
        declared_present != attr_syms.size()) {
      for (size_t j = 0; j < attr_syms.size(); ++j) {
        if (attr_syms[j] == kInvalidSymbol ||
            tree.FindAttr(v, attr_syms[j]) == nullptr) {
          add(v, "missing declared attribute " + tree.label(v) + "." +
                     plan->attr_names[j]);
        }
      }
    }
  }
  return report;
}

std::optional<StructuralValidator::PlanView> StructuralValidator::PlanFor(
    std::string_view element) const {
  auto it = plans_.find(element);
  if (it == plans_.end()) return std::nullopt;
  return PlanView{it->second.automaton, &it->second.attr_names,
                  &it->second.attr_single};
}

bool StructuralValidator::AllContentModelsDeterministic() const {
  for (const auto& [element, automaton] : automata_) {
    if (!automaton.IsOneUnambiguous()) return false;
  }
  return true;
}

}  // namespace xic
