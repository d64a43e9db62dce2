// xiclint: static diagnostics for DTDs and constraint sets -- no
// document required.
//
// Usage:
//   xiclint --dtd schema.dtd --root r [--constraints sigma.txt]
//           [--language L|L_u|L_id]
//   xiclint doc.xml [more.xml ...]     lint the DOCTYPE internal subset
//                                      (and embedded xic:constraints
//                                      block) of self-describing files
//   xiclint                            lint the built-in demo pair
//
// Options:
//   --json              machine-readable report (byte-stable)
//   --rule NAME         run only this rule (repeatable)
//   --list-rules        print the registered rules and exit
//   --timeout-ms N      wall-clock budget for the whole run
//   --max-bytes N       input size bound (0 = unlimited)
//   --max-states N      Glushkov position bound per content model
//
// Exit codes: 0 clean, 1 warnings only, 2 errors, 3 infrastructure
// failure (I/O, parse failure, limit or deadline hit).

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs_cli.h"
#include "xic.h"

namespace {

using namespace xic;

const char* kDemoDtd = R"(<!ELEMENT book (entry, author*, section*, ref)>
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

const char* kDemoConstraints =
    "key entry.isbn; key section.sid; sfk ref.to -> entry.isbn";

struct LintConfig {
  bool json = false;
  std::vector<std::string> rules;
  ResourceLimits limits;
  uint64_t timeout_ms = 0;  // 0 = no deadline
};

AnalysisOptions MakeOptions(const LintConfig& config) {
  AnalysisOptions options;
  options.limits = config.limits;
  options.rules = config.rules;
  options.deadline = config.timeout_ms == 0
                         ? Deadline::Infinite()
                         : Deadline::AfterMillis(config.timeout_ms);
  return options;
}

int Report(const std::string& name, const AnalysisReport& report,
           const LintConfig& config) {
  if (config.json) {
    std::cout << report.ToJson();
  } else {
    std::cout << name << ":\n" << report.ToString();
  }
  return report.ExitCode();
}

// Lints an explicit (DTD text, constraint text) pair.
int LintPair(const std::string& name, const std::string& dtd_text,
             const std::string& root, const std::string& constraint_text,
             Language language, const LintConfig& config) {
  AnalysisOptions options = MakeOptions(config);

  DtdParseOptions dtd_options;
  dtd_options.limits = config.limits;
  dtd_options.deadline = options.deadline;
  Result<DtdStructure> dtd = ParseDtd(dtd_text, root, dtd_options);
  if (!dtd.ok()) {
    std::cerr << name << ": DTD parse failed: " << dtd.status() << "\n";
    return 3;
  }

  ConstraintSet sigma;
  sigma.language = language;
  if (!constraint_text.empty()) {
    Result<std::vector<LocatedConstraint>> parsed =
        ParseConstraintsLocated(constraint_text);
    if (!parsed.ok()) {
      std::cerr << name << ": " << parsed.status() << "\n";
      return 3;
    }
    for (const LocatedConstraint& lc : parsed.value()) {
      sigma.constraints.push_back(lc.constraint);
      DiagLocation loc;
      loc.line = lc.line;
      loc.column = lc.column;
      options.locations.push_back(loc);
    }
  }

  Analyzer analyzer;
  return Report(name, analyzer.Analyze(dtd.value(), sigma, options), config);
}

// Lints the internal subset (+ embedded constraint block) of a
// self-describing document.
int LintSelfDescribing(const std::string& name, const std::string& text,
                       const LintConfig& config) {
  AnalysisOptions options = MakeOptions(config);
  XmlParseOptions parse_options;
  parse_options.limits = config.limits;
  parse_options.deadline = options.deadline;
  Result<SelfDescribingDocument> parsed =
      ParseDocumentWithDtdC(text, parse_options);
  if (!parsed.ok()) {
    std::cerr << name << ": " << parsed.status() << "\n";
    return 3;
  }
  if (!parsed.value().document.dtd.has_value()) {
    std::cerr << name << ": no DTD in the DOCTYPE; nothing to lint\n";
    return 3;
  }
  ConstraintSet sigma;  // empty set still gets the grammar rules
  if (parsed.value().sigma.has_value()) sigma = *parsed.value().sigma;
  Analyzer analyzer;
  return Report(name,
                analyzer.Analyze(*parsed.value().document.dtd, sigma, options),
                config);
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

void ListRules() {
  for (const auto& rule : RuleRegistry::Builtin().rules()) {
    std::cout << rule->name() << ": " << rule->description() << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  LintConfig config;
  ObsCliOptions obs_options;
  std::string dtd_path, constraints_path, root;
  Language language = Language::kLu;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    uint64_t count = 0;
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << ": missing argument\n";
        std::exit(3);
      }
      return argv[++i];
    };
    bool obs_error = false;
    if (ObsParseFlag(argc, argv, &i, &obs_options, &obs_error)) {
      if (obs_error) return 3;
    } else if (arg == "--json") {
      config.json = true;
    } else if (arg == "--list-rules") {
      ListRules();
      return 0;
    } else if (arg == "--rule") {
      config.rules.push_back(next("--rule"));
    } else if (arg == "--dtd") {
      dtd_path = next("--dtd");
    } else if (arg == "--constraints") {
      constraints_path = next("--constraints");
    } else if (arg == "--root") {
      root = next("--root");
    } else if (arg == "--language") {
      std::string lang = next("--language");
      if (lang == "L") {
        language = Language::kL;
      } else if (lang == "L_u") {
        language = Language::kLu;
      } else if (lang == "L_id") {
        language = Language::kLid;
      } else {
        std::cerr << "--language: expected L, L_u or L_id, got " << lang
                  << "\n";
        return 3;
      }
    } else if (arg == "--timeout-ms") {
      if (!ParseDecimal(next("--timeout-ms"), &count)) {
        std::cerr << "--timeout-ms: not a number: " << argv[i] << "\n";
        return 3;
      }
      config.timeout_ms = count;
    } else if (arg == "--max-bytes") {
      if (!ParseDecimal(next("--max-bytes"), &count)) {
        std::cerr << "--max-bytes: not a number: " << argv[i] << "\n";
        return 3;
      }
      config.limits.max_document_bytes = count;
    } else if (arg == "--max-states") {
      if (!ParseDecimal(next("--max-states"), &count)) {
        std::cerr << "--max-states: not a number: " << argv[i] << "\n";
        return 3;
      }
      config.limits.max_automaton_states = count;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: xiclint [--json] [--rule NAME] [--list-rules]\n"
                   "               [--timeout-ms N] [--max-bytes N] "
                   "[--max-states N]\n"
                   "               [--trace-out FILE] [--metrics-out FILE] "
                   "[--stats]\n"
                   "               --dtd schema.dtd --root r "
                   "[--constraints sigma.txt] [--language L|L_u|L_id]\n"
                   "       xiclint [options] doc.xml [more.xml ...]\n"
                   "exit: 0 clean, 1 warnings, 2 errors, 3 infrastructure "
                   "failure\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << arg << ": unknown option\n";
      return 3;
    } else {
      files.push_back(std::move(arg));
    }
  }

  ObsCliSession obs_session(obs_options);
  auto finish = [&](int code) {
    if (!obs_session.Finish()) return std::max(code, 3);
    return code;
  };
  if (!dtd_path.empty()) {
    if (root.empty()) {
      std::cerr << "--dtd requires --root\n";
      return 3;
    }
    std::string dtd_text, constraint_text;
    if (!ReadFile(dtd_path, &dtd_text)) {
      std::cerr << dtd_path << ": cannot open\n";
      return 3;
    }
    if (!constraints_path.empty() &&
        !ReadFile(constraints_path, &constraint_text)) {
      std::cerr << constraints_path << ": cannot open\n";
      return 3;
    }
    return finish(LintPair(dtd_path, dtd_text, root, constraint_text,
                           language, config));
  }

  if (files.empty()) {
    std::cerr << "(no input given; linting the built-in book DTD^C, which "
                 "is clean)\n";
    return finish(LintPair("<demo>", kDemoDtd, "book", kDemoConstraints,
                           Language::kLu, config));
  }
  int worst = 0;
  for (const std::string& file : files) {
    std::string text;
    if (!ReadFile(file, &text)) {
      std::cerr << file << ": cannot open\n";
      worst = std::max(worst, 3);
      continue;
    }
    worst = std::max(worst, LintSelfDescribing(file, text, config));
  }
  return finish(worst);
}
