// xicheck: a command-line validator for self-describing documents.
//
// Usage:
//   xicheck [options] file.xml [more.xml ...]    validate files
//   xicheck --repair file.xml          validate, repair, print the result
//   xicheck                            validate the built-in demo document
//
// Options: --max-depth N and --max-bytes N bound the input document
// (0 = unlimited); --timeout-ms N bounds the wall-clock time spent on
// each document; --spill-mb N is the extent-log budget before field
// tuples spill to disk (0 = never spill). --stream is accepted for
// compatibility and changes nothing: every document streams.
//
// A "self-describing" document carries its DTD in the DOCTYPE internal
// subset and (optionally) its constraint set in an embedded
// "<!-- xic:constraints ... -->" block (see xml/dtdc_io.h). xicheck
// reports structural validity (Definition 2.4) and constraint
// satisfaction (G |= Sigma) in one streaming pass
// (engine/stream_validator.h), so peak memory is bounded by the spill
// budget, not the document size. With --repair, a document with
// constraint violations is then parsed into a tree and the edits needed
// to restore consistency are printed. Exit code: 0 valid, 1 invalid,
// 2 usage/parse/limit error.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>

#include "obs_cli.h"
#include "xic.h"

namespace {

using namespace xic;

const char* kDemo = R"(<?xml version="1.0"?>
<!DOCTYPE db [
<!ELEMENT db (person*, dept*)>
<!ELEMENT person EMPTY>
<!ATTLIST person oid ID #REQUIRED name CDATA #REQUIRED
          in_dept IDREFS #REQUIRED>
<!ELEMENT dept EMPTY>
<!ATTLIST dept oid ID #REQUIRED has_staff IDREFS #REQUIRED>
<!-- xic:constraints language=L_id
  id person.oid
  id dept.oid
  key person.name
  sfk person.in_dept -> dept.oid
  sfk dept.has_staff -> person.oid
  inverse person.in_dept <-> dept.has_staff
-->
]>
<db>
  <person oid="p1" name="Ada" in_dept="d1"/>
  <person oid="p2" name="Bob" in_dept="d1 ghost"/>
  <dept oid="d1" has_staff="p1 p2"/>
</db>
)";

struct CheckConfig {
  bool repair = false;
  size_t spill_mb = 64;      // extent-log budget before spilling (MiB)
  ResourceLimits limits;
  uint64_t timeout_ms = 0;  // 0 = no deadline
};

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The repair step, the one place xicheck builds a tree: parse `text`,
// compute the repair and print it. Returns the exit code.
int Repair(const std::string& name, const std::string& text,
           const CheckConfig& config, const Deadline& deadline) {
  XmlParseOptions parse_options;
  parse_options.limits = config.limits;
  parse_options.deadline = deadline;
  Result<SelfDescribingDocument> parsed =
      ParseDocumentWithDtdC(text, parse_options);
  if (!parsed.ok()) {
    std::cerr << name << ": " << parsed.status() << "\n";
    return 2;
  }
  SelfDescribingDocument& doc = parsed.value();
  if (!doc.document.dtd.has_value() || !doc.sigma.has_value()) {
    std::cerr << name << ": changed while it was being checked\n";
    return 2;
  }
  const DtdStructure& dtd = *doc.document.dtd;
  const ConstraintSet& sigma = *doc.sigma;
  Result<RepairReport> repaired =
      RepairDocument(&doc.document.tree, dtd, sigma);
  if (!repaired.ok()) {
    std::cerr << name << ": repair failed: " << repaired.status() << "\n";
    return 2;
  }
  for (const std::string& action : repaired.value().actions) {
    std::cout << "  repair: " << action << "\n";
  }
  if (repaired.value().fully_repaired()) {
    std::cout << name << ": repaired document:\n"
              << WriteDocumentWithDtdC(doc.document.tree, dtd, sigma);
    return 0;
  }
  std::cout << name << ": not fully repairable:\n"
            << repaired.value().remaining.ToString(sigma);
  return 1;
}

// Validates one document streamed from `source`. `read_text` reads the
// whole document back for the repair step, which needs the tree.
int ValidateOne(
    const std::string& name, ByteSource& source, const CheckConfig& config,
    const std::function<std::optional<std::string>()>& read_text) {
  StreamOptions options;
  options.validation.allow_missing_attributes = true;
  options.limits = config.limits;
  options.deadline = config.timeout_ms == 0
                         ? Deadline::Infinite()
                         : Deadline::AfterMillis(config.timeout_ms);
  options.spill_budget_bytes = config.spill_mb << 20;
  SelfDescribingStreamResult r = StreamValidateSelfDescribing(source, options);
  if (!r.outcome.parse.ok()) {
    std::cerr << name << ": " << r.outcome.parse << "\n";
    return 2;
  }
  if (!r.has_dtd) {
    std::cerr << name << ": no DTD in the DOCTYPE; nothing to check\n";
    return 2;
  }
  if (!r.outcome.structure.status.ok()) {
    std::cerr << name << ": " << r.outcome.structure.status << "\n";
    return 2;
  }
  int exit_code = 0;
  std::cout << name << ": structure "
            << (r.outcome.structure.ok() ? "valid" : "INVALID") << "\n";
  if (!r.outcome.structure.ok()) {
    std::cout << r.outcome.structure.ToString();
    exit_code = 1;
  }
  if (!r.sigma.has_value()) {
    std::cout << name << ": no embedded constraints\n";
    return exit_code;
  }
  const ConstraintSet& sigma = *r.sigma;
  if (!r.well_formed.ok()) {
    std::cerr << name << ": constraint block ill-formed: " << r.well_formed
              << "\n";
    return 2;
  }
  if (!r.outcome.constraints.status.ok()) {
    std::cerr << name << ": " << r.outcome.constraints.status << "\n";
    return 2;
  }
  std::cout << name << ": " << sigma.constraints.size() << " constraints, "
            << r.outcome.constraints.violations.size() << " violation(s)\n";
  if (r.outcome.constraints.ok()) return exit_code;
  std::cout << r.outcome.constraints.ToString(sigma);
  if (!config.repair) return 1;
  std::optional<std::string> text = read_text();
  if (!text.has_value()) {
    std::cerr << name << ": cannot open\n";
    return 2;
  }
  return Repair(name, *text, config, options.deadline);
}

}  // namespace

int main(int argc, char** argv) {
  CheckConfig config;
  ObsCliOptions obs_options;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    uint64_t count = 0;
    bool obs_error = false;
    if (ObsParseFlag(argc, argv, &i, &obs_options, &obs_error)) {
      if (obs_error) return 2;
    } else if (arg == "--repair") {
      config.repair = true;
    } else if (arg == "--stream") {
      // Accepted for compatibility: streaming is the only pipeline.
    } else if (arg == "--spill-mb" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) {
        std::cerr << "--spill-mb: not a number: " << argv[i] << "\n";
        return 2;
      }
      if (count > (SIZE_MAX >> 20)) {
        std::cerr << "--spill-mb: too large: " << argv[i] << "\n";
        return 2;
      }
      config.spill_mb = count;
    } else if (arg == "--max-depth" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) {
        std::cerr << "--max-depth: not a number: " << argv[i] << "\n";
        return 2;
      }
      config.limits.max_tree_depth = count;
    } else if (arg == "--max-bytes" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) {
        std::cerr << "--max-bytes: not a number: " << argv[i] << "\n";
        return 2;
      }
      config.limits.max_document_bytes = count;
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) {
        std::cerr << "--timeout-ms: not a number: " << argv[i] << "\n";
        return 2;
      }
      config.timeout_ms = count;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: xicheck [--repair] [--stream] [--spill-mb N] "
                   "[--max-depth N] [--max-bytes N] [--timeout-ms N] "
                   "[--trace-out FILE] [--metrics-out FILE] [--stats] "
                   "[file.xml ...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << arg << ": unknown option\n";
      return 2;
    } else {
      files.push_back(std::move(arg));
    }
  }
  ObsCliSession obs_session(obs_options);
  if (files.empty()) {
    std::cout << "(no files given; checking the built-in demo, which has "
                 "one dangling reference)\n";
    CheckConfig demo = config;
    demo.repair = true;
    StringSource source(kDemo);
    auto demo_text = [] { return std::optional<std::string>(kDemo); };
    int code = ValidateOne("<demo>", source, demo, demo_text) == 2 ? 2 : 0;
    if (!obs_session.Finish()) return 2;
    return code;
  }
  int worst = 0;
  for (const std::string& file : files) {
    Result<FileSource> source = FileSource::Open(file);
    if (!source.ok()) {
      std::cerr << file << ": cannot open\n";
      worst = std::max(worst, 2);
      continue;
    }
    worst = std::max(worst, ValidateOne(file, source.value(), config,
                                     [&] { return ReadFile(file); }));
  }
  if (!obs_session.Finish()) worst = std::max(worst, 2);
  return worst;
}
