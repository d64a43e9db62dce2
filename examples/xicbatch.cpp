// xicbatch: parallel batch validation of a document corpus.
//
// Usage:
//   xicbatch [options] schema.xml [more.xml ...]
//   xicbatch [options] --generate COUNT
//
// Options: --threads N, --max-depth N, --max-bytes N, --timeout-ms N
// (per-document wall-clock budget), --retries N (extra attempts for
// transient failures), --spill-mb N (extent-log budget per document
// before spilling). Every document streams through one pass
// (engine/stream_validator.h); --stream is accepted for compatibility
// and changes nothing. Builds configured with -DXIC_FAULT_INJECTION=ON
// additionally accept --fault-rate P and --fault-seed S (deterministic
// fault injection; see util/fault_injector.h).
//
// The first file must be self-describing (DOCTYPE internal subset, plus
// an optional "<!-- xic:constraints ... -->" block); its DTD^C becomes
// the shared schema the whole corpus is validated against. --generate
// synthesizes COUNT person/dept documents (a fraction carry injected
// violations) and validates those instead.
//
// Per-document failures print in input order -- byte-identical no matter
// how many threads ran -- followed by the batch stats block. Exit code:
// 0 all valid; 1 the batch ran and some documents are invalid; 2 an
// infrastructure failure (usage/schema error, or any document hitting a
// resource limit, deadline, injected fault or exception -- "could not
// check" rather than "invalid").

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "engine/batch_validator.h"
#include "obs_cli.h"
#include "xic.h"

namespace {

using namespace xic;

const char* kGeneratedSchema = R"(<?xml version="1.0"?>
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
<db/>
)";

// A small synthetic db document; every 9th document has a dangling
// in_dept reference and every 13th duplicates a person name.
std::string GenerateDoc(int id) {
  std::string p = std::to_string(id);
  bool dangling = id % 9 == 4;
  bool dup_name = id % 13 == 6;
  std::string xml = "<db>";
  for (int i = 0; i < 8; ++i) {
    std::string oid = "p" + p + "-" + std::to_string(i);
    std::string name =
        dup_name && i == 7 ? "n" + p + "-0" : "n" + p + "-" + std::to_string(i);
    std::string dept =
        dangling && i == 0 ? "ghost" : "d" + p + "-" + std::to_string(i % 2);
    xml += "<person oid=\"" + oid + "\" name=\"" + name + "\" in_dept=\"" +
           dept + "\"/>";
  }
  for (int d = 0; d < 2; ++d) {
    std::string staff;
    for (int i = 0; i < 8; ++i) {
      if (i % 2 != d) continue;
      if (dangling && i == 0) continue;  // keep the inverse consistent
      if (!staff.empty()) staff += " ";
      staff += "p" + p + "-" + std::to_string(i);
    }
    xml += "<dept oid=\"d" + p + "-" + std::to_string(d) + "\" has_staff=\"" +
           staff + "\"/>";
  }
  xml += "</db>";
  return xml;
}

int Usage() {
  std::cout
      << "usage: xicbatch [options] schema.xml [more.xml ...]\n"
         "       xicbatch [options] --generate COUNT\n"
         "options:\n"
         "  --threads N     worker threads (0 = hardware concurrency)\n"
         "  --max-depth N   element nesting limit (0 = unlimited)\n"
         "  --max-bytes N   per-document size limit (0 = unlimited)\n"
         "  --timeout-ms N  per-document wall-clock budget (0 = none)\n"
         "  --retries N     extra attempts for transient failures\n"
         "  --stream        accepted for compatibility (always streams)\n"
         "  --spill-mb N    extent-log budget per document before spilling "
         "(MiB)\n"
         "  --json FILE     write the batch report as JSON\n"
         "  --trace-out FILE    write a Chrome/Perfetto trace of the run\n"
         "  --metrics-out FILE  write the metrics registry as JSON\n"
         "  --stats             print the metrics table to stderr\n"
#ifdef XIC_FAULT_INJECTION
         "  --fault-rate P  inject faults on fraction P of (site, doc)\n"
         "  --fault-seed S  seed for deterministic fault decisions\n"
#endif
         "exit: 0 all valid, 1 some documents invalid, 2 infrastructure/"
         "limit failure\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  size_t threads = 0;  // hardware concurrency
  int generate = 0;
  BatchOptions options;
  ObsCliOptions obs_options;
  std::string json_out;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    uint64_t count = 0;
    bool obs_error = false;
    if (ObsParseFlag(argc, argv, &i, &obs_options, &obs_error)) {
      if (obs_error) return Usage();
    } else if (arg == "--json" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) {
        std::cerr << "--threads: not a number: " << argv[i] << "\n";
        return Usage();
      }
      threads = count;
    } else if (arg == "--max-depth" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) {
        std::cerr << "--max-depth: not a number: " << argv[i] << "\n";
        return Usage();
      }
      options.limits.max_tree_depth = count;
    } else if (arg == "--max-bytes" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) {
        std::cerr << "--max-bytes: not a number: " << argv[i] << "\n";
        return Usage();
      }
      options.limits.max_document_bytes = count;
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) {
        std::cerr << "--timeout-ms: not a number: " << argv[i] << "\n";
        return Usage();
      }
      options.document_timeout_ms = count;
    } else if (arg == "--retries" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) {
        std::cerr << "--retries: not a number: " << argv[i] << "\n";
        return Usage();
      }
      options.max_attempts = count + 1;
    } else if (arg == "--stream") {
      // Accepted for compatibility: streaming is the only pipeline.
    } else if (arg == "--spill-mb" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) {
        std::cerr << "--spill-mb: not a number: " << argv[i] << "\n";
        return Usage();
      }
      if (count > (SIZE_MAX >> 20)) {
        std::cerr << "--spill-mb: too large: " << argv[i] << "\n";
        return Usage();
      }
      options.stream_spill_budget_bytes = static_cast<size_t>(count) << 20;
#ifdef XIC_FAULT_INJECTION
    } else if (arg == "--fault-rate" && i + 1 < argc) {
      char* end = nullptr;
      double rate = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || rate < 0 || rate > 1) {
        std::cerr << "--fault-rate: not a probability: " << argv[i] << "\n";
        return Usage();
      }
      options.faults.rate = rate;
    } else if (arg == "--fault-seed" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) {
        std::cerr << "--fault-seed: not a number: " << argv[i] << "\n";
        return Usage();
      }
      options.faults.seed = count;
#else
    } else if (arg == "--fault-rate" || arg == "--fault-seed") {
      std::cerr << arg << ": fault injection is disabled in this build "
                          "(configure with -DXIC_FAULT_INJECTION=ON)\n";
      return 2;
#endif
    } else if (arg == "--generate" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count) || count > 10'000'000) {
        std::cerr << "--generate: not a valid count: " << argv[i] << "\n";
        return Usage();
      }
      generate = static_cast<int>(count);
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      files.push_back(std::move(arg));
    }
  }
  if ((generate > 0) == !files.empty()) return Usage();

  // The schema document: first file, or the built-in one for --generate.
  std::string schema_text;
  std::string schema_name;
  if (generate > 0) {
    schema_text = kGeneratedSchema;
    schema_name = "<generated>";
  } else {
    std::ifstream in(files[0]);
    if (!in) {
      std::cerr << files[0] << ": cannot open\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    schema_text = buffer.str();
    schema_name = files[0];
  }
  XmlParseOptions schema_parse;
  schema_parse.limits = options.limits;
  Result<SelfDescribingDocument> schema =
      ParseDocumentWithDtdC(schema_text, schema_parse);
  if (!schema.ok()) {
    std::cerr << schema_name << ": " << schema.status() << "\n";
    return 2;
  }
  if (!schema.value().document.dtd.has_value()) {
    std::cerr << schema_name << ": no DTD in the DOCTYPE\n";
    return 2;
  }
  const DtdStructure& dtd = *schema.value().document.dtd;
  ConstraintSet sigma;
  if (schema.value().sigma.has_value()) {
    sigma = *schema.value().sigma;
    if (Status wf = CheckWellFormed(sigma, dtd); !wf.ok()) {
      std::cerr << schema_name << ": constraint block ill-formed: " << wf
                << "\n";
      return 2;
    }
  }

  std::vector<BatchDocument> corpus;
  if (generate > 0) {
    for (int i = 0; i < generate; ++i) {
      corpus.push_back({"gen" + std::to_string(i), GenerateDoc(i)});
    }
  } else {
    for (const std::string& file : files) {
      std::ifstream in(file);
      if (!in) {
        std::cerr << file << ": cannot open\n";
        return 2;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      corpus.push_back({file, buffer.str()});
    }
  }

  options.num_threads = threads;
  options.validation.allow_missing_attributes = true;
  ObsCliSession obs_session(obs_options);
  BatchValidator validator(dtd, sigma, options);
  BatchReport report = validator.Run(corpus);
  std::cout << report.ViolationsToString(sigma);
  std::cout << report.stats.ToString();
  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::binary);
    if (!out) {
      std::cerr << json_out << ": cannot write\n";
      return 2;
    }
    out << report.ToJson(sigma);
  }
  if (!obs_session.Finish()) return 2;
  if (report.any_infrastructure_failure()) return 2;
  return report.all_ok() ? 0 : 1;
}
