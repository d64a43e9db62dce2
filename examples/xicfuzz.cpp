// xicfuzz: the differential-oracle fuzzer.
//
// Usage:
//   xicfuzz [options]                   run seed-driven trials
//   xicfuzz [options] entry.corpus ...  replay committed corpus entries
//
// Options:
//   --oracle NAME   oracle family to run: checker, incremental,
//                   implication, roundtrip, lint, stream, or all
//                   (default all); repeatable
//   --seeds N       first seed of the deterministic seed range (default 1)
//   --trials N      trials per oracle family (default 200)
//   --minimize      delta-debug each mismatch before reporting it
//   --corpus-out D  write each mismatch entry to D/<oracle>-<seed>.corpus
//
// Every trial is reproducible from (oracle, seed) alone; every reported
// mismatch is a self-contained corpus entry replayable without the seed
// (see src/fuzzing/ and DESIGN.md "Differential testing"). Exit code:
// 0 all oracles agree, 1 mismatch found or reproduced, 2 usage/parse
// error.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs_cli.h"
#include "xic.h"

namespace {

using namespace xic;
using namespace xic::fuzz;

void PrintMismatch(const FuzzMismatch& mismatch, const std::string& where) {
  std::cout << "MISMATCH seed " << mismatch.seed << ": " << mismatch.detail
            << "\n";
  if (!where.empty()) {
    std::cout << "  reproducer written to " << where << "\n";
  } else {
    std::cout << "--- reproducer ---\n"
              << WriteCorpusEntry(mismatch.entry) << "--- end ---\n";
  }
}

int ReplayFile(const std::string& file) {
  std::ifstream in(file);
  if (!in) {
    std::cerr << file << ": cannot open\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<CorpusEntry> entry = ParseCorpusEntry(buffer.str());
  if (!entry.ok()) {
    std::cerr << file << ": " << entry.status() << "\n";
    return 2;
  }
  Result<OracleOutcome> outcome = ReplayEntry(entry.value());
  if (!outcome.ok()) {
    std::cerr << file << ": " << outcome.status() << "\n";
    return 2;
  }
  if (outcome.value().mismatch) {
    std::cout << file << ": MISMATCH reproduced: " << outcome.value().detail
              << "\n";
    return 1;
  }
  std::cout << file << ": " << entry.value().oracle
            << (outcome.value().skipped ? " skipped" : " agrees") << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<OracleId> oracles;
  std::vector<std::string> files;
  FuzzOptions options;
  uint64_t first_seed = 1;
  size_t trials = 200;
  std::string corpus_out;
  ObsCliOptions obs_options;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    uint64_t count = 0;
    bool obs_error = false;
    if (ObsParseFlag(argc, argv, &i, &obs_options, &obs_error)) {
      if (obs_error) return 2;
    } else if (arg == "--oracle" && i + 1 < argc) {
      std::string name = argv[++i];
      if (name == "all") {
        oracles.assign(std::begin(kAllOracles), std::end(kAllOracles));
      } else if (std::optional<OracleId> id = ParseOracleName(name);
                 id.has_value()) {
        oracles.push_back(*id);
      } else {
        std::cerr << "--oracle: unknown oracle \"" << name
                  << "\" (expected checker, incremental, implication, "
                     "roundtrip, lint, stream or all)\n";
        return 2;
      }
    } else if (arg == "--seeds" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) {
        std::cerr << "--seeds: not a number: " << argv[i] << "\n";
        return 2;
      }
      first_seed = count;
    } else if (arg == "--trials" && i + 1 < argc) {
      if (!ParseDecimal(argv[++i], &count)) {
        std::cerr << "--trials: not a number: " << argv[i] << "\n";
        return 2;
      }
      trials = count;
    } else if (arg == "--minimize") {
      options.minimize = true;
    } else if (arg == "--corpus-out" && i + 1 < argc) {
      corpus_out = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: xicfuzz [--oracle NAME]... [--seeds N] "
                   "[--trials N] [--minimize] [--corpus-out DIR] "
                   "[--trace-out FILE] [--metrics-out FILE] [--stats] "
                   "[entry.corpus ...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << arg << ": unknown option\n";
      return 2;
    } else {
      files.push_back(std::move(arg));
    }
  }

  ObsCliSession obs_session(obs_options);
  int worst = 0;
  for (const std::string& file : files) {
    worst = std::max(worst, ReplayFile(file));
  }
  if (files.empty() || !oracles.empty()) {
    if (oracles.empty()) {
      oracles.assign(std::begin(kAllOracles), std::end(kAllOracles));
    }
    for (OracleId oracle : oracles) {
      FuzzResult result = RunFuzz(oracle, first_seed, trials, options);
      std::cout << OracleName(oracle) << ": " << result.trials
                << " trial(s), " << result.skipped << " skipped, "
                << result.mismatches.size() << " mismatch(es)\n";
      for (const FuzzMismatch& mismatch : result.mismatches) {
        std::string where;
        if (!corpus_out.empty()) {
          where = corpus_out + "/" + std::string(OracleName(oracle)) + "-" +
                  std::to_string(mismatch.seed) + ".corpus";
          std::ofstream out(where);
          if (!out) {
            std::cerr << where << ": cannot write\n";
            return 2;
          }
          out << WriteCorpusEntry(mismatch.entry);
        }
        PrintMismatch(mismatch, where);
        worst = std::max(worst, 1);
      }
    }
  }
  if (!obs_session.Finish()) worst = std::max(worst, 2);
  return worst;
}
