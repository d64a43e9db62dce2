// Shared main() for every bench_* binary: the usual google-benchmark
// console run, plus machine-readable output via `--json FILE`.
//
// The emitted schema (one object per binary) is what tools/run_benches.sh
// aggregates into BENCH_RESULTS.json:
//
//   {
//     "schema": "xic-bench-v1",
//     "bench": "bench_lid",
//     "results": [
//       {"case": "BM_LidClosure/64", "iters": 1234,
//        "ns_per_op": 5678.9, "metrics": {"sigma": 64.0, ...}},
//       ...
//     ]
//   }
//
// `metrics` carries the benchmark's user counters (per-iteration values
// as google-benchmark reports them). Aggregate rows (mean/median/stddev
// from --benchmark_repetitions) and errored runs are skipped so the file
// holds raw per-case measurements only.
//
// `--json` is stripped before benchmark::Initialize so the standard
// --benchmark_* flags keep working unchanged.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "util/json_writer.h"

namespace {

std::string JsonQuote(const std::string& s) {
  return "\"" + xic::util::JsonWriter::Escape(s) + "\"";
}

std::string FormatDouble(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  return buffer;
}

// Console output as usual, but keep a copy of every run for the JSON
// dump at shutdown.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) runs_.push_back(run);
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

std::string BenchName(const char* argv0) {
  std::string name = argv0;
  size_t slash = name.find_last_of("/\\");
  if (slash != std::string::npos) name = name.substr(slash + 1);
  return name;
}

std::string ToJson(const std::string& bench,
                   const std::vector<CapturingReporter::Run>& runs) {
  std::string out = "{\n  \"schema\": \"xic-bench-v1\",\n";
  out += "  \"bench\": " + JsonQuote(bench) + ",\n";
  out += "  \"results\": [";
  bool first = true;
  for (const auto& run : runs) {
    if (run.error_occurred ||
        run.run_type != CapturingReporter::Run::RT_Iteration) {
      continue;
    }
    double ns_per_op =
        run.iterations > 0
            ? run.real_accumulated_time / static_cast<double>(run.iterations) *
                  1e9
            : 0;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"case\": " + JsonQuote(run.benchmark_name());
    out += ", \"iters\": " + std::to_string(run.iterations);
    out += ", \"ns_per_op\": " + FormatDouble(ns_per_op);
    out += ", \"metrics\": {";
    bool first_counter = true;
    for (const auto& [name, counter] : run.counters) {
      if (!first_counter) out += ", ";
      first_counter = false;
      out += JsonQuote(name) + ": " + FormatDouble(counter.value);
    }
    out += "}}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  args.push_back(nullptr);
  int filtered_argc = static_cast<int>(args.size()) - 1;
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::cerr << json_path << ": cannot write\n";
      return 1;
    }
    out << ToJson(BenchName(argv[0]), reporter.runs());
  }
  benchmark::Shutdown();
  return 0;
}
