// Streaming-validation throughput: one synthetic catalog document of
// state.range(0) MiB pushed through the bounded-memory pipeline
// (engine/stream_validator.h), against the materialized
// parse -> structure -> constraints baseline on the same bytes.
//
// The interesting numbers are bytes_per_second (the streaming pipeline
// should be within a small constant of the DOM pipeline -- it does the
// same automaton steps and constraint joins, minus tree construction)
// and peak_rss_mb: the streaming case's high-water mark is dominated by
// the spill budget, not the document, which is the whole point. The
// spill case pins the budget at 1 MiB so every extent log round-trips
// through disk; its overhead over the in-memory case is the price of
// the external sort.
//
// Document sizes are capped at 64 MiB here so the full bench suite
// stays CI-sized; the 1 GiB / RSS-ceiling acceptance run lives in CI's
// stream-smoke step (plain xicheck on a generated file), and the
// README records an RSS-vs-size table measured the same way.

#include <benchmark/benchmark.h>

#include <fstream>
#include <map>
#include <string>

#include "constraints/checker.h"
#include "constraints/constraint_parser.h"
#include "engine/stream_validator.h"
#include "model/structural_validator.h"
#include "xml/xml_parser.h"

namespace {

using namespace xic;

DtdStructure MakeDtd() {
  DtdStructure dtd;
  (void)dtd.AddElement("catalog", "(book*)");
  (void)dtd.AddElement("book", "(title, author*, ref)");
  (void)dtd.AddElement("title", "(#PCDATA)");
  (void)dtd.AddElement("author", "(#PCDATA)");
  (void)dtd.AddElement("ref", "EMPTY");
  (void)dtd.AddAttribute("book", "isbn", AttrCardinality::kSingle);
  (void)dtd.AddAttribute("ref", "to", AttrCardinality::kSet);
  (void)dtd.SetRoot("catalog");
  return dtd;
}

const ConstraintSet& Sigma() {
  static const ConstraintSet sigma =
      ParseConstraintSet("key book.isbn; sfk ref.to -> book.isbn",
                         Language::kLu)
          .value();
  return sigma;
}

// One catalog of roughly `mib` MiB: every key unique, every ref
// resolving to the previous book, so both extent logs fill with the
// document (the worst case for the spill budget) while the verdict
// stays "valid".
const std::string& Doc(int mib) {
  static std::map<int, std::string>* cache = new std::map<int, std::string>;
  auto it = cache->find(mib);
  if (it != cache->end()) return it->second;
  const size_t target = static_cast<size_t>(mib) << 20;
  std::string xml = "<catalog>";
  xml.reserve(target + 256);
  size_t n = 0;
  while (xml.size() < target) {
    std::string id = "i" + std::to_string(n);
    std::string prev = "i" + std::to_string(n == 0 ? 0 : n - 1);
    xml += "<book isbn=\"" + id + "\"><title>Spill sort benchmark row " +
           std::to_string(n) +
           "</title><author>First Author</author><author>Second "
           "Author</author><ref to=\"" +
           prev + "\"/></book>";
    ++n;
  }
  xml += "</catalog>";
  return (*cache)[mib] = std::move(xml);
}

/// VmHWM from /proc/self/status, MiB. Process-wide and monotonic: a
/// case's reading includes every earlier case's peak, so only the first
/// registered bench (the streaming one) reports a meaningful bound.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 10, '\n');
  }
  return 0;
}

void RunStream(benchmark::State& state, size_t spill_budget) {
  static const DtdStructure dtd = MakeDtd();
  const std::string& doc = Doc(static_cast<int>(state.range(0)));
  StreamOptions options;
  options.spill_budget_bytes = spill_budget;
  options.limits.max_document_bytes = 0;  // the bench sets the sizes
  StreamValidator validator(dtd, Sigma(), options);
  size_t spilled = 0;
  for (auto _ : state) {
    StringSource source(doc);
    StreamOutcome outcome = validator.Run(source);
    if (!outcome.ok()) state.SkipWithError("stream verdict not ok");
    spilled = static_cast<size_t>(outcome.stats.spilled_bytes);
    benchmark::DoNotOptimize(outcome.stats.vertices);
  }
  state.SetBytesProcessed(static_cast<int64_t>(doc.size()) *
                          static_cast<int64_t>(state.iterations()));
  state.counters["peak_rss_mb"] = PeakRssMb();
  state.counters["spilled_mb"] =
      static_cast<double>(spilled) / (1 << 20);
}

void BM_StreamValidate(benchmark::State& state) {
  RunStream(state, 64u << 20);  // in-memory extents at bench sizes
}

void BM_StreamValidateSpill(benchmark::State& state) {
  RunStream(state, 1u << 20);  // force the external-sort path
}

void BM_MaterializedValidate(benchmark::State& state) {
  static const DtdStructure dtd = MakeDtd();
  const std::string& doc = Doc(static_cast<int>(state.range(0)));
  StructuralValidator validator(dtd);
  ConstraintChecker checker(dtd, Sigma());
  XmlParseOptions parse;
  parse.dtd = &dtd;
  parse.limits.max_document_bytes = 0;
  for (auto _ : state) {
    Result<XmlDocument> parsed = ParseXml(doc, parse);
    if (!parsed.ok()) state.SkipWithError("parse failed");
    ValidationReport structure =
        validator.Validate(parsed.value().tree);
    ConstraintReport constraints = checker.Check(parsed.value().tree);
    if (!structure.ok() || !constraints.ok()) {
      state.SkipWithError("materialized verdict not ok");
    }
    benchmark::DoNotOptimize(constraints.violations.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(doc.size()) *
                          static_cast<int64_t>(state.iterations()));
  state.counters["peak_rss_mb"] = PeakRssMb();
}

}  // namespace

// Streaming first: VmHWM is monotonic, so only the first family's
// peak_rss_mb isolates the streaming pipeline's footprint.
BENCHMARK(BM_StreamValidate)->Arg(1)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StreamValidateSpill)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MaterializedValidate)->Arg(1)->Arg(16)
    ->Unit(benchmark::kMillisecond);
