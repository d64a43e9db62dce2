// Batch-validation engine throughput: a fixed corpus of catalog documents
// pushed through parse -> structure -> constraints at 1..8 worker
// threads. The interesting numbers are docs/s scaling vs the
// single-threaded baseline (the engine's report is byte-identical at any
// thread count, so the speedup is free of semantic drift).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "constraints/constraint_parser.h"
#include "engine/batch_validator.h"

namespace {

using namespace xic;

DtdStructure MakeDtd() {
  DtdStructure dtd;
  (void)dtd.AddElement("catalog", "(book*)");
  (void)dtd.AddElement("book", "(entry, author*, section*, ref)");
  (void)dtd.AddElement("entry", "(title, publisher)");
  (void)dtd.AddElement("title", "(#PCDATA)");
  (void)dtd.AddElement("publisher", "(#PCDATA)");
  (void)dtd.AddElement("author", "(#PCDATA)");
  (void)dtd.AddElement("text", "(#PCDATA)");
  (void)dtd.AddElement("section", "(title, (text|section)*)");
  (void)dtd.AddElement("ref", "EMPTY");
  (void)dtd.AddAttribute("entry", "isbn", AttrCardinality::kSingle);
  (void)dtd.AddAttribute("section", "sid", AttrCardinality::kSingle);
  (void)dtd.AddAttribute("ref", "to", AttrCardinality::kSet);
  (void)dtd.SetRoot("catalog");
  return dtd;
}

// One catalog of `books` books; every ref resolves, every key is unique.
std::string MakeDoc(int id, int books) {
  std::string xml = "<catalog>";
  for (int b = 0; b < books; ++b) {
    std::string isbn =
        "i" + std::to_string(id) + "-" + std::to_string(b);
    xml += "<book><entry isbn=\"" + isbn +
           "\"><title>Title " + std::to_string(b) +
           "</title><publisher>P</publisher></entry>";
    xml += "<author>Author One</author><author>Author Two</author>";
    xml += "<section sid=\"s" + std::to_string(id) + "-" +
           std::to_string(b) + "\"><title>S</title><text>body</text>"
           "</section>";
    xml += "<ref to=\"" + isbn + " i" + std::to_string(id) + "-" +
           std::to_string((b + 1) % books) + "\"/></book>";
  }
  xml += "</catalog>";
  return xml;
}

const std::vector<BatchDocument>& Corpus() {
  static const std::vector<BatchDocument>* corpus = [] {
    auto* docs = new std::vector<BatchDocument>;
    const int kDocs = 256;  // >= 200-document corpus per EXPERIMENTS.md
    const int kBooksPerDoc = 32;
    for (int i = 0; i < kDocs; ++i) {
      docs->push_back({"doc" + std::to_string(i), MakeDoc(i, kBooksPerDoc)});
    }
    return docs;
  }();
  return *corpus;
}

void BM_BatchValidate(benchmark::State& state) {
  static const DtdStructure dtd = MakeDtd();
  static const ConstraintSet sigma =
      ParseConstraintSet(
          "key entry.isbn; key section.sid; sfk ref.to -> entry.isbn",
          Language::kLu)
          .value();
  const std::vector<BatchDocument>& corpus = Corpus();
  BatchOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  BatchValidator validator(dtd, sigma, options);
  // Accumulate instead of DoNotOptimize(lvalue): GCC's "+m,r" constraint
  // in the non-const overload miscompiles at -O2 (google/benchmark#1340)
  // and leaves the local holding garbage after the loop.
  size_t violations = 0;
  for (auto _ : state) {
    BatchReport report = validator.Run(corpus);
    violations += report.stats.total_violations;
    benchmark::ClobberMemory();
  }
  if (violations != 0) state.SkipWithError("corpus unexpectedly invalid");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.size()));
  state.counters["threads"] = static_cast<double>(state.range(0));
}
// MinTime keeps the per-arg run from collapsing to a single iteration:
// one batch over the 256-document corpus takes ~100 ms, and benchmark's
// default budget was satisfied by the very first timing sample, so the
// published docs/s was a one-shot measurement (noisy, and blind to
// steady-state effects like reused buffers). Two seconds buys a
// double-digit iteration count at every thread setting.
BENCHMARK(BM_BatchValidate)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->MinTime(2.0)
    ->Unit(benchmark::kMillisecond);

}  // namespace
