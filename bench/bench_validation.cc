// Experiment B1: cost of Definition 2.4 validation (structure + G |=
// Sigma) as document size grows, and the engine-vs-naive constraint
// checking ablation (sorted extent logs vs nested loops). The engine
// case keeps its historical name, BM_ConstraintCheckIndexed, so its
// numbers stay comparable across the change of evaluator.

#include <benchmark/benchmark.h>

#include <string>

#include "constraints/checker.h"
#include "constraints/constraint_parser.h"
#include "model/structural_validator.h"
#include "xml/xml_parser.h"

namespace {

using namespace xic;

struct Corpus {
  DtdStructure dtd;
  ConstraintSet sigma;
  DataTree tree;
};

// A catalog of n books with entries, authors, sections and refs; every
// ref points at 3 existing isbns.
Corpus MakeCorpus(int n) {
  Corpus c;
  (void)c.dtd.AddElement("catalog", "(book*)");
  (void)c.dtd.AddElement("book", "(entry, author*, section*, ref)");
  (void)c.dtd.AddElement("entry", "(title, publisher)");
  (void)c.dtd.AddElement("title", "(#PCDATA)");
  (void)c.dtd.AddElement("publisher", "(#PCDATA)");
  (void)c.dtd.AddElement("author", "(#PCDATA)");
  (void)c.dtd.AddElement("text", "(#PCDATA)");
  (void)c.dtd.AddElement("section", "(title, (text|section)*)");
  (void)c.dtd.AddElement("ref", "EMPTY");
  (void)c.dtd.AddAttribute("entry", "isbn", AttrCardinality::kSingle);
  (void)c.dtd.AddAttribute("section", "sid", AttrCardinality::kSingle);
  (void)c.dtd.AddAttribute("ref", "to", AttrCardinality::kSet);
  (void)c.dtd.SetRoot("catalog");
  c.sigma = ParseConstraintSet(
                "key entry.isbn; key section.sid; sfk ref.to -> entry.isbn",
                Language::kLu)
                .value();

  VertexId root = c.tree.AddVertex("catalog");
  for (int i = 0; i < n; ++i) {
    VertexId book = c.tree.AddVertex("book");
    (void)c.tree.AddChildVertex(root, book);
    VertexId entry = c.tree.AddVertex("entry");
    (void)c.tree.AddChildVertex(book, entry);
    c.tree.SetAttribute(entry, "isbn", "isbn" + std::to_string(i));
    VertexId title = c.tree.AddVertex("title");
    (void)c.tree.AddChildVertex(entry, title);
    c.tree.AddChildText(title, "Title " + std::to_string(i));
    VertexId publisher = c.tree.AddVertex("publisher");
    (void)c.tree.AddChildVertex(entry, publisher);
    c.tree.AddChildText(publisher, "P");
    for (int a = 0; a < 2; ++a) {
      VertexId author = c.tree.AddVertex("author");
      (void)c.tree.AddChildVertex(book, author);
      c.tree.AddChildText(author, "Author");
    }
    VertexId section = c.tree.AddVertex("section");
    (void)c.tree.AddChildVertex(book, section);
    c.tree.SetAttribute(section, "sid", "s" + std::to_string(i));
    VertexId stitle = c.tree.AddVertex("title");
    (void)c.tree.AddChildVertex(section, stitle);
    c.tree.AddChildText(stitle, "S");
    VertexId ref = c.tree.AddVertex("ref");
    (void)c.tree.AddChildVertex(book, ref);
    c.tree.SetAttribute(
        ref, "to",
        AttrValue{"isbn" + std::to_string(i),
                  "isbn" + std::to_string((i + 1) % n),
                  "isbn" + std::to_string((i * 7) % n)});
  }
  return c;
}

void BM_StructuralValidation(benchmark::State& state) {
  Corpus c = MakeCorpus(static_cast<int>(state.range(0)));
  StructuralValidator validator(c.dtd);
  for (auto _ : state) {
    ValidationReport report = validator.Validate(c.tree);
    benchmark::DoNotOptimize(report.ok());
  }
  state.SetComplexityN(static_cast<int64_t>(c.tree.size()));
  state.counters["vertices"] = static_cast<double>(c.tree.size());
}
BENCHMARK(BM_StructuralValidation)
    ->RangeMultiplier(8)
    ->Range(8, 32768)
    ->Complexity(benchmark::oN);

void BM_ConstraintCheckIndexed(benchmark::State& state) {
  Corpus c = MakeCorpus(static_cast<int>(state.range(0)));
  ConstraintChecker checker(c.dtd, c.sigma);
  for (auto _ : state) {
    ConstraintReport report = checker.Check(c.tree);
    benchmark::DoNotOptimize(report.ok());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConstraintCheckIndexed)
    ->RangeMultiplier(8)
    ->Range(8, 32768)
    ->Complexity(benchmark::oNLogN);

void BM_ConstraintCheckNaive(benchmark::State& state) {
  // The quadratic baseline; capped range.
  Corpus c = MakeCorpus(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ConstraintReport report = NaiveCheck(c.dtd, c.sigma, c.tree);
    benchmark::DoNotOptimize(report.ok());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConstraintCheckNaive)
    ->RangeMultiplier(4)
    ->Range(8, 2048)
    ->Complexity(benchmark::oNSquared);

}  // namespace
