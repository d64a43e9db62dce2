// The batch-validation engine: ParallelFor correctness, and the
// determinism contract -- a batch validated on N threads must produce a
// byte-identical violation report to the sequential run.

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/constraint_parser.h"
#include "engine/batch_validator.h"
#include "engine/parallel_for.h"

namespace {

using namespace xic;

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {1, 3, 16}) {
    for (size_t n : {0, 1, 2, 1000}) {
      std::vector<std::atomic<int>> hits(n);
      ParallelFor(threads, n, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " of " << n << " at " << threads
            << " thread(s)";
      }
    }
  }
}

TEST(ParallelForTest, CurrentWorkerIsSetInsideWorkersOnly) {
  EXPECT_EQ(CurrentWorker(), -1);
  for (size_t threads : {1, 3, 16}) {
    for (size_t n : {1, 2, 64}) {
      const int workers = static_cast<int>(std::min(threads, n));
      std::atomic<int> bad{0};
      ParallelFor(threads, n, [&](size_t) {
        int worker = CurrentWorker();
        // One worker runs inline on the caller, which is no worker.
        bool ok = workers == 1 ? worker == -1
                               : worker >= 0 && worker < workers;
        if (!ok) bad.fetch_add(1);
      });
      EXPECT_EQ(bad.load(), 0) << n << " index(es) at " << threads
                               << " thread(s)";
      EXPECT_EQ(CurrentWorker(), -1);
    }
  }
}

TEST(ParallelForTest, ReturnsTheWorkersThatRan) {
  EXPECT_EQ(ParallelFor(16, 3, [](size_t) {}), 3u);
  EXPECT_EQ(ParallelFor(4, 1000, [](size_t) {}), 4u);
  // The inline path runs on the caller, which counts as one.
  EXPECT_EQ(ParallelFor(1, 1000, [](size_t) {}), 1u);
  EXPECT_EQ(ParallelFor(16, 0, [](size_t) {}), 1u);
}

// -- Batch validation corpus ------------------------------------------------

DtdStructure CatalogDtd() {
  DtdStructure dtd;
  EXPECT_TRUE(dtd.AddElement("catalog", "(book*)").ok());
  EXPECT_TRUE(dtd.AddElement("book", "(entry, author*, section*, ref)").ok());
  EXPECT_TRUE(dtd.AddElement("entry", "(title, publisher)").ok());
  EXPECT_TRUE(dtd.AddElement("title", "(#PCDATA)").ok());
  EXPECT_TRUE(dtd.AddElement("publisher", "(#PCDATA)").ok());
  EXPECT_TRUE(dtd.AddElement("author", "(#PCDATA)").ok());
  EXPECT_TRUE(dtd.AddElement("text", "(#PCDATA)").ok());
  EXPECT_TRUE(dtd.AddElement("section", "(title, (text|section)*)").ok());
  EXPECT_TRUE(dtd.AddElement("ref", "EMPTY").ok());
  EXPECT_TRUE(
      dtd.AddAttribute("entry", "isbn", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(
      dtd.AddAttribute("section", "sid", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.AddAttribute("ref", "to", AttrCardinality::kSet).ok());
  EXPECT_TRUE(dtd.SetRoot("catalog").ok());
  return dtd;
}

ConstraintSet CatalogSigma() {
  return ParseConstraintSet(
             "key entry.isbn; key section.sid; sfk ref.to -> entry.isbn",
             Language::kLu)
      .value();
}

BatchOptions Threads(size_t n) {
  BatchOptions options;
  options.num_threads = n;
  return options;
}

// One synthetic catalog document. The flags inject one defect each:
// duplicate entry key, dangling ref.to value, structural violation
// (stray child under <catalog>), or an XML syntax error.
std::string MakeDoc(int id, bool dup_key, bool dangling, bool structural,
                    bool parse_error) {
  std::string xml = "<catalog>";
  const int kBooks = 4;
  for (int b = 0; b < kBooks; ++b) {
    std::string isbn = "i" + std::to_string(id) + "-" +
                       std::to_string(dup_key && b == kBooks - 1 ? 0 : b);
    xml += "<book><entry isbn=\"" + isbn +
           "\"><title>T</title><publisher>P</publisher></entry>";
    xml += "<author>A</author>";
    xml += "<section sid=\"s" + std::to_string(id) + "-" + std::to_string(b) +
           "\"><title>S</title></section>";
    std::string to = "i" + std::to_string(id) + "-0";
    if (dangling && b == 0) to = "ghost";
    xml += "<ref to=\"" + to + "\"/></book>";
  }
  if (structural) xml += "<author>stray</author>";
  xml += "</catalog>";
  if (parse_error) xml += "<trailing/>";
  return xml;
}

std::vector<BatchDocument> MakeCorpus(int docs) {
  std::vector<BatchDocument> corpus;
  for (int i = 0; i < docs; ++i) {
    corpus.push_back({"doc" + std::to_string(i),
                      MakeDoc(i, /*dup_key=*/i % 7 == 3,
                              /*dangling=*/i % 5 == 2,
                              /*structural=*/i % 11 == 6,
                              /*parse_error=*/i % 13 == 9)});
  }
  return corpus;
}

TEST(BatchValidator, CountsDefectsInInputOrder) {
  DtdStructure dtd = CatalogDtd();
  ConstraintSet sigma = CatalogSigma();
  BatchValidator validator(dtd, sigma, Threads(1));
  std::vector<BatchDocument> corpus = MakeCorpus(60);
  BatchReport report = validator.Run(corpus);
  ASSERT_EQ(report.outcomes.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(report.outcomes[i].name, corpus[i].name);
    EXPECT_EQ(report.outcomes[i].parse.ok(), i % 13 != 9) << i;
    if (report.outcomes[i].parse.ok()) {
      EXPECT_EQ(report.outcomes[i].structure.ok(), i % 11 != 6) << i;
      EXPECT_EQ(report.outcomes[i].constraints.ok(),
                i % 7 != 3 && i % 5 != 2)
          << i;
    }
  }
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.stats.documents, 60u);
  EXPECT_GT(report.stats.parse_failures, 0u);
  EXPECT_GT(report.stats.structurally_invalid, 0u);
  EXPECT_GT(report.stats.constraint_violating, 0u);
  EXPECT_GT(report.stats.total_vertices, 0u);
}

TEST(BatchValidator, StatsReportTheWorkersThatRan) {
  DtdStructure dtd = CatalogDtd();
  ConstraintSet sigma = CatalogSigma();
  BatchValidator validator(dtd, sigma, Threads(16));
  BatchReport report = validator.Run(MakeCorpus(3));
  EXPECT_EQ(report.stats.threads, 3u);
  EXPECT_NE(report.stats.ToString().find(" on 3 thread(s)\n"),
            std::string::npos)
      << report.stats.ToString();
}

TEST(BatchValidator, ParallelReportIsByteIdenticalToSequential) {
  DtdStructure dtd = CatalogDtd();
  ConstraintSet sigma = CatalogSigma();
  std::vector<BatchDocument> corpus = MakeCorpus(97);

  BatchValidator sequential(dtd, sigma, Threads(1));
  BatchReport base = sequential.Run(corpus);
  std::string base_text = base.ViolationsToString(sigma);
  EXPECT_FALSE(base_text.empty());

  for (size_t threads : {2u, 4u, 8u, 16u}) {
    BatchValidator parallel(dtd, sigma, Threads(threads));
    BatchReport report = parallel.Run(corpus);
    EXPECT_EQ(report.ViolationsToString(sigma), base_text)
        << threads << " threads";
    EXPECT_EQ(report.stats.parse_failures, base.stats.parse_failures);
    EXPECT_EQ(report.stats.structurally_invalid,
              base.stats.structurally_invalid);
    EXPECT_EQ(report.stats.constraint_violating,
              base.stats.constraint_violating);
    EXPECT_EQ(report.stats.total_violations, base.stats.total_violations);
    EXPECT_EQ(report.stats.total_vertices, base.stats.total_vertices);
  }
}

TEST(BatchValidator, JsonReportIsByteIdenticalAcrossThreadCounts) {
  DtdStructure dtd = CatalogDtd();
  ConstraintSet sigma = CatalogSigma();
  std::vector<BatchDocument> corpus = MakeCorpus(60);

  auto with_faults = [](size_t threads) {
    BatchOptions options = Threads(threads);
    // Deterministic faults: some documents exhaust their retries
    // (faulted + infrastructure failure), others recover on attempt 2
    // (retries recorded); decisions depend only on (seed, site, name,
    // attempt), never on scheduling.
    options.faults.rate = 0.25;
    options.faults.seed = 7;
    options.faults.transient_attempts = 2;
    options.max_attempts = 2;
    return options;
  };

  BatchValidator sequential(dtd, sigma, with_faults(1));
  std::string base = sequential.Run(corpus).ToJson(sigma);
  EXPECT_NE(base.find("\"schema\": \"xic-batch-report-v1\""),
            std::string::npos);
  // The fault mix must actually exercise both annotation paths.
  EXPECT_NE(base.find("\"faulted\": true"), std::string::npos);
  EXPECT_NE(base.find("\"retries\": 1"), std::string::npos);
  EXPECT_NE(base.find("\"verdict\": \"infrastructure_failure\""),
            std::string::npos);

  for (size_t threads : {2u, 4u, 8u, 16u}) {
    BatchValidator parallel(dtd, sigma, with_faults(threads));
    EXPECT_EQ(parallel.Run(corpus).ToJson(sigma), base)
        << threads << " threads";
  }
}

// Regression for the "ok" count underflow: ToString derived ok as
// `documents` minus the four failure buckets, which wraps size_t the
// moment the buckets overlap (one document counted in two buckets, as
// happens when stats are merged or tallied non-exclusively). The count
// must come from the dedicated ok_documents field instead.
TEST(BatchStats, ToStringDoesNotUnderflowOnOverlappingFailureBuckets) {
  BatchStats stats;
  stats.documents = 3;
  stats.ok_documents = 1;
  // Two documents, each both structurally invalid *and* constraint-
  // violating: bucket sum (4) exceeds documents - ok (2).
  stats.structurally_invalid = 2;
  stats.constraint_violating = 2;
  std::string text = stats.ToString();
  EXPECT_NE(text.find("3 document(s), 1 ok"), std::string::npos) << text;
  // The wrapped value starts "18446744..." on 64-bit; make sure no
  // astronomically large count leaked into the rendering.
  EXPECT_EQ(text.find("18446744"), std::string::npos) << text;
}

// End-to-end: documents that fail several ways at once (structural
// violation + duplicate key + dangling ref in the same document) must
// leave stats.ok_documents equal to the number of genuinely clean
// documents at every thread count.
TEST(BatchValidator, OkDocumentsCountedDirectlyWithOverlappingFailures) {
  DtdStructure dtd = CatalogDtd();
  ConstraintSet sigma = CatalogSigma();
  std::vector<BatchDocument> corpus;
  const int kClean = 5, kOverlapping = 4;
  for (int i = 0; i < kClean; ++i) {
    corpus.push_back(
        {"ok" + std::to_string(i), MakeDoc(i, false, false, false, false)});
  }
  for (int i = 0; i < kOverlapping; ++i) {
    corpus.push_back({"multi" + std::to_string(i),
                      MakeDoc(100 + i, /*dup_key=*/true, /*dangling=*/true,
                              /*structural=*/true, /*parse_error=*/false)});
  }
  for (size_t threads : {1u, 4u}) {
    BatchValidator validator(dtd, sigma, Threads(threads));
    BatchReport report = validator.Run(corpus);
    EXPECT_EQ(report.stats.ok_documents, static_cast<size_t>(kClean))
        << threads << " threads";
    EXPECT_EQ(report.stats.documents,
              static_cast<size_t>(kClean + kOverlapping));
    std::string text = report.stats.ToString();
    EXPECT_NE(text.find(std::to_string(kClean) + " ok"), std::string::npos)
        << text;
    EXPECT_EQ(text.find("18446744"), std::string::npos) << text;
  }
}

TEST(BatchValidator, JsonReportEscapesAndClassifies) {
  DtdStructure dtd = CatalogDtd();
  ConstraintSet sigma = CatalogSigma();
  std::vector<BatchDocument> corpus;
  corpus.push_back({"quote\"name", MakeDoc(0, false, true, false, false)});
  BatchValidator validator(dtd, sigma, Threads(1));
  std::string json = validator.Run(corpus).ToJson(sigma);
  EXPECT_NE(json.find("\"quote\\\"name\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"verdict\": \"constraint_violations\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"constraint_violations\": ["), std::string::npos)
      << json;
}

// The report's JSON escaping, byte for byte: a document name and messages
// holding a quote, a backslash, a tab, a carriage return and \x01.
TEST(BatchReport, ToJsonEscapesNamesAndMessagesGolden) {
  ConstraintSet sigma = CatalogSigma();
  const std::string odd = std::string("q\"b\\t\tr\r") + '\x01';
  DocumentOutcome faulted;
  faulted.name = "f" + odd;
  faulted.error = Status::Unavailable("injected " + odd);
  DocumentOutcome unparsed;
  unparsed.name = "p" + odd;
  unparsed.parse = Status::ParseError("line 1: " + odd);
  DocumentOutcome invalid;
  invalid.name = "v" + odd;
  invalid.vertices = 3;
  invalid.structure.violations.push_back({2, "bad " + odd});
  invalid.constraints.violations.push_back({0, "dup " + odd, {}, {}});
  BatchReport report;
  report.outcomes = {faulted, unparsed, invalid};
  report.stats.documents = 3;
  const std::string golden =
      R"({)" "\n"
      R"(  "schema": "xic-batch-report-v1",)" "\n"
      R"(  "documents": [)" "\n"
      R"(    {"name": "fq\"b\\t\tr\r\u0001", )"
      R"("verdict": "infrastructure_failure", "attempts": 1, )"
      R"("retries": 0, "vertices": 0, "timed_out": false, )"
      R"("faulted": true, "error": {"code": "Unavailable", )"
      R"("message": "injected q\"b\\t\tr\r\u0001"}},)" "\n"
      R"(    {"name": "pq\"b\\t\tr\r\u0001", "verdict": "parse_error", )"
      R"("attempts": 1, "retries": 0, "vertices": 0, )"
      R"("timed_out": false, "faulted": false, )"
      R"("parse_error": "ParseError: line 1: q\"b\\t\tr\r\u0001"},)" "\n"
      R"(    {"name": "vq\"b\\t\tr\r\u0001", )"
      R"("verdict": "invalid_structure", "attempts": 1, "retries": 0, )"
      R"("vertices": 3, "timed_out": false, "faulted": false, )"
      R"("structure_violations": [{"vertex": 2, )"
      R"("message": "bad q\"b\\t\tr\r\u0001"}], )"
      R"("constraint_violations": [{"constraint": "entry.isbn -> entry")"
      R"(, "message": "dup q\"b\\t\tr\r\u0001"}]})" "\n"
      R"(  ],)" "\n"
      R"(  "stats": {"documents": 3, "ok_documents": 0, )"
      R"("parse_failures": 0, "structurally_invalid": 0, )"
      R"("constraint_violating": 0, "resource_failures": 0, )"
      R"("retries": 0, "total_vertices": 0, "total_violations": 0})" "\n"
      R"(})" "\n";
  EXPECT_EQ(report.ToJson(sigma), golden);
}

TEST(BatchValidator, CleanCorpusIsAllOk) {
  DtdStructure dtd = CatalogDtd();
  ConstraintSet sigma = CatalogSigma();
  BatchValidator validator(dtd, sigma, Threads(4));
  std::vector<BatchDocument> corpus;
  for (int i = 0; i < 40; ++i) {
    corpus.push_back(
        {"ok" + std::to_string(i), MakeDoc(i, false, false, false, false)});
  }
  BatchReport report = validator.Run(corpus);
  EXPECT_TRUE(report.all_ok()) << report.ViolationsToString(sigma);
  EXPECT_EQ(report.stats.total_violations, 0u);
  EXPECT_EQ(report.ViolationsToString(sigma), "");
}

// cpu_seconds is thread CPU time: on one thread it is positive and no
// larger than the run's wall time, and the stage line reports it.
TEST(BatchValidator, CpuSecondsFitsInWallTimeOnOneThread) {
  DtdStructure dtd = CatalogDtd();
  ConstraintSet sigma = CatalogSigma();
  BatchValidator validator(dtd, sigma, Threads(1));
  BatchReport report = validator.Run(MakeCorpus(200));
  double summed = 0;
  for (const DocumentOutcome& o : report.outcomes) summed += o.cpu_seconds;
  EXPECT_EQ(report.stats.cpu_seconds, summed);
  EXPECT_GT(report.stats.cpu_seconds, 0);
  EXPECT_LE(report.stats.cpu_seconds, report.stats.wall_seconds + 1e-3);
  EXPECT_NE(report.stats.ToString().find(", cpu "), std::string::npos);
}

}  // namespace
