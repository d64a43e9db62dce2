// The batch-validation engine: work-stealing pool correctness, and the
// determinism contract -- a batch validated on N threads must produce a
// byte-identical violation report to the sequential run.

#include <atomic>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/constraint_parser.h"
#include "engine/batch_validator.h"
#include "engine/thread_pool.h"

namespace {

using namespace xic;

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, SingleThreadStillDrains) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(777);
  pool.ParallelFor(hits.size(), [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, TasksMaySubmitMoreTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&pool, &counter] {
      counter.fetch_add(1, std::memory_order_relaxed);
      pool.Submit(
          [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    // No Wait(): the destructor must finish the queue before joining.
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, TracksQueueHighWaterMark) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.queue_high_water(), 0u);
  // Block the only worker so further submissions pile up in the deque.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  pool.Submit([gate] { gate.wait(); });
  for (int i = 0; i < 10; ++i) {
    pool.Submit([] {});
  }
  release.set_value();
  pool.Wait();
  EXPECT_GE(pool.queue_high_water(), 10u);
  EXPECT_LE(pool.queue_high_water(), 11u);
}

TEST(ThreadPool, CurrentWorkerIsSetInsideTasksOnly) {
  EXPECT_EQ(ThreadPool::current_worker(), -1);
  ThreadPool pool(3);
  std::atomic<int> bad{0};
  pool.ParallelFor(64, [&](size_t) {
    int worker = ThreadPool::current_worker();
    if (worker < 0 || worker >= 3) bad.fetch_add(1);
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(ThreadPool::current_worker(), -1);
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

}  // namespace
