// Fault isolation: the deterministic FaultInjector seam, ParallelFor
// exception safety, and the batch engine's contract that a poisoned
// document becomes a per-document outcome -- never a lost batch -- with
// byte-identical reports at any thread count. Ends with the issue's
// acceptance scenario: an adversarial corpus (deep nesting, oversized
// documents, expansion bombs, syntax errors, constraint violations) run
// through BatchValidator with limits and faults enabled.

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/constraint_parser.h"
#include "engine/batch_validator.h"
#include "engine/parallel_for.h"
#include "util/fault_injector.h"

namespace {

using namespace xic;

// -- FaultInjector determinism ----------------------------------------------

TEST(FaultInjector, DecisionsDependOnlyOnSeedSiteKey) {
  FaultConfig config;
  config.seed = 42;
  config.rate = 0.5;
  FaultInjector a(config);
  FaultInjector b(config);
  int faulted = 0;
  for (int i = 0; i < 200; ++i) {
    std::string key = "doc" + std::to_string(i);
    for (const char* site : {"parse", "structure", "constraints"}) {
      EXPECT_EQ(a.Faulted(site, key), b.Faulted(site, key));
      if (a.Faulted(site, key)) ++faulted;
    }
  }
  // Rate 0.5 over 600 decisions: comfortably between the extremes.
  EXPECT_GT(faulted, 100);
  EXPECT_LT(faulted, 500);
}

TEST(FaultInjector, DifferentSeedsDiffer) {
  FaultConfig a_config;
  a_config.seed = 1;
  a_config.rate = 0.5;
  FaultConfig b_config = a_config;
  b_config.seed = 2;
  FaultInjector a(a_config);
  FaultInjector b(b_config);
  int differing = 0;
  for (int i = 0; i < 200; ++i) {
    std::string key = "doc" + std::to_string(i);
    if (a.Faulted("parse", key) != b.Faulted("parse", key)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjector, RateOneFaultsEverythingRateZeroNothing) {
  FaultConfig all;
  all.rate = 1.0;
  FaultConfig none;  // rate 0 by default
  FaultInjector everything(all);
  FaultInjector nothing(none);
  EXPECT_FALSE(nothing.enabled());
  for (int i = 0; i < 50; ++i) {
    std::string key = "k" + std::to_string(i);
    EXPECT_TRUE(everything.Faulted("parse", key));
    EXPECT_FALSE(nothing.Faulted("parse", key));
    EXPECT_TRUE(nothing.MaybeFail("parse", key).ok());
  }
}

TEST(FaultInjector, SiteFilterRestrictsInjection) {
  FaultConfig config;
  config.rate = 1.0;
  config.sites = {"constraints"};
  FaultInjector injector(config);
  EXPECT_FALSE(injector.Faulted("parse", "doc"));
  EXPECT_TRUE(injector.MaybeFail("parse", "doc").ok());
  EXPECT_TRUE(injector.Faulted("constraints", "doc"));
  Status s = injector.MaybeFail("constraints", "doc");
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
}

TEST(FaultInjector, FaultsAreTransient) {
  FaultConfig config;
  config.rate = 1.0;
  config.transient_attempts = 2;
  FaultInjector injector(config);
  EXPECT_EQ(injector.MaybeFail("parse", "doc", 0).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(injector.MaybeFail("parse", "doc", 1).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(injector.MaybeFail("parse", "doc", 2).ok());
}

TEST(FaultInjector, ThrowModeThrows) {
  FaultConfig config;
  config.rate = 1.0;
  config.throw_exceptions = true;
  FaultInjector injector(config);
  EXPECT_THROW(injector.MaybeFail("parse", "doc"), std::runtime_error);
}

// -- ParallelFor exception safety --------------------------------------------

TEST(ParallelForFaults, ParallelForRethrowsInCaller) {
  // 1 runs inline on the caller; 4 runs on worker threads.
  for (size_t threads : {1, 4}) {
    std::vector<std::atomic<int>> hits(64);
    bool threw = false;
    try {
      ParallelFor(threads, hits.size(), [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        if (i == 13) throw std::runtime_error("iteration 13");
      });
    } catch (const std::runtime_error& e) {
      threw = true;
      EXPECT_STREQ(e.what(), "iteration 13");
    }
    EXPECT_TRUE(threw) << threads << " thread(s)";
    // Every other iteration still ran exactly once (no lost work).
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

// -- Batch engine fault isolation -------------------------------------------

DtdStructure CatalogDtd() {
  DtdStructure dtd;
  EXPECT_TRUE(dtd.AddElement("catalog", "(book*)").ok());
  EXPECT_TRUE(dtd.AddElement("book", "(entry, ref)").ok());
  EXPECT_TRUE(dtd.AddElement("entry", "(#PCDATA)").ok());
  EXPECT_TRUE(dtd.AddElement("ref", "EMPTY").ok());
  EXPECT_TRUE(
      dtd.AddAttribute("entry", "isbn", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.AddAttribute("ref", "to", AttrCardinality::kSet).ok());
  EXPECT_TRUE(dtd.SetRoot("catalog").ok());
  return dtd;
}

ConstraintSet CatalogSigma() {
  return ParseConstraintSet("key entry.isbn; sfk ref.to -> entry.isbn",
                            Language::kLu)
      .value();
}

std::string CleanDoc(int id, int books = 2) {
  std::string xml = "<catalog>";
  for (int b = 0; b < books; ++b) {
    std::string isbn = "i" + std::to_string(id) + "-" + std::to_string(b);
    xml += "<book><entry isbn=\"" + isbn + "\">T</entry><ref to=\"" + isbn +
           "\"/></book>";
  }
  xml += "</catalog>";
  return xml;
}

std::vector<BatchDocument> CleanCorpus(int docs) {
  std::vector<BatchDocument> corpus;
  for (int i = 0; i < docs; ++i) {
    corpus.push_back({"doc" + std::to_string(i), CleanDoc(i)});
  }
  return corpus;
}

TEST(BatchFaults, PoisonedDocumentsBecomePerDocumentOutcomes) {
  DtdStructure dtd = CatalogDtd();
  ConstraintSet sigma = CatalogSigma();
  BatchOptions options;
  options.num_threads = 4;
  options.faults.rate = 1.0;  // every document faulted at the parse site
  options.faults.sites = {"parse"};
  BatchValidator validator(dtd, sigma, options);
  std::vector<BatchDocument> corpus = CleanCorpus(20);
  BatchReport report = validator.Run(corpus);
  ASSERT_EQ(report.outcomes.size(), corpus.size());  // batch completed
  for (const DocumentOutcome& outcome : report.outcomes) {
    EXPECT_EQ(outcome.error.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(outcome.infrastructure_failure());
    EXPECT_EQ(outcome.attempts, 1u);
  }
  EXPECT_EQ(report.stats.resource_failures, corpus.size());
  EXPECT_EQ(report.stats.retries, 0u);
  EXPECT_TRUE(report.any_infrastructure_failure());
  EXPECT_FALSE(report.all_ok());
}

TEST(BatchFaults, RetriesRecoverTransientFaults) {
  DtdStructure dtd = CatalogDtd();
  ConstraintSet sigma = CatalogSigma();
  BatchOptions options;
  options.num_threads = 4;
  options.faults.rate = 1.0;
  options.faults.transient_attempts = 1;  // attempt 0 fails, attempt 1 ok
  options.max_attempts = 2;
  BatchValidator validator(dtd, sigma, options);
  std::vector<BatchDocument> corpus = CleanCorpus(20);
  BatchReport report = validator.Run(corpus);
  ASSERT_EQ(report.outcomes.size(), corpus.size());
  for (const DocumentOutcome& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.ok()) << outcome.name << ": " << outcome.error;
    EXPECT_EQ(outcome.attempts, 2u);
  }
  EXPECT_TRUE(report.all_ok());
  EXPECT_FALSE(report.any_infrastructure_failure());
  EXPECT_EQ(report.stats.retries, corpus.size());
  EXPECT_EQ(report.stats.resource_failures, 0u);
}

TEST(BatchFaults, InjectedExceptionsAreCaughtAsInternalErrors) {
  DtdStructure dtd = CatalogDtd();
  ConstraintSet sigma = CatalogSigma();
  BatchOptions options;
  options.num_threads = 4;
  options.faults.rate = 0.5;
  options.faults.seed = 7;
  options.faults.throw_exceptions = true;
  BatchValidator validator(dtd, sigma, options);
  std::vector<BatchDocument> corpus = CleanCorpus(40);
  BatchReport report = validator.Run(corpus);
  ASSERT_EQ(report.outcomes.size(), corpus.size());
  size_t faulted = 0;
  for (const DocumentOutcome& outcome : report.outcomes) {
    if (!outcome.error.ok()) {
      ++faulted;
      EXPECT_EQ(outcome.error.code(), StatusCode::kInternal);
      EXPECT_NE(outcome.error.message().find("injected fault"),
                std::string::npos)
          << outcome.error;
    } else {
      EXPECT_TRUE(outcome.ok());
    }
  }
  EXPECT_GT(faulted, 0u);
  EXPECT_LT(faulted, corpus.size());
  EXPECT_EQ(report.stats.resource_failures, faulted);
}

// -- Acceptance: adversarial corpus, limits + faults, any thread count ------

std::vector<BatchDocument> AdversarialCorpus() {
  std::vector<BatchDocument> corpus;
  // A mix of clean documents...
  for (int i = 0; i < 12; ++i) {
    corpus.push_back({"clean" + std::to_string(i), CleanDoc(i)});
  }
  // ...deeply nested garbage (trips max_tree_depth; small enough to pass
  // the byte limit)...
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "<catalog>";
  for (int i = 0; i < 200; ++i) deep += "</catalog>";
  corpus.push_back({"deep", deep});
  // ...an oversized document (trips max_document_bytes)...
  corpus.push_back({"huge", CleanDoc(999, /*books=*/500)});
  // ...a character-reference expansion bomb: well under the byte limit on
  // the wire, but its expansion exceeds the expansion budget...
  std::string bomb = "<catalog><book><entry isbn=\"";
  for (int i = 0; i < 150; ++i) bomb += "&#88;";
  bomb += "\">T</entry><ref to=\"x\"/></book></catalog>";
  corpus.push_back({"bomb", bomb});
  // ...a syntax error and a constraint violation (ordinary invalidity,
  // NOT infrastructure failures)...
  corpus.push_back({"broken", "<catalog><book></catalog>"});
  std::string dup = "<catalog>";
  for (int b = 0; b < 2; ++b) {
    dup += "<book><entry isbn=\"same\">T</entry><ref to=\"same\"/></book>";
  }
  dup += "</catalog>";
  corpus.push_back({"dup-key", dup});
  return corpus;
}

TEST(BatchFaults, AcceptanceAdversarialCorpusIsDeterministicAcrossThreads) {
  DtdStructure dtd = CatalogDtd();
  ConstraintSet sigma = CatalogSigma();
  std::vector<BatchDocument> corpus = AdversarialCorpus();

  BatchOptions options;  // no per-document timeout: timing-independent
  options.limits.max_tree_depth = 64;
  options.limits.max_document_bytes = 4096;
  options.limits.max_expansion_bytes = 64;
  options.faults.rate = 0.3;
  options.faults.seed = 1234;
  options.max_attempts = 2;

  std::string base;
  BatchStats base_stats;
  for (size_t threads : {1u, 4u, 8u}) {
    options.num_threads = threads;
    BatchValidator validator(dtd, sigma, options);
    BatchReport report = validator.Run(corpus);
    ASSERT_EQ(report.outcomes.size(), corpus.size());

    // The hostile documents must surface structured statuses naming the
    // limit they tripped, not crash or hang.
    for (const DocumentOutcome& outcome : report.outcomes) {
      if (outcome.name == "deep" && outcome.error.ok()) {
        EXPECT_EQ(outcome.parse.limit(), "max_tree_depth") << outcome.parse;
      }
      if (outcome.name == "huge" && outcome.error.ok()) {
        EXPECT_EQ(outcome.parse.limit(), "max_document_bytes");
      }
      if (outcome.name == "bomb" && outcome.error.ok()) {
        EXPECT_EQ(outcome.parse.limit(), "max_expansion_bytes");
      }
      if (outcome.name == "broken" && outcome.error.ok()) {
        EXPECT_FALSE(outcome.parse.ok());
        EXPECT_TRUE(outcome.parse.limit().empty());  // a real syntax error
      }
    }

    std::string text = report.ViolationsToString(sigma);
    EXPECT_FALSE(text.empty());
    if (threads == 1u) {
      base = text;
      base_stats = report.stats;
    } else {
      EXPECT_EQ(text, base) << threads << " threads";
      EXPECT_EQ(report.stats.resource_failures,
                base_stats.resource_failures);
      EXPECT_EQ(report.stats.retries, base_stats.retries);
      EXPECT_EQ(report.stats.parse_failures, base_stats.parse_failures);
      EXPECT_EQ(report.stats.constraint_violating,
                base_stats.constraint_violating);
    }
  }
}

}  // namespace
