// Tests for the observability layer (src/obs/): metrics semantics, span
// nesting, deterministic tree rendering across thread counts, and the
// Chrome trace_event exporter.
//
// The deterministic-tree tests are the contract the batch engine's
// instrumentation relies on: the same workload run on 1, 4 and 16
// threads must render to byte-identical tree strings.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "engine/batch_validator.h"
#include "engine/thread_pool.h"
#include "obs/obs.h"
#include "obs_cli.h"
#include "xml/dtdc_io.h"

namespace xic {
namespace {

using obs::Registry;
using obs::ScopedSpan;
using obs::ScopedTraceSession;
using obs::TraceSnapshot;
using obs::Tracer;

#if XIC_OBS_ENABLED

TEST(MetricsTest, CounterAddAndMax) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Add(3);
  counter.Add();
  EXPECT_EQ(counter.value(), 4u);
  counter.RecordMax(2);  // smaller: no effect
  EXPECT_EQ(counter.value(), 4u);
  counter.RecordMax(10);
  EXPECT_EQ(counter.value(), 10u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  obs::Histogram histogram({1.0, 10.0, 100.0});
  // le semantics: a value equal to a bound lands in that bound's bucket.
  histogram.Observe(0.5);    // le 1
  histogram.Observe(1.0);    // le 1 (boundary)
  histogram.Observe(1.0001); // le 10
  histogram.Observe(10.0);   // le 10 (boundary)
  histogram.Observe(99.9);   // le 100
  histogram.Observe(100.0);  // le 100 (boundary)
  histogram.Observe(100.1);  // +inf
  ASSERT_EQ(histogram.num_buckets(), 4u);
  EXPECT_EQ(histogram.bucket(0), 2u);
  EXPECT_EQ(histogram.bucket(1), 2u);
  EXPECT_EQ(histogram.bucket(2), 2u);
  EXPECT_EQ(histogram.bucket(3), 1u);
  EXPECT_EQ(histogram.count(), 7u);
  EXPECT_NEAR(histogram.sum(), 0.5 + 1 + 1.0001 + 10 + 99.9 + 100 + 100.1,
              1e-9);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum(), 0.0);
}

TEST(MetricsTest, HistogramSortsUnorderedBounds) {
  obs::Histogram histogram({100.0, 1.0, 10.0});
  ASSERT_EQ(histogram.bounds().size(), 3u);
  EXPECT_EQ(histogram.bounds()[0], 1.0);
  EXPECT_EQ(histogram.bounds()[2], 100.0);
}

TEST(MetricsTest, RegistryRoundTrip) {
  Registry& registry = Registry::Global();
  registry.ResetAll();
  registry.GetCounter("obs_test.counter").Add(7);
  registry.GetHistogram("obs_test.hist", {1.0, 2.0}).Observe(1.5);
  // Same name returns the same object.
  EXPECT_EQ(registry.GetCounter("obs_test.counter").value(), 7u);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"obs_test.counter\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"obs_test.hist\""), std::string::npos) << json;
  std::string table = registry.ToTable();
  EXPECT_NE(table.find("obs_test.counter"), std::string::npos) << table;
  registry.ResetAll();
  EXPECT_EQ(registry.GetCounter("obs_test.counter").value(), 0u);
}

TEST(MetricsTest, ConcurrentCounterUpdatesSumExactly) {
  obs::Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 10000; ++i) counter.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), 80000u);
}

TEST(TraceTest, NoSessionMeansInactiveSpans) {
  ASSERT_FALSE(Tracer::Global().enabled());
  ScopedSpan span("orphan", "test");
  EXPECT_FALSE(span.active());
}

TEST(TraceTest, SpanNestingWithinThread) {
  ScopedTraceSession session;
  {
    ScopedSpan outer("outer", "test");
    ASSERT_TRUE(outer.active());
    outer.AddInt("n", 1);
    {
      ScopedSpan inner("inner", "test");
      inner.AddString("k", "v");
    }
    ScopedSpan sibling("sibling", "test");
  }
  Tracer::Global().Stop();
  TraceSnapshot snapshot = Tracer::Global().Collect();
  ASSERT_EQ(snapshot.spans.size(), 3u);
  int outer_index = -1, inner_index = -1, sibling_index = -1;
  for (size_t i = 0; i < snapshot.spans.size(); ++i) {
    if (snapshot.spans[i].name == "outer") outer_index = static_cast<int>(i);
    if (snapshot.spans[i].name == "inner") inner_index = static_cast<int>(i);
    if (snapshot.spans[i].name == "sibling") {
      sibling_index = static_cast<int>(i);
    }
  }
  ASSERT_GE(outer_index, 0);
  ASSERT_GE(inner_index, 0);
  ASSERT_GE(sibling_index, 0);
  EXPECT_EQ(snapshot.spans[outer_index].parent, -1);
  EXPECT_EQ(snapshot.spans[inner_index].parent, outer_index);
  EXPECT_EQ(snapshot.spans[sibling_index].parent, outer_index);
  EXPECT_LE(snapshot.spans[outer_index].start_ns,
            snapshot.spans[inner_index].start_ns);
  EXPECT_GE(snapshot.spans[outer_index].end_ns,
            snapshot.spans[inner_index].end_ns);
  ASSERT_EQ(snapshot.spans[outer_index].attrs.size(), 1u);
  EXPECT_EQ(snapshot.spans[outer_index].attrs[0].key, "n");
}

// The same fan-out traced at different thread counts must produce the
// same deterministic tree string.
std::string TraceParallelFanout(size_t threads) {
  Tracer::Global().Start();
  {
    ThreadPool pool(threads);
    pool.ParallelFor(12, [](size_t i) {
      ScopedSpan span("work.item", "test");
      span.SetSeq(static_cast<int64_t>(i));
      span.AddInt("i", static_cast<int64_t>(i));
      ScopedSpan child("work.sub", "test");
      child.SetSeq(static_cast<int64_t>(i));
    });
  }  // pool joined: every worker span is closed
  Tracer::Global().Stop();
  obs::TreeStringOptions options;
  options.root_name = "work.item";
  return obs::DeterministicTreeString(Tracer::Global().Collect(), options);
}

TEST(TraceTest, DeterministicTreeAcrossThreadCounts) {
  std::string one = TraceParallelFanout(1);
  std::string four = TraceParallelFanout(4);
  std::string sixteen = TraceParallelFanout(16);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, sixteen);
  // All 12 items present, in seq order.
  EXPECT_NE(one.find("work.item [test] seq=0"), std::string::npos) << one;
  EXPECT_NE(one.find("work.item [test] seq=11"), std::string::npos) << one;
  EXPECT_NE(one.find("work.sub"), std::string::npos) << one;
}

TEST(TraceTest, BatchValidatorTraceDeterministicAcrossThreadCounts) {
  const char* kSchema =
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE db [\n"
      "<!ELEMENT db (person*)>\n"
      "<!ELEMENT person EMPTY>\n"
      "<!ATTLIST person oid ID #REQUIRED>\n"
      "<!-- xic:constraints language=L_id\n"
      "  id person.oid\n"
      "-->\n"
      "]>\n"
      "<db/>\n";
  XmlParseOptions parse_options;
  Result<SelfDescribingDocument> schema =
      ParseDocumentWithDtdC(kSchema, parse_options);
  ASSERT_TRUE(schema.ok()) << schema.status();
  const DtdStructure& dtd = *schema.value().document.dtd;
  ConstraintSet sigma = *schema.value().sigma;

  std::vector<BatchDocument> corpus;
  for (int i = 0; i < 9; ++i) {
    corpus.push_back({"doc" + std::to_string(i),
                      "<db><person oid=\"p" + std::to_string(i) +
                          "\"/></db>"});
  }

  auto trace = [&](size_t threads) {
    BatchOptions options;
    options.num_threads = threads;
    BatchValidator validator(dtd, sigma, options);
    Tracer::Global().Start();
    BatchReport report = validator.Run(corpus);
    Tracer::Global().Stop();
    EXPECT_TRUE(report.all_ok());
    obs::TreeStringOptions tree_options;
    tree_options.root_name = "batch.document";
    return obs::DeterministicTreeString(Tracer::Global().Collect(),
                                        tree_options);
  };
  std::string one = trace(1);
  std::string four = trace(4);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four);
}

// Byte-exact golden for the Chrome exporter, on a hand-built snapshot so
// the timestamps are fixed.
TEST(ExportTest, ChromeTraceGolden) {
  TraceSnapshot snapshot;
  snapshot.thread_names = {"main", "pool-0"};
  obs::SpanRecord root;
  root.name = "batch.run";
  root.cat = "engine";
  root.start_ns = 1000;
  root.end_ns = 51000;
  root.tid = 0;
  root.parent = -1;
  snapshot.spans.push_back(root);
  obs::SpanRecord doc;
  doc.name = "batch.document";
  doc.cat = "engine";
  doc.start_ns = 2500;
  doc.end_ns = 42500;
  doc.tid = 1;
  doc.parent = 0;
  doc.seq = 3;
  obs::SpanAttr attr;
  attr.key = "vertices";
  attr.kind = obs::SpanAttr::Kind::kInt;
  attr.int_value = 11;
  doc.attrs.push_back(attr);
  obs::SpanAttr label;
  label.key = "doc";
  label.kind = obs::SpanAttr::Kind::kString;
  label.string_value = "a \"b\"";
  doc.attrs.push_back(label);
  snapshot.spans.push_back(doc);

  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"xic\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"main\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"pool-0\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1.000,\"dur\":50.000,"
      "\"name\":\"batch.run\",\"cat\":\"engine\"},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":2.500,\"dur\":40.000,"
      "\"name\":\"batch.document\",\"cat\":\"engine\","
      "\"args\":{\"seq\":3,\"vertices\":11,\"doc\":\"a \\\"b\\\"\"}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(obs::ToChromeTraceJson(snapshot), expected);
}

TEST(ExportTest, DeterministicTreeSortsSiblingsBySeq) {
  TraceSnapshot snapshot;
  snapshot.thread_names = {"main"};
  auto make = [](const char* name, int64_t seq, int32_t parent) {
    obs::SpanRecord span;
    span.name = name;
    span.cat = "test";
    span.seq = seq;
    span.parent = parent;
    return span;
  };
  // Intentionally out of seq order.
  snapshot.spans.push_back(make("item", 2, -1));
  snapshot.spans.push_back(make("item", 0, -1));
  snapshot.spans.push_back(make("item", 1, -1));
  std::string tree = obs::DeterministicTreeString(snapshot);
  size_t p0 = tree.find("seq=0");
  size_t p1 = tree.find("seq=1");
  size_t p2 = tree.find("seq=2");
  ASSERT_NE(p0, std::string::npos);
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
  EXPECT_LT(p0, p1);
  EXPECT_LT(p1, p2);
}

// The serve layer's trace-id propagation contract: spans opened while a
// request id is installed are tagged with it, nested installs restore
// the outer id, and untagged spans stay untagged.
TEST(TraceTest, ScopedTraceIdTagsSpansAndRestores) {
  ScopedTraceSession session;
  EXPECT_EQ(obs::ScopedTraceId::Current(), "");
  {
    obs::ScopedTraceId outer("req-1");
    EXPECT_EQ(obs::ScopedTraceId::Current(), "req-1");
    { ScopedSpan span("tagged", "test"); }
    {
      obs::ScopedTraceId inner("req-2");
      EXPECT_EQ(obs::ScopedTraceId::Current(), "req-2");
    }
    EXPECT_EQ(obs::ScopedTraceId::Current(), "req-1");
  }
  EXPECT_EQ(obs::ScopedTraceId::Current(), "");
  { ScopedSpan span("untagged", "test"); }
  Tracer::Global().Stop();
  TraceSnapshot snapshot = Tracer::Global().Collect();
  ASSERT_EQ(snapshot.spans.size(), 2u);
  for (const obs::SpanRecord& span : snapshot.spans) {
    if (span.name == "tagged") {
      ASSERT_EQ(span.attrs.size(), 1u);
      EXPECT_EQ(span.attrs[0].key, "trace_id");
      EXPECT_EQ(span.attrs[0].string_value, "req-1");
    } else {
      EXPECT_EQ(span.name, "untagged");
      EXPECT_TRUE(span.attrs.empty());
    }
  }
}

// Re-installing the current id (a view into the thread-local itself)
// keeps it: the constructor copies the id before it saves the outer one.
// "req" fits the small-string buffer, where a move leaves no copy behind.
TEST(TraceTest, ScopedTraceIdReinstallsCurrentId) {
  obs::ScopedTraceId outer("req");
  {
    obs::ScopedTraceId same(obs::ScopedTraceId::Current());
    EXPECT_EQ(obs::ScopedTraceId::Current(), "req");
  }
  EXPECT_EQ(obs::ScopedTraceId::Current(), "req");
}

// Boundary observations land in their own le bucket and render as
// cumulative counts end-to-end through a real registry histogram.
TEST(PromTest, RegistryHistogramBoundariesRenderCumulative) {
  Registry::Global().ResetAll();
  obs::Histogram& histogram =
      Registry::Global().GetHistogram("prom_test.lat", {1.0, 10.0});
  histogram.Observe(1.0);   // le="1" (boundary)
  histogram.Observe(10.0);  // le="10" (boundary)
  histogram.Observe(11.0);  // +Inf
  std::string text = obs::PrometheusText(Registry::Global().Snapshot());
  EXPECT_NE(text.find("# TYPE xic_prom_test_lat histogram\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("xic_prom_test_lat_bucket{le=\"1\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("xic_prom_test_lat_bucket{le=\"10\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("xic_prom_test_lat_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("xic_prom_test_lat_count 3\n"), std::string::npos)
      << text;
}

TEST(EngineObsTest, QueueHighWaterMarkIsTracked) {
  Registry::Global().ResetAll();
  ThreadPool pool(2);
  // Submit from outside the pool so tasks pile up in the deques.
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 32);
  size_t high_water = pool.queue_high_water();
  EXPECT_GE(high_water, 1u);
  EXPECT_LE(high_water, 32u);
  EXPECT_EQ(Registry::Global()
                .GetCounter("engine.pool.queue_high_water")
                .value(),
            high_water);
}

// ObsCliSession::Flush is the live-export path: xicd snapshots a running
// daemon's trace and metrics on SIGUSR1 without ending the session.
TEST(ObsCliTest, FlushExportsWithoutStoppingTheSession) {
  ObsCliOptions options;
  options.trace_out = testing::TempDir() + "/obs_cli_flush_trace.json";
  options.metrics_out = testing::TempDir() + "/obs_cli_flush_metrics.json";
  auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };

  ObsCliSession session(options);
  XIC_COUNTER_ADD("obs_cli.flush_probe", 1);
  { ScopedSpan span("obs_cli.before_flush", "test"); }
  ASSERT_TRUE(session.Flush());
  std::string trace_first = read_file(options.trace_out);
  std::string metrics_first = read_file(options.metrics_out);
  EXPECT_NE(trace_first.find("obs_cli.before_flush"), std::string::npos);
  EXPECT_NE(metrics_first.find("obs_cli.flush_probe"), std::string::npos);

  // The session survived the flush: tracing still records, counters
  // still count, and a second export sees the post-flush activity.
  EXPECT_TRUE(Tracer::Global().enabled());
  XIC_COUNTER_ADD("obs_cli.flush_probe", 1);
  { ScopedSpan span("obs_cli.after_flush", "test"); }
  ASSERT_TRUE(session.Finish());
  std::string trace_final = read_file(options.trace_out);
  EXPECT_NE(trace_final.find("obs_cli.before_flush"), std::string::npos);
  EXPECT_NE(trace_final.find("obs_cli.after_flush"), std::string::npos);
  EXPECT_FALSE(Tracer::Global().enabled()) << "Finish did not stop tracing";
}

TEST(ObsCliTest, FlushFailsCleanlyOnUnwritablePath) {
  ObsCliOptions options;
  options.metrics_out = "/nonexistent-dir/metrics.json";
  ObsCliSession session(options);
  EXPECT_FALSE(session.Flush());
  EXPECT_FALSE(session.Finish());
}

#else  // !XIC_OBS_ENABLED

TEST(ObsDisabledTest, ProbesCompileToNoOps) {
  // The macros must not evaluate their arguments when compiled out.
  int evaluations = 0;
  auto touch = [&evaluations] { return ++evaluations; };
  XIC_COUNTER_ADD("off.counter", touch());
  XIC_COUNTER_MAX("off.max", touch());
  XIC_HISTOGRAM_OBSERVE("off.hist", touch(), {1.0});
  EXPECT_EQ(evaluations, 0);

  ScopedTraceSession session;
  ScopedSpan span("off", "test");
  EXPECT_FALSE(span.active());
  EXPECT_FALSE(Tracer::Global().enabled());
  EXPECT_TRUE(Tracer::Global().Collect().spans.empty());
  EXPECT_EQ(obs::ToChromeTraceJson({}), "{\"traceEvents\":[]}\n");
  EXPECT_EQ(Registry::Global().GetCounter("off.counter").value(), 0u);
}

TEST(ObsDisabledTest, ScopedTraceIdIsInert) {
  obs::ScopedTraceId id("ignored");
  EXPECT_EQ(obs::ScopedTraceId::Current(), "");
}

#endif  // XIC_OBS_ENABLED

// ---------------------------------------------------------------------------
// Prometheus exposition and the flight recorder compile (and must pass)
// in both obs builds: stats.prom and debugz are protocol behavior, not
// probes.

TEST(PromTest, NameSanitization) {
  EXPECT_EQ(obs::PrometheusName("serve.request.ms"),
            "xic_serve_request_ms");
  EXPECT_EQ(obs::PrometheusName("a-b c/d"), "xic_a_b_c_d");
  EXPECT_EQ(obs::PrometheusName("ok_name:sub"), "xic_ok_name:sub");
  EXPECT_EQ(obs::PrometheusName("x", ""), "x");
}

// Byte-exact golden on a hand-built snapshot: sorted families, one
// HELP/TYPE pair each, cumulative buckets with a +Inf equal to _count.
TEST(PromTest, ExpositionGolden) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["serve.requests"] = 3;
  snapshot.gauges["serve.cache.bytes"] = 4096;
  snapshot.gauges["serve.load"] = 0.25;
  obs::HistogramSnapshot histogram;
  histogram.bounds = {1.0, 10.0};
  histogram.buckets = {2, 1, 1};  // per-bucket counts incl. overflow
  histogram.count = 4;
  histogram.sum = 13.5;
  snapshot.histograms["serve.request.ms"] = histogram;
  const std::string expected =
      "# HELP xic_serve_cache_bytes serve.cache.bytes\n"
      "# TYPE xic_serve_cache_bytes gauge\n"
      "xic_serve_cache_bytes 4096\n"
      "# HELP xic_serve_load serve.load\n"
      "# TYPE xic_serve_load gauge\n"
      "xic_serve_load 0.25\n"
      "# HELP xic_serve_request_ms serve.request.ms\n"
      "# TYPE xic_serve_request_ms histogram\n"
      "xic_serve_request_ms_bucket{le=\"1\"} 2\n"
      "xic_serve_request_ms_bucket{le=\"10\"} 3\n"
      "xic_serve_request_ms_bucket{le=\"+Inf\"} 4\n"
      "xic_serve_request_ms_sum 13.5\n"
      "xic_serve_request_ms_count 4\n"
      "# HELP xic_serve_requests serve.requests\n"
      "# TYPE xic_serve_requests counter\n"
      "xic_serve_requests 3\n";
  EXPECT_EQ(obs::PrometheusText(snapshot), expected);
}

// A snapshot whose bucket vector lacks the overflow slot still renders
// a mandatory +Inf bucket, reconciled with the count field.
TEST(PromTest, SynthesizesMissingInfBucket) {
  obs::MetricsSnapshot snapshot;
  obs::HistogramSnapshot histogram;
  histogram.bounds = {5.0};
  histogram.buckets = {2};  // no overflow slot
  histogram.count = 3;      // one observation above every bound
  histogram.sum = 20.0;
  snapshot.histograms["h"] = histogram;
  std::string text = obs::PrometheusText(snapshot);
  EXPECT_NE(text.find("xic_h_bucket{le=\"+Inf\"} 3\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("xic_h_count 3\n"), std::string::npos) << text;
}

TEST(FlightRecorderTest, RingWrapsAndSnapshotSortsBySeq) {
  obs::FlightRecorder::Config config;
  config.capacity = 4;
  config.stripes = 1;
  obs::FlightRecorder recorder(config);
  ASSERT_TRUE(recorder.enabled());
  EXPECT_EQ(recorder.capacity(), 4u);
  for (int i = 0; i < 6; ++i) {
    obs::FlightRecorder::Record record;
    record.verb = "v" + std::to_string(i);
    recorder.Add(std::move(record));
  }
  EXPECT_EQ(recorder.recorded(), 6u);
  EXPECT_EQ(recorder.dropped(), 0u);
  std::vector<obs::FlightRecorder::Record> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  // The two oldest records were overwritten in place; the survivors come
  // back merged in sequence order.
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i + 3);
    EXPECT_EQ(records[i].verb, "v" + std::to_string(i + 2));
  }
}

TEST(FlightRecorderTest, CapacityZeroDisablesRecording) {
  obs::FlightRecorder::Config config;
  config.capacity = 0;
  obs::FlightRecorder recorder(config);
  EXPECT_FALSE(recorder.enabled());
  recorder.Add({});  // no-op, not a crash
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_EQ(recorder.DebugString(),
            "flightrec capacity=0 recorded=0 dropped=0 "
            "slow_threshold_us=100000\n");
}

TEST(FlightRecorderTest, DebugStringGolden) {
  obs::FlightRecorder::Config config;
  config.capacity = 2;
  config.stripes = 1;
  config.slow_threshold_us = 5000;
  obs::FlightRecorder recorder(config);
  obs::FlightRecorder::Record fast;
  fast.verb = "validate";
  fast.trace_id = "abc123";
  fast.status = "ok";
  fast.duration_us = 42;
  recorder.Add(std::move(fast));
  obs::FlightRecorder::Record slow;
  slow.verb = "validate";
  slow.trace_id = "def456";
  slow.status = "unavailable";
  slow.duration_us = 9001;
  slow.shed = true;
  slow.fault = true;
  slow.detail = "queue_us=1 compile_us=2 run_us=3";
  recorder.Add(std::move(slow));
  EXPECT_EQ(recorder.DebugString(),
            "flightrec capacity=2 recorded=2 dropped=0 "
            "slow_threshold_us=5000\n"
            "#1 verb=validate trace=abc123 status=ok dur_us=42 "
            "shed=0 fault=0\n"
            "#2 verb=validate trace=def456 status=unavailable "
            "dur_us=9001 shed=1 fault=1 "
            "queue_us=1 compile_us=2 run_us=3\n");
}

TEST(FlightRecorderTest, StripesAreClampedToCapacity) {
  obs::FlightRecorder::Config config;
  config.capacity = 2;
  config.stripes = 8;  // clamped to 2 one-record stripes
  obs::FlightRecorder recorder(config);
  EXPECT_EQ(recorder.capacity(), 2u);
  for (int i = 0; i < 5; ++i) recorder.Add({});
  EXPECT_EQ(recorder.Snapshot().size(), 2u);
}

TEST(FlightRecorderTest, ConcurrentAddsNeverExceedTheBound) {
  obs::FlightRecorder::Config config;
  config.capacity = 32;
  config.stripes = 4;
  obs::FlightRecorder recorder(config);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&recorder] {
      for (int i = 0; i < 500; ++i) {
        obs::FlightRecorder::Record record;
        record.verb = "ping";
        recorder.Add(std::move(record));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Every Add was either retained or dropped-and-counted; the ring never
  // grows past its bound.
  EXPECT_EQ(recorder.recorded(), 2000u);
  EXPECT_LE(recorder.Snapshot().size(), 32u);
  EXPECT_LE(recorder.dropped(), 2000u);
}

}  // namespace
}  // namespace xic
