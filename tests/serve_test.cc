// xicd's serving stack, bottom-up: wire protocol framing, the hot-plan
// cache (single-flight, negative TTL, LRU churn), the dispatcher
// (byte-identical cache hits, deterministic load-shed under injected
// faults at 1/4/16 threads, retry-with-backoff, session reaping), and
// the socket server (end-to-end exchange, graceful drain losing zero
// queued responses, explicit queue-overflow shedding).
//
// Everything except the ServerTest fixtures is socket-free: the
// dispatcher is exercised in-process so the determinism assertions are
// about the serving logic, not kernel scheduling.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/thread_pool.h"
#include "serve/dispatcher.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session_registry.h"
#include "xml/dtdc_io.h"

namespace xic::serve {
namespace {

// ---------------------------------------------------------------------------
// Fixtures

constexpr char kSchema[] = R"(<?xml version="1.0"?>
<!DOCTYPE bib [
<!ELEMENT bib (entry*)>
<!ELEMENT entry EMPTY>
<!ATTLIST entry isbn CDATA #REQUIRED>
<!-- xic:constraints
key entry.isbn
-->
]>
<bib/>
)";

constexpr char kValidDoc[] = R"(<?xml version="1.0"?>
<!DOCTYPE bib [
<!ELEMENT bib (entry*)>
<!ELEMENT entry EMPTY>
<!ATTLIST entry isbn CDATA #REQUIRED>
<!-- xic:constraints
key entry.isbn
-->
]>
<bib><entry isbn="1"/><entry isbn="2"/></bib>
)";

constexpr char kViolatingDoc[] = R"(<?xml version="1.0"?>
<!DOCTYPE bib [
<!ELEMENT bib (entry*)>
<!ELEMENT entry EMPTY>
<!ATTLIST entry isbn CDATA #REQUIRED>
<!-- xic:constraints
key entry.isbn
-->
]>
<bib><entry isbn="1"/><entry isbn="1"/></bib>
)";

Request MakeRequest(const std::string& verb, const std::string& body,
                    std::map<std::string, std::string> headers = {}) {
  Request request;
  request.verb = verb;
  request.body = body;
  request.body_length = body.size();
  request.headers = std::move(headers);
  return request;
}

PlanPtr MakeDummyPlan(const std::string& key, size_t bytes) {
  auto plan = std::make_shared<CompiledPlan>();
  plan->key = key;
  plan->bytes = bytes;
  return plan;
}

// ---------------------------------------------------------------------------
// Protocol

TEST(ProtocolTest, RequestRoundtrip) {
  Request request = MakeRequest("validate", "<bib/>",
                                {{"id", "r1"}, {"schema", "abc"}});
  std::string wire = FormatRequest(request);
  size_t eol = wire.find('\n');
  ASSERT_NE(eol, std::string::npos);
  Result<Request> parsed = ParseRequestLine(wire.substr(0, eol));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().verb, "validate");
  EXPECT_EQ(parsed.value().body_length, 6u);
  EXPECT_EQ(parsed.value().id(), "r1");
  EXPECT_EQ(parsed.value().header("schema"), "abc");
  EXPECT_EQ(parsed.value().header("missing", "fb"), "fb");
  EXPECT_EQ(wire.substr(eol + 1), "<bib/>");
}

TEST(ProtocolTest, RejectsMalformedFrames) {
  EXPECT_FALSE(ParseRequestLine("").ok());
  EXPECT_FALSE(ParseRequestLine("http/1 get 0").ok());
  EXPECT_FALSE(ParseRequestLine("xic/1").ok());
  EXPECT_FALSE(ParseRequestLine("xic/1 ping").ok());
  EXPECT_FALSE(ParseRequestLine("xic/1 ping abc").ok());
  EXPECT_FALSE(ParseRequestLine("xic/1 ping -1").ok());
  EXPECT_FALSE(ParseRequestLine("xic/1 ping 0 noequals").ok());
  EXPECT_FALSE(
      ParseRequestLine("xic/1 ping 99999999999999999999999").ok());
}

TEST(ProtocolTest, WireCodesRoundtrip) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kParseError, StatusCode::kValidationError,
        StatusCode::kNotSupported, StatusCode::kResourceExhausted,
        StatusCode::kDeadlineExceeded, StatusCode::kUnavailable,
        StatusCode::kInternal}) {
    EXPECT_EQ(ParseWireCode(WireCode(code)), code);
  }
}

TEST(ProtocolTest, ResponseRoundtripAndHeaderSanitizing) {
  Response response = ErrorResponse(
      Status::InvalidArgument("bad value = x\nsecond line"));
  std::string wire = FormatResponse(response);
  size_t eol = wire.find('\n');
  Result<ResponseHead> head = ParseResponseLine(wire.substr(0, eol));
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(head.value().code, StatusCode::kInvalidArgument);
  // The message was sanitized into a single header token: no spaces,
  // '=' or control characters that would corrupt the frame.
  const std::string& error = head.value().headers.at("error");
  EXPECT_EQ(error.find(' '), std::string::npos);
  EXPECT_EQ(error.find('\n'), std::string::npos);
  EXPECT_NE(error.find("bad"), std::string::npos);
}

// ---------------------------------------------------------------------------
// PlanCache

TEST(PlanCacheTest, SingleFlightCompilesOnce) {
  PlanCache cache;
  std::atomic<int> compiles{0};
  auto compiler = [&](const std::string& key) -> Result<PlanPtr> {
    compiles.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return MakeDummyPlan(key, 100);
  };
  std::vector<std::thread> threads;
  std::vector<PlanPtr> plans(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      Result<PlanPtr> plan = cache.GetOrCompile("k", compiler);
      ASSERT_TRUE(plan.ok());
      plans[i] = plan.value();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(compiles.load(), 1);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(plans[i], plans[0]);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_GE(cache.stats().single_flight_waits, 1u);
}

TEST(PlanCacheTest, NegativeCacheServesFailureUntilTtlExpires) {
  PlanCache::Config config;
  config.negative_ttl_ms = 100;
  PlanCache cache(config);
  std::atomic<int> compiles{0};
  auto poison = [&](const std::string&) -> Result<PlanPtr> {
    compiles.fetch_add(1);
    return Status::ParseError("poison DTD");
  };
  // First call compiles and fails; the failure is cached.
  bool hit = true;
  Result<PlanPtr> first = cache.GetOrCompile("bad", poison, &hit);
  EXPECT_FALSE(first.ok());
  EXPECT_FALSE(hit);
  // Hammering within the TTL never re-compiles (no stampede).
  for (int i = 0; i < 20; ++i) {
    Result<PlanPtr> again = cache.GetOrCompile("bad", poison, &hit);
    EXPECT_FALSE(again.ok());
    EXPECT_EQ(again.status().code(), StatusCode::kParseError);
    EXPECT_TRUE(hit);
  }
  EXPECT_EQ(compiles.load(), 1);
  EXPECT_EQ(cache.stats().negative_hits, 20u);
  // After the TTL the schema gets a fresh chance.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(cache.GetOrCompile("bad", poison, &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(compiles.load(), 2);
}

TEST(PlanCacheTest, LruEvictionRespectsByteBudget) {
  PlanCache::Config config;
  config.max_bytes = 100;
  PlanCache cache(config);
  auto sized = [](size_t bytes) {
    return [bytes](const std::string& key) -> Result<PlanPtr> {
      return MakeDummyPlan(key, bytes);
    };
  };
  ASSERT_TRUE(cache.GetOrCompile("a", sized(60)).ok());
  EXPECT_NE(cache.Lookup("a"), nullptr);
  // Inserting b crosses the budget; a (LRU) is evicted.
  ASSERT_TRUE(cache.GetOrCompile("b", sized(60)).ok());
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("b"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.bytes(), 100u);
  // An oversized plan is still admitted (usable until the next insert).
  ASSERT_TRUE(cache.GetOrCompile("big", sized(500)).ok());
  EXPECT_NE(cache.Lookup("big"), nullptr);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(PlanCacheTest, LookupTouchesLruOrder) {
  PlanCache::Config config;
  config.max_bytes = 120;
  PlanCache cache(config);
  auto sized = [](size_t bytes) {
    return [bytes](const std::string& key) -> Result<PlanPtr> {
      return MakeDummyPlan(key, bytes);
    };
  };
  ASSERT_TRUE(cache.GetOrCompile("a", sized(60)).ok());
  ASSERT_TRUE(cache.GetOrCompile("b", sized(60)).ok());
  // Touch a so b becomes the LRU victim.
  EXPECT_NE(cache.Lookup("a"), nullptr);
  ASSERT_TRUE(cache.GetOrCompile("c", sized(60)).ok());
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
}

// Concurrent insert / evict / negative / single-flight churn. The
// assertions are loose; the value of the test is that TSan (the tsan
// preset runs this suite) sees every interleaving the pool generates.
TEST(PlanCacheTest, ChurnUnderConcurrencyIsClean) {
  PlanCache::Config config;
  config.max_bytes = 300;  // forces constant eviction
  config.negative_ttl_ms = 5;
  PlanCache cache(config);
  std::atomic<int> compiles{0};
  auto compiler = [&](const std::string& key) -> Result<PlanPtr> {
    compiles.fetch_add(1);
    if (key == "poison") return Status::ParseError("poison");
    return MakeDummyPlan(key, 100);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 60; ++i) {
        std::string key = (i % 7 == 0)
                              ? "poison"
                              : "k" + std::to_string((t + i) % 5);
        Result<PlanPtr> plan = cache.GetOrCompile(key, compiler);
        EXPECT_EQ(plan.ok(), key != "poison");
        cache.Lookup("k0");
        if (i % 25 == 0) cache.Clear();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(compiles.load(), 0);
  EXPECT_LE(cache.bytes(), 300u);
}

// A compiler that throws (FaultInjector --fault-throw, bad_alloc) must
// still land the flight: the thrower sees the exception, concurrent
// waiters get a negative entry, and the key never wedges in kCompiling
// with flight_done_ unnotified.
TEST(PlanCacheTest, ThrowingCompilerDoesNotWedgeSingleFlight) {
  PlanCache::Config config;
  config.negative_ttl_ms = 60000;  // no expiry within the test
  PlanCache cache(config);
  std::atomic<int> compiles{0};
  auto throwing = [&](const std::string&) -> Result<PlanPtr> {
    compiles.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    throw std::runtime_error("injected compiler crash");
  };
  std::atomic<int> threw{0};
  std::atomic<int> negative{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      try {
        Result<PlanPtr> plan = cache.GetOrCompile("crash", throwing);
        if (!plan.ok()) negative.fetch_add(1);
      } catch (const std::runtime_error&) {
        threw.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Exactly one thread compiled (and got the exception); the waiters
  // were woken and served the negative entry instead of deadlocking.
  EXPECT_EQ(compiles.load(), 1);
  EXPECT_EQ(threw.load(), 1);
  EXPECT_EQ(negative.load(), 3);
  // The key is not wedged: a later request is a negative hit, not an
  // infinite flight_done_ wait.
  bool hit = false;
  Result<PlanPtr> cached = cache.GetOrCompile("crash", throwing);
  EXPECT_FALSE(cached.ok());
  EXPECT_EQ(cached.status().code(), StatusCode::kInternal);
  EXPECT_EQ(compiles.load(), 1);
  // And Clear() can retire it (it is negative, not kCompiling), after
  // which a healthy compiler succeeds.
  cache.Clear();
  auto healthy = [](const std::string& key) -> Result<PlanPtr> {
    return MakeDummyPlan(key, 10);
  };
  Result<PlanPtr> recovered = cache.GetOrCompile("crash", healthy, &hit);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(hit);
}

// Negative entries are bounded by count: a stream of distinct poison
// schemas (or bogus keys from malformed requests) cannot grow the table
// for the life of the daemon, and expired failures are swept when the
// next failure lands even if their key is never looked up again.
TEST(PlanCacheTest, NegativeEntriesAreBoundedAndSwept) {
  PlanCache::Config config;
  config.negative_ttl_ms = 60000;
  config.max_negative_entries = 4;
  PlanCache cache(config);
  auto poison = [](const std::string&) -> Result<PlanPtr> {
    return Status::ParseError("poison");
  };
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(
        cache.GetOrCompile("bad" + std::to_string(i), poison).ok());
  }
  EXPECT_LE(cache.entries(), 4u);
  // The newest failure is still served from the cache...
  bool hit = false;
  EXPECT_FALSE(cache.GetOrCompile("bad63", poison, &hit).ok());
  EXPECT_TRUE(hit);
  // ...while the oldest was dropped (recompiling it is a miss).
  EXPECT_FALSE(cache.GetOrCompile("bad0", poison, &hit).ok());
  EXPECT_FALSE(hit);

  // Expired negatives are swept on the next landing, not retained until
  // their own key happens to be requested again.
  PlanCache::Config ttl_config;
  ttl_config.negative_ttl_ms = 10;
  PlanCache ttl_cache(ttl_config);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(
        ttl_cache.GetOrCompile("p" + std::to_string(i), poison).ok());
  }
  EXPECT_EQ(ttl_cache.entries(), 8u);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(ttl_cache.GetOrCompile("fresh", poison).ok());
  EXPECT_EQ(ttl_cache.entries(), 1u);
}

// ---------------------------------------------------------------------------
// Dispatcher

DispatcherOptions FastOptions() {
  DispatcherOptions options;
  options.retry_after_ms = 7;
  options.backoff.initial_delay_ms = 1;
  options.backoff.max_delay_ms = 2;
  return options;
}

TEST(DispatcherTest, PingAndUnknownVerb) {
  Dispatcher dispatcher(FastOptions());
  Response pong = dispatcher.Handle(MakeRequest("ping", ""));
  EXPECT_TRUE(pong.status.ok());
  EXPECT_EQ(pong.body, "pong\n");
  Response bad = dispatcher.Handle(MakeRequest("frobnicate", ""));
  EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument);
}

TEST(DispatcherTest, CacheHitReportIsByteIdenticalToColdCompile) {
  // Cold compile on a fresh dispatcher...
  Dispatcher cold(FastOptions());
  Response cold_response = cold.Handle(
      MakeRequest("validate", kViolatingDoc, {{"id", "r1"}}));
  EXPECT_EQ(cold_response.headers.at("cache"), "miss");
  ASSERT_FALSE(cold_response.body.empty());

  // ...and a warmed dispatcher serving the same request from the cache
  // must produce the same report bytes. Header-wise only `cache`
  // differs.
  Dispatcher warm(FastOptions());
  Response warmed =
      warm.Handle(MakeRequest("schema.put", kSchema, {{"id", "warm"}}));
  ASSERT_TRUE(warmed.status.ok()) << warmed.status.ToString();
  Response hit_response = warm.Handle(
      MakeRequest("validate", kViolatingDoc, {{"id", "r1"}}));
  EXPECT_EQ(hit_response.headers.at("cache"), "hit");
  EXPECT_EQ(hit_response.body, cold_response.body);
  EXPECT_EQ(hit_response.headers.at("verdict"),
            cold_response.headers.at("verdict"));
  EXPECT_EQ(hit_response.headers.at("schema"),
            cold_response.headers.at("schema"));

  // Repeat on the same dispatcher: second hit, still identical.
  Response again = warm.Handle(
      MakeRequest("validate", kViolatingDoc, {{"id", "r1"}}));
  EXPECT_EQ(again.body, cold_response.body);
}

TEST(DispatcherTest, ValidateStreamMatchesValidateByteForByte) {
  // The streaming verb must produce the same report bytes and verdict
  // as the materialized one -- only the mode header differs -- for an
  // ok document, a violating document, and a parse failure.
  Dispatcher dispatcher(FastOptions());
  const char* docs[] = {kValidDoc, kViolatingDoc,
                        "<!DOCTYPE bib [ <!ELEMENT bib EMPTY> ]><bib>"};
  for (const char* doc : docs) {
    Response dom = dispatcher.Handle(
        MakeRequest("validate", doc, {{"id", "r1"}}));
    Response stream = dispatcher.Handle(
        MakeRequest("validate.stream", doc, {{"id", "r1"}}));
    EXPECT_EQ(stream.body, dom.body);
    EXPECT_EQ(stream.status.ToString(), dom.status.ToString());
    EXPECT_EQ(stream.headers.at("mode"), "stream");
    EXPECT_EQ(dom.headers.count("mode"), 0u);
    auto verdict = dom.headers.find("verdict");
    if (verdict != dom.headers.end()) {
      EXPECT_EQ(stream.headers.at("verdict"), verdict->second);
    }
    EXPECT_EQ(stream.headers.at("schema"), dom.headers.at("schema"));
  }
  // Both verbs share one compiled plan: the stream request after the
  // materialized one is a cache hit.
  Response hit = dispatcher.Handle(
      MakeRequest("validate.stream", kValidDoc, {{"id", "r2"}}));
  EXPECT_EQ(hit.headers.at("cache"), "hit");
}

TEST(DispatcherTest, SchemaHeaderSkipsDoctypeRequirement) {
  Dispatcher dispatcher(FastOptions());
  Response put = dispatcher.Handle(MakeRequest("schema.put", kSchema));
  ASSERT_TRUE(put.status.ok()) << put.status.ToString();
  std::string schema = put.headers.at("schema");
  Response ok = dispatcher.Handle(MakeRequest(
      "validate", "<bib><entry isbn=\"9\"/></bib>", {{"schema", schema}}));
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(ok.headers.at("verdict"), "ok");
  EXPECT_EQ(ok.headers.at("cache"), "hit");
  // Unknown hash: explicit invalid-argument, not a silent recompile.
  Response unknown = dispatcher.Handle(MakeRequest(
      "validate", "<bib/>", {{"schema", "00000000deadbeef"}}));
  EXPECT_EQ(unknown.status.code(), StatusCode::kInvalidArgument);
}

// A document the engine checked to a verdict answers ok with the
// verdict in a header, whatever the verdict is.
TEST(DispatcherTest, VerdictHeaderNamesEachVerdict) {
  Dispatcher dispatcher(FastOptions());
  Response put = dispatcher.Handle(MakeRequest("schema.put", kSchema));
  ASSERT_TRUE(put.status.ok()) << put.status.ToString();
  const std::string schema = put.headers.at("schema");
  const std::pair<const char*, const char*> cases[] = {
      {"<bib><entry isbn=\"1\"></bib>", "parse_error"},
      {"<bib><bib/></bib>", "invalid_structure"},
      {"<bib><entry isbn=\"1\"/><entry isbn=\"1\"/></bib>",
       "constraint_violations"},
  };
  for (const auto& [body, verdict] : cases) {
    Response response = dispatcher.Handle(
        MakeRequest("validate", body, {{"schema", schema}}));
    EXPECT_TRUE(response.status.ok()) << body;
    EXPECT_EQ(response.headers.at("verdict"), verdict) << body;
    EXPECT_EQ(response.headers.count("error"), 0u) << body;
  }
}

// A limit the engine trips (here a max-depth header below the document's
// depth) cuts the check short: the answer is `limit` with an error
// header, never a verdict.
TEST(DispatcherTest, EngineLimitAnswersLimitWithoutVerdict) {
  Dispatcher dispatcher(FastOptions());
  Response put = dispatcher.Handle(MakeRequest("schema.put", kSchema));
  ASSERT_TRUE(put.status.ok()) << put.status.ToString();
  Response response = dispatcher.Handle(MakeRequest(
      "validate", "<bib><entry isbn=\"1\"/></bib>",
      {{"schema", put.headers.at("schema")}, {"max-depth", "1"}}));
  EXPECT_EQ(WireCode(response.status.code()), "limit");
  EXPECT_EQ(response.status.limit(), "max_tree_depth");
  EXPECT_EQ(response.headers.count("error"), 1u);
  EXPECT_EQ(response.headers.count("verdict"), 0u);
  EXPECT_NE(response.body.find("\"verdict\": \"infrastructure_failure\""),
            std::string::npos);
}

TEST(DispatcherTest, PoisonSchemaIsNegativeCached) {
  DispatcherOptions options = FastOptions();
  options.cache.negative_ttl_ms = 60000;  // no expiry within the test
  Dispatcher dispatcher(options);
  // Well-delimited DOCTYPE shell, but the declaration inside fails DTD
  // compilation -- the failure must be negative-cached.
  const std::string poison = "<!DOCTYPE bib [ <!ELEMENT bib (unclosed> ]>";
  Response first = dispatcher.Handle(MakeRequest("validate", poison));
  EXPECT_FALSE(first.status.ok());
  for (int i = 0; i < 5; ++i) {
    Response repeat = dispatcher.Handle(MakeRequest("validate", poison));
    EXPECT_FALSE(repeat.status.ok());
  }
  EXPECT_EQ(dispatcher.cache().stats().compile_failures, 1u)
      << "poison schema was recompiled inside the TTL window";
  EXPECT_EQ(dispatcher.cache().stats().negative_hits, 5u);
}

// The cache key hashes the DOCTYPE internal subset only. Document
// content after the subset -- in particular "]>" sequences, which every
// CDATA section ends with and which are legal character data -- must
// never leak into the key or break extraction.
TEST(DispatcherTest, DoctypeSubsetEndsBeforeDocumentContent) {
  constexpr char kCdataDoc[] = R"(<?xml version="1.0"?>
<!DOCTYPE bib [
<!ELEMENT bib (entry*)>
<!ELEMENT entry (#PCDATA)>
<!ATTLIST entry isbn CDATA #REQUIRED>
<!-- xic:constraints
key entry.isbn
-->
]>
<bib><entry isbn="1"><![CDATA[tricky ]> bytes]]></entry></bib>
)";
  constexpr char kPlainDoc[] = R"(<?xml version="1.0"?>
<!DOCTYPE bib [
<!ELEMENT bib (entry*)>
<!ELEMENT entry (#PCDATA)>
<!ATTLIST entry isbn CDATA #REQUIRED>
<!-- xic:constraints
key entry.isbn
-->
]>
<bib><entry isbn="2">plain</entry></bib>
)";
  Dispatcher dispatcher(FastOptions());
  Response cdata = dispatcher.Handle(MakeRequest("validate", kCdataDoc));
  ASSERT_TRUE(cdata.status.ok()) << cdata.status.ToString();
  EXPECT_EQ(cdata.headers.at("verdict"), "ok");
  // Same DOCTYPE, different content: same subset hash, so the second
  // document is a cache hit on the first one's plan.
  Response plain = dispatcher.Handle(MakeRequest("validate", kPlainDoc));
  ASSERT_TRUE(plain.status.ok()) << plain.status.ToString();
  EXPECT_EQ(plain.headers.at("schema"), cdata.headers.at("schema"));
  EXPECT_EQ(plain.headers.at("cache"), "hit");
  EXPECT_EQ(dispatcher.cache().stats().misses, 1u);
}

// A quoted literal inside a markup declaration may contain "]>" without
// terminating the subset, and a subset that never closes is an explicit
// parse error (not content swallowed up to some later "]>").
TEST(DispatcherTest, DoctypeExtractionHonorsQuotesAndTermination) {
  constexpr char kQuotedDoc[] = R"(<!DOCTYPE bib [
<!ELEMENT bib (entry*)>
<!ELEMENT entry EMPTY>
<!ATTLIST entry isbn CDATA #REQUIRED>
<!ATTLIST entry note CDATA "tricky ]> default">
]>
<bib><entry isbn="1"/></bib>
)";
  Dispatcher dispatcher(FastOptions());
  Response quoted = dispatcher.Handle(MakeRequest("validate", kQuotedDoc));
  ASSERT_TRUE(quoted.status.ok()) << quoted.status.ToString();
  EXPECT_EQ(quoted.headers.at("verdict"), "ok");
  // Unterminated subset: explicit error before any compile.
  Response unterminated = dispatcher.Handle(MakeRequest(
      "validate", "<!DOCTYPE bib [ <!ELEMENT bib EMPTY> <bib/>"));
  EXPECT_EQ(unterminated.status.code(), StatusCode::kParseError);
  EXPECT_EQ(dispatcher.cache().stats().compile_failures, 0u);
}

// Without a DOCTYPE the shell reader parses the root start tag before it
// can tell, so that read is bounded like any other: a root tag with 100k
// attributes stops at max_attributes_per_element, not after a quadratic
// duplicate-name scan.
TEST(DispatcherTest, DoctypeShellReadIsBoundedByLimits) {
  std::string body = "<bib";
  for (int i = 0; i < 100000; ++i) body += " a" + std::to_string(i) + "=''";
  body += "/>";
  Dispatcher dispatcher(FastOptions());
  for (const char* verb : {"schema.put", "validate", "validate.stream"}) {
    const auto start = std::chrono::steady_clock::now();
    Response response = dispatcher.Handle(MakeRequest(verb, body));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted)
        << verb << ": " << response.status.ToString();
    EXPECT_NE(response.status.message().find("max_attributes_per_element"),
              std::string::npos)
        << response.status.ToString();
    EXPECT_LT(elapsed, std::chrono::seconds(2)) << verb;
  }
  // A small DOCTYPE-less body still gets the usual answer.
  Response plain = dispatcher.Handle(MakeRequest("validate", "<bib a='1'/>"));
  EXPECT_EQ(plain.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plain.status.message().find("document has no DOCTYPE"),
            std::string::npos)
      << plain.status.ToString();
}

TEST(DispatcherTest, ImplyIsMemoized) {
  Dispatcher dispatcher(FastOptions());
  Request imply = MakeRequest(
      "imply", "key entry.isbn\n?\nkey entry.isbn\n", {{"lang", "lu"}});
  Response first = dispatcher.Handle(imply);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(first.headers.at("memo"), "miss");
  EXPECT_NE(first.body.find("implied true"), std::string::npos);
  Response second = dispatcher.Handle(imply);
  EXPECT_EQ(second.headers.at("memo"), "hit");
  EXPECT_EQ(second.body, first.body);
}

TEST(DispatcherTest, ImplyLanguagesAndErrors) {
  Dispatcher dispatcher(FastOptions());
  // Missing separator.
  EXPECT_EQ(dispatcher.Handle(MakeRequest("imply", "key a.x\n"))
                .status.code(),
            StatusCode::kInvalidArgument);
  // lid needs a schema for the DTD.
  EXPECT_EQ(dispatcher
                .Handle(MakeRequest("imply", "key a.x\n?\nkey a.x\n",
                                    {{"lang", "lid"}}))
                .status.code(),
            StatusCode::kInvalidArgument);
  // lu-finite differs from lu on the paper's finite-implication examples;
  // here just pin that the verb accepts it.
  Response finite = dispatcher.Handle(MakeRequest(
      "imply", "key entry.isbn\n?\nkey entry.isbn\n", {{"lang", "lu-finite"}}));
  EXPECT_TRUE(finite.status.ok()) << finite.status.ToString();
}

TEST(DispatcherTest, TransientDispatchFaultIsRetriedWithBackoff) {
  DispatcherOptions options = FastOptions();
  options.faults.rate = 1.0;  // every request faults...
  options.faults.transient_attempts = 1;  // ...on its first attempt only
  options.faults.sites = {"serve.dispatch"};
  Dispatcher dispatcher(options);
  // Without retries the client sees the transient failure + retry hint.
  Response flaky = dispatcher.Handle(
      MakeRequest("ping", "", {{"id", "r1"}}));
  EXPECT_EQ(flaky.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(flaky.headers.at("retry-after-ms"), "7");
  // With retries=1 the second attempt clears the transient fault.
  Response recovered = dispatcher.Handle(
      MakeRequest("ping", "", {{"id", "r1"}, {"retries", "1"}}));
  EXPECT_TRUE(recovered.status.ok());
  EXPECT_EQ(recovered.headers.at("attempts"), "2");
  // A count too large to add one to is capped, not wrapped to 0 attempts.
  Response capped = dispatcher.Handle(MakeRequest(
      "ping", "", {{"id", "r1"}, {"retries", "18446744073709551615"}}));
  EXPECT_TRUE(capped.status.ok());
  EXPECT_EQ(capped.headers.at("attempts"), "2");
}

// The retries header is honored at exactly one layer: Handle()'s outer
// loop. The validator runs a single engine attempt per dispatch (so
// retries=N cannot multiply into N*N engine attempts), while the outer
// attempt index is threaded into the engine's fault numbering so
// transient engine-site faults still clear on the retry.
TEST(DispatcherTest, ValidateRetriesAtOneLayerOnly) {
  DispatcherOptions options = FastOptions();
  options.faults.rate = 1.0;  // every request faults...
  options.faults.transient_attempts = 1;  // ...on its first attempt only
  options.faults.sites = {"parse"};  // the engine's fault site
  Dispatcher dispatcher(options);
  Result<PlanPtr> plan = dispatcher.CompileIntoCache(kSchema, "warm");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string schema = plan.value()->key;
  // Without retries: one dispatch, one engine attempt, transient fault
  // surfaces as unavailable.
  Response flaky = dispatcher.Handle(MakeRequest(
      "validate", kValidDoc, {{"id", "r1"}, {"schema", schema}}));
  EXPECT_EQ(flaky.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(flaky.headers.at("attempts"), "1");
  // With retries=1 the *outer* loop redispatches; the engine sees
  // attempt index 1 and the transient fault clears. Under the old
  // two-layer scheme the inner loop would have swallowed the retry and
  // reported attempts=1 here.
  Response recovered = dispatcher.Handle(MakeRequest(
      "validate", kValidDoc,
      {{"id", "r1"}, {"schema", schema}, {"retries", "1"}}));
  EXPECT_TRUE(recovered.status.ok()) << recovered.status.ToString();
  EXPECT_EQ(recovered.headers.at("attempts"), "2");
  EXPECT_EQ(recovered.headers.at("verdict"), "ok");
}

TEST(DispatcherTest, OversizedBodyIsRefusedBeforeParsing) {
  DispatcherOptions options = FastOptions();
  options.max_request_bytes = 16;
  Dispatcher dispatcher(options);
  Response refused = dispatcher.Handle(
      MakeRequest("validate", std::string(64, 'x')));
  EXPECT_EQ(refused.status.code(), StatusCode::kResourceExhausted);
}

// The determinism tentpole: under injected admission/dispatch faults, a
// mixed workload produces byte-identical wire responses at 1, 4 and 16
// threads. Shedding decisions key on the request id, not on timing.
TEST(DispatcherTest, FaultedResponsesAreByteStableAcrossThreadCounts) {
  constexpr int kRequests = 48;
  auto run = [](size_t threads) {
    DispatcherOptions options = FastOptions();
    options.faults.rate = 0.4;
    options.faults.seed = 42;
    options.faults.sites = {"serve.admit", "serve.dispatch"};
    Dispatcher dispatcher(options);
    // Warm the plan so every validate is a cache hit (the first-compile
    // miss would otherwise race to a different `cache` header).
    Result<PlanPtr> plan =
        dispatcher.CompileIntoCache(kSchema, "warmup");
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    const std::string schema = plan.value()->key;

    std::vector<std::string> wire(kRequests);
    ThreadPool pool(threads);
    pool.ParallelFor(kRequests, [&](size_t i) {
      std::string id = "req-" + std::to_string(i);
      Request request =
          i % 3 == 0
              ? MakeRequest("ping", "", {{"id", id}})
              : MakeRequest("validate",
                            i % 3 == 1 ? kValidDoc : kViolatingDoc,
                            {{"id", id}, {"schema", schema}});
      wire[i] = FormatResponse(dispatcher.Handle(request));
    });
    return wire;
  };

  std::vector<std::string> at1 = run(1);
  std::vector<std::string> at4 = run(4);
  std::vector<std::string> at16 = run(16);
  int shed = 0;
  int ok = 0;
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(at4[i], at1[i]) << "request " << i << " diverged at 4 threads";
    EXPECT_EQ(at16[i], at1[i])
        << "request " << i << " diverged at 16 threads";
    if (at1[i].find("xic/1 unavailable") == 0) ++shed;
    if (at1[i].find("xic/1 ok") == 0) ++ok;
  }
  // The workload must actually exercise both outcomes.
  EXPECT_GT(shed, 0) << "fault rate produced no shed responses";
  EXPECT_GT(ok, 0) << "fault rate drowned every request";
}

// ---------------------------------------------------------------------------
// Request-scoped observability: trace ids, stats, stats.prom, debugz.
// These behaviors are protocol surface, not probes: every test in this
// section must pass identically under -DXIC_OBS=OFF (only the
// explicitly #if-guarded histogram checks are obs-build-specific).

TEST(DispatcherTest, TraceIdEchoedVerbatimAndDerivedDeterministically) {
  Dispatcher dispatcher(FastOptions());
  // Client-supplied: echoed back as sent.
  Response echoed = dispatcher.Handle(
      MakeRequest("ping", "", {{"id", "r1"}, {"trace-id", "tok-42"}}));
  EXPECT_EQ(echoed.headers.at("trace-id"), "tok-42");
  // Server-derived: sixteen hex chars, a pure function of the request
  // id -- the same id maps to the same trace id, distinct ids differ.
  Response a1 = dispatcher.Handle(MakeRequest("ping", "", {{"id", "a"}}));
  Response a2 = dispatcher.Handle(MakeRequest("ping", "", {{"id", "a"}}));
  Response b = dispatcher.Handle(MakeRequest("ping", "", {{"id", "b"}}));
  const std::string& derived = a1.headers.at("trace-id");
  EXPECT_EQ(derived.size(), 16u);
  EXPECT_EQ(derived.find_first_not_of("0123456789abcdef"),
            std::string::npos);
  EXPECT_EQ(a2.headers.at("trace-id"), derived);
  EXPECT_NE(b.headers.at("trace-id"), derived);
  // A token with header-unsafe bytes is sanitized, never echoed raw.
  Response unsafe = dispatcher.Handle(
      MakeRequest("ping", "", {{"trace-id", "two words"}}));
  EXPECT_EQ(unsafe.headers.at("trace-id").find(' '), std::string::npos);
  // Error responses carry the id too: that is what makes a failed
  // request joinable with its spans.
  Response error = dispatcher.Handle(
      MakeRequest("frobnicate", "", {{"trace-id", "tok-err"}}));
  EXPECT_FALSE(error.status.ok());
  EXPECT_EQ(error.headers.at("trace-id"), "tok-err");
}

TEST(DispatcherTest, TraceIdsAreByteStableAcrossThreadCounts) {
  constexpr int kRequests = 24;
  auto run = [](size_t threads) {
    Dispatcher dispatcher(FastOptions());
    std::vector<std::string> ids(kRequests);
    ThreadPool pool(threads);
    pool.ParallelFor(kRequests, [&](size_t i) {
      Response response = dispatcher.Handle(
          MakeRequest("ping", "", {{"id", "req-" + std::to_string(i)}}));
      ids[i] = response.headers.at("trace-id");
    });
    return ids;
  };
  std::vector<std::string> one = run(1);
  EXPECT_EQ(run(4), one);
  EXPECT_EQ(run(16), one);
}

// Byte-exact golden for the stats verb on a fresh dispatcher: the verb
// is machine-scraped, so its layout is pinned, flightrec section
// included. (The stats request itself is only recorded after the body
// is rendered, so a fresh dispatcher reads all-zero.)
TEST(DispatcherTest, StatsGoldenIncludesFlightRecorder) {
  Dispatcher dispatcher(FastOptions());
  Response stats = dispatcher.Handle(MakeRequest("stats", ""));
  ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();
  EXPECT_EQ(stats.body,
            "{\n"
            "  \"schema\": \"xic-serve-stats-v1\",\n"
            "  \"cache\": {\"entries\": 0, \"bytes\": 0, \"hits\": 0, "
            "\"misses\": 0, \"evictions\": 0, \"negative_hits\": 0, "
            "\"compile_failures\": 0, \"single_flight_waits\": 0},\n"
            "  \"sessions\": {\"open\": 0, \"opened\": 0, \"closed\": 0, "
            "\"reaped\": 0, \"refused\": 0},\n"
            "  \"flightrec\": {\"capacity\": 512, \"recorded\": 0, "
            "\"dropped\": 0}\n"
            "}\n");
}

TEST(DispatcherTest, StatsPromExposesLayeredServeMetrics) {
  Dispatcher dispatcher(FastOptions());
  Response put = dispatcher.Handle(MakeRequest("schema.put", kSchema));
  ASSERT_TRUE(put.status.ok()) << put.status.ToString();
  const std::string schema = put.headers.at("schema");
  Response validated = dispatcher.Handle(
      MakeRequest("validate", "<bib><entry isbn=\"1\"/></bib>",
                  {{"schema", schema}}));
  ASSERT_TRUE(validated.status.ok()) << validated.status.ToString();
  Response prom = dispatcher.Handle(MakeRequest("stats.prom", ""));
  ASSERT_TRUE(prom.status.ok()) << prom.status.ToString();
  const std::string& text = prom.body;
  // Layered dispatcher counters render with HELP/TYPE in every build.
  EXPECT_NE(text.find("# HELP xic_serve_cache_hits serve.cache.hits\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE xic_serve_cache_hits counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("xic_serve_cache_hits 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("xic_serve_cache_misses 1\n"), std::string::npos)
      << text;
  // schema.put and validate were both recorded before this scrape.
  EXPECT_NE(text.find("xic_serve_flightrec_recorded 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("xic_serve_flightrec_dropped 0\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE xic_serve_cache_entries gauge\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("xic_serve_cache_entries 1\n"), std::string::npos)
      << text;
#if XIC_OBS_ENABLED
  // Probe builds add the latency histograms (per-request and per-verb).
  EXPECT_NE(text.find("# TYPE xic_serve_request_ms histogram\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("xic_serve_request_ms_bucket{le=\"+Inf\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("xic_serve_verb_validate_ms_count"),
            std::string::npos)
      << text;
#endif
}

TEST(DispatcherTest, DebugzRecordsShedsAndFaults) {
  DispatcherOptions options = FastOptions();
  options.faults.rate = 0.5;  // faults key on the id, so some requests
  options.faults.seed = 42;   // shed and others pass -- deterministically
  options.faults.sites = {"serve.admit"};
  Dispatcher dispatcher(options);
  int shed = 0;
  for (int i = 0; i < 16; ++i) {
    Response response = dispatcher.Handle(MakeRequest(
        "validate", kValidDoc, {{"id", "s" + std::to_string(i)}}));
    if (response.status.code() == StatusCode::kUnavailable) ++shed;
  }
  ASSERT_GT(shed, 0) << "fault rate produced no shed validates";
  // The debugz request is admission-checked like any other; probe ids
  // until one clears (each has p=0.5, so 32 misses is ~impossible).
  Response debugz = ErrorResponse(Status::Unavailable("not yet sent"));
  for (int i = 0; i < 32 && !debugz.status.ok(); ++i) {
    debugz = dispatcher.Handle(
        MakeRequest("debugz", "", {{"id", "dz" + std::to_string(i)}}));
  }
  ASSERT_TRUE(debugz.status.ok()) << debugz.status.ToString();
  const std::string& dump = debugz.body;
  EXPECT_EQ(dump.rfind("flightrec capacity=512 recorded=", 0), 0u)
      << dump;
  // Every admission-faulted validate landed as a shed + fault record
  // with its derived trace id.
  EXPECT_NE(dump.find("verb=validate trace="), std::string::npos) << dump;
  EXPECT_NE(dump.find(" status=unavailable "), std::string::npos) << dump;
  EXPECT_NE(dump.find(" shed=1 fault=1"), std::string::npos) << dump;
}

TEST(DispatcherTest, SlowRequestsPromoteThePhaseBreakdown) {
  DispatcherOptions options = FastOptions();
  options.flight_recorder.slow_threshold_us = 0;  // everything is "slow"
  Dispatcher dispatcher(options);
  Response response = dispatcher.Handle(
      MakeRequest("validate", kValidDoc, {{"id", "slow"}}));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  Response debugz = dispatcher.Handle(MakeRequest("debugz", ""));
  // A cold validate compiles then checks; both phases land in the
  // promoted detail alongside the (in-process, so zero) queue wait.
  EXPECT_NE(debugz.body.find(" queue_us=0 compile_us="),
            std::string::npos)
      << debugz.body;
  EXPECT_NE(debugz.body.find(" run_us="), std::string::npos)
      << debugz.body;
}

TEST(DispatcherTest, FlightRecorderDisabledKeepsVerbsAlive) {
  DispatcherOptions options = FastOptions();
  options.flight_recorder.capacity = 0;
  Dispatcher dispatcher(options);
  ASSERT_TRUE(dispatcher.Handle(MakeRequest("ping", "")).status.ok());
  Response debugz = dispatcher.Handle(MakeRequest("debugz", ""));
  ASSERT_TRUE(debugz.status.ok());
  EXPECT_EQ(debugz.body,
            "flightrec capacity=0 recorded=0 dropped=0 "
            "slow_threshold_us=100000\n");
  Response stats = dispatcher.Handle(MakeRequest("stats", ""));
  EXPECT_NE(stats.body.find(
                "\"flightrec\": {\"capacity\": 0, \"recorded\": 0, "
                "\"dropped\": 0}"),
            std::string::npos)
      << stats.body;
}

// ---------------------------------------------------------------------------
// Sessions

PlanPtr CompileTestPlan() {
  Dispatcher dispatcher(FastOptions());
  Result<PlanPtr> plan = dispatcher.CompileIntoCache(kSchema, "fixture");
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.value();
}

TEST(SessionTest, OpenApplyClose) {
  SessionRegistry registry;
  FaultInjector clean;
  Result<std::string> name = registry.Open("", CompileTestPlan());
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name.value(), "s1");
  Result<std::string> body = registry.Apply(
      name.value(), "add root bib\nadd 0 entry\nset 1 isbn 42\n", clean,
      "k");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_NE(body.value().find("vertex 0"), std::string::npos);
  EXPECT_NE(body.value().find("consistent true violations 0"),
            std::string::npos);
  // A key violation flips the consistency verdict but keeps the session.
  body = registry.Apply(name.value(),
                        "add 0 entry\nset 2 isbn 42\n", clean, "k");
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body.value().find("consistent false"), std::string::npos);
  EXPECT_TRUE(registry.Close(name.value()).ok());
  EXPECT_FALSE(registry.Close(name.value()).ok());
}

TEST(SessionTest, RejectedStatementKeepsPriorState) {
  SessionRegistry registry;
  FaultInjector clean;
  ASSERT_TRUE(registry.Open("s", CompileTestPlan()).ok());
  // Statement 2 is garbage: the script stops there, statement 1 stays.
  Result<std::string> body =
      registry.Apply("s", "add root bib\nbogus op here\n", clean, "k");
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body.value().find("error line 2"), std::string::npos);
  // The bib root survived; adding an entry under it works.
  body = registry.Apply("s", "add 0 entry\n", clean, "k");
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body.value().find("vertex 1"), std::string::npos);
}

TEST(SessionTest, CrashedSessionIsReapedOthersSurvive) {
  SessionRegistry registry;
  FaultInjector clean;
  FaultConfig crash_config;
  crash_config.rate = 1.0;
  crash_config.throw_exceptions = true;
  crash_config.sites = {"serve.session"};
  FaultInjector crash(crash_config);
  ASSERT_TRUE(registry.Open("a", CompileTestPlan()).ok());
  ASSERT_TRUE(registry.Open("b", CompileTestPlan()).ok());
  ASSERT_TRUE(registry.Apply("b", "add root bib\n", clean, "k").ok());

  // Session a's update path throws: the handle is poisoned and reaped.
  Result<std::string> crashed =
      registry.Apply("a", "add root bib\n", crash, "k");
  EXPECT_EQ(crashed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.stats().reaped, 1u);
  // a is gone...
  EXPECT_EQ(registry.Apply("a", "add 0 entry\n", clean, "k")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // ...but b never noticed.
  Result<std::string> alive = registry.Apply(
      "b", "add 0 entry\nset 1 isbn 7\n", clean, "k");
  ASSERT_TRUE(alive.ok());
  EXPECT_NE(alive.value().find("consistent true"), std::string::npos);
}

TEST(SessionTest, RegistryFullIsExplicitUnavailable) {
  SessionRegistry::Config config;
  config.max_sessions = 1;
  SessionRegistry registry(config);
  ASSERT_TRUE(registry.Open("a", CompileTestPlan()).ok());
  Result<std::string> refused = registry.Open("b", CompileTestPlan());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(registry.stats().refused, 1u);
  // Closing frees the slot.
  ASSERT_TRUE(registry.Close("a").ok());
  EXPECT_TRUE(registry.Open("b", CompileTestPlan()).ok());
}

// ---------------------------------------------------------------------------
// Server (sockets)

class TestClient {
 public:
  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  ~TestClient() { Close(); }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Send(const Request& request) {
    return SendRaw(FormatRequest(request));
  }

  bool SendRaw(const std::string& wire) {
    size_t off = 0;
    while (off < wire.size()) {
      ssize_t n = ::write(fd_, wire.data() + off, wire.size() - off);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one response frame; false on EOF/error.
  bool Recv(ResponseHead* head, std::string* body) {
    std::string line;
    char c;
    for (;;) {
      ssize_t n = ::read(fd_, &c, 1);
      if (n <= 0) return false;
      if (c == '\n') break;
      line.push_back(c);
    }
    Result<ResponseHead> parsed = ParseResponseLine(line);
    if (!parsed.ok()) return false;
    *head = parsed.value();
    body->resize(parsed.value().body_length);
    size_t off = 0;
    while (off < body->size()) {
      ssize_t n = ::read(fd_, body->data() + off, body->size() - off);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool Rpc(const Request& request, ResponseHead* head, std::string* body) {
    return Send(request) && Recv(head, body);
  }

 private:
  int fd_ = -1;
};

ServerOptions TestServerOptions() {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.num_threads = 2;
  options.read_timeout_ms = 2000;
  options.write_timeout_ms = 2000;
  return options;
}

TEST(ServerTest, EndToEndExchange) {
  Server server(TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ResponseHead head;
  std::string body;
  ASSERT_TRUE(client.Rpc(MakeRequest("ping", ""), &head, &body));
  EXPECT_EQ(head.code, StatusCode::kOk);
  EXPECT_EQ(body, "pong\n");
  // schema.put then a header-addressed validate on the same connection.
  ASSERT_TRUE(client.Rpc(MakeRequest("schema.put", kSchema), &head, &body));
  ASSERT_EQ(head.code, StatusCode::kOk);
  std::string schema = head.headers.at("schema");
  ASSERT_TRUE(client.Rpc(MakeRequest("validate",
                                     "<bib><entry isbn=\"1\"/></bib>",
                                     {{"schema", schema}}),
                         &head, &body));
  EXPECT_EQ(head.code, StatusCode::kOk);
  EXPECT_EQ(head.headers.at("verdict"), "ok");
  EXPECT_EQ(head.headers.at("cache"), "hit");
  client.Close();
  server.Shutdown(/*drain=*/true);
  EXPECT_GE(server.stats().served_requests, 3u);
}

TEST(ServerTest, MalformedFrameGetsErrorResponseThenClose) {
  Server server(TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  // Garbage instead of a frame: the server answers with an error frame
  // (it cannot resynchronize, so it then closes the connection).
  ASSERT_TRUE(client.SendRaw("not-the-protocol at all\n"));
  ResponseHead head;
  std::string body;
  ASSERT_TRUE(client.Recv(&head, &body))
      << "server closed without an error response";
  EXPECT_NE(head.code, StatusCode::kOk);
  EXPECT_FALSE(client.Recv(&head, &body)) << "connection was not closed";
  server.Shutdown(true);
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

TEST(ServerTest, DrainLosesNoAcceptedResponses) {
  constexpr int kClients = 8;
  ServerOptions options = TestServerOptions();
  options.num_threads = 2;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  uint16_t port = server.port();

  std::atomic<int> complete{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      TestClient client;
      if (!client.Connect(port)) {
        failed.fetch_add(1);
        return;
      }
      ResponseHead head;
      std::string body;
      Request request = MakeRequest(
          "validate", kValidDoc, {{"id", "drain-" + std::to_string(i)}});
      if (client.Rpc(request, &head, &body) &&
          body.size() == head.body_length) {
        complete.fetch_add(1);
      } else {
        failed.fetch_add(1);
      }
    });
  }
  // Wait until every connection is accepted (and thus owed an answer),
  // then shut down mid-flight with drain.
  for (int spin = 0; spin < 400; ++spin) {
    if (server.stats().accepted >= kClients) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(server.stats().accepted, static_cast<uint64_t>(kClients));
  server.Shutdown(/*drain=*/true);
  for (std::thread& t : clients) t.join();
  // Drain means zero lost responses: every accepted request got a
  // complete frame (ok or shed -- but never EOF mid-response).
  EXPECT_EQ(complete.load(), kClients);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(server.stats().served_requests,
            static_cast<uint64_t>(kClients));
}

TEST(ServerTest, QueueOverflowShedsExplicitly) {
  ServerOptions options = TestServerOptions();
  options.num_threads = 1;
  options.max_queue_depth = 1;
  options.read_timeout_ms = 3000;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  // Client A occupies the single worker (the worker blocks reading A's
  // next frame until timeout or close).
  TestClient a;
  ASSERT_TRUE(a.Connect(server.port()));
  ResponseHead head;
  std::string body;
  ASSERT_TRUE(a.Rpc(MakeRequest("ping", ""), &head, &body));

  // B parks in the accept queue; C overflows it and must be shed with an
  // explicit unavailable + retry hint, not a silent close.
  TestClient b;
  ASSERT_TRUE(b.Connect(server.port()));
  ASSERT_TRUE(b.Send(MakeRequest("ping", "")));
  // Give the acceptor a moment to queue b before c arrives.
  for (int spin = 0; spin < 200 && server.stats().accepted < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  TestClient c;
  ASSERT_TRUE(c.Connect(server.port()));
  ResponseHead shed_head;
  std::string shed_body;
  ASSERT_TRUE(c.Recv(&shed_head, &shed_body))
      << "shed connection closed without a response";
  EXPECT_EQ(shed_head.code, StatusCode::kUnavailable);
  EXPECT_EQ(shed_head.headers.count("retry-after-ms"), 1u);

  // Freeing the worker drains B: its queued request is answered.
  a.Close();
  ASSERT_TRUE(b.Recv(&head, &body));
  EXPECT_EQ(head.code, StatusCode::kOk);
  EXPECT_EQ(server.stats().shed_queue_full, 1u);
  server.Shutdown(true);
}

}  // namespace
}  // namespace xic::serve
