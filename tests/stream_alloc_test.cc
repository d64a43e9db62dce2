// Heap allocations on the streaming hot path must not grow with the
// number of elements: the tokenizer and StreamRun allocate per run and
// per distinct label, never per element. This binary replaces the global
// allocation functions with counting ones (hence its own executable) and
// streams generated catalogs of 10k and 100k elements -- keys, a foreign
// key and a set-valued foreign key, long element names, entity
// references in attribute values and comments in content -- first
// through StreamTokenizer alone, then through StreamValidator::Run, each
// both read in place (StringSource) and through the tokenizer's sliding
// window (ChunkedSource, the path files and sockets take). The validator
// also runs an L_id person/dept document under an inverse constraint.
// The larger document may cost only a few more buffer doublings.
//
// The counting operator new also records its largest single request:
// a windowed pass over documents whose tokens all fit one chunk must
// never ask for more than the first window (two chunks), however the
// reads fall on tags, names and references.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "engine/stream_validator.h"
#include "fuzzing/chunked_source.h"
#include "xml/dtd_parser.h"
#include "xml/dtdc_io.h"
#include "xml/stream_tokenizer.h"

namespace {
std::atomic<size_t> g_allocations{0};
std::atomic<size_t> g_largest{0};  // largest single request since reset

// Out of line: an operator new small enough to inline keeps GCC's
// -Wmismatched-new-delete from pairing it with the free() below.
[[gnu::noinline]] void CountAllocation(size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  // The tests allocate from one thread; no compare-exchange needed.
  if (n > g_largest.load(std::memory_order_relaxed)) {
    g_largest.store(n, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(size_t n) {
  CountAllocation(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace xic {
namespace {

// Extra allocations the 100k-element run may make over the 10k one:
// geometric growth of the extent logs, the root's child word and the
// capture buffers (about log2(10) doublings each), never one per element.
constexpr size_t kMaxExtraAllocations = 64;

const char* const kSchema =
    "<!ELEMENT catalog (publisher*, book*)>\n"
    "<!ELEMENT publisher (name)>\n"
    "<!ATTLIST publisher pid CDATA #REQUIRED>\n"
    "<!ELEMENT name (#PCDATA)>\n"
    "<!ELEMENT book (title, contributing_author+, cites?)>\n"
    "<!ATTLIST book isbn CDATA #REQUIRED pub CDATA #REQUIRED>\n"
    "<!ELEMENT title (#PCDATA)>\n"
    "<!ELEMENT contributing_author (#PCDATA)>\n"
    "<!ELEMENT cites EMPTY>\n"
    "<!ATTLIST cites to NMTOKENS #REQUIRED>\n"
    "<!-- xic:constraints language=L_u\n"
    "key publisher.pid\n"
    "key book.isbn\n"
    "fk book.pub -> publisher.pid\n"
    "sfk cites.to -> book.isbn\n"
    "-->\n";

// A valid catalog of at least `elements` elements: one publisher (2
// elements) per 50 books (4 elements each).
std::string Catalog(size_t elements) {
  const size_t books = elements / 4;
  const size_t publishers = books / 50 + 1;
  std::string doc = std::string("<!DOCTYPE catalog [\n") + kSchema + "]>\n";
  doc += "<catalog>\n";
  for (size_t p = 0; p < publishers; ++p) {
    std::string n = std::to_string(p);
    doc += "<publisher pid=\"p" + n + "\"><name>house &amp; sons " + n +
           "</name></publisher>\n";
  }
  for (size_t b = 0; b < books; ++b) {
    std::string n = std::to_string(b);
    doc += "<book isbn=\"b" + n + "\" pub=\"p" +
           std::to_string(b % publishers) + "\"><title>volume &#65; " + n +
           "</title><!-- entry " + n +
           " --><contributing_author>author " + n +
           "</contributing_author><cites to=\"b" + std::to_string(b / 2) +
           "\n b" + std::to_string(b / 3) + "\"/></book>\n";
  }
  doc += "</catalog>\n";
  return doc;
}

const char* const kPersonDeptSchema =
    "<!ELEMENT db (person*, dept*)>\n"
    "<!ELEMENT person EMPTY>\n"
    "<!ATTLIST person oid ID #REQUIRED in_dept IDREFS #REQUIRED>\n"
    "<!ELEMENT dept EMPTY>\n"
    "<!ATTLIST dept oid ID #REQUIRED has_staff IDREFS #REQUIRED>\n"
    "<!-- xic:constraints language=L_id\n"
    "id person.oid\n"
    "id dept.oid\n"
    "sfk person.in_dept -> dept.oid\n"
    "sfk dept.has_staff -> person.oid\n"
    "inverse person.in_dept <-> dept.has_staff\n"
    "-->\n";

// A valid person/dept document of at least `elements` elements: ten
// persons per dept, each listed by its dept's has_staff.
std::string PersonDept(size_t elements) {
  const size_t depts = elements / 11 + 1;
  const size_t persons = depts * 10;
  std::string doc =
      std::string("<!DOCTYPE db [\n") + kPersonDeptSchema + "]>\n<db>\n";
  for (size_t p = 0; p < persons; ++p) {
    doc += "<person oid=\"p" + std::to_string(p) + "\" in_dept=\"d" +
           std::to_string(p % depts) + "\"/>\n";
  }
  for (size_t d = 0; d < depts; ++d) {
    doc += "<dept oid=\"d" + std::to_string(d) + "\" has_staff=\"";
    for (size_t p = d; p < persons; p += depts) {
      doc += (p == d ? "p" : " p") + std::to_string(p);
    }
    doc += "\"/>\n";
  }
  return doc + "</db>\n";
}

// Calls f(source) with `doc` read in place or, when `windowed`, served
// in reads that do not line up with the window.
template <typename F>
void WithSource(const std::string& doc, bool windowed, F&& f) {
  if (windowed) {
    ChunkedSource source(doc, 1000);
    f(source);
  } else {
    StringSource source(doc);
    f(source);
  }
}

// One tokenizer pass over `source`; returns the start tags seen.
size_t Tokenize(ByteSource& source) {
  StreamTokenizer tok(source);
  StreamEvent ev;
  size_t elements = 0;
  for (;;) {
    Status s = tok.Next(&ev);
    if (!s.ok()) {
      ADD_FAILURE() << s;
      break;
    }
    if (ev.kind == StreamEventKind::kStartElement) ++elements;
    if (ev.kind == StreamEventKind::kEndDocument) break;
  }
  return elements;
}

// Allocations made by one tokenizer pass over `doc`; sets *elements.
size_t TokenizerAllocations(const std::string& doc, bool windowed,
                            size_t* elements) {
  size_t before = g_allocations.load();
  WithSource(doc, windowed,
             [&](ByteSource& source) { *elements = Tokenize(source); });
  return g_allocations.load() - before;
}

// The largest single allocation f() makes.
template <typename F>
size_t LargestAllocation(F&& f) {
  g_largest.store(0);
  f();
  return g_largest.load();
}

// Every start tag has attribute values on the tokenizer's slow path --
// entity and character references, \r\n line ends -- and every element
// references in its content.
std::string ReferenceDocument(size_t elements) {
  std::string doc = "<root>\r\n";
  for (size_t i = 0; i < elements; ++i) {
    const std::string n = std::to_string(i);
    doc += "<e a=\"x &amp; " + n + "\r\ny\" b=\"&#65;&lt;&#x42;\">t &amp; " +
           n + " &#65;</e>\r\n";
  }
  return doc + "</root>\r\n";
}

// Elements with 200-byte names, so most read boundaries fall inside a
// name, an end tag's included.
std::string LongNameDocument(size_t elements) {
  const std::string name = "n" + std::string(199, 'x');
  std::string doc = "<root>\n";
  for (size_t i = 0; i < elements; ++i) {
    doc += "<" + name + ">" + std::to_string(i) + "</" + name + ">\n";
  }
  return doc + "</root>\n";
}

// Allocations made by one validation run (the plan compiled beforehand).
size_t ValidatorAllocations(const StreamValidator& validator,
                            const std::string& doc, bool windowed,
                            size_t* vertices) {
  size_t before = g_allocations.load();
  WithSource(doc, windowed, [&](ByteSource& source) {
    StreamOutcome out = validator.Run(source);
    EXPECT_TRUE(out.ok()) << out.parse << out.structure.ToString();
    EXPECT_GT(out.stats.extent_records, 0u);
    *vertices = out.stats.vertices;
  });
  return g_allocations.load() - before;
}

TEST(StreamAlloc, TokenizerAllocationsDoNotGrowWithElements) {
  const std::string small = Catalog(10000);
  const std::string large = Catalog(100000);
  for (bool windowed : {false, true}) {
    SCOPED_TRACE(windowed ? "windowed" : "in place");
    size_t small_elements = 0, large_elements = 0;
    const size_t small_allocs =
        TokenizerAllocations(small, windowed, &small_elements);
    const size_t large_allocs =
        TokenizerAllocations(large, windowed, &large_elements);
    ASSERT_GE(small_elements, 10000u);
    ASSERT_GE(large_elements, 100000u);
    EXPECT_LE(large_allocs, small_allocs + kMaxExtraAllocations)
        << small_elements << " elements: " << small_allocs
        << " allocations; " << large_elements
        << " elements: " << large_allocs;
  }
}

TEST(StreamAlloc, ValidatorAllocationsDoNotGrowWithElements) {
  struct Case {
    const char* schema;
    const char* root;
    std::string (*generate)(size_t elements);
  };
  for (const Case& c : {Case{kSchema, "catalog", Catalog},
                        Case{kPersonDeptSchema, "db", PersonDept}}) {
    SCOPED_TRACE(c.root);
    Result<DtdC> schema = ParseDtdC(c.schema, c.root);
    ASSERT_TRUE(schema.ok()) << schema.status();
    ASSERT_TRUE(schema.value().sigma.has_value());
    StreamValidator validator(schema.value().dtd, *schema.value().sigma);
    ASSERT_TRUE(validator.status().ok()) << validator.status();

    const std::string small = c.generate(10000);
    const std::string large = c.generate(100000);
    for (bool windowed : {false, true}) {
      SCOPED_TRACE(windowed ? "windowed" : "in place");
      size_t small_vertices = 0, large_vertices = 0;
      const size_t small_allocs =
          ValidatorAllocations(validator, small, windowed, &small_vertices);
      const size_t large_allocs =
          ValidatorAllocations(validator, large, windowed, &large_vertices);
      ASSERT_GE(small_vertices, 10000u);
      ASSERT_GE(large_vertices, 100000u);
      EXPECT_LE(large_allocs, small_allocs + kMaxExtraAllocations)
          << small_vertices << " vertices: " << small_allocs
          << " allocations; " << large_vertices
          << " vertices: " << large_allocs;
    }
  }
}

TEST(StreamAlloc, WindowStaysWithinTwoChunks) {
  const size_t bound = 2 * StreamTokenizerOptions().chunk_bytes;
  // A source that fills the whole window per read, as FileSource does,
  // and one whose reads do not line up with it.
  const size_t max_reads[] = {bound, 1000};
  struct Case {
    const char* what;
    std::string doc;
  };
  const Case cases[] = {{"catalog", Catalog(100000)},
                        {"references", ReferenceDocument(20000)},
                        {"long names", LongNameDocument(5000)}};
  for (const Case& c : cases) {
    for (size_t max_read : max_reads) {
      SCOPED_TRACE(std::string(c.what) + ", reads of " +
                   std::to_string(max_read));
      size_t elements = 0;
      const size_t largest = LargestAllocation([&] {
        ChunkedSource source(c.doc, max_read);
        elements = Tokenize(source);
      });
      EXPECT_GT(elements, 5000u);
      EXPECT_LE(largest, bound) << c.doc.size() << "-byte document";
    }
  }

  // A structure-only run over a root with 200k children: the child word
  // the content model is checked against must not grow with the fanout.
  Result<DtdStructure> dtd =
      ParseDtd("<!ELEMENT r (c*)>\n<!ELEMENT c EMPTY>\n", "r");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  const ConstraintSet sigma;
  StreamValidator validator(dtd.value(), sigma);
  ASSERT_TRUE(validator.status().ok()) << validator.status();
  std::string wide = "<r>\n";
  for (size_t i = 0; i < 200000; ++i) wide += "<c/>\n";
  wide += "</r>\n";
  for (size_t max_read : max_reads) {
    SCOPED_TRACE("wide root, reads of " + std::to_string(max_read));
    StreamOutcome out;
    const size_t largest = LargestAllocation([&] {
      ChunkedSource source(wide, max_read);
      out = validator.Run(source);
    });
    EXPECT_TRUE(out.ok()) << out.parse << out.structure.ToString();
    EXPECT_EQ(out.stats.vertices, 200001u);
    EXPECT_LE(largest, bound);
  }
}

}  // namespace
}  // namespace xic
