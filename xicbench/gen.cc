#include "gen.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "serve/plan_cache.h"
#include "util/json_writer.h"

namespace xicbench {

namespace {

using xic::util::JsonWriter;

const char* const kWords[] = {
    "river", "stone", "garden", "letter", "winter", "harbor", "signal",
    "mirror", "forest", "engine", "candle", "silver", "meadow", "thunder",
    "paper",  "orbit",  "lantern", "valley", "echo",   "copper"};
constexpr size_t kWordCount = sizeof(kWords) / sizeof(kWords[0]);

void AppendWords(Rng& rng, int n, std::string* out) {
  for (int i = 0; i < n; ++i) {
    if (i > 0) *out += ' ';
    *out += kWords[rng.Below(kWordCount)];
  }
}

void WriteExpected(const Expected& e, JsonWriter* w) {
  w->BeginObject();
  w->Key("verdict");
  w->String(e.verdict());
  w->Key("violations");
  w->BeginObject();
  for (const auto& [name, count] : e.violations) {
    w->Key(name);
    w->Number(count);
  }
  w->EndObject();
  w->EndObject();
}

xic::serve::Request MakeRequest(const std::string& verb,
                                std::map<std::string, std::string> headers,
                                std::string body) {
  xic::serve::Request request;
  request.verb = verb;
  request.headers = std::move(headers);
  request.body = std::move(body);
  request.body_length = request.body.size();
  return request;
}

}  // namespace

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "xicbench: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  out << data;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "xicbench: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

std::string CatalogSubset(int padding, const std::string& tag) {
  std::string subset =
      "\n<!ELEMENT catalog (publisher*, book*)>\n"
      "<!ELEMENT publisher (name)>\n"
      "<!ATTLIST publisher pid CDATA #REQUIRED>\n"
      "<!ELEMENT name (#PCDATA)>\n"
      "<!ELEMENT book (title, author+, cites?)>\n"
      "<!ATTLIST book isbn CDATA #REQUIRED pub CDATA #REQUIRED>\n"
      "<!ELEMENT title (#PCDATA)>\n"
      "<!ELEMENT author (#PCDATA)>\n"
      "<!ELEMENT cites EMPTY>\n"
      "<!ATTLIST cites to NMTOKENS #REQUIRED>\n";
  for (int i = 0; i < padding; ++i) {
    subset += "<!ELEMENT pad" + tag + "_" + std::to_string(i) +
              " (title, author*)>\n";
  }
  subset +=
      "<!-- xic:constraints language=L_u\n"
      "key publisher.pid\n"
      "key book.isbn\n"
      "fk book.pub -> publisher.pid\n"
      "sfk cites.to -> book.isbn\n"
      "-->\n";
  return subset;
}

std::string SelfDescribing(const std::string& subset,
                           const std::string& body) {
  return "<?xml version=\"1.0\"?>\n<!DOCTYPE catalog [" + subset + "]>\n" +
         body + "\n";
}

int Expected::total() const {
  int n = 0;
  for (const auto& [name, count] : violations) n += count;
  return n;
}

std::string Expected::verdict() const {
  if (!structure_valid) return "invalid_structure";
  return total() > 0 ? "constraint_violations" : "ok";
}

Expected AppendCatalog(const CatalogPlan& plan, Rng& rng, std::string* out) {
  Expected expected;
  const size_t start = out->size();
  *out += "<catalog>";
  const int publishers =
      static_cast<int>(std::max<size_t>(2, plan.target_bytes / 1500));
  for (int p = 0; p < publishers; ++p) {
    *out += "\n<publisher pid=\"p" + std::to_string(p) + "\"><name>";
    AppendWords(rng, 2, out);
    *out += "</name></publisher>";
  }
  // Plants are spread over the body: each book becomes the next pending
  // plant with a probability sized to the expected book count; whatever
  // is still pending at the end is appended, so the counts are exact.
  enum Plant { kNone, kDupIsbn, kDanglingPub, kDanglingCite, kDropTitle };
  std::vector<Plant> pending;
  for (int i = 0; i < plan.dup_isbns; ++i) pending.push_back(kDupIsbn);
  for (int i = 0; i < plan.dangling_pubs; ++i) pending.push_back(kDanglingPub);
  for (int i = 0; i < plan.dangling_cites; ++i) {
    pending.push_back(kDanglingCite);
  }
  if (plan.drop_title) pending.push_back(kDropTitle);
  for (size_t i = pending.size(); i > 1; --i) {
    std::swap(pending[i - 1], pending[rng.Below(i)]);
  }
  const double approx_books =
      std::max(1.0, static_cast<double>(plan.target_bytes) / 170.0);
  const double plant_share =
      std::min(0.5, static_cast<double>(pending.size()) / approx_books);

  std::vector<uint64_t> isbns;  // every distinct isbn written so far
  std::set<uint64_t> duplicated;
  uint64_t next_isbn = 0;
  int dangling = 0;
  for (;;) {
    const bool full = out->size() - start >= plan.target_bytes;
    if (full && pending.empty()) break;
    Plant plant = kNone;
    if (!pending.empty() && !isbns.empty() &&
        (full || rng.Unit() < plant_share)) {
      plant = pending.back();
      pending.pop_back();
    }
    uint64_t isbn = next_isbn;
    if (plant == kDupIsbn) {
      // Reuse one earlier isbn exactly once: one duplicate-key violation.
      isbn = isbns[rng.Below(isbns.size())];
      while (duplicated.count(isbn) > 0) isbn = isbns[rng.Below(isbns.size())];
      duplicated.insert(isbn);
      ++expected.violations[kKeyBook];
    } else {
      isbns.push_back(next_isbn++);
    }
    std::string pub = "p" + std::to_string(rng.Below(publishers));
    if (plant == kDanglingPub) {
      pub = "q" + std::to_string(dangling++) + plan.dangling_tag;
      ++expected.violations[kFkPub];
    }
    *out += "\n<book isbn=\"b" + std::to_string(isbn) + "\" pub=\"" + pub +
            "\">";
    if (plant == kDropTitle) {
      expected.structure_valid = false;
    } else {
      *out += "<title>";
      AppendWords(rng, 2 + static_cast<int>(rng.Below(3)), out);
      *out += "</title>";
    }
    const int authors = 1 + static_cast<int>(rng.Below(3));
    for (int a = 0; a < authors; ++a) {
      *out += "<author>";
      AppendWords(rng, 2, out);
      *out += "</author>";
    }
    std::set<uint64_t> cited;
    if (isbns.size() > 1 && rng.Below(2) == 0) {
      const int refs = 1 + static_cast<int>(rng.Below(3));
      for (int r = 0; r < refs; ++r) {
        cited.insert(isbns[rng.Below(isbns.size())]);
      }
    }
    if (!cited.empty() || plant == kDanglingCite) {
      *out += "<cites to=\"";
      bool first = true;
      for (uint64_t c : cited) {
        if (!first) *out += ' ';
        first = false;
        *out += "b" + std::to_string(c);
      }
      if (plant == kDanglingCite) {
        if (!first) *out += ' ';
        *out += "x" + std::to_string(dangling++) + plan.dangling_tag;
        ++expected.violations[kSfkCites];
      }
      *out += "\"/>";
    }
    *out += "</book>";
  }
  *out += "\n</catalog>";
  return expected;
}

// -- bigdoc -----------------------------------------------------------------

void GenerateBigdoc(uint64_t seed, size_t mib, const std::string& dir) {
  // One fixed layout; the seed picks the names the dangling references
  // use. Streaming peak memory depends on where plants sit relative to
  // the spill points -- at a 4 MiB budget it moved between 16 and 34 MiB
  // with plant positions and counts -- so a seed-dependent layout would
  // make the memory figures incomparable between seeds.
  Rng layout(0xb16d0cULL);
  CatalogPlan plan;
  plan.target_bytes = mib << 20;
  plan.dup_isbns = 15;
  plan.dangling_pubs = 7;
  plan.dangling_cites = 30;
  char tag[24];
  std::snprintf(tag, sizeof(tag), "-%08llx",
                static_cast<unsigned long long>(Rng(seed).Next() >> 32));
  plan.dangling_tag = tag;
  std::string body;
  body.reserve(plan.target_bytes + (1 << 16));
  Expected expected = AppendCatalog(plan, layout, &body);
  const std::string subset = CatalogSubset();
  const std::string doc = SelfDescribing(subset, body);
  WriteFile(dir + "/bigdoc.xml", doc);
  WriteFile(dir + "/empty.xml", SelfDescribing(subset, "<catalog/>"));

  JsonWriter w;
  w.BeginObject(JsonWriter::Layout::kIndented);
  w.Key("workload");
  w.String("bigdoc");
  w.Key("seed");
  w.Number(seed);
  w.Key("bytes");
  w.Number(static_cast<uint64_t>(doc.size()));
  w.Key("exit_code");
  w.Number(expected.total() > 0 ? 1 : 0);
  w.Key("constraints");
  w.Number(4);
  w.Key("expected");
  WriteExpected(expected, &w);
  w.EndObject();
  WriteFile(dir + "/manifest.json", w.TakeString() + "\n");
}

// -- corpus -----------------------------------------------------------------

void GenerateCorpus(uint64_t seed, size_t docs, const std::string& dir) {
  // Document sizes and contents are one fixed layout; the seed picks which
  // documents carry a plant, of which kind, and the names dangling
  // references use. With seeded sizes the corpus bytes moved by 2.6% (sd)
  // between seeds, which read as run-to-run noise in the batch times.
  Rng layout(0xc0c0ULL);
  Rng plants(seed ^ 0xc0c0ULL);
  char tag[24];
  std::snprintf(tag, sizeof(tag), "-%08llx",
                static_cast<unsigned long long>(Rng(seed).Next() >> 32));
  const std::string schema = SelfDescribing(CatalogSubset(), "<catalog/>");
  WriteFile(dir + "/schema.xml", schema);
  std::string files = dir + "/schema.xml\n";
  JsonWriter w;
  w.BeginObject(JsonWriter::Layout::kIndented);
  w.Key("workload");
  w.String("corpus");
  w.Key("seed");
  w.Number(seed);
  w.Key("documents");
  w.BeginArray(JsonWriter::Layout::kLines);
  // xicbatch validates the schema file too; its empty catalog is valid.
  w.BeginObject();
  w.Key("name");
  w.String(dir + "/schema.xml");
  w.Key("expected");
  WriteExpected(Expected{}, &w);
  w.EndObject();
  uint64_t total_bytes = schema.size();
  int invalid = 0;
  for (size_t i = 0; i < docs; ++i) {
    CatalogPlan plan;
    // Skewed sizes: 1 KiB * 64^(u^3) spans 1-64 KiB with most documents
    // small, so the few large ones decide when the batch finishes.
    const double u = layout.Unit();
    plan.target_bytes =
        static_cast<size_t>(1024.0 * std::pow(64.0, u * u * u));
    plan.dangling_tag = tag;
    if (plants.Unit() < 0.05) {
      switch (plants.Below(4)) {
        case 0: plan.dup_isbns = 1; break;
        case 1: plan.dangling_pubs = 1; break;
        case 2:
          plan.dangling_cites = 1 + static_cast<int>(plants.Below(2));
          break;
        default: plan.drop_title = true; break;
      }
    }
    Rng content(layout.Next());
    std::string body;
    Expected expected = AppendCatalog(plan, content, &body);
    body += "\n";
    char name[32];
    std::snprintf(name, sizeof(name), "/d%05zu.xml", i);
    const std::string path = dir + name;
    WriteFile(path, body);
    files += path + "\n";
    total_bytes += body.size();
    if (expected.verdict() != "ok") ++invalid;
    w.BeginObject();
    w.Key("name");
    w.String(path);
    w.Key("expected");
    WriteExpected(expected, &w);
    w.EndObject();
  }
  w.EndArray();
  w.Key("bytes");
  w.Number(total_bytes);
  w.Key("exit_code");
  w.Number(invalid > 0 ? 1 : 0);
  w.EndObject();
  WriteFile(dir + "/manifest.json", w.TakeString() + "\n");
  WriteFile(dir + "/files.txt", files);
}

// -- daemon -----------------------------------------------------------------

DaemonMix::DaemonMix(uint64_t seed, int sessions, bool stream_variant)
    : rng_(seed ^ 0xd43e0ULL),
      sessions_(sessions),
      main_verb_(stream_variant ? "validate.stream" : "validate"),
      other_verb_(stream_variant ? "validate" : "validate.stream"),
      state_(sessions) {
  const std::string subset = CatalogSubset();
  warm_schema_ = SelfDescribing(subset, "<catalog/>");
  warm_hash_ = xic::serve::ContentHash(subset);
  // The documents and schemas are one fixed set; the seed drives the
  // request stream. Seeded document sizes moved the mean body by ~4%
  // between seeds, which read as run-to-run noise in the latencies.
  Rng docs(0x5a11ULL);
  for (int i = 0; i < 64; ++i) {
    CatalogPlan plan;
    plan.target_bytes = 1024 + docs.Below(2048);
    if (i % 10 == 3) plan.dangling_cites = 1;
    std::string body;
    small_expected_.push_back(AppendCatalog(plan, docs, &body));
    small_docs_.push_back(std::move(body));
  }
  // 48 schemas of about 75 KB of estimated plan bytes each: far more than
  // the daemon's plan cache holds, so pool requests keep compiling.
  for (int k = 0; k < 48; ++k) {
    const std::string pool_subset = CatalogSubset(
        24 + static_cast<int>(docs.Below(48)), "s" + std::to_string(k));
    pool_.push_back(SelfDescribing(pool_subset, "<catalog/>"));
    CatalogPlan plan;
    plan.target_bytes = 512 + docs.Below(1024);
    if (k % 8 == 5) plan.dup_isbns = 1;
    std::string body;
    pool_expected_.push_back(AppendCatalog(plan, docs, &body));
    pool_docs_.push_back(SelfDescribing(pool_subset, body));
  }
}

std::vector<xic::serve::Request> DaemonMix::SetupRequests() const {
  std::vector<xic::serve::Request> out;
  for (size_t k = 0; k < pool_.size(); ++k) {
    out.push_back(MakeRequest(
        "schema.put", {{"id", "put" + std::to_string(k)}}, pool_[k]));
  }
  out.push_back(MakeRequest("schema.put", {{"id", "put-warm"}}, warm_schema_));
  for (int s = 0; s < sessions_; ++s) {
    out.push_back(MakeRequest("session.open",
                              {{"id", "open" + std::to_string(s)},
                               {"session", "s" + std::to_string(s)},
                               {"schema", warm_hash_}},
                              ""));
  }
  return out;
}

MixRequest DaemonMix::Make(const std::string& verb,
                           std::map<std::string, std::string> headers,
                           std::string body) {
  MixRequest m;
  headers["id"] = "r" + std::to_string(index_++);
  m.request = MakeRequest(verb, std::move(headers), std::move(body));
  m.frame = xic::serve::FormatRequest(m.request);
  m.verb = verb;
  for (char& c : m.verb) {
    if (c == '.') c = '_';
  }
  return m;
}

MixRequest DaemonMix::Next() {
  const uint64_t roll = rng_.Below(100);
  if (roll < 80) {  // reads against the warm plan
    const size_t d = rng_.Below(small_docs_.size());
    MixRequest m = Make(main_verb_, {{"schema", warm_hash_}}, small_docs_[d]);
    m.expect_verdict = small_expected_[d].verdict();
    return m;
  }
  if (roll < 88) {  // self-describing bodies from the oversized pool
    const size_t d = rng_.Below(pool_docs_.size());
    MixRequest m = Make(main_verb_, {}, pool_docs_[d]);
    m.expect_verdict = pool_expected_[d].verdict();
    return m;
  }
  if (roll < 94 && sessions_ > 0) {  // writes beside the reads
    const int s = static_cast<int>(rng_.Below(sessions_));
    SessionState& st = state_[s];
    std::string script;
    std::string body;
    auto add = [&](const std::string& parent, const std::string& label) {
      script += "add " + parent + " " + label + "\n";
      body += "vertex " + std::to_string(st.next_vertex) + "\n";
      return std::to_string(st.next_vertex++);
    };
    auto set = [&](const std::string& v, const std::string& attr,
                   const std::string& value) {
      script += "set " + v + " " + attr + " " + value + "\n";
      body += "ok\n";
    };
    if (st.next_vertex == 0) add("root", "catalog");
    if (st.publishers == 0 || rng_.Below(4) == 0) {
      set(add("0", "publisher"), "pid", "p" + std::to_string(st.publishers++));
    } else {
      const std::string v = add("0", "book");
      set(v, "isbn", "b" + std::to_string(st.books++));
      set(v, "pub", "p" + std::to_string(rng_.Below(st.publishers)));
    }
    body += "consistent true violations 0\n";
    MixRequest m = Make("session.apply", {{"session", "s" + std::to_string(s)}},
                        std::move(script));
    m.expect_body = std::move(body);
    m.session = s;
    return m;
  }
  if (roll < 98) {  // a small share of the other validate verb
    const size_t d = rng_.Below(small_docs_.size());
    MixRequest m = Make(other_verb_, {{"schema", warm_hash_}}, small_docs_[d]);
    m.expect_verdict = small_expected_[d].verdict();
    return m;
  }
  // Implication with a fresh vocabulary per request, so the memo never
  // hits: a -> b -> c chains through keys (implied), a's key is not.
  const std::string n = std::to_string(index_);
  const std::string a = "a" + n, b = "b" + n, c = "c" + n;
  std::string sigma = "key " + b + ".y\nkey " + c + ".z\nfk " + a + ".x -> " +
                      b + ".y\nfk " + b + ".y -> " + c + ".z\n";
  MixRequest m = Make("imply", {{"lang", "lu"}},
                      sigma + "?\nfk " + a + ".x -> " + c + ".z\nkey " + a +
                          ".x\n");
  m.expect_body = "implied true " + a + ".x <= " + c + ".z\nimplied false " +
                  a + ".x -> " + a + "\n";
  return m;
}

std::string DaemonMix::SetupFrames() const {
  std::string frames;
  for (const xic::serve::Request& r : SetupRequests()) {
    frames += xic::serve::FormatRequest(r);
  }
  return frames;
}

void DaemonMix::WriteManifest(const std::string& path, size_t count) const {
  DaemonMix copy = *this;
  std::map<std::string, std::map<std::string, int>> expected;
  for (size_t i = 0; i < count; ++i) {
    MixRequest m = copy.Next();
    ++expected[m.verb][m.expect_code];
    if (!m.expect_verdict.empty()) {
      ++expected[m.verb]["verdict:" + m.expect_verdict];
    }
  }
  JsonWriter w;
  w.BeginObject(JsonWriter::Layout::kIndented);
  w.Key("workload");
  w.String("daemon");
  w.Key("variant");
  w.String(main_verb_);
  w.Key("warm_schema");
  w.String(warm_hash_);
  w.Key("pool_schemas");
  w.Number(static_cast<uint64_t>(pool_.size()));
  w.Key("sessions");
  w.Number(sessions_);
  w.Key("setup_requests");
  w.Number(static_cast<uint64_t>(SetupRequests().size()));
  w.Key("first_requests");
  w.Number(static_cast<uint64_t>(count));
  w.Key("expected_codes");
  w.BeginObject(JsonWriter::Layout::kIndented);
  for (const auto& [verb, codes] : expected) {
    w.Key(verb);
    w.BeginObject();
    for (const auto& [code, n] : codes) {
      w.Key(code);
      w.Number(n);
    }
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  WriteFile(path, w.TakeString() + "\n");
}

}  // namespace xicbench
