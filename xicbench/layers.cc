#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "constraints/checker.h"
#include "engine/batch_validator.h"
#include "engine/extent_log.h"
#include "engine/stream_validator.h"
#include "gen.h"
#include "load.h"
#include "model/structural_validator.h"
#include "serve/dispatcher.h"
#include "serve/server.h"
#include "util/json_writer.h"
#include "xml/dtdc_io.h"
#include "xml/stream_tokenizer.h"
#include "xml/xml_parser.h"

namespace xicbench {

namespace {

using Clock = std::chrono::steady_clock;
using xic::util::JsonWriter;

/// The benchmark's own span recorder: single-threaded, in memory, written
/// out once at the end.
class Spans {
 public:
  /// RAII span; nested scopes become child spans.
  class Scope {
   public:
    Scope(Spans* spans, std::string name) : spans_(spans) {
      index_ = spans_->spans_.size();
      const int parent = spans_->open_.empty()
                             ? -1
                             : static_cast<int>(spans_->open_.back());
      spans_->spans_.push_back({std::move(name), spans_->Now(), 0, parent});
      spans_->open_.push_back(index_);
    }
    ~Scope() { Close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Ends the span (idempotent) and returns its length in seconds.
    double Close() {
      Span& span = spans_->spans_[index_];
      if (!closed_) {
        span.end_us = spans_->Now();
        spans_->open_.pop_back();
        closed_ = true;
      }
      return (span.end_us - span.start_us) * 1e-6;
    }

   private:
    Spans* spans_;
    size_t index_ = 0;
    bool closed_ = false;
  };

  std::string ChromeJson() const {
    JsonWriter w;
    w.BeginObject();
    w.Key("traceEvents");
    w.BeginArray(JsonWriter::Layout::kLines);
    for (const Span& s : spans_) {
      w.BeginObject();
      w.Key("name");
      w.String(s.name);
      w.Key("cat");
      w.String("xicbench");
      w.Key("ph");
      w.String("X");
      w.Key("ts");
      w.Raw(Num(s.start_us));
      w.Key("dur");
      w.Raw(Num(s.end_us - s.start_us));
      w.Key("pid");
      w.Number(1);
      w.Key("tid");
      w.Number(1);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    return w.TakeString() + "\n";
  }

  /// Per span name: count, total and self milliseconds, where self time
  /// is a span's length minus the length of its direct children.
  std::string SelfTimeTable() const {
    struct Row {
      size_t count = 0;
      double total_us = 0;
      double self_us = 0;
    };
    std::map<std::string, Row> rows;
    std::vector<double> child_us(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      Row& row = rows[spans_[i].name];
      const double d = spans_[i].end_us - spans_[i].start_us;
      ++row.count;
      row.total_us += d;
      row.self_us += d - child_us[i];
    }
    std::string out =
        "span                                      count    total_ms"
        "     self_ms\n";
    for (const auto& [name, row] : rows) {
      char line[160];
      std::snprintf(line, sizeof(line), "%-40s %7zu %11.3f %11.3f\n",
                    name.c_str(), row.count, row.total_us / 1e3,
                    row.self_us / 1e3);
      out += line;
    }
    return out;
  }

  static std::string Num(double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
  }

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
  };
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// The workload's documents and the schema they are validated against.
struct Inputs {
  xic::DtdStructure dtd;
  xic::ConstraintSet sigma;
  std::vector<std::string> docs;
  uint64_t bytes = 0;
};

Inputs LoadInputs(const LayerConfig& config) {
  Inputs in;
  std::string schema;
  if (config.workload == "bigdoc") {
    schema = ReadFile(config.dir + "/empty.xml");
    in.docs.push_back(ReadFile(config.dir + "/bigdoc.xml"));
  } else if (config.workload == "corpus") {
    schema = ReadFile(config.dir + "/schema.xml");
    const std::string list = ReadFile(config.dir + "/files.txt");
    size_t pos = list.find('\n') + 1;  // the schema file comes first
    while (pos < list.size()) {
      const size_t eol = list.find('\n', pos);
      in.docs.push_back(ReadFile(list.substr(pos, eol - pos)));
      pos = eol + 1;
    }
  } else {
    std::fprintf(stderr, "xicbench_probe layers: unknown workload '%s'\n",
                 config.workload.c_str());
    std::exit(2);
  }
  xic::Result<xic::SelfDescribingDocument> parsed =
      xic::ParseDocumentWithDtdC(schema);
  if (!parsed.ok() || !parsed.value().document.dtd.has_value() ||
      !parsed.value().sigma.has_value()) {
    std::fprintf(stderr, "xicbench: schema does not parse\n");
    std::exit(2);
  }
  in.dtd = *parsed.value().document.dtd;
  in.sigma = *parsed.value().sigma;
  for (const std::string& d : in.docs) in.bytes += d.size();
  return in;
}

/// Appends the field tuples one constraint position contributes: the
/// records StreamValidator's extraction produces for the same vertices.
/// Vertices missing a field contribute nothing.
void AppendPosition(const xic::DataTree& tree, const xic::ExtentIndex& index,
                    const xic::ConstraintChecker& checker,
                    const std::string& element,
                    const std::vector<std::string>& attrs, bool per_value,
                    xic::TupleLog* log) {
  std::string payload;
  for (xic::VertexId v : index.Extent(element)) {
    std::vector<xic::AttrValue> values;
    bool complete = true;
    for (const std::string& attr : attrs) {
      xic::Result<xic::AttrValue> value = checker.FieldValue(tree, v, attr);
      if (!value.ok()) {
        complete = false;
        break;
      }
      values.push_back(std::move(value).value());
    }
    if (!complete) continue;
    if (per_value) {
      uint32_t rank = 0;
      for (const std::string& value : values[0]) {
        payload.clear();
        xic::EncodeTupleInto({value}, &payload);
        (void)log->Append(v, rank++, payload);
      }
      continue;
    }
    std::vector<std::string_view> tuple;
    for (const xic::AttrValue& value : values) {
      tuple.push_back(value.empty() ? std::string_view() : *value.begin());
    }
    payload.clear();
    xic::EncodeTupleInto(tuple, &payload);
    (void)log->Append(v, 0, payload);
  }
}

/// Blocking request/response on a connected socket (closed loop).
bool Rpc(int fd, const std::string& frame, std::string* line,
         std::string* body) {
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  line->clear();
  char c = 0;
  for (;;) {
    if (::read(fd, &c, 1) != 1) return false;
    if (c == '\n') break;
    line->push_back(c);
  }
  xic::Result<xic::serve::ResponseHead> head =
      xic::serve::ParseResponseLine(*line);
  if (!head.ok()) return false;
  body->assign(head.value().body_length, '\0');
  off = 0;
  while (off < body->size()) {
    ssize_t n = ::read(fd, body->data() + off, body->size() - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

int Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::fprintf(stderr, "xicbench: cannot connect to the in-process server\n");
    std::exit(2);
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

int RunLayers(const LayerConfig& config) {
  Spans spans;
  std::map<std::string, double> m;
  uint64_t failed = 0;
  const Inputs in = LoadInputs(config);
  const double bytes = static_cast<double>(in.bytes);
  const xic::ResourceLimits unlimited = xic::ResourceLimits::Unlimited();
  Spans::Scope root(&spans, "layers." + config.workload);

  // -- xml: the tokenizer's Next() loop alone, then the DOM build ----------
  double tokenize_s = 0;
  {
    Spans::Scope phase(&spans, "xml");
    for (const std::string& doc : in.docs) {
      Spans::Scope span(&spans, "xml.tokenize");
      xic::StringSource source(doc);
      xic::StreamTokenizerOptions options;
      options.limits = unlimited;
      xic::StreamTokenizer tokenizer(source, options);
      xic::StreamEvent event;
      for (;;) {
        if (!tokenizer.Next(&event).ok()) {
          ++failed;
          break;
        }
        if (event.kind == xic::StreamEventKind::kEndDocument) break;
      }
      tokenize_s += span.Close();
    }
  }
  m["xml.tokenize_ns_per_byte"] = tokenize_s * 1e9 / bytes;

  std::vector<xic::XmlDocument> trees;
  trees.reserve(in.docs.size());
  {
    Spans::Scope phase(&spans, "xml");
    double parse_s = 0;
    xic::XmlParseOptions options;
    options.dtd = &in.dtd;
    options.limits = unlimited;
    for (const std::string& doc : in.docs) {
      Spans::Scope span(&spans, "xml.parse");
      xic::Result<xic::XmlDocument> parsed = xic::ParseXml(doc, options);
      parse_s += span.Close();
      if (!parsed.ok()) {
        ++failed;
        continue;
      }
      trees.push_back(std::move(parsed).value());
    }
    m["xml.parse_ns_per_byte"] = parse_s * 1e9 / bytes;
  }

  // -- model / constraints over the built trees ----------------------------
  {
    xic::ValidationOptions options;
    options.allow_missing_attributes = true;
    options.limits = unlimited;
    xic::StructuralValidator validator(in.dtd, options);
    xic::ConstraintChecker checker(in.dtd, in.sigma);
    Spans::Scope phase(&spans, "model+constraints");
    double structure_s = 0, check_s = 0;
    size_t vertices = 0, violations = 0;
    for (const xic::XmlDocument& doc : trees) {
      Spans::Scope s1(&spans, "model.structure");
      xic::ValidationReport structure = validator.Validate(doc.tree);
      structure_s += s1.Close();
      Spans::Scope s2(&spans, "constraints.check");
      xic::ConstraintReport report = checker.Check(doc.tree);
      check_s += s2.Close();
      vertices += doc.tree.size();
      violations += report.violations.size();
    }
    m["model.vertices"] = static_cast<double>(vertices);
    m["model.structure_ns_per_vertex"] = structure_s * 1e9 / vertices;
    m["constraints.check_ns_per_vertex"] = check_s * 1e9 / vertices;
    m["constraints.violations"] = static_cast<double>(violations);
  }

  // -- engine.stream: the whole streaming pipeline on the same bytes -------
  {
    xic::StreamOptions options;
    options.validation.allow_missing_attributes = true;
    options.limits = unlimited;
    options.spill_budget_bytes = config.spill_mb << 20;
    xic::StreamValidator validator(in.dtd, in.sigma, options);
    Spans::Scope phase(&spans, "engine.stream");
    double stream_s = 0;
    xic::StreamStats total;
    for (const std::string& doc : in.docs) {
      Spans::Scope span(&spans, "engine.stream.run");
      xic::StringSource source(doc);
      xic::StreamOutcome outcome = validator.Run(source);
      stream_s += span.Close();
      if (!outcome.parse.ok()) ++failed;
      total.extent_records += outcome.stats.extent_records;
      total.spilled_bytes += outcome.stats.spilled_bytes;
      total.spill_runs += outcome.stats.spill_runs;
    }
    m["engine.stream.self_ns_per_byte"] = (stream_s - tokenize_s) * 1e9 / bytes;
    m["engine.stream.extent_records"] =
        static_cast<double>(total.extent_records);
    m["engine.stream.spilled_mb"] =
        static_cast<double>(total.spilled_bytes) / (1 << 20);
    m["engine.stream.spill_runs"] = static_cast<double>(total.spill_runs);
  }

  // -- engine.extent_log: the same record shapes replayed through TupleLog
  // under the workload's budget, one budget per document as the streaming
  // run has --------------------------------------------------------------
  {
    xic::ConstraintChecker checker(in.dtd, in.sigma);
    Spans::Scope phase(&spans, "engine.extent_log");
    double append_s = 0, finish_s = 0, scan_s = 0;
    size_t records = 0;
    for (const xic::XmlDocument& doc : trees) {
      xic::ExtentIndex index(doc.tree);
      xic::SpillBudget budget(config.spill_mb << 20);
      std::vector<std::unique_ptr<xic::TupleLog>> logs;
      Spans::Scope append(&spans, "engine.extent_log.append");
      for (const xic::Constraint& c : in.sigma.constraints) {
        // Inverses are evaluated in memory by the streaming run, not logged.
        if (c.kind == xic::ConstraintKind::kInverse) continue;
        const bool set_valued = c.kind == xic::ConstraintKind::kSetForeignKey;
        logs.push_back(std::make_unique<xic::TupleLog>(&budget));
        AppendPosition(doc.tree, index, checker, c.element, c.attrs,
                       set_valued, logs.back().get());
        if (c.kind == xic::ConstraintKind::kForeignKey ||
            c.kind == xic::ConstraintKind::kSetForeignKey) {
          logs.push_back(std::make_unique<xic::TupleLog>(&budget));
          AppendPosition(doc.tree, index, checker, c.ref_element,
                         c.ref_attrs, false, logs.back().get());
        }
      }
      append_s += append.Close();
      Spans::Scope finish(&spans, "engine.extent_log.finish");
      for (auto& log : logs) {
        if (!log->Finish().ok()) ++failed;
      }
      finish_s += finish.Close();
      Spans::Scope scan(&spans, "engine.extent_log.scan");
      for (auto& log : logs) {
        xic::TupleLog::Cursor cursor = log->Scan();
        xic::TupleLog::Record record;
        while (cursor.Next(&record)) ++records;
      }
      scan_s += scan.Close();
    }
    const double n = std::max<size_t>(records, 1);
    m["engine.extent_log.append_ns_per_record"] = append_s * 1e9 / n;
    m["engine.extent_log.finish_ms"] = finish_s * 1e3;
    m["engine.extent_log.scan_ns_per_record"] = scan_s * 1e9 / n;
  }

  // -- engine.pool: BatchValidator at 1, 2 and N threads -------------------
  {
    std::vector<xic::BatchDocument> corpus;
    for (size_t i = 0; i < in.docs.size(); ++i) {
      corpus.push_back({"doc" + std::to_string(i), in.docs[i]});
    }
    Spans::Scope phase(&spans, "engine.pool");
    const std::set<size_t> widths = {1, 2, config.threads};
    std::map<size_t, double> wall;
    std::string first_json;
    xic::BatchReport widest;
    for (size_t width : widths) {
      xic::BatchOptions options;
      options.num_threads = width;
      options.validation.allow_missing_attributes = true;
      options.limits = unlimited;
      xic::BatchValidator validator(in.dtd, in.sigma, options);
      Spans::Scope span(&spans, "engine.pool.run_" + std::to_string(width));
      xic::BatchReport report = validator.Run(corpus);
      wall[width] = span.Close();
      const std::string json = report.ToJson(in.sigma);
      if (first_json.empty()) first_json = json;
      if (json != first_json) ++failed;  // reports must not depend on width
      widest = std::move(report);
    }
    // The 1 / 2 / N-thread scaling curve, documents per second.
    const double docs = static_cast<double>(corpus.size());
    m["engine.pool.docs_s_1t"] = docs / wall[1];
    m["engine.pool.docs_s_2t"] = docs / wall[2];
    m["engine.pool.docs_s_nt"] = docs / wall[config.threads];
    double busy = 0;
    for (const xic::DocumentOutcome& o : widest.outcomes) {
      busy += o.parse_seconds + o.structure_seconds + o.constraints_seconds;
    }
    const double n = static_cast<double>(config.threads);
    m["engine.pool.speedup"] = wall[1] / wall[config.threads];
    m["engine.pool.idle_share"] =
        std::max(0.0, 1.0 - busy / (n * wall[config.threads]));

    // -- constraints.render: the report bytes the CLIs print -------------
    Spans::Scope render(&spans, "constraints.render");
    const std::string text =
        widest.ViolationsToString(in.sigma) + widest.ToJson(in.sigma);
    m["constraints.render_us_per_doc"] =
        render.Close() * 1e6 / corpus.size();
    if (text.empty()) ++failed;
  }

  // -- serve: always on the daemon mix from the same seed ------------------
  xic::serve::DispatcherOptions dispatch_options;
  dispatch_options.cache.max_bytes = config.cache_bytes;
  {
    Spans::Scope phase(&spans, "serve.compile");
    DaemonMix mix(config.seed, config.conns);
    xic::serve::Dispatcher cold(dispatch_options);
    std::vector<std::string> schemas = mix.pool_schemas();
    schemas.push_back(mix.warm_schema());
    std::vector<double> us;
    for (const std::string& schema : schemas) {
      Spans::Scope span(&spans, "serve.plan_compile");
      bool hit = true;
      if (!cold.CompileIntoCache(schema, "compile", &hit).ok() || hit) {
        ++failed;
      }
      us.push_back(span.Close() * 1e6);
    }
    m["serve.plan_compile_us"] = Median(us);
  }
  std::vector<std::pair<std::string, double>> warm_handles;  // frame, us
  {
    Spans::Scope phase(&spans, "serve.dispatch");
    DaemonMix mix(config.seed, config.conns);
    xic::serve::Dispatcher dispatcher(dispatch_options);
    for (const xic::serve::Request& r : mix.SetupRequests()) {
      (void)dispatcher.Handle(r);
    }
    const xic::serve::PlanCache::Stats before = dispatcher.cache().stats();
    std::map<std::string, std::vector<double>> per_verb;
    std::vector<double> imply_us;
    for (int i = 0; i < 3000; ++i) {
      MixRequest r = mix.Next();
      Spans::Scope span(&spans, "serve.dispatch." + r.verb);
      xic::serve::Response response = dispatcher.Handle(r.request);
      const double us = span.Close() * 1e6;
      per_verb[r.verb].push_back(us);
      if (r.verb == "imply" && response.headers["memo"] == "miss") {
        imply_us.push_back(us);
      }
      if (r.verb == "validate" && r.request.headers.count("schema") > 0 &&
          warm_handles.size() < 400) {
        warm_handles.emplace_back(r.frame, us);
      }
    }
    for (const char* verb :
         {"validate", "validate_stream", "session_apply", "imply"}) {
      m[std::string("serve.dispatch_us.") + verb] = Median(per_verb[verb]);
    }
    m["implication.imply_us"] = Median(imply_us);
    const xic::serve::PlanCache::Stats after = dispatcher.cache().stats();
    const double hits = static_cast<double>(after.hits - before.hits);
    const double misses = static_cast<double>(after.misses - before.misses);
    m["serve.plan_cache.hit_ratio"] = hits / std::max(1.0, hits + misses);
    m["serve.plan_cache.evictions"] =
        static_cast<double>(after.evictions - before.evictions);
  }
  {
    // serve.frame_us: a loopback round trip to an in-process Server minus
    // Handle for the same frame.
    xic::serve::ServerOptions options;
    options.num_threads = config.serve_threads;
    options.dispatcher = dispatch_options;
    xic::serve::Server server(options);
    if (!server.Start().ok()) {
      std::fprintf(stderr, "xicbench: in-process server did not start\n");
      return 2;
    }
    DaemonMix mix(config.seed, config.conns);
    Spans::Scope phase(&spans, "serve.frame");
    {
      const int fd = Connect(server.port());
      std::string line, body;
      for (const xic::serve::Request& r : mix.SetupRequests()) {
        if (!Rpc(fd, xic::serve::FormatRequest(r), &line, &body)) ++failed;
      }
      std::vector<double> framing;
      for (const auto& [frame, handle_us] : warm_handles) {
        Spans::Scope span(&spans, "serve.round_trip");
        if (!Rpc(fd, frame, &line, &body)) ++failed;
        framing.push_back(span.Close() * 1e6 - handle_us);
      }
      ::close(fd);
      m["serve.frame_us"] = Median(framing);
    }
    server.Shutdown(/*drain=*/true);
  }
  root.Close();

  if (!config.trace_out.empty()) {
    WriteFile(config.trace_out, spans.ChromeJson());
  }
  if (!config.table_out.empty()) {
    WriteFile(config.table_out, spans.SelfTimeTable());
  }
  JsonWriter w;
  w.BeginObject(JsonWriter::Layout::kIndented);
  w.Key("failed");
  w.Number(failed);
  w.Key("metrics");
  w.BeginObject(JsonWriter::Layout::kIndented);
  for (const auto& [name, value] : m) {
    w.Key(name);
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    w.Raw(buf);
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.TakeString().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace xicbench
