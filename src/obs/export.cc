#include "obs/export.h"

#if XIC_OBS_ENABLED

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "util/json_writer.h"

namespace xic::obs {

namespace {

// Microseconds with nanosecond precision, printed without locale
// dependence ("12.345").
std::string Micros(uint64_t ns) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buffer;
}

std::string AttrValueJson(const SpanAttr& attr) {
  switch (attr.kind) {
    case SpanAttr::Kind::kInt:
      return std::to_string(attr.int_value);
    case SpanAttr::Kind::kDouble: {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.6g", attr.double_value);
      return buffer;
    }
    case SpanAttr::Kind::kString:
      return "\"" + util::JsonWriter::Escape(attr.string_value) + "\"";
  }
  return "null";
}

}  // namespace

std::string ToChromeTraceJson(const TraceSnapshot& snapshot) {
  using Layout = util::JsonWriter::Layout;
  util::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  // One event per line (the trace_event convention the golden pins).
  w.BeginArray(Layout::kLines);
  auto metadata = [&w](uint32_t tid, const char* name,
                       const std::string& value) {
    w.BeginObject();
    w.Key("ph");
    w.String("M");
    w.Key("pid");
    w.Number(1);
    w.Key("tid");
    w.Number(static_cast<uint64_t>(tid));
    w.Key("name");
    w.String(name);
    w.Key("args");
    w.BeginObject();
    w.Key("name");
    w.String(value);
    w.EndObject();
    w.EndObject();
  };
  metadata(0, "process_name", "xic");
  for (size_t t = 0; t < snapshot.thread_names.size(); ++t) {
    metadata(static_cast<uint32_t>(t), "thread_name",
             snapshot.thread_names[t]);
  }
  for (const SpanRecord& span : snapshot.spans) {
    uint64_t dur = span.end_ns >= span.start_ns
                       ? span.end_ns - span.start_ns
                       : 0;
    w.BeginObject();
    w.Key("ph");
    w.String("X");
    w.Key("pid");
    w.Number(1);
    w.Key("tid");
    w.Number(static_cast<uint64_t>(span.tid));
    w.Key("ts");
    w.Raw(Micros(span.start_ns));
    w.Key("dur");
    w.Raw(Micros(dur));
    w.Key("name");
    w.String(span.name);
    w.Key("cat");
    w.String(span.cat);
    if (span.seq >= 0 || !span.attrs.empty()) {
      w.Key("args");
      w.BeginObject();
      if (span.seq >= 0) {
        w.Key("seq");
        w.Number(span.seq);
      }
      for (const SpanAttr& attr : span.attrs) {
        w.Key(attr.key);
        w.Raw(AttrValueJson(attr));
      }
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.EndObject();
  return w.TakeString() + "\n";
}

namespace {

struct TreeNode {
  size_t span;
  std::vector<size_t> children;
};

std::string RenderSubtree(const TraceSnapshot& snapshot,
                          const std::vector<std::vector<size_t>>& children,
                          size_t index, size_t depth,
                          const TreeStringOptions& options) {
  const SpanRecord& span = snapshot.spans[index];
  std::string line(depth * 2, ' ');
  line += span.name;
  if (!span.cat.empty()) line += " [" + span.cat + "]";
  if (span.seq >= 0) line += " seq=" + std::to_string(span.seq);
  if (!span.attrs.empty()) {
    std::vector<std::string> rendered;
    for (const SpanAttr& attr : span.attrs) {
      if (options.attr_values) {
        rendered.push_back(attr.key + "=" + AttrValueJson(attr));
      } else {
        rendered.push_back(attr.key);
      }
    }
    std::sort(rendered.begin(), rendered.end());
    line += " {";
    for (size_t i = 0; i < rendered.size(); ++i) {
      if (i > 0) line += ",";
      line += rendered[i];
    }
    line += "}";
  }
  line += "\n";
  std::vector<std::string> child_strings;
  std::vector<std::tuple<int64_t, std::string, std::string, size_t>> order;
  for (size_t child : children[index]) {
    const SpanRecord& c = snapshot.spans[child];
    order.emplace_back(c.seq, c.name, c.cat, child);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return std::tie(std::get<0>(a), std::get<1>(a),
                                     std::get<2>(a)) <
                            std::tie(std::get<0>(b), std::get<1>(b),
                                     std::get<2>(b));
                   });
  for (const auto& [seq, name, cat, child] : order) {
    line += RenderSubtree(snapshot, children, child, depth + 1, options);
  }
  return line;
}

}  // namespace

std::string DeterministicTreeString(const TraceSnapshot& snapshot,
                                    const TreeStringOptions& options) {
  std::vector<std::vector<size_t>> children(snapshot.spans.size());
  for (size_t i = 0; i < snapshot.spans.size(); ++i) {
    int32_t parent = snapshot.spans[i].parent;
    if (parent >= 0) children[static_cast<size_t>(parent)].push_back(i);
  }
  std::vector<size_t> roots;
  for (size_t i = 0; i < snapshot.spans.size(); ++i) {
    const SpanRecord& span = snapshot.spans[i];
    bool is_root = options.root_name.empty() ? span.parent < 0
                                             : span.name == options.root_name;
    if (is_root) roots.push_back(i);
  }
  // Sort roots by the same deterministic key, then by rendered body so
  // identical (seq, name, cat) roots still order stably.
  std::vector<std::string> rendered;
  rendered.reserve(roots.size());
  for (size_t root : roots) {
    rendered.push_back(RenderSubtree(snapshot, children, root, 0, options));
  }
  std::vector<std::tuple<int64_t, std::string, std::string, std::string>>
      order;
  for (size_t i = 0; i < roots.size(); ++i) {
    const SpanRecord& span = snapshot.spans[roots[i]];
    order.emplace_back(span.seq, span.name, span.cat,
                       std::move(rendered[i]));
  }
  std::sort(order.begin(), order.end());
  std::string out;
  for (const auto& [seq, name, cat, body] : order) out += body;
  return out;
}

}  // namespace xic::obs

#endif  // XIC_OBS_ENABLED
