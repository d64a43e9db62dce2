#include "xml/xml_parser.h"

#include <cctype>
#include <string_view>
#include <vector>

#include "obs/obs.h"
#include "util/strings.h"
#include "xml/dtd_parser.h"
#include "xml/stream_tokenizer.h"

namespace xic {

namespace {

// Builds the data tree from the tokenizer's events: a vertex per start
// tag, one text child per run of kText chunks.
Result<XmlDocument> BuildDocument(const std::string& text,
                                  const XmlParseOptions& options) {
  StringSource source(text);
  StreamTokenizerOptions tokenizer_options;
  tokenizer_options.limits = options.limits;
  tokenizer_options.deadline = options.deadline;
  StreamTokenizer tokenizer(source, tokenizer_options);
  XmlDocument doc;
  std::vector<VertexId> open;
  std::string run;  // the pending text run, joined across chunks
  bool run_all_space = true;
  StreamEvent event;
  while (true) {
    XIC_RETURN_IF_ERROR(tokenizer.Next(&event));
    if (event.kind == StreamEventKind::kText) {
      run.append(event.text);
      run_all_space = run_all_space && event.text_all_space;
      continue;
    }
    if (!run.empty()) {
      if (!(options.skip_ignorable_whitespace && run_all_space)) {
        doc.tree.AddChildText(open.back(), std::move(run));
      }
      run.clear();
    }
    run_all_space = true;
    switch (event.kind) {
      case StreamEventKind::kDoctype:
        doc.doctype_name.assign(event.name);
        if (event.has_internal_subset) {
          doc.internal_subset.assign(event.internal_subset);
          XIC_ASSIGN_OR_RETURN(
              doc.dtd, ParseInternalSubset(doc.internal_subset,
                                           doc.doctype_name, options.limits,
                                           options.deadline));
        }
        break;
      case StreamEventKind::kStartElement: {
        VertexId v = doc.tree.AddVertex(event.name);
        if (!open.empty()) {
          XIC_RETURN_IF_ERROR(doc.tree.AddChildVertex(open.back(), v));
        }
        // Set-valuedness comes from the document's own DTD when it has
        // one, else from the caller's.
        const DtdStructure* dtd =
            doc.dtd.has_value() ? &*doc.dtd : options.dtd;
        for (const StreamEvent::Attr& attr : event.attrs) {
          doc.tree.SetAttribute(
              v, attr.name,
              TokenizeAttrValue(attr.value,
                                dtd != nullptr &&
                                    dtd->IsSetValued(event.name, attr.name)));
        }
        open.push_back(v);
        break;
      }
      case StreamEventKind::kEndElement:
        open.pop_back();
        break;
      case StreamEventKind::kText:  // joined above
        break;
      case StreamEventKind::kEndDocument:
        return doc;
    }
  }
}

}  // namespace

Result<std::string> ExpandXmlEntity(std::string_view ref) {
  if (ref == "lt") return std::string("<");
  if (ref == "gt") return std::string(">");
  if (ref == "amp") return std::string("&");
  if (ref == "apos") return std::string("'");
  if (ref == "quot") return std::string("\"");
  if (!ref.empty() && ref[0] == '#') {
    int base = 10;
    std::string_view digits = ref.substr(1);
    if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
      base = 16;
      digits = digits.substr(1);
    }
    if (digits.empty()) {
      return Result<std::string>(
          Status::ParseError("empty character reference"));
    }
    unsigned long code = 0;
    for (char c : digits) {
      int d;
      if (c >= '0' && c <= '9') {
        d = c - '0';
      } else if (base == 16 && std::isxdigit(static_cast<unsigned char>(c))) {
        d = std::tolower(c) - 'a' + 10;
      } else {
        return Result<std::string>(
            Status::ParseError("bad character reference"));
      }
      code = code * base + static_cast<unsigned long>(d);
      if (code > 0x10FFFF) {
        return Result<std::string>(
            Status::ParseError("character reference out of range"));
      }
    }
    // Only XML Chars are referencable (Section 2.2): #x9 | #xA | #xD |
    // [#x20-#xD7FF] | [#xE000-#xFFFD] | [#x10000-#x10FFFF]. This
    // excludes NUL, other C0 controls, surrogates and #xFFFE/#xFFFF.
    bool valid = code == 0x9 || code == 0xA || code == 0xD ||
                 (code >= 0x20 && code <= 0xD7FF) ||
                 (code >= 0xE000 && code <= 0xFFFD) || code >= 0x10000;
    if (!valid) {
      return Result<std::string>(
          Status::ParseError("character reference to invalid XML character"));
    }
    // UTF-8 encode.
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }
  return Result<std::string>(Status::ParseError(
      "unknown entity reference &" + std::string(ref) + ";"));
}

AttrValue TokenizeAttrValue(std::string_view raw, bool set_valued) {
  AttrValue out;
  if (!set_valued) {
    out.emplace(raw);
    return out;
  }
  // Set-valued (IDREFS-style) attributes split on XML S whitespace only:
  // \f/\v are data bytes, not separators, so extents cannot change under
  // locale-flavored isspace.
  ForEachXmlSpaceToken(raw, [&](std::string_view t) { out.emplace(t); });
  return out;
}

Result<XmlDocument> ParseXml(const std::string& text,
                             const XmlParseOptions& options) {
  obs::ScopedSpan span("xml.parse", "xml");
  span.AddInt("bytes", static_cast<int64_t>(text.size()));
  XIC_COUNTER_ADD("xml.parse.calls", 1);
  XIC_COUNTER_ADD("xml.parse.bytes", text.size());
  XIC_HISTOGRAM_OBSERVE("xml.parse.bytes_per_doc", text.size(),
                        {1024.0, 16384.0, 262144.0, 4194304.0});
  Result<XmlDocument> result = BuildDocument(text, options);
  if (result.ok()) {
    span.AddInt("vertices",
                static_cast<int64_t>(result.value().tree.size()));
  } else {
    XIC_COUNTER_ADD("xml.parse.errors", 1);
    span.AddString("error", result.status().ToString());
  }
  return result;
}

}  // namespace xic
