#include "xml/xml_parser.h"

#include <cctype>
#include <string_view>
#include <vector>

#include "obs/obs.h"
#include "util/strings.h"
#include "xml/dtd_parser.h"

namespace xic {

namespace {

bool IsAllWhitespace(std::string_view text) {
  for (char c : text) {
    if (!IsXmlSpace(c)) return false;
  }
  return true;
}

class XmlParser {
 public:
  XmlParser(std::string_view text, const XmlParseOptions& options)
      : text_(text), options_(options) {}

  Result<XmlDocument> Parse() {
    XIC_RETURN_IF_ERROR(CheckLimit(text_.size(),
                                   options_.limits.max_document_bytes,
                                   "max_document_bytes", "document size"));
    XIC_RETURN_IF_ERROR(ParseProlog());
    XIC_ASSIGN_OR_RETURN(VertexId root, ParseElement(kInvalidVertex, 1));
    (void)root;
    SkipMisc();
    if (pos_ != text_.size()) {
      return Result<XmlDocument>(Error("content after document element"));
    }
    return std::move(doc_);
  }

 private:
  Status ParseProlog() {
    SkipMisc();
    if (PeekXmlDecl()) {
      size_t end = text_.find("?>", pos_);
      if (end == std::string_view::npos) {
        return Error("unterminated XML declaration");
      }
      pos_ = end + 2;
    }
    SkipMisc();
    if (Peek("<!DOCTYPE")) {
      XIC_RETURN_IF_ERROR(ParseDoctype());
    }
    SkipMisc();
    return Status::OK();
  }

  Status ParseDoctype() {
    pos_ += 9;  // "<!DOCTYPE"
    SkipSpace();
    XIC_ASSIGN_OR_RETURN(std::string_view doctype_name, ParseName());
    doc_.doctype_name.assign(doctype_name);
    SkipSpace();
    // External id (SYSTEM/PUBLIC) -- recorded as unsupported external
    // subset; we only read the internal subset.
    if (Peek("SYSTEM") || Peek("PUBLIC")) {
      while (pos_ < text_.size() && text_[pos_] != '[' && text_[pos_] != '>') {
        if (text_[pos_] == '"' || text_[pos_] == '\'') {
          size_t end = text_.find(text_[pos_], pos_ + 1);
          if (end == std::string_view::npos) {
            return Error("unterminated literal in DOCTYPE");
          }
          pos_ = end + 1;
        } else {
          ++pos_;
        }
      }
    }
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '[') {
      ++pos_;
      // The subset ends at the first ']' outside comments, processing
      // instructions and quoted literals (comments may contain ']', e.g.
      // embedded constraint blocks with multi-attribute keys).
      size_t end = std::string_view::npos;
      for (size_t i = pos_; i < text_.size();) {
        if (text_.substr(i, 4) == "<!--") {
          size_t close = text_.find("-->", i + 4);
          if (close == std::string_view::npos) break;
          i = close + 3;
        } else if (text_.substr(i, 2) == "<?") {
          size_t close = text_.find("?>", i + 2);
          if (close == std::string_view::npos) break;
          i = close + 2;
        } else if (text_[i] == '"' || text_[i] == '\'') {
          size_t close = text_.find(text_[i], i + 1);
          if (close == std::string_view::npos) break;
          i = close + 1;
        } else if (text_[i] == ']') {
          end = i;
          break;
        } else {
          ++i;
        }
      }
      if (end == std::string_view::npos) {
        return Error("unterminated internal subset");
      }
      std::string subset(text_.substr(pos_, end - pos_));
      pos_ = end + 1;
      DtdParseOptions dtd_options;
      dtd_options.limits = options_.limits;
      dtd_options.deadline = options_.deadline;
      XIC_ASSIGN_OR_RETURN(
          DtdStructure dtd,
          ParseDtd(subset, doc_.doctype_name, dtd_options));
      doc_.dtd = std::move(dtd);
      doc_.internal_subset = std::move(subset);
    }
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '>') {
      return Error("expected '>' closing DOCTYPE");
    }
    ++pos_;
    return Status::OK();
  }

  // One element currently open during the iterative content walk. `name`
  // is a view into the input buffer (stable for the whole parse).
  struct OpenElement {
    std::string_view name;
    VertexId vertex = kInvalidVertex;
    std::string text_buffer;
  };

  // Parses one element subtree with an explicit open-element stack (no
  // recursion, so max_tree_depth can be raised arbitrarily without
  // overflowing the native stack); attaches the top element to `parent`
  // (or makes it the root). `depth` is the nesting depth of the first
  // start tag (root = 1).
  Result<VertexId> ParseElement(VertexId parent, size_t depth) {
    std::vector<OpenElement> stack;
    auto flush_text = [&](OpenElement& open) {
      if (open.text_buffer.empty()) return;
      if (!(options_.skip_ignorable_whitespace &&
            IsAllWhitespace(open.text_buffer))) {
        doc_.tree.AddChildText(open.vertex, std::move(open.text_buffer));
      }
      open.text_buffer.clear();
    };
    while (true) {
      // Positioned at a start tag.
      XIC_RETURN_IF_ERROR(CheckLimit(depth + stack.size(),
                                     options_.limits.max_tree_depth,
                                     "max_tree_depth",
                                     "element nesting depth"));
      XIC_RETURN_IF_ERROR(options_.deadline.Check("XML parse"));
      if (pos_ >= text_.size() || text_[pos_] != '<') {
        return Result<VertexId>(Error("expected '<'"));
      }
      ++pos_;
      // Names are views into the input buffer (zero-copy): the only copy
      // happens inside the tree's symbol table, once per distinct name.
      XIC_ASSIGN_OR_RETURN(std::string_view name, ParseName());
      VertexId v = doc_.tree.AddVertex(name);
      VertexId p = stack.empty() ? parent : stack.back().vertex;
      if (p != kInvalidVertex) {
        XIC_RETURN_IF_ERROR(doc_.tree.AddChildVertex(p, v));
      }
      // Attributes.
      bool self_closing = false;
      size_t num_attrs = 0;
      while (true) {
        SkipSpace();
        if (pos_ >= text_.size()) {
          return Result<VertexId>(Error("unterminated start tag"));
        }
        if (text_[pos_] == '>') {
          ++pos_;
          break;
        }
        if (Peek("/>")) {
          pos_ += 2;
          self_closing = true;
          break;
        }
        XIC_RETURN_IF_ERROR(CheckLimit(
            ++num_attrs, options_.limits.max_attributes_per_element,
            "max_attributes_per_element",
            [&] { return "attributes on element " + std::string(name); }));
        XIC_ASSIGN_OR_RETURN(std::string_view attr, ParseName());
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_] != '=') {
          return Result<VertexId>(Error("expected '=' after attribute name"));
        }
        ++pos_;
        SkipSpace();
        XIC_ASSIGN_OR_RETURN(std::string_view raw, ParseQuoted());
        doc_.tree.SetAttribute(v, attr, MakeAttrValue(name, attr, raw));
      }
      if (self_closing) {
        if (stack.empty()) return v;
      } else {
        stack.push_back(OpenElement{name, v, {}});
      }
      // Content of the innermost open element; leaves this loop either by
      // closing the subtree's first element (return) or at a child start
      // tag (back to the outer loop).
      bool at_child_start = false;
      while (!at_child_start && !stack.empty()) {
        OpenElement& top = stack.back();
        if (pos_ >= text_.size()) {
          return Result<VertexId>(
              Error("unterminated element " + std::string(top.name)));
        }
        if (Peek("</")) {
          flush_text(top);
          pos_ += 2;
          XIC_ASSIGN_OR_RETURN(std::string_view close, ParseName());
          if (close != top.name) {
            return Result<VertexId>(
                Error("mismatched end tag </" + std::string(close) +
                      "> for <" + std::string(top.name) + ">"));
          }
          SkipSpace();
          if (pos_ >= text_.size() || text_[pos_] != '>') {
            return Result<VertexId>(Error("expected '>' in end tag"));
          }
          ++pos_;
          VertexId closed = top.vertex;
          stack.pop_back();
          if (stack.empty()) return closed;
          continue;
        }
        if (Peek("<!--")) {
          size_t end = text_.find("-->", pos_ + 4);
          if (end == std::string_view::npos) {
            return Result<VertexId>(Error("unterminated comment"));
          }
          pos_ = end + 3;
          continue;
        }
        if (Peek("<![CDATA[")) {
          size_t end = text_.find("]]>", pos_ + 9);
          if (end == std::string_view::npos) {
            return Result<VertexId>(Error("unterminated CDATA"));
          }
          AppendNormalized(text_.substr(pos_ + 9, end - pos_ - 9),
                           &top.text_buffer);
          pos_ = end + 3;
          continue;
        }
        if (Peek("<?")) {
          size_t end = text_.find("?>", pos_ + 2);
          if (end == std::string_view::npos) {
            return Result<VertexId>(Error("unterminated PI"));
          }
          pos_ = end + 2;
          continue;
        }
        if (text_[pos_] == '<') {
          flush_text(top);
          at_child_start = true;
          continue;
        }
        if (text_[pos_] == '&') {
          XIC_ASSIGN_OR_RETURN(std::string expanded, ParseReference());
          top.text_buffer += expanded;
          continue;
        }
        if (text_[pos_] == ']' && Peek("]]>")) {
          // XML 1.0 section 2.4: "]]>" must not appear in content except
          // as the end of a CDATA section.
          return Result<VertexId>(Error("']]>' not allowed in content"));
        }
        if (text_[pos_] == '\r') {
          // Section 2.11 line-end normalization: \r\n and bare \r both
          // become a single \n.
          top.text_buffer += '\n';
          ++pos_;
          if (pos_ < text_.size() && text_[pos_] == '\n') ++pos_;
          continue;
        }
        // Copy the whole plain-text run at once instead of byte-at-a-time.
        size_t run_end = pos_;
        while (run_end < text_.size() && text_[run_end] != '<' &&
               text_[run_end] != '&' && text_[run_end] != ']' &&
               text_[run_end] != '\r') {
          ++run_end;
        }
        if (run_end == pos_) {
          top.text_buffer += text_[pos_++];  // lone ']' not starting "]]>"
        } else {
          top.text_buffer.append(text_.data() + pos_, run_end - pos_);
          pos_ = run_end;
        }
      }
    }
  }

  // Appends CDATA content with line ends normalized (Section 2.11).
  static void AppendNormalized(std::string_view raw, std::string* out) {
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] == '\r') {
        out->push_back('\n');
        if (i + 1 < raw.size() && raw[i + 1] == '\n') ++i;
      } else {
        out->push_back(raw[i]);
      }
    }
  }

  // Returns the normalized attribute value as a view: directly into the
  // input buffer when the raw value needs no entity expansion or
  // whitespace normalization (the common case -- zero-copy), else into
  // value_buffer_ (reused across attributes; consume before the next
  // ParseQuoted call).
  Result<std::string_view> ParseQuoted() {
    if (pos_ >= text_.size() || (text_[pos_] != '"' && text_[pos_] != '\'')) {
      return Result<std::string_view>(Error("expected quoted value"));
    }
    char quote = text_[pos_++];
    size_t start = pos_;
    // Fast scan: a value without '&', '<' and literal whitespace controls
    // is already in normalized form.
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == quote || c == '&' || c == '<' || c == '\t' || c == '\n' ||
          c == '\r') {
        break;
      }
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == quote) {
      std::string_view out = text_.substr(start, pos_ - start);
      ++pos_;
      return out;
    }
    // Slow path: normalization or expansion needed.
    value_buffer_.assign(text_.substr(start, pos_ - start));
    std::string& out = value_buffer_;
    while (pos_ < text_.size() && text_[pos_] != quote) {
      if (text_[pos_] == '&') {
        // Characters that come in via references escape normalization
        // (Section 3.3.3), so &#10; stays a literal newline.
        XIC_ASSIGN_OR_RETURN(std::string expanded, ParseReference());
        out += expanded;
      } else if (text_[pos_] == '<') {
        return Result<std::string_view>(
            Error("'<' not allowed in attribute value"));
      } else if (text_[pos_] == '\t' || text_[pos_] == '\n') {
        // Attribute-value normalization (Section 3.3.3): literal
        // whitespace becomes a space.
        out += ' ';
        ++pos_;
      } else if (text_[pos_] == '\r') {
        // \r\n is one line end (Section 2.11), hence one space.
        out += ' ';
        ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '\n') ++pos_;
      } else {
        out += text_[pos_++];
      }
    }
    if (pos_ >= text_.size()) {
      return Result<std::string_view>(Error("unterminated attribute value"));
    }
    ++pos_;
    return std::string_view(out);
  }

  Result<std::string> ParseReference() {
    Result<std::string> expanded = ParseReferenceInner();
    if (expanded.ok()) {
      // Charge every expanded byte against the shared budget; a document
      // that is mostly references (an expansion bomb) hits this long
      // before it exhausts memory.
      expanded_bytes_ += expanded.value().size();
      XIC_RETURN_IF_ERROR(
          CheckLimit(expanded_bytes_, options_.limits.max_expansion_bytes,
                     "max_expansion_bytes", "reference expansion output"));
    }
    return expanded;
  }

  Result<std::string> ParseReferenceInner() {
    size_t end = text_.find(';', pos_);
    if (end == std::string_view::npos || end - pos_ > 12) {
      return Result<std::string>(Error("malformed entity reference"));
    }
    std::string_view ref = text_.substr(pos_ + 1, end - pos_ - 1);
    pos_ = end + 1;
    Result<std::string> expanded = ExpandXmlEntity(ref);
    if (!expanded.ok()) {
      return Result<std::string>(Error(expanded.status().message()));
    }
    return expanded;
  }

  // Tokenizes a raw attribute string into the paper's set-of-values form,
  // consulting the effective DTD for set-valuedness.
  AttrValue MakeAttrValue(std::string_view element, std::string_view attr,
                          std::string_view raw) {
    const DtdStructure* dtd =
        doc_.dtd.has_value() ? &*doc_.dtd : options_.dtd;
    return TokenizeAttrValue(
        raw, dtd != nullptr && dtd->IsSetValued(element, attr));
  }

  Result<std::string_view> ParseName() {
    size_t start = pos_;
    if (pos_ < text_.size() && IsNameStartChar(text_[pos_])) {
      ++pos_;
      while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
      return text_.substr(start, pos_ - start);
    }
    return Result<std::string_view>(Error("expected name"));
  }

  bool Peek(std::string_view token) const {
    return text_.substr(pos_, token.size()) == token;
  }

  void SkipSpace() {
    while (pos_ < text_.size() && IsXmlSpace(text_[pos_])) {
      ++pos_;
    }
  }

  // True when pos_ sits on a PI whose target is the reserved name "xml"
  // (case-insensitive, exactly) -- i.e. an XML declaration. "<?xml-..."
  // and "<?xmlfoo..." are ordinary processing instructions.
  bool PeekXmlDecl() const {
    if (!Peek("<?")) return false;
    size_t t = pos_ + 2;
    size_t n = 0;
    while (t + n < text_.size() && IsNameChar(text_[t + n])) ++n;
    if (n != 3) return false;
    return (text_[t] == 'x' || text_[t] == 'X') &&
           (text_[t + 1] == 'm' || text_[t + 1] == 'M') &&
           (text_[t + 2] == 'l' || text_[t + 2] == 'L');
  }

  // Skips whitespace, comments and processing instructions.
  void SkipMisc() {
    while (true) {
      SkipSpace();
      if (Peek("<!--")) {
        size_t end = text_.find("-->", pos_ + 4);
        if (end == std::string_view::npos) {
          pos_ = text_.size();
          return;
        }
        pos_ = end + 3;
      } else if (Peek("<?") && !PeekXmlDecl()) {
        size_t end = text_.find("?>", pos_ + 2);
        if (end == std::string_view::npos) {
          pos_ = text_.size();
          return;
        }
        pos_ = end + 2;
      } else {
        return;
      }
    }
  }

  Status Error(const std::string& what) const {
    // Report 1-based line/column for the current offset.
    size_t line = 1, col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return Status::ParseError("XML: " + what + " at line " +
                              std::to_string(line) + ", column " +
                              std::to_string(col));
  }

  std::string_view text_;
  const XmlParseOptions& options_;
  size_t pos_ = 0;
  size_t expanded_bytes_ = 0;   // reference-expansion output so far
  std::string value_buffer_;    // slow-path attribute value assembly
  XmlDocument doc_;
};

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
  Result<XmlDocument> result = XmlParser(text, options).Parse();
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
