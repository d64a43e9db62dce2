#include "xml/dtd_parser.h"

#include <cctype>

#include "obs/obs.h"
#include "util/strings.h"

namespace xic {

namespace {

class DtdParser {
 public:
  DtdParser(std::string_view text, std::string root,
            const DtdParseOptions& options)
      : text_(text), root_(std::move(root)), options_(options) {}

  Result<DtdStructure> Parse() {
    XIC_RETURN_IF_ERROR(CheckLimit(text_.size(),
                                   options_.limits.max_document_bytes,
                                   "max_document_bytes", "DTD size"));
    while (true) {
      XIC_RETURN_IF_ERROR(options_.deadline.Check("DTD parse"));
      SkipSpaceAndComments();
      if (pos_ >= text_.size()) break;
      if (text_[pos_] == '%') {
        return Status::NotSupported("parameter entities are not supported");
      }
      if (!Consume("<!")) {
        return Error("expected declaration");
      }
      if (Consume("ELEMENT")) {
        XIC_RETURN_IF_ERROR(ParseElementDecl());
      } else if (Consume("ATTLIST")) {
        XIC_RETURN_IF_ERROR(ParseAttlistDecl());
      } else if (Consume("ENTITY") || Consume("NOTATION")) {
        XIC_RETURN_IF_ERROR(SkipToDeclEnd());
      } else {
        return Error("unknown declaration");
      }
    }
    XIC_RETURN_IF_ERROR(dtd_.SetRoot(root_));
    XIC_RETURN_IF_ERROR(dtd_.Validate());
    return std::move(dtd_);
  }

 private:
  Status ParseElementDecl() {
    SkipSpace();
    XIC_ASSIGN_OR_RETURN(std::string name, ParseName());
    SkipSpace();
    // The content model runs to the closing '>' (no '>' occurs inside a
    // content model).
    size_t end = text_.find('>', pos_);
    if (end == std::string_view::npos) return Error("unterminated <!ELEMENT");
    std::string model(StripWhitespace(text_.substr(pos_, end - pos_)));
    pos_ = end + 1;
    // XML writes "(#PCDATA)" for string content; the paper's S.
    XIC_ASSIGN_OR_RETURN(
        RegexPtr re,
        ParseContentModel(model, options_.limits.max_content_model_depth));
    return dtd_.AddElement(name, std::move(re));
  }

  Status ParseAttlistDecl() {
    SkipSpace();
    XIC_ASSIGN_OR_RETURN(std::string element, ParseName());
    while (true) {
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '>') {
        ++pos_;
        return Status::OK();
      }
      XIC_ASSIGN_OR_RETURN(std::string attr, ParseName());
      SkipSpace();
      XIC_RETURN_IF_ERROR(ParseAttrType(element, attr));
      SkipSpace();
      XIC_RETURN_IF_ERROR(ParseDefaultDecl());
    }
  }

  Status ParseAttrType(const std::string& element, const std::string& attr) {
    AttrCardinality card = AttrCardinality::kSingle;
    std::optional<AttrKind> kind;
    if (Consume("IDREFS")) {
      card = AttrCardinality::kSet;
      kind = AttrKind::kIdref;
    } else if (Consume("IDREF")) {
      kind = AttrKind::kIdref;
    } else if (Consume("ID")) {
      kind = AttrKind::kId;
    } else if (Consume("CDATA")) {
    } else if (Consume("NMTOKENS") || Consume("ENTITIES")) {
      card = AttrCardinality::kSet;
    } else if (Consume("NMTOKEN") || Consume("ENTITY")) {
    } else if (Consume("NOTATION")) {
      SkipSpace();
      XIC_RETURN_IF_ERROR(SkipParenGroup());
    } else if (pos_ < text_.size() && text_[pos_] == '(') {
      XIC_RETURN_IF_ERROR(SkipParenGroup());  // enumeration
    } else {
      return Error("unknown attribute type for " + element + "." + attr);
    }
    XIC_RETURN_IF_ERROR(dtd_.AddAttribute(element, attr, card));
    if (kind.has_value()) {
      XIC_RETURN_IF_ERROR(dtd_.SetKind(element, attr, *kind));
    }
    return Status::OK();
  }

  Status ParseDefaultDecl() {
    // Case-insensitive keywords are tolerated (the paper's own listings
    // write "#required").
    if (ConsumeCaseInsensitive("#REQUIRED") ||
        ConsumeCaseInsensitive("#IMPLIED")) {
      return Status::OK();
    }
    if (ConsumeCaseInsensitive("#FIXED")) SkipSpace();
    if (pos_ < text_.size() && (text_[pos_] == '"' || text_[pos_] == '\'')) {
      char quote = text_[pos_++];
      size_t end = text_.find(quote, pos_);
      if (end == std::string_view::npos) {
        return Error("unterminated default value");
      }
      pos_ = end + 1;
      return Status::OK();
    }
    return Error("expected default declaration");
  }

  Status SkipParenGroup() {
    if (pos_ >= text_.size() || text_[pos_] != '(') {
      return Error("expected '('");
    }
    int depth = 0;
    for (; pos_ < text_.size(); ++pos_) {
      if (text_[pos_] == '(') ++depth;
      if (text_[pos_] == ')' && --depth == 0) {
        ++pos_;
        return Status::OK();
      }
    }
    return Error("unterminated '('");
  }

  Status SkipToDeclEnd() {
    // ENTITY / NOTATION declarations may contain quoted '>' characters.
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '>') {
        ++pos_;
        return Status::OK();
      }
      if (c == '"' || c == '\'') {
        size_t end = text_.find(c, pos_ + 1);
        if (end == std::string_view::npos) return Error("unterminated quote");
        pos_ = end + 1;
      } else {
        ++pos_;
      }
    }
    return Error("unterminated declaration");
  }

  Result<std::string> ParseName() {
    size_t start = pos_;
    if (pos_ < text_.size() && IsNameStartChar(text_[pos_])) {
      ++pos_;
      while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
      return std::string(text_.substr(start, pos_ - start));
    }
    return Result<std::string>(Error("expected name"));
  }

  bool Consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) != token) return false;
    // Keyword tokens must not run into a longer name ("IDREF" vs "IDREFS").
    size_t after = pos_ + token.size();
    if (!token.empty() && IsNameChar(token.back()) && after < text_.size() &&
        IsNameChar(text_[after])) {
      return false;
    }
    pos_ = after;
    return true;
  }

  bool ConsumeCaseInsensitive(std::string_view token) {
    if (pos_ + token.size() > text_.size()) return false;
    for (size_t i = 0; i < token.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(text_[pos_ + i])) !=
          std::toupper(static_cast<unsigned char>(token[i]))) {
        return false;
      }
    }
    pos_ += token.size();
    return true;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  void SkipSpaceAndComments() {
    while (true) {
      SkipSpace();
      if (text_.substr(pos_, 4) == "<!--") {
        size_t end = text_.find("-->", pos_ + 4);
        if (end == std::string_view::npos) {
          pos_ = text_.size();
          return;
        }
        pos_ = end + 3;
      } else if (text_.substr(pos_, 2) == "<?") {
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
    return Status::ParseError("DTD: " + what + " at offset " +
                              std::to_string(pos_));
  }

  std::string_view text_;
  std::string root_;
  const DtdParseOptions& options_;
  size_t pos_ = 0;
  DtdStructure dtd_;
};

}  // namespace

Result<DtdStructure> ParseDtd(const std::string& text,
                              const std::string& root,
                              const DtdParseOptions& options) {
  obs::ScopedSpan span("dtd.parse", "xml");
  span.AddInt("bytes", static_cast<int64_t>(text.size()));
  XIC_COUNTER_ADD("xml.dtd.parses", 1);
  Result<DtdStructure> result = DtdParser(text, root, options).Parse();
  if (result.ok()) {
    span.AddInt("element_types",
                static_cast<int64_t>(result.value().Elements().size()));
  } else {
    XIC_COUNTER_ADD("xml.dtd.errors", 1);
  }
  return result;
}

Result<DtdStructure> ParseInternalSubset(const std::string& subset,
                                         const std::string& doctype_name,
                                         const ResourceLimits& limits,
                                         const Deadline& deadline) {
  DtdParseOptions options;
  options.limits = limits;
  options.deadline = deadline;
  return ParseDtd(subset, doctype_name, options);
}

}  // namespace xic
