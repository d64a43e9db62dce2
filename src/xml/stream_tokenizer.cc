#include "xml/stream_tokenizer.h"

#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <cstring>

#include "util/strings.h"
#include "xml/xml_parser.h"

namespace xic {

namespace {

// Byte classes, one table lookup per byte on the hot scans. The name
// classes are util/strings.h's IsNameStartChar / IsNameChar, tabulated;
// text stops end a plain character-data run, value stops the fast scan of
// an attribute value (besides its quote).
enum : uint8_t { kNameStart = 1, kNameChar = 2, kTextStop = 4,
                 kValueStop = 8 };

constexpr std::array<uint8_t, 256> MakeByteClasses() {
  std::array<uint8_t, 256> t{};
  for (int i = 0; i < 256; ++i) {
    const char c = static_cast<char>(i);
    bool stop = c == '<' || c == '&' || c == ']' || c == '\r';
    bool value_stop = c == '<' || c == '&' || c == '\t' || c == '\n' ||
                      c == '\r';
    t[i] = static_cast<uint8_t>((IsNameStartChar(c) ? kNameStart : 0) |
                                (IsNameChar(c) ? kNameChar : 0) |
                                (stop ? kTextStop : 0) |
                                (value_stop ? kValueStop : 0));
  }
  return t;
}

constexpr std::array<uint8_t, 256> kByteClass = MakeByteClasses();

inline bool Is(char c, uint8_t cls) {
  return (kByteClass[static_cast<unsigned char>(c)] & cls) != 0;
}

// Length of the name starting at p[0] within p[0, n), given that its
// first `len` bytes already matched: 0 unless p[0] is a name-start byte.
size_t NameLength(const char* p, size_t n, size_t len = 0) {
  if (len == 0) {
    if (n == 0 || !Is(p[0], kNameStart)) return 0;
    len = 1;
  }
  while (len < n && Is(p[len], kNameChar)) ++len;
  return len;
}

}  // namespace

// ---------------------------------------------------------------------------
// Byte sources

Result<size_t> StringSource::Read(char* buf, size_t max) {
  size_t n = std::min(max, text_.size() - pos_);
  if (n > 0) std::memcpy(buf, text_.data() + pos_, n);
  pos_ += n;
  return n;
}

Result<FileSource> FileSource::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Result<FileSource>(Status::InvalidArgument(
        "cannot open " + path + ": " + ErrnoMessage(errno)));
  }
  std::optional<uint64_t> size;
  struct stat st{};
  if (fstat(fileno(f), &st) == 0 && S_ISREG(st.st_mode)) {
    size = static_cast<uint64_t>(st.st_size);
  }
  return FileSource(f, size);
}

FileSource::FileSource(FileSource&& other) noexcept
    : file_(other.file_), size_(other.size_) {
  other.file_ = nullptr;
}

FileSource& FileSource::operator=(FileSource&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    size_ = other.size_;
    other.file_ = nullptr;
  }
  return *this;
}

FileSource::~FileSource() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<size_t> FileSource::Read(char* buf, size_t max) {
  if (file_ == nullptr || max == 0) return static_cast<size_t>(0);
  size_t n = std::fread(buf, 1, max, file_);
  if (n == 0 && std::ferror(file_) != 0) {
    return Result<size_t>(
        Status::Unavailable("file read error: " + ErrnoMessage(errno)));
  }
  return n;
}

// ---------------------------------------------------------------------------
// Buffer management

StreamTokenizer::StreamTokenizer(ByteSource& source,
                                 StreamTokenizerOptions options)
    : source_(source), options_(std::move(options)) {
  if (options_.chunk_bytes < 256) options_.chunk_bytes = 256;
  if (std::optional<std::string_view> all = source_.Contiguous()) {
    // In place: the input is the buffer and nothing is left to read.
    buf_ = all->empty() ? "" : all->data();
    end_ = all->size();
    total_read_ = all->size();
    eof_ = true;
    return;
  }
  // The first window holds two chunks, or the whole input plus slack when
  // that is smaller: a small document then costs a small buffer, and the
  // read that finds EOF still has room, so it never doubles the window.
  size_t window = options_.chunk_bytes * 2;
  if (std::optional<uint64_t> total = source_.size()) {
    constexpr uint64_t kWindowSlack = 64;
    window = static_cast<size_t>(
        std::min<uint64_t>(window, *total + kWindowSlack));
  }
  window_.resize(window);
  buf_ = window_.data();
}

Status StreamTokenizer::Fill(uint64_t pin) {
  // After EOF there is nothing to make room for; in place, eof_ is set
  // from the start, so the source's bytes are never moved.
  if (eof_) return Status::OK();
  if (const size_t drop = static_cast<size_t>(pin - base_); drop > 0) {
    CountLinesTo(pin);  // the bytes about to be dropped
    std::memmove(window_.data(), window_.data() + drop, end_ - drop);
    base_ = pin;
    start_ -= drop;
    end_ -= drop;
  }
  if (end_ == window_.size()) {  // the pinned bytes alone fill the window
    window_.resize(window_.size() * 2);
    buf_ = window_.data();
  }
  Result<size_t> n =
      source_.Read(window_.data() + end_, window_.size() - end_);
  if (!n.ok()) return n.status();
  if (n.value() == 0) {
    eof_ = true;
    return Status::OK();
  }
  end_ += n.value();
  total_read_ += n.value();
  // Sources with an unknown total size are bounded progressively; known
  // sizes were checked upfront in Next() with the exact total.
  if (!source_.size().has_value()) {
    XIC_RETURN_IF_ERROR(CheckLimit(total_read_,
                                   options_.limits.max_document_bytes,
                                   "max_document_bytes", "document size"));
  }
  return Status::OK();
}

Status StreamTokenizer::FillTo(size_t want) {
  while (available() < want && !eof_) {
    XIC_RETURN_IF_ERROR(Fill());
  }
  return Status::OK();
}

bool StreamTokenizer::Peek(std::string_view token) const {
  if (available() < token.size()) return false;
  return std::memcmp(buf_ + start_, token.data(), token.size()) == 0;
}

void StreamTokenizer::CountLinesTo(uint64_t abs) {
  if (abs <= lines_at_) return;
  const char* p = buf_ + (lines_at_ - base_);
  const char* lim = buf_ + (abs - base_);
  while (const char* nl = static_cast<const char*>(
             std::memchr(p, '\n', static_cast<size_t>(lim - p)))) {
    ++line_;
    line_start_ = base_ + static_cast<uint64_t>(nl - buf_) + 1;
    p = nl + 1;
  }
  lines_at_ = abs;
}

StreamTokenizer::Mark StreamTokenizer::Here() {
  CountLinesTo(base_ + start_);
  return Mark{base_ + start_, line_, line_start_};
}

Status StreamTokenizer::ErrorAt(const Mark& mark,
                                std::string_view what) const {
  uint64_t col = mark.abs - mark.line_start + 1;
  return Status::ParseError("XML: " + std::string(what) + " at line " +
                            std::to_string(mark.line) + ", column " +
                            std::to_string(col));
}

Status StreamTokenizer::Error(std::string_view what) {
  return ErrorAt(Here(), what);
}

// ---------------------------------------------------------------------------
// Shared scanners

Status StreamTokenizer::ScanName(size_t* len) {
  size_t n = 0;
  while (true) {
    n = NameLength(buf_ + start_, available(), n);
    if (n < available() || eof_) break;
    XIC_RETURN_IF_ERROR(Fill());  // the name may go on
  }
  *len = n;
  return Status::OK();
}

Status StreamTokenizer::SkipSpace() {
  while (true) {
    while (available() > 0 && IsXmlSpace(at(0))) Consume(1);
    if (available() > 0 || eof_) return Status::OK();
    XIC_RETURN_IF_ERROR(Fill());
  }
}

Result<bool> StreamTokenizer::PeekXmlDecl() {
  size_t have = 0;
  XIC_RETURN_IF_ERROR(Ensure(6, &have));
  if (have < 5 || at(0) != '<' || at(1) != '?') return false;
  auto low = [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  };
  if (low(at(2)) != 'x' || low(at(3)) != 'm' || low(at(4)) != 'l') {
    return false;
  }
  // The target must be exactly three characters: "<?xml-stylesheet" and
  // friends are ordinary PIs.
  if (have >= 6 && Is(at(5), kNameChar)) return false;
  return true;
}

Status StreamTokenizer::SkipMisc() {
  while (true) {
    XIC_RETURN_IF_ERROR(SkipSpace());
    size_t have = 0;
    XIC_RETURN_IF_ERROR(Ensure(4, &have));
    if (Peek("<!--")) {
      Consume(4);
      XIC_RETURN_IF_ERROR(SkipUntil("-->", "", Mark{}));
    } else if (have >= 2 && at(0) == '<' && at(1) == '?') {
      XIC_ASSIGN_OR_RETURN(bool decl, PeekXmlDecl());
      if (decl) return Status::OK();
      Consume(2);
      XIC_RETURN_IF_ERROR(SkipUntil("?>", "", Mark{}));
    } else {
      return Status::OK();
    }
  }
}

Status StreamTokenizer::SkipUntil(std::string_view terminator,
                                  std::string_view what, const Mark& mark) {
  while (true) {
    if (available() >= terminator.size()) {
      std::string_view hay(buf_ + start_, available());
      size_t found = hay.find(terminator);
      if (found != std::string_view::npos) {
        Consume(found + terminator.size());
        return Status::OK();
      }
      Consume(available() - (terminator.size() - 1));
    }
    if (eof_) {
      if (what.empty()) {
        // Prolog/epilog SkipMisc semantics: an unterminated trailing
        // comment/PI silently consumes to EOF; any follow-up error then
        // points at EOF.
        Consume(available());
        return Status::OK();
      }
      return ErrorAt(mark, what);
    }
    XIC_RETURN_IF_ERROR(Fill());
  }
}

void StreamTokenizer::AppendTextRun(const char* data, size_t n) {
  text_all_space_ = text_all_space_ && std::all_of(data, data + n, IsXmlSpace);
  text_buf_.append(data, n);
}

void StreamTokenizer::EmitText(StreamEvent* event) {
  event->kind = StreamEventKind::kText;
  emit_buf_.swap(text_buf_);
  text_buf_.clear();
  event->text = emit_buf_;
  event->text_all_space = text_all_space_;
  text_all_space_ = true;
}

Status StreamTokenizer::ParseReference(uint64_t pin, std::string* out) {
  // The ';' must lie within 12 bytes of the '&' or the reference is
  // malformed (reported at the '&').
  while (available() < 14 && !eof_) {
    XIC_RETURN_IF_ERROR(Fill(pin));
  }
  std::string_view hay(buf_ + start_, std::min<size_t>(available(), 14));
  size_t semi = hay.find(';');
  if (semi == std::string_view::npos || semi > 12) {
    return Error("malformed entity reference");
  }
  std::string_view ref = hay.substr(1, semi - 1);
  Consume(semi + 1);  // through ';' -- decode errors point after it
  Result<std::string> expanded = ExpandXmlEntity(ref);
  if (!expanded.ok()) return Error(expanded.status().message());
  expanded_bytes_ += expanded.value().size();
  XIC_RETURN_IF_ERROR(CheckLimit(expanded_bytes_,
                                 options_.limits.max_expansion_bytes,
                                 "max_expansion_bytes",
                                 "reference expansion output"));
  *out = std::move(expanded).value();
  return Status::OK();
}

Status StreamTokenizer::ScanCdata(StreamEvent* event, bool* emitted) {
  while (true) {
    if (available() >= 3) {
      std::string_view hay(buf_ + start_, available());
      size_t found = hay.find("]]>");
      size_t safe = found != std::string_view::npos ? found : available() - 2;
      // Copy the section in runs between '\r's; each \r\n or bare \r
      // becomes one '\n' (Section 2.11), also across Fill() calls.
      size_t i = 0;
      if (safe > 0 && cdata_cr_) {
        if (at(0) == '\n') i = 1;  // \r\n already emitted as one '\n'
        cdata_cr_ = false;
      }
      while (i < safe) {
        const char* p = buf_ + start_ + i;
        const void* cr = std::memchr(p, '\r', safe - i);
        size_t n = cr == nullptr ? safe - i : static_cast<const char*>(cr) - p;
        AppendTextRun(p, n);
        i += n;
        if (i == safe) break;
        AppendTextRun("\n", 1);
        ++i;
        if (i == safe) {
          cdata_cr_ = true;
        } else if (at(i) == '\n') {
          ++i;
        }
      }
      Consume(safe);
      if (found != std::string_view::npos) {
        Consume(3);
        in_cdata_ = false;
        cdata_cr_ = false;
        return Status::OK();
      }
    }
    if (text_buf_.size() >= options_.chunk_bytes) {
      EmitText(event);
      *emitted = true;
      return Status::OK();
    }
    if (eof_) {
      // Trailing 1-2 bytes can no longer form "]]>".
      return ErrorAt(cdata_mark_, "unterminated CDATA");
    }
    XIC_RETURN_IF_ERROR(Fill());
  }
}

// ---------------------------------------------------------------------------
// Grammar

Status StreamTokenizer::Next(StreamEvent* event) {
  event->kind = StreamEventKind::kEndDocument;
  event->name = {};
  event->text = {};
  event->text_all_space = true;
  event->attrs.clear();
  event->internal_subset = {};
  event->has_internal_subset = false;
  if (pop_pending_) {  // no event views the closed element's name now
    open_names_.resize(open_starts_.back());
    open_starts_.pop_back();
    pop_pending_ = false;
  }
  if (pending_end_) {
    pending_end_ = false;
    EmitEndElement(event);
    return Status::OK();
  }
  if (!started_) {
    started_ = true;
    if (std::optional<uint64_t> total = source_.size()) {
      XIC_RETURN_IF_ERROR(CheckLimit(*total,
                                     options_.limits.max_document_bytes,
                                     "max_document_bytes", "document size"));
    }
  }
  switch (state_) {
    case State::kProlog: {
      bool emitted = false;
      XIC_RETURN_IF_ERROR(NextProlog(event, &emitted));
      if (emitted) return Status::OK();
      return NextContent(event);
    }
    case State::kDoctypeClose:
      XIC_RETURN_IF_ERROR(FinishDoctypeClose());
      state_ = State::kContent;
      return NextContent(event);
    case State::kContent:
      return NextContent(event);
    case State::kEpilog:
      return NextEpilog(event);
    case State::kDone:
      return Status::OK();
  }
  return Status::Internal("unreachable tokenizer state");
}

Status StreamTokenizer::NextProlog(StreamEvent* event, bool* emitted) {
  XIC_RETURN_IF_ERROR(SkipMisc());
  XIC_ASSIGN_OR_RETURN(bool decl, PeekXmlDecl());
  if (decl) {
    Mark mark = Here();
    XIC_RETURN_IF_ERROR(SkipUntil("?>", "unterminated XML declaration", mark));
  }
  XIC_RETURN_IF_ERROR(SkipMisc());
  size_t have = 0;
  XIC_RETURN_IF_ERROR(Ensure(9, &have));
  if (Peek("<!DOCTYPE")) {
    XIC_RETURN_IF_ERROR(ParseDoctype(event));
    state_ = State::kDoctypeClose;
    *emitted = true;
    return Status::OK();
  }
  XIC_RETURN_IF_ERROR(SkipMisc());
  state_ = State::kContent;
  return Status::OK();
}

Status StreamTokenizer::ParseDoctype(StreamEvent* event) {
  Consume(9);  // "<!DOCTYPE"
  XIC_RETURN_IF_ERROR(SkipSpace());
  size_t n = 0;
  XIC_RETURN_IF_ERROR(ScanName(&n));
  if (n == 0) return Error("expected name");
  doctype_name_.assign(buf_ + start_, n);
  Consume(n);
  XIC_RETURN_IF_ERROR(SkipSpace());
  // External id (SYSTEM/PUBLIC) -- skipped; only the internal subset is
  // read.
  size_t have = 0;
  XIC_RETURN_IF_ERROR(Ensure(6, &have));
  if (Peek("SYSTEM") || Peek("PUBLIC")) {
    while (true) {
      if (available() == 0) {
        if (eof_) break;
        XIC_RETURN_IF_ERROR(Fill());
        continue;
      }
      char c = at(0);
      if (c == '[' || c == '>') break;
      if (c == '"' || c == '\'') {
        Mark mark = Here();
        Consume(1);
        while (true) {
          std::string_view hay(buf_ + start_, available());
          size_t f = hay.find(c);
          if (f != std::string_view::npos) {
            Consume(f + 1);
            break;
          }
          Consume(available());
          if (eof_) return ErrorAt(mark, "unterminated literal in DOCTYPE");
          XIC_RETURN_IF_ERROR(Fill());
        }
      } else {
        Consume(1);
      }
    }
  }
  XIC_RETURN_IF_ERROR(SkipSpace());
  doctype_subset_.clear();
  bool has_subset = false;
  if (available() > 0 && at(0) == '[') {
    has_subset = true;
    Consume(1);
    Mark mark = Here();  // errors point just past '['
    // The subset ends at the first ']' outside comments, PIs and quoted
    // literals. Streamed with a mode machine; all scanned bytes are
    // accumulated verbatim into doctype_subset_.
    enum class Mode { kPlain, kComment, kPi, kQuote };
    Mode mode = Mode::kPlain;
    char quote = 0;
    bool done = false;
    auto flush = [&](size_t count) {
      doctype_subset_.append(buf_ + start_, count);
      Consume(count);
    };
    while (!done) {
      if (mode != Mode::kPlain) {
        std::string_view term = mode == Mode::kComment ? "-->"
                                : mode == Mode::kPi    ? "?>"
                                                       : std::string_view();
        char qterm[2] = {quote, 0};
        if (term.empty()) term = std::string_view(qterm, 1);
        if (available() >= term.size()) {
          std::string_view hay(buf_ + start_, available());
          size_t f = hay.find(term);
          if (f != std::string_view::npos) {
            flush(f + term.size());
            mode = Mode::kPlain;
            continue;
          }
          if (term.size() > 1) flush(available() - (term.size() - 1));
          else flush(available());
        }
        if (eof_) return ErrorAt(mark, "unterminated internal subset");
        XIC_RETURN_IF_ERROR(Fill());
        continue;
      }
      if (available() == 0) {
        if (eof_) return ErrorAt(mark, "unterminated internal subset");
        XIC_RETURN_IF_ERROR(Fill());
        continue;
      }
      size_t i = 0;
      bool need_fill = false;
      while (i < available()) {
        char c = at(i);
        if (c == ']') {
          flush(i);
          Consume(1);  // the ']' itself is not part of the subset
          done = true;
          break;
        }
        if (c == '"' || c == '\'') {
          quote = c;
          flush(i + 1);
          mode = Mode::kQuote;
          break;
        }
        if (c == '<') {
          size_t rem = available() - i;
          if (rem < 4 && !eof_) {
            flush(i);
            need_fill = true;
            break;
          }
          if (rem >= 4 && at(i + 1) == '!' && at(i + 2) == '-' &&
              at(i + 3) == '-') {
            flush(i + 4);
            mode = Mode::kComment;
            break;
          }
          if (rem >= 2 && at(i + 1) == '?') {
            flush(i + 2);
            mode = Mode::kPi;
            break;
          }
        }
        ++i;
      }
      if (done || mode != Mode::kPlain) continue;
      if (need_fill) {
        XIC_RETURN_IF_ERROR(Fill());
        continue;
      }
      flush(i);
      if (eof_) return ErrorAt(mark, "unterminated internal subset");
      XIC_RETURN_IF_ERROR(Fill());
    }
  }
  event->kind = StreamEventKind::kDoctype;
  event->name = doctype_name_;
  event->internal_subset = doctype_subset_;
  event->has_internal_subset = has_subset;
  return Status::OK();
}

Status StreamTokenizer::FinishDoctypeClose() {
  XIC_RETURN_IF_ERROR(SkipSpace());
  if (available() == 0 || at(0) != '>') {
    return Error("expected '>' closing DOCTYPE");
  }
  Consume(1);
  return SkipMisc();
}

Status StreamTokenizer::NextContent(StreamEvent* event) {
  if (open_starts_.empty()) {
    // Root position: the prolog ended and no element is open yet.
    return ParseStartTag(event);
  }
  while (true) {
    if (in_cdata_) {
      bool emitted = false;
      XIC_RETURN_IF_ERROR(ScanCdata(event, &emitted));
      if (emitted) return Status::OK();
      continue;
    }
    size_t have = 0;
    XIC_RETURN_IF_ERROR(Ensure(9, &have));  // longest opener "<![CDATA["
    if (have == 0) {
      return Error("unterminated element " + std::string(OpenName()));
    }
    char c = at(0);
    if (c == '<') {
      const char c1 = have > 1 ? at(1) : '\0';
      if (c1 == '/') {
        if (!text_buf_.empty()) {
          EmitText(event);
          return Status::OK();
        }
        return ParseEndTag(event);
      }
      if (c1 == '!' && Peek("<!--")) {
        Mark mark = Here();
        Consume(4);
        XIC_RETURN_IF_ERROR(SkipUntil("-->", "unterminated comment", mark));
        continue;
      }
      if (c1 == '!' && Peek("<![CDATA[")) {
        cdata_mark_ = Here();
        Consume(9);
        in_cdata_ = true;
        cdata_cr_ = false;
        continue;
      }
      if (c1 == '?') {
        Mark mark = Here();
        Consume(2);
        XIC_RETURN_IF_ERROR(SkipUntil("?>", "unterminated PI", mark));
        continue;
      }
      if (!text_buf_.empty()) {
        EmitText(event);
        return Status::OK();
      }
      return ParseStartTag(event);
    }
    if (c == '&') {
      std::string expanded;
      XIC_RETURN_IF_ERROR(ParseReference(base_ + start_, &expanded));
      AppendTextRun(expanded.data(), expanded.size());
    } else if (c == ']' && Peek("]]>")) {
      // XML 1.0 section 2.4: "]]>" must not appear in content except as
      // the end of a CDATA section.
      return Error("']]>' not allowed in content");
    } else if (c == '\r') {
      // Section 2.11 line-end normalization: \r\n and bare \r both become
      // a single \n.
      AppendTextRun("\n", 1);
      Consume(1);
      if (available() == 0 && !eof_) XIC_RETURN_IF_ERROR(Fill());
      if (available() > 0 && at(0) == '\n') Consume(1);
    } else if (c == ']') {
      AppendTextRun(buf_ + start_, 1);  // lone ']' not starting "]]>"
      Consume(1);
    } else {
      // Take the whole plain-text run at once.
      const char* p = buf_ + start_;
      size_t run = 1;
      while (run < available() && !Is(p[run], kTextStop)) ++run;
      AppendTextRun(p, run);
      Consume(run);
    }
    if (text_buf_.size() >= options_.chunk_bytes) {
      EmitText(event);
      return Status::OK();
    }
  }
}

Status StreamTokenizer::ParseStartTag(StreamEvent* event) {
  XIC_RETURN_IF_ERROR(CheckLimit(open_starts_.size() + 1,
                                 options_.limits.max_tree_depth,
                                 "max_tree_depth", "element nesting depth"));
  XIC_RETURN_IF_ERROR(options_.deadline.Check("XML parse"));
  size_t have = 0;
  XIC_RETURN_IF_ERROR(Ensure(1, &have));
  if (have == 0 || at(0) != '<') return Error("expected '<'");
  // The tag's '<' pins the window until the event is built: every refill
  // below keeps it, and the name and attribute offsets count from it, so
  // they survive the compaction a refill does.
  const uint64_t tag = base_ + start_;
  auto here = [&] { return static_cast<size_t>(base_ + start_ - tag); };
  auto tag_at = [&](size_t off) { return buf_ + (tag - base_) + off; };
  // Prescan: buffer the whole tag (through the '>' outside quoted
  // values) so the scan below never runs out of bytes. At EOF (always,
  // in place) the buffer already holds all there is.
  for (size_t i = 1; !eof_;) {
    const char* p = buf_ + start_;
    const size_t n = available();
    while (i < n && p[i] != '>') {
      if (p[i] == '"' || p[i] == '\'') {
        // Jump over the quoted value; an open quote resumes after Fill.
        const void* close = std::memchr(p + i + 1, p[i], n - i - 1);
        if (close == nullptr) break;
        i = static_cast<size_t>(static_cast<const char*>(close) - p);
      }
      ++i;
    }
    if (i < n && p[i] == '>') break;
    XIC_RETURN_IF_ERROR(Fill());  // the cursor is still on the '<'
  }
  Consume(1);  // '<'
  // Element name: offsets from the '<', materialized as views at the end
  // (a reference near the tag's end may still refill the window).
  const size_t name_off = here();
  size_t name_len = NameLength(buf_ + start_, available());
  if (name_len == 0) return Error("expected name");
  Consume(name_len);
  // Attributes. Values are views into buf_ (fast path) or indexes into
  // attr_store_ (slow path: normalization / expansion).
  raw_attrs_.clear();
  size_t store_used = 0;
  // Space inside the tag. The prescan buffered the tag through its '>'
  // (or all input, at EOF), so the run always ends inside the buffer.
  auto skip_space_here = [&] {
    while (available() > 0 && IsXmlSpace(at(0))) Consume(1);
  };
  auto parse_quoted = [&](RawAttr* attr) -> Status {
    if (available() == 0 || (at(0) != '"' && at(0) != '\'')) {
      return Error("expected quoted value");
    }
    char quote = at(0);
    Consume(1);
    // Fast scan: a value without '&', '<' and literal whitespace controls
    // is already in normalized form -- keep it as a view.
    size_t n = 0;
    while (n < available() && at(n) != quote && !Is(at(n), kValueStop)) ++n;
    if (n < available() && at(n) == quote) {
      attr->from_store = false;
      attr->value_off_or_index = here();
      attr->value_len = n;
      Consume(n + 1);
      return Status::OK();
    }
    // Slow path: normalization or expansion needed.
    if (attr_store_.size() <= store_used) attr_store_.emplace_back();
    std::string& out = attr_store_[store_used];
    out.assign(buf_ + start_, n);
    Consume(n);
    while (available() > 0 && at(0) != quote) {
      char c = at(0);
      if (c == '&') {
        // Characters that come in via references escape normalization
        // (Section 3.3.3), so &#10; stays a literal newline.
        std::string expanded;
        XIC_RETURN_IF_ERROR(ParseReference(tag, &expanded));
        out += expanded;
      } else if (c == '<') {
        return Error("'<' not allowed in attribute value");
      } else if (c == '\t' || c == '\n') {
        // Attribute-value normalization (Section 3.3.3): literal
        // whitespace becomes a space.
        out += ' ';
        Consume(1);
      } else if (c == '\r') {
        // \r\n is one line end (Section 2.11), hence one space.
        out += ' ';
        Consume(1);
        if (available() == 0 && !eof_) XIC_RETURN_IF_ERROR(Fill(tag));
        if (available() > 0 && at(0) == '\n') Consume(1);
      } else {
        out += c;
        Consume(1);
      }
    }
    if (available() == 0) return Error("unterminated attribute value");
    Consume(1);
    attr->from_store = true;
    attr->value_off_or_index = store_used;
    attr->value_len = out.size();
    ++store_used;
    return Status::OK();
  };
  bool self_closing = false;
  size_t num_attrs = 0;
  while (true) {
    skip_space_here();
    if (available() == 0) return Error("unterminated start tag");
    if (at(0) == '>') {
      Consume(1);
      break;
    }
    if (Peek("/>")) {
      Consume(2);
      self_closing = true;
      break;
    }
    XIC_RETURN_IF_ERROR(CheckLimit(
        ++num_attrs, options_.limits.max_attributes_per_element,
        "max_attributes_per_element",
        [&] {
          return "attributes on element " + std::string(tag_at(name_off),
                                                        name_len);
        }));
    size_t aoff = here();
    size_t alen = NameLength(buf_ + start_, available());
    if (alen == 0) return Error("expected name");
    Consume(alen);
    skip_space_here();
    if (available() == 0 || at(0) != '=') {
      return Error("expected '=' after attribute name");
    }
    Consume(1);
    skip_space_here();
    RawAttr attr{aoff, alen, false, 0, 0};
    XIC_RETURN_IF_ERROR(parse_quoted(&attr));
    raw_attrs_.push_back(attr);
  }
  // Materialize views. A repeated attribute name keeps the last value in
  // the first-seen position -- DataTree::SetAttribute semantics.
  const std::string_view name(tag_at(name_off), name_len);
  event->kind = StreamEventKind::kStartElement;
  event->name = name;
  for (const RawAttr& raw : raw_attrs_) {
    std::string_view aname(tag_at(raw.name_off), raw.name_len);
    std::string_view avalue =
        raw.from_store
            ? std::string_view(attr_store_[raw.value_off_or_index])
            : std::string_view(tag_at(raw.value_off_or_index),
                               raw.value_len);
    bool replaced = false;
    for (StreamEvent::Attr& existing : event->attrs) {
      if (existing.name == aname) {
        existing.value = avalue;
        replaced = true;
        break;
      }
    }
    if (!replaced) event->attrs.push_back(StreamEvent::Attr{aname, avalue});
  }
  open_starts_.push_back(open_names_.size());
  open_names_.append(name);
  if (self_closing) pending_end_ = true;
  return Status::OK();
}

void StreamTokenizer::EmitEndElement(StreamEvent* event) {
  event->kind = StreamEventKind::kEndElement;
  event->name = OpenName();
  pop_pending_ = true;
  if (open_starts_.size() == 1) state_ = State::kEpilog;
}

Status StreamTokenizer::ParseEndTag(StreamEvent* event) {
  Consume(2);  // "</"
  size_t n = 0;
  XIC_RETURN_IF_ERROR(ScanName(&n));
  if (n == 0) return Error("expected name");
  std::string_view close(buf_ + start_, n);
  Consume(n);
  if (close != OpenName()) {
    return Error("mismatched end tag </" + std::string(close) + "> for <" +
                 std::string(OpenName()) + ">");
  }
  XIC_RETURN_IF_ERROR(SkipSpace());
  if (available() == 0 || at(0) != '>') {
    return Error("expected '>' in end tag");
  }
  Consume(1);
  EmitEndElement(event);
  return Status::OK();
}

Status StreamTokenizer::NextEpilog(StreamEvent* event) {
  XIC_RETURN_IF_ERROR(SkipMisc());
  size_t have = 0;
  XIC_RETURN_IF_ERROR(Ensure(1, &have));
  if (have > 0) return Error("content after document element");
  state_ = State::kDone;
  event->kind = StreamEventKind::kEndDocument;
  return Status::OK();
}

}  // namespace xic
