// Pull tokenizer for XML, and xic's only XML grammar: the streaming
// validator consumes its events directly, and ParseXml (xml_parser.h)
// builds a DataTree from them.
//
// Subset: prolog, DOCTYPE with an internal subset (external ids
// skipped), elements, attributes, character data, comments, CDATA,
// character and predefined entity references; PIs are skipped. Line
// ends (Section 2.11) and attribute values (Section 3.3.3) are
// normalized, "]]>" in content and invalid character references are
// rejected, and errors render as "XML: <what> at line L, column C".
//
// Input is read one of two ways, chosen from the source alone:
//   * In place: a source whose bytes are already in memory
//     (ByteSource::Contiguous(), e.g. StringSource) is tokenized where it
//     lies -- no window is allocated and the input is not copied; names
//     and attribute values that need no normalization are views into it.
//   * Windowed: any other source (files, sockets) is read through a
//     sliding byte buffer that holds only the construct currently being
//     tokenized: a start tag is buffered whole, names and references up
//     to their end, while text runs, CDATA sections, comments, PIs and
//     the DOCTYPE's subset stream through in bounded chunks. The first
//     window is two chunks, or the input's size plus slack when the
//     source knows it and that is smaller; it doubles only when one
//     token fills it, so it never exceeds max(2 x chunk_bytes, 2 x
//     largest token), independent of document size.
// Line numbers are counted lazily, in bulk: when the window compacts and
// when a position is recorded for an error.
//
// The tokenizer keeps an explicit open-element stack (no recursion -- the
// depth limit can be raised arbitrarily). Allocation discipline: per run,
// never per element. Every buffer the tokenizer owns -- the byte window,
// the open-element names, the attribute offsets and slow-path values, the
// text chunk -- is a member that keeps its capacity, and limit messages
// are built only when a limit is exceeded. Once the buffers have grown to
// the largest tag, depth and text chunk seen, a start tag, an end tag or
// a text run allocates nothing; the heap traffic of a whole document is a
// handful of buffer doublings (tests/stream_alloc_test.cc pins this).
//
// Event order for one document:
//   [Doctype]? StartElement (Text | StartElement | EndElement)* EndElement
//   EndDocument
// Self-closing tags produce a StartElement immediately followed by a
// synthesized EndElement. Text between two structural events may arrive
// as SEVERAL Text events (one run split into chunks); consumers that
// care about whole runs (ignorable-whitespace skipping) aggregate until
// the next non-Text event.

#ifndef XIC_XML_STREAM_TOKENIZER_H_
#define XIC_XML_STREAM_TOKENIZER_H_

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/limits.h"
#include "util/status.h"

namespace xic {

/// A pull source of raw document bytes. Implementations are single-pass:
/// the tokenizer reads each byte exactly once.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Reads up to `max` bytes into `buf`; returns the count read, 0 at
  /// end of input.
  virtual Result<size_t> Read(char* buf, size_t max) = 0;

  /// Total input size when known upfront (strings, regular files) --
  /// lets the tokenizer enforce max_document_bytes on the whole input
  /// before reading it. Nullopt for unbounded streams.
  virtual std::optional<uint64_t> size() const { return std::nullopt; }

  /// The whole unread input, when it already sits in memory and outlives
  /// the source. The tokenizer then reads it in place and never calls
  /// Read(). Nullopt (the default) selects the windowed reader.
  virtual std::optional<std::string_view> Contiguous() const {
    return std::nullopt;
  }
};

/// Serves a string_view; the viewed bytes must outlive the source.
class StringSource : public ByteSource {
 public:
  explicit StringSource(std::string_view text) : text_(text) {}
  Result<size_t> Read(char* buf, size_t max) override;
  std::optional<uint64_t> size() const override { return text_.size(); }
  std::optional<std::string_view> Contiguous() const override {
    return text_.substr(pos_);
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

/// Reads a file in chunks straight into the caller's buffer; never holds
/// more than one read's worth.
class FileSource : public ByteSource {
 public:
  /// Opens `path`; kInvalidArgument with the errno detail on failure.
  static Result<FileSource> Open(const std::string& path);
  FileSource(FileSource&& other) noexcept;
  FileSource& operator=(FileSource&& other) noexcept;
  ~FileSource() override;

  Result<size_t> Read(char* buf, size_t max) override;
  std::optional<uint64_t> size() const override { return size_; }

 private:
  FileSource(std::FILE* file, std::optional<uint64_t> size)
      : file_(file), size_(size) {}
  std::FILE* file_ = nullptr;
  std::optional<uint64_t> size_;
};

enum class StreamEventKind {
  kDoctype,       // DOCTYPE seen: name + raw internal subset
  kStartElement,  // start tag (attributes normalized + attached)
  kEndElement,    // end tag, or synthesized for a self-closing tag
  kText,          // one chunk of character data (normalized, expanded)
  kEndDocument,   // input fully consumed; terminal
};

/// One tokenizer event. All views are valid only until the next Next()
/// call (they point into the tokenizer's internal buffers).
struct StreamEvent {
  StreamEventKind kind = StreamEventKind::kEndDocument;
  /// Element name (start/end), or DOCTYPE name.
  std::string_view name;
  /// kText: one chunk of character data.
  std::string_view text;
  /// kText: the chunk consists solely of XML S whitespace. A whole run
  /// is ignorable iff every chunk of the run has this set.
  bool text_all_space = true;
  /// kStartElement: attributes in document order; a repeated name keeps
  /// the last value in first-seen position (DataTree::SetAttribute
  /// semantics).
  struct Attr {
    std::string_view name;
    std::string_view value;  // normalized (Section 3.3.3), expanded
  };
  std::vector<Attr> attrs;
  /// kDoctype: raw text between '[' and ']' (empty when absent).
  std::string_view internal_subset;
  /// kDoctype: a '[' was present, even if the subset is empty ("[]" is
  /// an empty DTD, no '[' is no DTD at all).
  bool has_internal_subset = false;
};

struct StreamTokenizerOptions {
  /// Hard input bounds: document bytes, nesting depth, attributes per
  /// element and expansion output. Violations return kResourceExhausted
  /// naming the limit.
  ResourceLimits limits;
  /// Checked once per start tag.
  Deadline deadline;
  /// Windowed reads: read granularity and the rough ceiling for one kText
  /// chunk. In place the input is not read in chunks; a kText chunk ends
  /// once it reaches chunk_bytes, which a plain stretch of text (no
  /// reference, '\r' or ']') may overshoot.
  size_t chunk_bytes = 64 * 1024;
};

class StreamTokenizer {
 public:
  StreamTokenizer(ByteSource& source, StreamTokenizerOptions options = {});

  /// Pulls the next event. After kEndDocument (terminal), further calls
  /// keep returning kEndDocument. An error status is also terminal: "XML:
  /// <what> at line L, column C", or a limit / deadline status.
  Status Next(StreamEvent* event);

  /// Bytes of input consumed so far (diagnostics).
  uint64_t consumed_bytes() const { return base_ + start_; }

 private:
  enum class State {
    kProlog,        // before the root element
    kDoctypeClose,  // kDoctype emitted; "]...>" not yet consumed
    kContent,       // inside the document element
    kEpilog,        // after the root element closed
    kDone,
  };

  // -- Buffer management ----------------------------------------------------
  // buf_[start_, end_) is unread input; base_ counts bytes consumed
  // before buf_[0]. buf_ points at window_ (windowed) or at the source's
  // own bytes (in place; eof_ is set from the start, so Fill never
  // touches the buffer). Fill(pin) is the only refill: it drops every
  // byte before the absolute offset `pin` -- the first byte the construct
  // being parsed still references: a start tag's '<' inside
  // ParseStartTag, the cursor everywhere else -- and then reads. The
  // window doubles only when the pinned bytes alone fill it, i.e. one
  // token is larger than the window, so it stays within
  // max(2 x chunk_bytes, 2 x largest token).
  Status Fill(uint64_t pin);
  Status Fill() { return Fill(base_ + start_); }
  /// Makes >= want bytes available if the input has them; sets *have to
  /// the available count (may be < want at EOF).
  Status Ensure(size_t want, size_t* have) {
    if (available() < want && !eof_) XIC_RETURN_IF_ERROR(FillTo(want));
    *have = available();
    return Status::OK();
  }
  Status FillTo(size_t want);  // Ensure's slow path
  size_t available() const { return end_ - start_; }
  char at(size_t i) const { return buf_[start_ + i]; }
  bool Peek(std::string_view token) const;
  /// Consumes n bytes. Lines are counted later, by CountLinesTo().
  void Consume(size_t n) { start_ += n; }
  /// Brings line_/line_start_ up to absolute offset `abs` (which must
  /// still be in the buffer).
  void CountLinesTo(uint64_t abs);

  struct Mark {
    uint64_t abs = 0, line = 1, line_start = 0;
  };

  // -- Grammar --------------------------------------------------------------
  Status NextProlog(StreamEvent* event, bool* emitted);
  Status ParseDoctype(StreamEvent* event);
  Status FinishDoctypeClose();
  Status NextContent(StreamEvent* event);
  Status ParseStartTag(StreamEvent* event);
  Status ParseEndTag(StreamEvent* event);
  Status NextEpilog(StreamEvent* event);
  /// Skips whitespace / comments / non-xml-decl PIs (prolog + epilog).
  Status SkipMisc();
  Status SkipSpace();
  /// Sets *len to the length of the name at the cursor (0 if none),
  /// refilling until the name ends.
  Status ScanName(size_t* len);
  /// True when positioned on "<?xml" with a complete reserved target
  /// (may Fill to see the byte after the target).
  Result<bool> PeekXmlDecl();
  /// Skips a construct ending at `terminator` (comment body, PI, XML
  /// declaration), streaming through the buffer. `what` names the
  /// unterminated error, reported at `mark`; empty `what` consumes
  /// silently to EOF (SkipMisc semantics).
  Status SkipUntil(std::string_view terminator, std::string_view what,
                   const Mark& mark);
  /// Streams CDATA content into text_buf_ until "]]>"; sets *emitted
  /// when a full chunk was flushed into `event` mid-section.
  Status ScanCdata(StreamEvent* event, bool* emitted);
  /// Expands "&...;" at the cursor; refills keep the bytes from `pin`
  /// (at most the cursor) on.
  Status ParseReference(uint64_t pin, std::string* out);
  void AppendTextRun(const char* data, size_t n);
  /// Emits text_buf_ as one kText chunk (swapped into emit_buf_).
  void EmitText(StreamEvent* event);

  Mark Here();
  Status ErrorAt(const Mark& mark, std::string_view what) const;
  Status Error(std::string_view what);

  /// Name of the innermost open element.
  std::string_view OpenName() const {
    return std::string_view(open_names_).substr(open_starts_.back());
  }
  /// Emits kEndElement for the innermost open element. Its name stays in
  /// open_names_, backing the event's view, until the next Next() pops
  /// it (pop_pending_).
  void EmitEndElement(StreamEvent* event);

  /// One attribute of the start tag being parsed: offsets from the tag's
  /// '<' (stable across refills, which keep the tag) or an index into
  /// attr_store_.
  struct RawAttr {
    size_t name_off, name_len;
    bool from_store;
    size_t value_off_or_index, value_len;
  };

  ByteSource& source_;
  StreamTokenizerOptions options_;

  std::vector<char> window_;  // windowed reads only
  const char* buf_ = nullptr;
  size_t start_ = 0, end_ = 0;
  uint64_t base_ = 0;        // bytes consumed before buf_[0]
  bool eof_ = false;         // source exhausted
  uint64_t total_read_ = 0;  // all bytes pulled from the source
  bool started_ = false;     // first Next() ran the upfront size check

  uint64_t lines_at_ = 0;    // absolute offset line_ is counted up to
  uint64_t line_ = 1;        // 1-based line of offset lines_at_
  uint64_t line_start_ = 0;  // absolute offset just after the last '\n'

  State state_ = State::kProlog;
  std::string open_names_;           // open element names, concatenated
  std::vector<size_t> open_starts_;  // offset of each name in open_names_
  bool pending_end_ = false;         // synthesized EndElement (self-closing)
  bool pop_pending_ = false;         // innermost element closed
  std::string doctype_name_;
  std::string doctype_subset_;

  bool in_cdata_ = false;   // mid-CDATA across Next() calls
  bool cdata_cr_ = false;   // CDATA normalizer saw '\r' last
  Mark cdata_mark_;         // section start, for "unterminated CDATA"
  std::string text_buf_;    // pending character data
  std::string emit_buf_;    // backs the previous kText event's view
  bool text_all_space_ = true;
  std::vector<RawAttr> raw_attrs_;       // current start tag (reused)
  std::vector<std::string> attr_store_;  // slow-path attr values (reused)
  uint64_t expanded_bytes_ = 0;          // shared expansion budget
};

}  // namespace xic

#endif  // XIC_XML_STREAM_TOKENIZER_H_
