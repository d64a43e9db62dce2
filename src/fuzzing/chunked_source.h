// A ByteSource over an in-memory string that hides its contiguity. It
// serves at most `max_read` bytes per Read() and offers no Contiguous(),
// so the tokenizer reads it through its sliding window -- refills,
// compaction, growth past the largest token and lazy line counting -- as
// it reads files and sockets. Differential tests and the stream oracle
// run it against the in-place path (StringSource) to keep both under
// test.

#ifndef XIC_FUZZING_CHUNKED_SOURCE_H_
#define XIC_FUZZING_CHUNKED_SOURCE_H_

#include <algorithm>
#include <cstring>
#include <string_view>

#include "xml/stream_tokenizer.h"

namespace xic {

class ChunkedSource : public ByteSource {
 public:
  /// `text` must outlive the source; `max_read` >= 1.
  ChunkedSource(std::string_view text, size_t max_read)
      : text_(text), max_read_(std::max<size_t>(max_read, 1)) {}

  Result<size_t> Read(char* buf, size_t max) override {
    size_t n = std::min({max, max_read_, text_.size() - pos_});
    if (n > 0) std::memcpy(buf, text_.data() + pos_, n);
    pos_ += n;
    return n;
  }
  std::optional<uint64_t> size() const override { return text_.size(); }

 private:
  std::string_view text_;
  size_t max_read_;
  size_t pos_ = 0;
};

}  // namespace xic

#endif  // XIC_FUZZING_CHUNKED_SOURCE_H_
