#include "engine/extent_log.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "obs/obs.h"
#include "util/strings.h"

namespace xic {

namespace {

// One serialized record: seq, rank, payload length, payload bytes. The
// spill file is private to the process (created unlinked), so native
// endianness is fine.
constexpr size_t kHeaderBytes = 3 * sizeof(uint32_t);

// A spill writes its run through one buffer of this size, not a
// serialized copy of the whole batch.
constexpr size_t kSpillBufferBytes = 256u << 10;

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Writes all of [data, data + size) to `fd`, retrying on EINTR.
Status WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t n = write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("spill write failed: " +
                                 ErrnoMessage(errno));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

// Accounting charge of one record: payload plus per-entry overhead, an
// approximation of the true in-memory footprint that keeps the budget
// meaningful for small tuples.
size_t ChargeOf(size_t payload) { return payload + sizeof(TupleLog::Record); }

bool RecordLess(const TupleLog::Record& a, const TupleLog::Record& b) {
  if (int c = a.payload.compare(b.payload); c != 0) return c < 0;
  if (a.seq != b.seq) return a.seq < b.seq;
  return a.rank < b.rank;
}

constexpr size_t kPrefix = sizeof(uint64_t);

// The entry's sort key: its first 8 payload bytes, zero-padded, read as
// one big-endian unsigned integer, so integer order is memcmp order.
uint64_t KeyOf(const char* prefix) {
  uint64_t k;
  std::memcpy(&k, prefix, sizeof(k));
  if constexpr (std::endian::native == std::endian::little) {
    k = __builtin_bswap64(k);
  }
  return k;
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry order: RecordLess, mostly decided by the key alone

std::string_view TupleLog::PayloadOf(const Entry& e) const {
  if (e.len <= kPrefix) return std::string_view(e.prefix, e.len);
  return std::string_view(heap_).substr(e.offset, e.len);
}

bool TupleLog::EntryLess(const Entry& a, const Entry& b) const {
  const uint64_t ka = KeyOf(a.prefix);
  const uint64_t kb = KeyOf(b.prefix);
  if (ka != kb) return ka < kb;
  if (a.len > kPrefix && b.len > kPrefix) {
    // Both payloads run past the key: their tails decide, and equal
    // tails mean equal payloads.
    const std::string_view ta = PayloadOf(a).substr(kPrefix);
    const std::string_view tb = PayloadOf(b).substr(kPrefix);
    if (int c = ta.compare(tb); c != 0) return c < 0;
  } else if (a.len != b.len) {
    // Equal zero-padded keys and one payload of <= 8 bytes: the shorter
    // payload is a prefix of the longer one, so it sorts first.
    return a.len < b.len;
  }
  if (a.seq != b.seq) return a.seq < b.seq;
  return a.rank < b.rank;
}

// ---------------------------------------------------------------------------
// SpillBudget

Status SpillBudget::Charge(size_t bytes) {
  in_memory_ += bytes;
  if (budget_ == 0) return Status::OK();
  while (in_memory_ > budget_) {
    TupleLog* largest = nullptr;
    for (TupleLog* log : logs_) {
      if (log->finished_ || log->entries_.empty()) continue;
      if (largest == nullptr || log->batch_bytes() > largest->batch_bytes()) {
        largest = log;
      }
    }
    if (largest == nullptr) break;  // one oversized record: nothing to free
    XIC_RETURN_IF_ERROR(largest->SpillBatch());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// TupleLog

TupleLog::TupleLog(SpillBudget* budget) : budget_(budget) {
  budget_->logs_.push_back(this);
}

TupleLog::~TupleLog() {
  if (map_ != nullptr) {
    munmap(const_cast<char*>(map_), map_bytes_);
  }
  if (fd_ >= 0) close(fd_);
  budget_->in_memory_ -= charged_;
  auto& logs = budget_->logs_;
  logs.erase(std::find(logs.begin(), logs.end(), this));
}

Status TupleLog::Append(uint32_t seq, uint32_t rank,
                        std::string_view payload) {
  if (payload.size() > UINT32_MAX) {
    // The entry and the spill framing carry a 32-bit length.
    return Status::ResourceExhausted(
        "extent record payload of " + std::to_string(payload.size()) +
        " bytes exceeds the 4 GiB record limit");
  }
  Entry e{};
  if (!payload.empty()) {
    std::memcpy(e.prefix, payload.data(), std::min(payload.size(), kPrefix));
  }
  e.seq = seq;
  e.rank = rank;
  e.len = static_cast<uint32_t>(payload.size());
  if (payload.size() > kPrefix) {
    e.offset = heap_.size();
    heap_.append(payload);
  }
  entries_.push_back(e);
  ++record_count_;
  charged_ += ChargeOf(payload.size());
  return budget_->Charge(ChargeOf(payload.size()));
}

void TupleLog::SortBatch() {
  if (entries_.empty()) return;
  // Timed per batch, never per record: the layer's cost in production.
  const auto start = std::chrono::steady_clock::now();
  // The key decides most comparisons, so it is compared inline; only a
  // tie pays the call into EntryLess.
  std::sort(entries_.begin(), entries_.end(),
            [this](const Entry& a, const Entry& b) {
              const uint64_t ka = KeyOf(a.prefix);
              const uint64_t kb = KeyOf(b.prefix);
              if (ka != kb) return ka < kb;
              return EntryLess(a, b);
            });
  XIC_COUNTER_ADD("stream.extent_sort_ns",
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start).count());
  XIC_COUNTER_ADD("stream.extent_sorted_records", entries_.size());
}

Status TupleLog::EnsureFile() {
  if (fd_ >= 0) return Status::OK();
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || *dir == '\0') dir = "/tmp";
  std::string path = std::string(dir) + "/xic-spill-XXXXXX";
  fd_ = mkstemp(path.data());
  if (fd_ < 0) {
    return Status::Unavailable("cannot create spill file in " +
                               std::string(dir) + ": " +
                               ErrnoMessage(errno));
  }
  unlink(path.c_str());  // anonymous: reclaimed even on abnormal exit
  return Status::OK();
}

Status TupleLog::SpillBatch() {
  if (entries_.empty()) return Status::OK();
  XIC_RETURN_IF_ERROR(EnsureFile());
  SortBatch();
  // The buffer is the budget's, reused by every spill of the run. It
  // grows past kSpillBufferBytes only to hold one larger record.
  std::string& buf = budget_->spill_buf_;
  buf.clear();
  buf.reserve(kSpillBufferBytes);
  uint64_t bytes = 0;
  for (const Entry& e : entries_) {
    const std::string_view payload = PayloadOf(e);
    if (!buf.empty() &&
        buf.size() + kHeaderBytes + payload.size() > kSpillBufferBytes) {
      XIC_RETURN_IF_ERROR(WriteAll(fd_, buf.data(), buf.size()));
      buf.clear();
    }
    PutU32(&buf, e.seq);
    PutU32(&buf, e.rank);
    PutU32(&buf, e.len);
    buf.append(payload);
    bytes += kHeaderBytes + payload.size();
  }
  XIC_RETURN_IF_ERROR(WriteAll(fd_, buf.data(), buf.size()));
  runs_.push_back(Run{file_bytes_, bytes});
  file_bytes_ += bytes;
  budget_->spilled_ += bytes;
  budget_->runs_ += 1;
  budget_->in_memory_ -= charged_;
  charged_ = 0;
  entries_.clear();
  heap_.clear();
  heap_.shrink_to_fit();
  return Status::OK();
}

Status TupleLog::Finish() {
  if (finished_) return Status::OK();
  SortBatch();
  finished_ = true;
  if (fd_ >= 0 && file_bytes_ > 0) {
    void* map = mmap(nullptr, file_bytes_, PROT_READ, MAP_PRIVATE, fd_, 0);
    if (map == MAP_FAILED) {
      return Status::Unavailable("cannot map spill file: " +
                                 ErrnoMessage(errno));
    }
    map_ = static_cast<const char*>(map);
    map_bytes_ = file_bytes_;
    // Scans are near-sequential within each run; cursors additionally
    // drop consumed pages (Cursor::DropConsumed) so a merge's resident
    // set does not grow with the spilled bytes.
    madvise(const_cast<char*>(map_), map_bytes_, MADV_SEQUENTIAL);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Cursor: k-way merge of the spilled runs plus the in-memory tail.

TupleLog::Cursor::Cursor(const TupleLog* log) : log_(log) {
  run_pos_.resize(log_->runs_.size(), 0);
  run_dropped_.resize(log_->runs_.size(), 0);
  heap_.reserve(log_->runs_.size() + 1);
  for (size_t i = 0; i <= log_->runs_.size(); ++i) Push(i);
}

void TupleLog::Cursor::DropConsumed(size_t source) {
  // Window between drops: big enough that the madvise cost vanishes,
  // small enough that a k-way merge over many runs keeps the total
  // resident window in the low MiBs.
  constexpr uint64_t kDropWindow = 256u << 10;
  uint64_t pos = run_pos_[source];
  if (pos - run_dropped_[source] < kDropWindow) return;
  const long page = sysconf(_SC_PAGESIZE);
  const Run& run = log_->runs_[source];
  // Page-align inward so only fully-consumed pages are dropped; pages
  // straddling a run boundary just re-fault for the neighboring cursor.
  uint64_t begin = run.offset + run_dropped_[source];
  uint64_t end = run.offset + pos;
  begin += static_cast<uint64_t>(page) - 1;
  begin -= begin % static_cast<uint64_t>(page);
  end -= end % static_cast<uint64_t>(page);
  if (end > begin) {
    madvise(const_cast<char*>(log_->map_) + begin, end - begin,
            MADV_DONTNEED);
  }
  run_dropped_[source] = pos;
}

bool TupleLog::Cursor::PullFrom(size_t source, Record* out) {
  if (source == log_->runs_.size()) {
    if (mem_pos_ >= log_->entries_.size()) return false;
    const Entry& e = log_->entries_[mem_pos_++];
    *out = Record{e.seq, e.rank, log_->PayloadOf(e)};
    return true;
  }
  const Run& run = log_->runs_[source];
  uint64_t& pos = run_pos_[source];
  if (pos >= run.bytes) return false;
  const char* base = log_->map_ + run.offset + pos;
  uint32_t seq = GetU32(base);
  uint32_t rank = GetU32(base + 4);
  uint32_t len = GetU32(base + 8);
  *out = Record{seq, rank, std::string_view(base + kHeaderBytes, len)};
  pos += kHeaderBytes + len;
  DropConsumed(source);
  return true;
}

void TupleLog::Cursor::Push(size_t source) {
  Head head;
  head.source = source;
  if (!PullFrom(source, &head.record)) return;
  heap_.push_back(head);
  std::push_heap(heap_.begin(), heap_.end(), [](const Head& a, const Head& b) {
    return RecordLess(b.record, a.record);  // min-heap
  });
}

bool TupleLog::Cursor::Next(Record* out) {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), [](const Head& a, const Head& b) {
    return RecordLess(b.record, a.record);
  });
  Head head = heap_.back();
  heap_.pop_back();
  *out = head.record;
  Push(head.source);
  return true;
}

// ---------------------------------------------------------------------------
// Tuple encoding

void EncodeTupleInto(const std::vector<std::string_view>& values,
                     std::string* out) {
  out->clear();
  for (std::string_view v : values) {
    char digits[20];  // any size_t in decimal
    char* end = std::to_chars(digits, digits + sizeof(digits), v.size()).ptr;
    out->append(digits, end);
    out->push_back(':');
    out->append(v);
  }
}

std::vector<std::string> DecodeTuple(std::string_view payload) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < payload.size()) {
    size_t len = 0;
    while (i < payload.size() && payload[i] != ':') {
      len = len * 10 + static_cast<size_t>(payload[i] - '0');
      ++i;
    }
    ++i;  // ':'
    out.emplace_back(payload.substr(i, len));
    i += len;
  }
  return out;
}

std::string_view DecodeSingle(std::string_view payload) {
  return payload.substr(payload.find(':') + 1);
}

std::string_view FirstField(std::string_view payload) {
  const size_t colon = payload.find(':');
  size_t len = 0;
  std::from_chars(payload.data(), payload.data() + colon, len);
  return payload.substr(0, colon + 1 + len);
}

}  // namespace xic
