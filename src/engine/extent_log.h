// Spillable tuple logs for the streaming validator.
//
// The streaming checker (engine/stream_validator.h) cannot hold whole
// extents in memory: a 1 GB document's key tuples alone would defeat the
// point of streaming. Instead every distinct extent the constraints read
// (one element type's tuples over one ordered field list) appends
// compact records -- (vertex seq, rank, encoded tuple payload) -- to one
// TupleLog, and the post-pass consumes each log as sorted scans in
// (payload, seq, rank) order. Duplicate detection (keys/IDs) becomes
// group iteration and inclusion checking (foreign keys) a merge-join of
// two sorted scans, so no hash table over an extent ever materializes.
// A key's log is also its foreign keys' join target, so every payload
// uses one format, EncodeTupleInto's; a set-valued source logs each
// value as a 1-tuple.
//
// Memory discipline: all logs of one run share a SpillBudget. Appends
// accumulate in an in-memory batch; when the combined batches exceed the
// budget, the largest batch is sorted and flushed as one sorted run to
// that log's unlinked temp file, written through one reused 256 KiB
// buffer. Finish() sorts the tail batch and mmaps the file read-only;
// Scan() then k-way-merges the on-disk runs with the in-memory tail, and
// a finished log may be scanned any number of times. A log that never
// overflows the budget stays entirely in memory and touches no file.
// Peak memory is O(budget + write buffer + largest single record),
// independent of extent sizes.
//
// Record order within one (payload, seq, rank) sort key is total, so a
// scan's output is deterministic regardless of when spills happened --
// the streaming verdict stays byte-identical to the materialized one at
// any budget (pinned by tests/stream_test.cc at budget 1, i.e. spill on
// every append, and by tests/extent_log_test.cc at budgets 0, 1 and
// 4 KiB).
//
// Batch layout: each in-memory record is one 32-byte Entry whose first
// 8 payload bytes, zero-padded, sit inline as its sort key. Payloads of
// at most 8 bytes live only there; heap_ holds only the longer ones,
// whole, so every payload is one contiguous view. The batch sort
// compares the key as a big-endian unsigned integer inline and calls
// EntryLess only when two keys tie; that touches heap_ only when both
// payloads are longer than 8 bytes.
// Invariant: that entry order equals RecordLess, the (payload bytes as
// unsigned, seq, rank) order the scan's k-way merge of spilled runs and
// the foreign-key merge-join both assume.

#ifndef XIC_ENGINE_EXTENT_LOG_H_
#define XIC_ENGINE_EXTENT_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace xic {

class TupleLog;

/// The shared in-memory allowance for all TupleLogs of one streaming run.
/// Not thread-safe: one streaming run is single-threaded by design.
class SpillBudget {
 public:
  /// `budget_bytes` caps the combined in-memory batch payload across all
  /// registered logs; 0 means "never spill" (everything stays in memory).
  explicit SpillBudget(size_t budget_bytes) : budget_(budget_bytes) {}
  SpillBudget(const SpillBudget&) = delete;
  SpillBudget& operator=(const SpillBudget&) = delete;

  size_t budget_bytes() const { return budget_; }
  size_t in_memory_bytes() const { return in_memory_; }
  /// Total bytes written to spill files across all logs (diagnostics).
  uint64_t spilled_bytes() const { return spilled_; }
  /// Sorted runs flushed across all logs (diagnostics).
  size_t spill_runs() const { return runs_; }

 private:
  friend class TupleLog;
  Status Charge(size_t bytes);  // may spill the largest batch

  size_t budget_;
  size_t in_memory_ = 0;
  uint64_t spilled_ = 0;
  size_t runs_ = 0;
  std::vector<TupleLog*> logs_;
  std::string spill_buf_;  // the write buffer every spill reuses
};

/// An append-only log of (seq, rank, payload) records consumed as one
/// scan in (payload, seq, rank) order after Finish().
class TupleLog {
 public:
  explicit TupleLog(SpillBudget* budget);
  TupleLog(const TupleLog&) = delete;
  TupleLog& operator=(const TupleLog&) = delete;
  ~TupleLog();

  /// Appends one record. May spill (this or another log) past the shared
  /// budget; spill I/O failures surface here as kUnavailable, and a
  /// payload of 4 GiB or more (beyond the 32-bit record length) as
  /// kResourceExhausted.
  Status Append(uint32_t seq, uint32_t rank, std::string_view payload);

  /// Seals the log: sorts the in-memory tail and maps any spilled runs.
  /// Append() is invalid afterwards; Scan() is valid afterwards.
  Status Finish();

  size_t record_count() const { return record_count_; }

  struct Record {
    uint32_t seq = 0;
    uint32_t rank = 0;
    std::string_view payload;  // valid until the log is destroyed
  };

  /// Single-pass merged cursor over the whole log in (payload, seq, rank)
  /// order. The log must have been Finish()ed and must outlive the
  /// cursor.
  class Cursor {
   public:
    /// Advances to the next record; false at the end.
    bool Next(Record* out);

   private:
    friend class TupleLog;
    struct Head {
      size_t source;  // run index, or runs.size() for the memory tail
      Record record;
    };
    explicit Cursor(const TupleLog* log);
    bool PullFrom(size_t source, Record* out);
    void Push(size_t source);

    /// Drops fully-consumed pages of the spill-file map behind `source`'s
    /// read position (madvise(MADV_DONTNEED)). The map is a read-only
    /// file mapping, so a dropped page re-faults to identical bytes if a
    /// held payload view touches it again -- correctness is unaffected;
    /// what changes is that a scan's resident set stays O(window) instead
    /// of O(spilled bytes).
    void DropConsumed(size_t source);

    const TupleLog* log_ = nullptr;
    std::vector<uint64_t> run_pos_;  // read offset within each run
    /// Per-run offset up to which consumed map pages were dropped.
    std::vector<uint64_t> run_dropped_;
    size_t mem_pos_ = 0;             // index into the sorted tail
    std::vector<Head> heap_;         // min-heap by (payload, seq, rank)
  };
  Cursor Scan() const { return Cursor(this); }

 private:
  friend class SpillBudget;

  struct Entry {
    char prefix[8];   // first min(len, 8) payload bytes, zero-padded
    uint64_t offset;  // into heap_ when len > 8, unused otherwise
    uint32_t seq;
    uint32_t rank;
    uint32_t len;
  };
  static_assert(sizeof(Entry) == 32);
  struct Run {
    uint64_t offset;  // into the spill file
    uint64_t bytes;
  };

  size_t batch_bytes() const { return charged_; }
  std::string_view PayloadOf(const Entry& e) const;
  bool EntryLess(const Entry& a, const Entry& b) const;  // == RecordLess
  void SortBatch();
  Status SpillBatch();
  Status EnsureFile();

  SpillBudget* budget_;
  std::vector<Entry> entries_;  // in-memory batch (sorted after Finish)
  std::string heap_;            // batch payloads longer than 8 bytes
  std::vector<Run> runs_;
  size_t charged_ = 0;  // bytes currently charged against the budget
  size_t record_count_ = 0;
  bool finished_ = false;

  int fd_ = -1;
  uint64_t file_bytes_ = 0;
  const char* map_ = nullptr;  // mmap of the spill file after Finish()
  size_t map_bytes_ = 0;
};

/// Encodes a tuple of field values into a collision-free
/// length-prefixed form ("3:abc2:xy"); DecodeTuple inverts it for
/// rendering violation messages.
void EncodeTupleInto(const std::vector<std::string_view>& values,
                     std::string* out);
std::vector<std::string> DecodeTuple(std::string_view payload);
/// The value of an encoded 1-tuple ("3:abc" -> "abc"), as a view into
/// `payload`.
std::string_view DecodeSingle(std::string_view payload);
/// The encoding of a tuple's first field, as a prefix of `payload`
/// ("3:abc2:xy" -> "3:abc"). Encodings are prefix-free, so a log of
/// 2-tuples scans grouped by first field, in the order in which a log of
/// those fields as 1-tuples scans.
std::string_view FirstField(std::string_view payload);

}  // namespace xic

#endif  // XIC_ENGINE_EXTENT_LOG_H_
