// TupleLog scan order against a reference sort.
//
// A log's batches are sorted on an inline 8-byte key before the payload
// (engine/extent_log.h), while spilled runs are merged with the plain
// (payload, seq, rank) comparison. Both must give one order, so every
// scan here is compared with std::stable_sort over (payload bytes as
// unsigned, seq, rank), at a budget that never spills (0), one that
// spills on every append (1) and one in between (4 KiB), and at 1 MiB,
// whose batches outgrow the spill write buffer. FirstField's cases pin
// the grouping of a 2-tuple log that the inverse check relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <random>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "engine/extent_log.h"

namespace xic {
namespace {

struct Rec {
  uint32_t seq;
  uint32_t rank;
  std::string payload;
};

bool operator==(const Rec& a, const Rec& b) {
  return a.seq == b.seq && a.rank == b.rank && a.payload == b.payload;
}

void PrintTo(const Rec& r, std::ostream* os) {
  *os << "(" << r.seq << ", " << r.rank << ", \"";
  for (unsigned char c : r.payload) {
    static const char kHex[] = "0123456789abcdef";
    *os << "\\x" << kHex[c >> 4] << kHex[c & 15];
  }
  *os << "\")";
}

std::vector<Rec> Reference(std::vector<Rec> recs) {
  std::stable_sort(recs.begin(), recs.end(), [](const Rec& a, const Rec& b) {
    const auto* pa = reinterpret_cast<const unsigned char*>(a.payload.data());
    const auto* pb = reinterpret_cast<const unsigned char*>(b.payload.data());
    if (std::lexicographical_compare(pa, pa + a.payload.size(), pb,
                                     pb + b.payload.size())) {
      return true;
    }
    if (std::lexicographical_compare(pb, pb + b.payload.size(), pa,
                                     pa + a.payload.size())) {
      return false;
    }
    return std::tie(a.seq, a.rank) < std::tie(b.seq, b.rank);
  });
  return recs;
}

// Scans the whole log. Every payload view is kept until the end: views
// must stay valid for the log's lifetime, not just until the next Next().
std::vector<Rec> ScanAll(const TupleLog& log) {
  std::vector<TupleLog::Record> views;
  TupleLog::Cursor cursor = log.Scan();
  TupleLog::Record r;
  while (cursor.Next(&r)) views.push_back(r);
  std::vector<Rec> out;
  for (const TupleLog::Record& v : views) {
    out.push_back(Rec{v.seq, v.rank, std::string(v.payload)});
  }
  return out;
}

// Appends `recs` to one log under `budget_bytes` and checks its scan
// against the reference.
void ExpectScanOrder(const std::vector<Rec>& recs, size_t budget_bytes) {
  SCOPED_TRACE("budget " + std::to_string(budget_bytes));
  SpillBudget budget(budget_bytes);
  TupleLog log(&budget);
  for (const Rec& r : recs) {
    ASSERT_TRUE(log.Append(r.seq, r.rank, r.payload).ok());
  }
  ASSERT_TRUE(log.Finish().ok());
  EXPECT_EQ(log.record_count(), recs.size());
  if (budget_bytes == 0) {
    EXPECT_EQ(budget.spill_runs(), 0u);
  } else if (budget_bytes == 1) {
    EXPECT_EQ(budget.spill_runs(), recs.size());
  }
  EXPECT_EQ(ScanAll(log), Reference(recs));
}

void ExpectScanOrderAtAllBudgets(const std::vector<Rec>& recs) {
  for (size_t budget : {size_t{0}, size_t{1}, size_t{4096}}) {
    ExpectScanOrder(recs, budget);
  }
}

std::string Bytes(std::initializer_list<int> bytes) {
  std::string s;
  for (int b : bytes) s.push_back(static_cast<char>(b));
  return s;
}

TEST(TupleLogOrder, EmptyPayload) {
  ExpectScanOrderAtAllBudgets({{3, 0, ""},
                               {1, 0, std::string(1, '\0')},
                               {2, 0, ""},
                               {0, 0, "a"},
                               {1, 1, ""}});
}

TEST(TupleLogOrder, TrailingZeroByteSortsAfterItsPrefix) {
  // Both pad to the same 8-byte key; the length breaks the tie.
  const std::string ab0("ab\0", 3);
  ExpectScanOrderAtAllBudgets({{0, 0, ab0}, {1, 0, "ab"}, {2, 0, ab0},
                               {3, 0, "ab"}, {4, 0, std::string("ab\0\0", 4)},
                               {5, 0, "a"}});
}

TEST(TupleLogOrder, EightAndNineBytePayloadsSharingAPrefix) {
  const std::string p8 = "7:i12345";  // 8 bytes, inline only
  ExpectScanOrderAtAllBudgets({{0, 0, p8 + "6"},
                               {1, 0, p8},
                               {2, 0, p8 + "0"},
                               {3, 0, p8 + std::string(1, '\0')},
                               {4, 0, p8 + "6"},
                               {5, 0, p8 + "60"},
                               {6, 0, p8},
                               {7, 0, std::string("7:i1234\0", 8)},
                               {8, 0, std::string("7:i1234\0\0", 9)},
                               {9, 0, p8 + "\xff"}});
}

TEST(TupleLogOrder, HighBytesSortAfterAscii) {
  // A signed or little-endian key would put 0x80.. before ASCII, or
  // order by the last prefix byte first.
  ExpectScanOrderAtAllBudgets({{0, 0, Bytes({0x80})},
                               {1, 0, "z"},
                               {2, 0, Bytes({0xff, 'a'})},
                               {3, 0, Bytes({'a', 0x80})},
                               {4, 0, "a\x7f"},
                               {5, 0, Bytes({'a', 'b', 'c', 'd', 'e', 'f',
                                             'g', 0x80})},
                               {6, 0, "abcdefgz"},
                               {7, 0, Bytes({'a', 'b', 'c', 'd', 'e', 'f',
                                             'g', 'h', 0x90})},
                               {8, 0, "abcdefghz"},
                               {9, 0, Bytes({0x01, 0, 0, 0, 0, 0, 0, 0x02})},
                               {10, 0, Bytes({0x02, 0, 0, 0, 0, 0, 0, 0x01})}});
}

TEST(TupleLogOrder, EqualPayloadsOrderBySeqThenRank) {
  std::vector<Rec> recs;
  for (const std::string& p : {std::string("k"), std::string("9:long-key")}) {
    recs.push_back({7, 2, p});
    recs.push_back({7, 0, p});
    recs.push_back({3, 5, p});
    recs.push_back({7, 1, p});
    recs.push_back({0, 9, p});
    recs.push_back({3, 5, p});
  }
  ExpectScanOrderAtAllBudgets(recs);
}

TEST(TupleLogOrder, RandomPayloadsMatchReference) {
  // A small alphabet with zero and high bytes, and lengths around the
  // 8-byte key, so keys tie often and every tie-break path runs.
  const char kAlphabet[] = {'\0', '1', ':', 'a', 'b', '\x7f', '\x80', '\xff'};
  std::mt19937 rng(20261017);
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<Rec> recs;
    const int n = 1 + static_cast<int>(rng() % 400);
    for (int i = 0; i < n; ++i) {
      Rec r{};
      r.seq = rng() % 64;
      r.rank = rng() % 3;
      const size_t len = rng() % 13;
      for (size_t j = 0; j < len; ++j) {
        // Long runs of one byte make shared prefixes common.
        r.payload.push_back(rng() % 4 == 0 ? kAlphabet[rng() % 8] : 'a');
      }
      recs.push_back(std::move(r));
    }
    ExpectScanOrderAtAllBudgets(recs);
  }
}

TEST(TupleLogOrder, LogsSharingABudgetKeepTheirOwnOrder) {
  // Two logs on one 4 KiB budget: spills land in whichever batch is
  // largest, so each log sees runs of varying sizes.
  std::mt19937 rng(7);
  SpillBudget budget(4096);
  TupleLog a(&budget), b(&budget);
  std::vector<Rec> ra, rb;
  for (uint32_t i = 0; i < 3000; ++i) {
    const bool to_b = rng() % 3 == 0;
    Rec r{i, i % 2, std::to_string(rng() % 500) + (i % 3 ? "" : "-tail")};
    ASSERT_TRUE((to_b ? b : a).Append(r.seq, r.rank, r.payload).ok());
    (to_b ? rb : ra).push_back(std::move(r));
  }
  ASSERT_TRUE(a.Finish().ok());
  ASSERT_TRUE(b.Finish().ok());
  EXPECT_GT(budget.spill_runs(), 2u);
  EXPECT_EQ(ScanAll(a), Reference(ra));
  EXPECT_EQ(ScanAll(b), Reference(rb));
}

std::string Encoded(std::vector<std::string_view> values) {
  std::string out;
  EncodeTupleInto(values, &out);
  return out;
}

TEST(FirstField, CutsTheFirstEncodedField) {
  EXPECT_EQ(FirstField(Encoded({"abc", "xy"})), "3:abc");
  EXPECT_EQ(FirstField(Encoded({"", "xy"})), "0:");
  EXPECT_EQ(FirstField(Encoded({"a:b", ""})), "3:a:b");
  EXPECT_EQ(FirstField(Encoded({"abcdefghij", "9"})), "10:abcdefghij");
}

TEST(FirstField, PairLogGroupsInKeyLogOrder) {
  // Encoded lengths compare bytewise: "10:" sorts before "9:", so a
  // 10-byte value precedes a 9-byte one in both logs. A log of 2-tuples
  // must scan grouped by first field, in the key log's order, at any
  // budget: the inverse check walks the two in step.
  const std::vector<std::string> firsts = {"abcdefghi", "abcdefghij", "b",
                                           "",          "abcdefghi0", "9"};
  const std::vector<std::string> seconds = {"", "x", "abcdefghij", "9:"};
  for (size_t budget_bytes : {size_t{0}, size_t{1}, size_t{4096}}) {
    SCOPED_TRACE("budget " + std::to_string(budget_bytes));
    SpillBudget budget(budget_bytes);
    TupleLog keys(&budget), pairs(&budget);
    for (uint32_t seq = 0; seq < firsts.size(); ++seq) {
      ASSERT_TRUE(keys.Append(seq, 0, Encoded({firsts[seq]})).ok());
      for (const std::string& b : seconds) {
        ASSERT_TRUE(pairs.Append(seq, 0, Encoded({firsts[seq], b})).ok());
      }
    }
    ASSERT_TRUE(keys.Finish().ok());
    ASSERT_TRUE(pairs.Finish().ok());
    std::vector<std::string> key_order, group_order;
    for (const Rec& r : ScanAll(keys)) key_order.push_back(r.payload);
    for (const Rec& r : ScanAll(pairs)) {
      const std::string first(FirstField(r.payload));
      EXPECT_EQ(first, Encoded({firsts[r.seq]}));
      if (group_order.empty() || group_order.back() != first) {
        group_order.push_back(first);
      }
    }
    EXPECT_EQ(group_order, key_order);
    EXPECT_EQ(key_order,
              (std::vector<std::string>{"0:", "10:abcdefghi0",
                                        "10:abcdefghij", "1:9", "1:b",
                                        "9:abcdefghi"}));
  }
}

TEST(TupleLogSpill, RunsLargerThanTheWriteBufferSpillWhole) {
  // A 1 MiB budget spills batches of about 24k records, several times
  // the 256 KiB buffer a spill writes through, and one payload is larger
  // than that buffer on its own. Every run must read back whole and in
  // order, and a finished log scans the same twice.
  std::mt19937 rng(11);
  std::vector<Rec> recs;
  for (uint32_t i = 0; i < 100000; ++i) {
    Rec r{i, i % 2, "k" + std::to_string(rng() % 50000) + "-padding"};
    if (i == 31337) r.payload = std::string(300u << 10, 'z');
    recs.push_back(std::move(r));
  }
  SpillBudget budget(1u << 20);
  TupleLog log(&budget);
  for (const Rec& r : recs) {
    ASSERT_TRUE(log.Append(r.seq, r.rank, r.payload).ok());
  }
  ASSERT_TRUE(log.Finish().ok());
  ASSERT_GE(budget.spill_runs(), 3u);
  EXPECT_GT(budget.spilled_bytes() / budget.spill_runs(), 256u << 10);
  const std::vector<Rec> want = Reference(recs);
  // EXPECT_TRUE: a mismatch would print 100k records.
  EXPECT_TRUE(ScanAll(log) == want);
  EXPECT_TRUE(ScanAll(log) == want);
}

}  // namespace
}  // namespace xic
