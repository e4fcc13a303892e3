// The violation report's row type (MatchRow) and its sort.
//
// SortViolationList is checked against an independent oracle — std::sort
// with ViolationLess, written here — on random lists that mix GEDs, mix
// arities 0–10 within one GED (rows on both sides of the inline/spill
// boundary), hold rows that are prefixes of one another, carry ids that
// need two 16-bit digits (≥ 65536) and ids equal to UINT32_MAX, repeat
// rows, and fall on both sides of the std::sort cutoff. MatchRow copy, move
// and self-assignment are exercised across the inline/spill boundary,
// where a leak or double free shows under ASan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "reason/validation.h"

namespace ged {
namespace {

constexpr NodeId kMaxId = std::numeric_limits<NodeId>::max();

Match Ids(size_t n, NodeId first) {
  Match m(n);
  for (size_t i = 0; i < n; ++i) m[i] = first + static_cast<NodeId>(i);
  return m;
}

void ExpectRowIs(const MatchRow& row, const Match& want) {
  ASSERT_EQ(row.size(), want.size());
  EXPECT_EQ(row.empty(), want.empty());
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(row[i], want[i]);
  EXPECT_EQ(Match(row.begin(), row.end()), want);
  EXPECT_EQ(row.end() - row.begin(), static_cast<ptrdiff_t>(want.size()));
}

TEST(MatchRow, BuildsFromMatchAndInitializerList) {
  MatchRow none;
  EXPECT_TRUE(none.empty());
  MatchRow listed = {4, 5, kMaxId};
  ExpectRowIs(listed, {4, 5, kMaxId});
  for (size_t n : {0u, 1u, 6u, 7u, 9u, 40u}) {
    Match m = Ids(n, 100);
    ExpectRowIs(MatchRow(m), m);
  }
  // A row reads as a span, the parameter type of IsValidMatch.
  MatchRow wide(Ids(8, 1));
  std::span<const NodeId> view = wide;
  EXPECT_EQ(view.size(), 8u);
  EXPECT_EQ(view.data(), wide.data());
}

TEST(MatchRow, CopyMoveAndSelfAssignAcrossTheSpillBoundary) {
  const std::vector<size_t> sizes = {0, 1, MatchRow::kInlineCapacity,
                                     MatchRow::kInlineCapacity + 1, 9};
  for (size_t a : sizes) {
    for (size_t b : sizes) {
      const Match ma = Ids(a, 10), mb = Ids(b, 500);
      MatchRow src(ma);

      MatchRow copied(src);  // copy-construct
      ExpectRowIs(copied, ma);
      ExpectRowIs(src, ma);

      MatchRow assigned(mb);  // copy-assign over a row of another size
      assigned = src;
      ExpectRowIs(assigned, ma);
      ExpectRowIs(src, ma);

      MatchRow moved(std::move(copied));  // move-construct
      ExpectRowIs(moved, ma);

      MatchRow target(mb);  // move-assign over a row of another size
      target = std::move(moved);
      ExpectRowIs(target, ma);

      MatchRow& alias = target;  // self copy- and move-assignment
      target = alias;
      ExpectRowIs(target, ma);
      target = std::move(alias);
      ExpectRowIs(target, ma);

      // A moved-from row is empty and stays assignable.
      moved = MatchRow(mb);
      ExpectRowIs(moved, mb);
    }
  }
}

TEST(MatchRow, OrderIsLexicographicWithShorterPrefixFirst) {
  std::vector<Match> rows = {{}, {0}, {0, 0}, {0, 1}, {1}, {kMaxId},
                             Ids(7, 0), Ids(6, 0), Ids(9, 3), {kMaxId, 0}};
  for (const Match& x : rows) {
    for (const Match& y : rows) {
      EXPECT_EQ(MatchRow(x) < MatchRow(y), x < y);
      EXPECT_EQ(MatchRow(x) == MatchRow(y), x == y);
    }
  }
}

// ----- SortViolationList vs the std::sort oracle ---------------------------

struct ListShape {
  size_t rows;
  NodeId id_range;  // ids drawn from [0, id_range), plus kMaxId sometimes
  bool max_ids;
};

std::vector<Violation> RandomList(const ListShape& shape, std::mt19937* rng) {
  std::vector<Violation> list;
  list.reserve(shape.rows);
  for (size_t i = 0; i < shape.rows; ++i) {
    if (!list.empty() && (*rng)() % 8 == 0) {  // duplicate an earlier row
      list.push_back(list[(*rng)() % list.size()]);
      continue;
    }
    if (!list.empty() && (*rng)() % 8 == 0) {
      // A prefix of an earlier row, or that row extended by an id 0: pairs
      // that only their lengths put in order.
      const Violation& base = list[(*rng)() % list.size()];
      Match m(base.match.begin(), base.match.end());
      if (!m.empty() && (*rng)() % 2 == 0) {
        m.resize((*rng)() % m.size());
      } else {
        m.push_back(0);
      }
      list.push_back(Violation{base.ged_index, m});
      continue;
    }
    Match m((*rng)() % 10);  // arities 0–9 mixed within every GED
    for (NodeId& id : m) {
      id = shape.max_ids && (*rng)() % 16 == 0
               ? kMaxId
               : static_cast<NodeId>((*rng)() % shape.id_range);
    }
    list.push_back(Violation{(*rng)() % 5, m});
  }
  return list;
}

std::vector<Violation> OracleSort(std::vector<Violation> list) {
  std::sort(list.begin(), list.end(), ViolationLess);
  return list;
}

// Whether SortViolationList takes its radix path on `list`: the widest
// counting array is the low digit of the id keys (id + 1).
bool TakesRadixPath(const std::vector<Violation>& list) {
  uint64_t max_key = 0;
  for (const Violation& v : list) {
    for (NodeId id : v.match) max_key = std::max<uint64_t>(max_key, id + 1ull);
  }
  uint64_t counters = std::min<uint64_t>(max_key, 65535) + 1;
  return counters <= kViolationRadixMaxCountersPerRow * list.size();
}

TEST(SortViolationList, MatchesOracleOnRandomLists) {
  const std::vector<ListShape> shapes = {
      {0, 8, false},        {1, 8, false},         {2, 1, false},
      {40, 8, false},       {40, 1 << 20, true},   {300, 64, false},
      {300, 1 << 17, true}, {2000, 500, false},    {2000, 70000, true},
      {3000, 1 << 30, true}, {9000, 65535, false}, {20000, 100000, true},
  };
  std::mt19937 rng(20261017);
  bool saw_radix = false, saw_std_sort = false;
  for (const ListShape& shape : shapes) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<Violation> list = RandomList(shape, &rng);
      (TakesRadixPath(list) ? saw_radix : saw_std_sort) = true;
      std::vector<Violation> want = OracleSort(list);
      SortViolationList(&list);
      ASSERT_EQ(list, want) << "rows=" << shape.rows
                            << " id_range=" << shape.id_range;
    }
  }
  EXPECT_TRUE(saw_radix);
  EXPECT_TRUE(saw_std_sort);
}

TEST(SortViolationList, SortedAndReversedInputs) {
  std::mt19937 rng(7);
  std::vector<Violation> want =
      OracleSort(RandomList({5000, 300, false}, &rng));
  ASSERT_TRUE(TakesRadixPath(want));
  std::vector<Violation> sorted = want;
  SortViolationList(&sorted);
  EXPECT_EQ(sorted, want);
  std::vector<Violation> reversed(want.rbegin(), want.rend());
  SortViolationList(&reversed);
  EXPECT_EQ(reversed, want);
}

TEST(SortViolationList, SingleGedAndEmptyRows) {
  // One GED and variable-free rows only: every row is equal.
  std::vector<Violation> same(50, Violation{3, {}});
  SortViolationList(&same);
  EXPECT_EQ(same, std::vector<Violation>(50, Violation{3, {}}));
  // Variable-free rows of several GEDs order by ged_index alone.
  std::vector<Violation> geds;
  for (size_t i = 0; i < 200; ++i) geds.push_back(Violation{(i * 7) % 5, {}});
  std::vector<Violation> want = OracleSort(geds);
  SortViolationList(&geds);
  EXPECT_EQ(geds, want);
}

TEST(TruncateViolationsPerGed, KeepsTheSmallestPerGedInPlace) {
  std::mt19937 rng(11);
  std::vector<Violation> list = OracleSort(RandomList({500, 40, false}, &rng));
  for (uint64_t cap : {0u, 1u, 3u, 1000u}) {
    std::vector<Violation> want;
    for (const Violation& v : list) {
      size_t kept = std::count_if(want.begin(), want.end(), [&](auto& w) {
        return w.ged_index == v.ged_index;
      });
      if (cap == 0 || kept < cap) want.push_back(v);
    }
    std::vector<Violation> got = list;
    TruncateViolationsPerGed(&got, cap);
    EXPECT_EQ(got, want) << "cap=" << cap;
  }
}

}  // namespace
}  // namespace ged
