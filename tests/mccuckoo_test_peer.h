// McCuckooTestPeer: the friend the tables name, defined once for every test
// that reaches into a table's storage (to corrupt it on purpose, or to run a
// private growth step).

#ifndef MCCUCKOO_TESTS_MCCUCKOO_TEST_PEER_H_
#define MCCUCKOO_TESTS_MCCUCKOO_TEST_PEER_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/status.h"

namespace mccuckoo {

/// Reaches into a table's storage to corrupt it on purpose.
struct McCuckooTestPeer {
  template <typename T>
  static size_t Slots(const T& t) {
    return t.mem_.table.size();
  }
  template <typename T>
  static uint64_t Counter(const T& t, size_t idx) {
    return t.mem_.counters.PeekCounter(idx);
  }
  template <typename T>
  static void SetCounter(T& t, size_t idx, uint64_t v) {
    t.mem_.counters.Set(idx, v);
  }
  /// The counter store, the records, the stash flags and the live-key
  /// count, for corruption cases.
  template <typename T>
  static auto& Counters(T& t) {
    return t.mem_.counters;
  }
  template <typename T>
  static auto& Record(T& t, size_t idx) {
    return t.mem_.table[idx];
  }
  template <typename T>
  static auto& Flags(T& t) {
    return t.mem_.flags;
  }
  template <typename T>
  static auto& Size(T& t) {
    return t.size_;
  }
  /// The buckets whose stash flag is set, ascending.
  template <typename T>
  static std::vector<size_t> SetFlags(const T& t) {
    std::vector<size_t> out;
    t.mem_.flags.ForEachSetBit([&](size_t b) { out.push_back(b); });
    return out;
  }
  /// The candidate buckets of the one stashed key, ascending.
  template <typename T>
  static std::vector<size_t> StashedKeyCandidates(const T& t) {
    const auto items = t.stash_.Items();
    EXPECT_EQ(items.size(), 1u);
    const auto cand = t.ComputeCandidates(items.at(0).first);
    std::vector<size_t> out(cand.bucket.begin(),
                            cand.bucket.begin() + t.options().num_hashes);
    std::sort(out.begin(), out.end());
    return out;
  }
  template <typename T>
  static void ClearStashFlags(T& t) {
    t.ClearStashFlags();
  }
  template <typename T>
  static Status SplitGrow(T& t, uint64_t new_buckets_per_table) {
    return t.SplitGrow(new_buckets_per_table);
  }
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_TESTS_MCCUCKOO_TEST_PEER_H_
