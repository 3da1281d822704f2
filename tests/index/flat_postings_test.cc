#include "index/flat_postings.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/simd.h"

namespace ujoin {
namespace {

// Every key collides: exercises the open-addressing probe chain and the
// memcmp tail comparison that disambiguates equal fingerprints.
uint64_t ConstantFingerprint(const void* /*data*/, size_t /*len*/) {
  return 0x1234;
}

std::vector<Posting> Materialize(FlatPostings::ListView view) {
  std::vector<Posting> out;
  for (size_t i = 0; i < view.size(); ++i) out.push_back(view[i]);
  return out;
}

TEST(FlatPostingsTest, AddAndFindBeforeFreeze) {
  FlatPostings lists(2);
  lists.Add("AB", Posting{1, 0.5});
  lists.Add("CD", Posting{1, 0.5});
  lists.Add("AB", Posting{3, 0.25});

  const FlatPostings::ListView ab = lists.Find("AB");
  ASSERT_EQ(ab.size(), 2u);
  EXPECT_EQ(ab[0].id, 1u);
  EXPECT_DOUBLE_EQ(ab[0].prob, 0.5);
  EXPECT_EQ(ab[1].id, 3u);
  EXPECT_DOUBLE_EQ(ab[1].prob, 0.25);
  EXPECT_EQ(lists.Find("CD").size(), 1u);
  EXPECT_TRUE(lists.Find("ZZ").empty());
  EXPECT_EQ(lists.num_keys(), 2u);
  EXPECT_EQ(lists.num_postings(), 3);
  EXPECT_FALSE(lists.frozen());
}

TEST(FlatPostingsTest, WrongLengthKeyIsAbsent) {
  FlatPostings lists(3);
  lists.Add("ABC", Posting{0, 1.0});
  EXPECT_TRUE(lists.Find("AB").empty());
  EXPECT_TRUE(lists.Find("ABCD").empty());
  EXPECT_TRUE(lists.Find("").empty());
}

TEST(FlatPostingsTest, FreezePreservesListsAndOrder) {
  FlatPostings lists(2);
  lists.Add("BB", Posting{0, 0.1});
  lists.Add("AA", Posting{1, 0.2});
  lists.Add("BB", Posting{2, 0.3});
  lists.Freeze();
  EXPECT_TRUE(lists.frozen());

  const FlatPostings::ListView bb = lists.Find("BB");
  ASSERT_EQ(bb.size(), 2u);
  EXPECT_TRUE(bb.delta.empty());  // everything packed into the arena
  EXPECT_EQ(bb[0].id, 0u);
  EXPECT_EQ(bb[1].id, 2u);

  // Adds after the freeze land in the delta extent, after the arena extent.
  lists.Add("BB", Posting{5, 0.4});
  const FlatPostings::ListView grown = lists.Find("BB");
  ASSERT_EQ(grown.size(), 3u);
  EXPECT_EQ(grown.base.size(), 2u);
  EXPECT_EQ(grown.delta.size(), 1u);
  EXPECT_EQ(grown[2].id, 5u);

  // Re-freezing merges base and delta back into one extent.
  lists.Freeze();
  const FlatPostings::ListView refrozen = lists.Find("BB");
  EXPECT_EQ(refrozen.base.size(), 3u);
  EXPECT_TRUE(refrozen.delta.empty());
  EXPECT_EQ(lists.num_postings(), 4);
}

TEST(FlatPostingsTest, ForEachSortedVisitsKeysInAscendingOrder) {
  FlatPostings lists(2);
  for (const char* key : {"CA", "AB", "ZZ", "AA", "MM"}) {
    lists.Add(key, Posting{0, 1.0});
  }
  std::vector<std::string> seen;
  lists.ForEachSorted([&](std::string_view key, FlatPostings::ListView view) {
    seen.emplace_back(key);
    EXPECT_EQ(view.size(), 1u);
  });
  std::vector<std::string> sorted = seen;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(seen, sorted);
  EXPECT_EQ(seen.size(), 5u);
}

TEST(FlatPostingsTest, ForcedFingerprintCollisionsStillResolve) {
  FlatPostings lists(3, &ConstantFingerprint);
  Rng rng(7);
  std::vector<std::string> keys;
  for (char a = 'A'; a <= 'F'; ++a) {
    for (char b = 'A'; b <= 'F'; ++b) {
      for (char c = 'A'; c <= 'C'; ++c) {
        keys.push_back(std::string{a, b, c});
      }
    }
  }
  for (uint32_t id = 0; id < keys.size(); ++id) {
    lists.Add(keys[id], Posting{id, 1.0 / (id + 1.0)});
  }
  EXPECT_EQ(lists.num_keys(), keys.size());
  for (uint32_t id = 0; id < keys.size(); ++id) {
    const FlatPostings::ListView view = lists.Find(keys[id]);
    ASSERT_EQ(view.size(), 1u) << keys[id];
    EXPECT_EQ(view[0].id, id);
  }
  EXPECT_TRUE(lists.Find("zzz").empty());

  // Freeze must keep every colliding key addressable.
  lists.Freeze();
  for (uint32_t id = 0; id < keys.size(); ++id) {
    const FlatPostings::ListView view = lists.Find(keys[id]);
    ASSERT_EQ(view.size(), 1u);
    EXPECT_EQ(view[0].id, id);
  }
}

TEST(FlatPostingsTest, MemoryBytesDependsOnContentNotInsertionOrder) {
  std::vector<std::pair<std::string, Posting>> adds;
  Rng rng(42);
  for (uint32_t id = 0; id < 200; ++id) {
    std::string key(4, 'A');
    for (char& c : key) {
      c = static_cast<char>('A' + rng.Uniform(8));
    }
    adds.emplace_back(key, Posting{id, rng.UniformDouble()});
  }

  FlatPostings forward(4);
  for (const auto& [key, posting] : adds) forward.Add(key, posting);

  // Same content accumulated key-major (the order deserialization uses).
  std::vector<std::string> distinct;
  for (const auto& [key, posting] : adds) distinct.push_back(key);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  FlatPostings grouped(4);
  for (const std::string& key : distinct) {
    for (const auto& [k, posting] : adds) {
      if (k == key) grouped.Add(k, posting);
    }
  }

  EXPECT_EQ(forward.num_keys(), grouped.num_keys());
  EXPECT_EQ(forward.num_postings(), grouped.num_postings());
  EXPECT_EQ(forward.MemoryBytes(), grouped.MemoryBytes());
  forward.Freeze();
  EXPECT_EQ(forward.MemoryBytes(), grouped.MemoryBytes());

  // And the lists themselves agree key by key.
  for (const std::string& key : distinct) {
    const std::vector<Posting> a = Materialize(forward.Find(key));
    const std::vector<Posting> b = Materialize(grouped.Find(key));
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].prob, b[i].prob);
    }
  }
}

TEST(FlatPostingsTest, GrowsThroughManyRehashes) {
  FlatPostings lists(8);
  Rng rng(3);
  std::vector<std::string> keys;
  for (int i = 0; i < 5000; ++i) {
    std::string key(8, 'A');
    for (char& c : key) c = static_cast<char>('A' + rng.Uniform(26));
    keys.push_back(key);
    lists.Add(key, Posting{static_cast<uint32_t>(i), 0.5});
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_FALSE(lists.Find(keys[static_cast<size_t>(i)]).empty());
  }
}

// The batched probe path fingerprints a segment's keys with
// simd::Fingerprint64Batch (four interleaved FNV chains) and probes with the
// results, so the batch must equal the single-key Fingerprint64 the table
// hashed with at insert time, or batched lookups would miss.
TEST(FlatPostingsTest, Fingerprint64BatchMatchesSingleKey) {
  Rng rng(0x5eed0006);
  for (size_t len : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{7},
                     size_t{8}, size_t{9}, size_t{24}}) {
    // Counts straddling the 4-way interleave: empty batch, singleton,
    // sub-block, exact blocks, and block + remainder.
    for (size_t count : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                         size_t{4}, size_t{5}, size_t{8}, size_t{13}}) {
      std::vector<std::string> keys;
      std::vector<const char*> ptrs;
      for (size_t i = 0; i < count; ++i) {
        std::string key(len, '\0');
        for (char& ch : key) {
          ch = static_cast<char>(static_cast<unsigned char>(rng.Next()));
        }
        keys.push_back(key);
      }
      for (const std::string& k : keys) ptrs.push_back(k.data());
      std::vector<uint64_t> got(count + 1, 0xdead);
      simd::Fingerprint64Batch(ptrs.data(), len, count, got.data());
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(Fingerprint64(keys[i].data(), len), got[i])
            << "key " << i << " of " << count << ", len " << len;
      }
      // The kernel must not write past `count` outputs.
      EXPECT_EQ(uint64_t{0xdead}, got[count]) << "count " << count;
    }
  }
}

}  // namespace
}  // namespace ujoin
