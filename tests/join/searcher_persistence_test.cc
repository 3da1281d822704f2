#include <algorithm>
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "filter/partition.h"
#include "index/segment_index.h"
#include "join/search.h"
#include "testing/test_util.h"

namespace ujoin {
namespace {

std::vector<UncertainString> SmallDataset(int size, uint64_t seed) {
  DatasetOptions opt;
  opt.kind = DatasetOptions::Kind::kNames;
  opt.size = size;
  opt.theta = 0.25;
  opt.seed = seed;
  opt.min_length = 4;
  opt.max_length = 10;
  opt.max_uncertain_positions = 4;
  return GenerateDataset(opt).strings;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(IndexSerializationTest, RoundTripPreservesQueries) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(60, 301);
  InvertedSegmentIndex original(2, 3);
  for (uint32_t id = 0; id < collection.size(); ++id) {
    ASSERT_TRUE(original.Insert(id, collection[id]).ok());
  }
  BinaryWriter writer;
  original.Serialize(&writer);
  BinaryReader reader(writer.buffer());
  Result<InvertedSegmentIndex> restored =
      InvertedSegmentIndex::Deserialize(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored->num_postings(), original.num_postings());
  EXPECT_EQ(restored->MemoryUsage(), original.MemoryUsage());
  // Identical candidates for every probe.
  for (uint32_t probe = 0; probe < collection.size(); probe += 7) {
    const UncertainString& r = collection[probe];
    for (int l = std::max(1, r.length() - 2); l <= r.length() + 2; ++l) {
      const auto a = original.Query(r, l, 0.1);
      const auto b = restored->Query(r, l, 0.1);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_NEAR(a[i].upper_bound, b[i].upper_bound, 1e-12);
      }
    }
  }
}

// Serialization determinism: the bytes are a pure function of the indexed
// content.  Serializing, deserializing, and serializing again must produce
// the same buffer even though the deserialized index accumulated its
// postings in sorted key order rather than world-enumeration order.
TEST(IndexSerializationTest, SaveLoadSaveIsByteIdentical) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(60, 307);
  InvertedSegmentIndex original(2, 3);
  for (uint32_t id = 0; id < collection.size(); ++id) {
    ASSERT_TRUE(original.Insert(id, collection[id]).ok());
  }
  BinaryWriter first;
  original.Serialize(&first);

  BinaryReader reader(first.buffer());
  Result<InvertedSegmentIndex> restored =
      InvertedSegmentIndex::Deserialize(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  BinaryWriter second;
  restored->Serialize(&second);
  ASSERT_EQ(first.buffer().size(), second.buffer().size());
  EXPECT_TRUE(std::equal(first.buffer().begin(), first.buffer().end(),
                         second.buffer().begin()));

  // Freezing rearranges the in-memory arena but must not change the bytes.
  restored->Freeze();
  BinaryWriter frozen;
  restored->Serialize(&frozen);
  ASSERT_EQ(first.buffer().size(), frozen.buffer().size());
  EXPECT_TRUE(std::equal(first.buffer().begin(), first.buffer().end(),
                         frozen.buffer().begin()));
}

// Same property end to end through the searcher's file format.
TEST(SearcherPersistenceTest, SaveLoadSaveFilesAreByteIdentical) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(50, 308);
  Result<SimilaritySearcher> original = SimilaritySearcher::Create(
      collection, alphabet, JoinOptions::Qfct(2, 0.1));
  ASSERT_TRUE(original.ok());
  const std::string path_a = TempPath("ujoin_searcher_bytes_a.bin");
  const std::string path_b = TempPath("ujoin_searcher_bytes_b.bin");
  ASSERT_TRUE(original->Save(path_a).ok());
  Result<SimilaritySearcher> loaded =
      SimilaritySearcher::Load(path_a, alphabet);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->Save(path_b).ok());

  const auto read_all = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string bytes_a = read_all(path_a);
  const std::string bytes_b = read_all(path_b);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// Older builds stored two verification settings in the header: flag bit 32
// of byte 24 and a method byte (byte 25, 0-2).  Both are read and ignored
// now, so such an image answers like a default searcher and re-saves as one;
// a method byte above 2 stays corrupt.
TEST(SearcherPersistenceTest, LegacyVerifySettingsLoadAndAreDropped) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(60, 309);
  Result<SimilaritySearcher> original = SimilaritySearcher::Create(
      collection, alphabet, JoinOptions::Qfct(2, 0.1));
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("ujoin_searcher_legacy.bin");
  const std::string resaved_path = TempPath("ujoin_searcher_legacy_re.bin");
  const auto read_all = [](const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const auto write_all = [](const std::string& file, const std::string& data) {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };
  ASSERT_TRUE(original->Save(path).ok());
  const std::string bytes = read_all(path);
  ASSERT_GT(bytes.size(), 26u);
  ASSERT_EQ(bytes[24] & 32, 0);
  ASSERT_EQ(bytes[25], 0);
  const std::vector<UncertainString> queries = SmallDataset(15, 310);

  for (const char method : {'\1', '\2'}) {
    SCOPED_TRACE(static_cast<int>(method));
    std::string legacy = bytes;
    legacy[24] = static_cast<char>(legacy[24] | 32);
    legacy[25] = method;
    write_all(path, legacy);
    Result<SimilaritySearcher> loaded =
        SimilaritySearcher::Load(path, alphabet);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    for (const UncertainString& query : queries) {
      Result<std::vector<SearchHit>> want = original->Search(query);
      Result<std::vector<SearchHit>> got = loaded->Search(query);
      ASSERT_TRUE(want.ok() && got.ok());
      ASSERT_EQ(got->size(), want->size());
      for (size_t i = 0; i < got->size(); ++i) {
        EXPECT_EQ((*got)[i].id, (*want)[i].id);
        EXPECT_EQ((*got)[i].probability, (*want)[i].probability);
        EXPECT_EQ((*got)[i].exact, (*want)[i].exact);
      }
    }
    ASSERT_TRUE(loaded->Save(resaved_path).ok());
    // Compared as a bool: a failing EXPECT_EQ would print both images.
    EXPECT_TRUE(read_all(resaved_path) == bytes)
        << "the re-saved image differs from the default searcher's";
  }

  std::string corrupt = bytes;
  corrupt[25] = 3;
  write_all(path, corrupt);
  Result<SimilaritySearcher> rejected =
      SimilaritySearcher::Load(path, alphabet);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
  std::remove(resaved_path.c_str());
}

TEST(SearcherPersistenceTest, SaveLoadRoundTripIdenticalResults) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(80, 302);
  JoinOptions options = JoinOptions::Qfct(2, 0.1);
  options.always_verify = true;
  Result<SimilaritySearcher> original =
      SimilaritySearcher::Create(collection, alphabet, options);
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("ujoin_searcher.bin");
  ASSERT_TRUE(original->Save(path).ok());

  Result<SimilaritySearcher> loaded =
      SimilaritySearcher::Load(path, alphabet);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->collection().size(), collection.size());
  EXPECT_EQ(loaded->IndexMemoryUsage(), original->IndexMemoryUsage());
  const std::vector<UncertainString> queries = SmallDataset(15, 303);
  for (const UncertainString& query : queries) {
    Result<std::vector<SearchHit>> a = original->Search(query);
    Result<std::vector<SearchHit>> b = loaded->Search(query);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].id, (*b)[i].id);
      EXPECT_NEAR((*a)[i].probability, (*b)[i].probability, 1e-12);
    }
  }
  std::remove(path.c_str());
}

TEST(SearcherPersistenceTest, CollectionProbabilitiesSurviveExactly) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(30, 304);
  Result<SimilaritySearcher> original = SimilaritySearcher::Create(
      collection, alphabet, JoinOptions::Qfct(2, 0.1));
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("ujoin_searcher_exact.bin");
  ASSERT_TRUE(original->Save(path).ok());
  Result<SimilaritySearcher> loaded =
      SimilaritySearcher::Load(path, alphabet);
  ASSERT_TRUE(loaded.ok());
  for (size_t i = 0; i < collection.size(); ++i) {
    const UncertainString& a = collection[i];
    const UncertainString& b = loaded->collection()[i];
    ASSERT_EQ(a.length(), b.length());
    for (int pos = 0; pos < a.length(); ++pos) {
      auto aa = a.AlternativesAt(pos);
      auto bb = b.AlternativesAt(pos);
      ASSERT_EQ(aa.size(), bb.size());
      for (size_t alt = 0; alt < aa.size(); ++alt) {
        EXPECT_EQ(aa[alt].symbol, bb[alt].symbol);
        // Binary format: bit-exact probabilities (unlike the text format).
        EXPECT_EQ(aa[alt].prob, bb[alt].prob);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(SearcherPersistenceTest, RejectsGarbageAndTruncation) {
  const Alphabet alphabet = Alphabet::Names();
  const std::string path = TempPath("ujoin_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a searcher file at all";
  }
  EXPECT_FALSE(SimilaritySearcher::Load(path, alphabet).ok());

  // A valid file truncated in the middle must fail cleanly, not crash.
  const std::vector<UncertainString> collection = SmallDataset(20, 305);
  Result<SimilaritySearcher> original = SimilaritySearcher::Create(
      collection, alphabet, JoinOptions::Qfct(2, 0.1));
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(original->Save(path).ok());
  Result<BinaryReader> full = BinaryReader::FromFile(path);
  ASSERT_TRUE(full.ok());
  {
    std::ifstream in(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  }
  Result<SimilaritySearcher> truncated =
      SimilaritySearcher::Load(path, alphabet);
  EXPECT_FALSE(truncated.ok());
  std::remove(path.c_str());
}

// Images crafted to defeat the loader must fail with InvalidArgument, not
// abort on a count-sized allocation or load ids that index past the
// collection (which the first query would then follow out of bounds).
TEST(SearcherPersistenceTest, CraftedImagesFailWithInvalidArgument) {
  const Alphabet alphabet = Alphabet::Names();
  const std::string path = TempPath("ujoin_crafted.bin");
  const std::string text = "abcde";
  // Header up to the collection count: k = 1, q = 3, all filters on.
  const auto header = [](BinaryWriter* w, uint64_t count) {
    w->WriteU32(0x554a5358);  // "UJSX"
    w->WriteU32(kSearcherFormatVersion);
    w->WriteI32(1);
    w->WriteDouble(0.1);
    w->WriteI32(3);
    w->WriteU8(1 | 2 | 4 | 8);
    w->WriteU8(0);
    w->WriteU64(count);
  };
  // Index section: k, q and one bucket header of `length` claiming
  // `num_ids` ids.
  const auto index_start = [](BinaryWriter* w, int length, uint64_t num_ids) {
    w->WriteU8(1);  // has an index
    w->WriteI32(1);
    w->WriteI32(3);
    w->WriteU64(1);
    w->WriteI32(length);
    w->WriteU64(num_ids);
  };
  // A one-string collection whose every segment posting names `id`.
  const auto one_string = [&](uint32_t id) {
    BinaryWriter w;
    header(&w, 1);
    w.WriteI32(static_cast<int32_t>(text.size()));
    for (char c : text) {
      w.WriteU32(1);
      w.WriteU8(static_cast<uint8_t>(c));
      w.WriteDouble(1.0);
    }
    index_start(&w, static_cast<int>(text.size()), 1);
    w.WriteU32(0);
    const std::vector<Segment> segments =
        PartitionForJoin(static_cast<int>(text.size()), 1, 3);
    w.WriteU64(segments.size());
    for (const Segment& seg : segments) {
      w.WriteU64(1);
      w.WriteString(text.substr(static_cast<size_t>(seg.start),
                                static_cast<size_t>(seg.length)));
      w.WriteU64(1);
      w.WriteU32(id);
      w.WriteDouble(1.0);
      w.WriteU64(0);  // no wildcards
    }
    return w;
  };
  const auto load = [&](const BinaryWriter& w) {
    EXPECT_TRUE(w.WriteToFile(path).ok());
    return SimilaritySearcher::Load(path, alphabet);
  };

  // The well-formed variant loads and answers: the crafting is faithful.
  Result<SimilaritySearcher> valid = load(one_string(0));
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  Result<std::vector<SearchHit>> hits =
      valid->Search(UncertainString::FromDeterministic(text));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);

  BinaryWriter huge_collection;  // 2^40 strings claimed
  header(&huge_collection, uint64_t{1} << 40);
  BinaryWriter huge_bucket;  // no strings, one bucket claiming 2^40 ids
  header(&huge_bucket, 0);
  index_start(&huge_bucket, 5, uint64_t{1} << 40);
  const BinaryWriter foreign_id = one_string(1000000);
  EXPECT_EQ(huge_collection.buffer().size(), 34u);
  EXPECT_EQ(huge_bucket.buffer().size(), 63u);
  for (const BinaryWriter* image : std::vector<const BinaryWriter*>{
           &huge_collection, &huge_bucket, &foreign_id}) {
    Result<SimilaritySearcher> loaded = load(*image);
    EXPECT_FALSE(loaded.ok()) << image->buffer().size() << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << image->buffer().size() << " bytes: "
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(SearcherPersistenceTest, RejectsAlphabetMismatch) {
  const Alphabet names = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(10, 306);
  Result<SimilaritySearcher> original =
      SimilaritySearcher::Create(collection, names, JoinOptions::Qfct(2, 0.1));
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("ujoin_searcher_alpha.bin");
  ASSERT_TRUE(original->Save(path).ok());
  // DNA alphabet cannot hold lowercase name symbols.
  Result<SimilaritySearcher> loaded =
      SimilaritySearcher::Load(path, Alphabet::Dna());
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ujoin
