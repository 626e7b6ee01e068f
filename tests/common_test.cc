// Tests for common/ utilities: Rng, string helpers, file helpers, the
// byte codec and the CRC.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/byte_codec.h"
#include "common/checksum.h"
#include "common/file_util.h"
#include "common/framing.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace neutraj {
namespace {

TEST(RngTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(0, 4);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 4);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u) << "all values of a small range should appear";
}

TEST(RngTest, GaussianMeanAndSpread) {
  Rng rng(3);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(4);
  std::vector<double> w = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 12000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[0], 0) << "zero-weight index must never be drawn";
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.4);
}

TEST(RngTest, CategoricalRejectsDegenerateInput) {
  Rng rng(5);
  EXPECT_THROW(rng.Categorical({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.Categorical({1.0, -1.0}), std::invalid_argument);
}

TEST(RngTest, WeightedSampleWithoutReplacementIsDistinct) {
  Rng rng(6);
  std::vector<double> w(50, 1.0);
  for (int rep = 0; rep < 20; ++rep) {
    const auto sample = rng.WeightedSampleWithoutReplacement(w, 10);
    ASSERT_EQ(sample.size(), 10u);
    std::set<size_t> uniq(sample.begin(), sample.end());
    EXPECT_EQ(uniq.size(), sample.size());
  }
}

TEST(RngTest, WeightedSampleSkipsZeroWeights) {
  Rng rng(7);
  std::vector<double> w(20, 0.0);
  w[3] = 1.0;
  w[8] = 1.0;
  const auto sample = rng.WeightedSampleWithoutReplacement(w, 5);
  ASSERT_EQ(sample.size(), 2u) << "only positive-weight items are available";
  EXPECT_TRUE((sample[0] == 3 && sample[1] == 8) ||
              (sample[0] == 8 && sample[1] == 3));
}

TEST(RngTest, WeightedSampleFavorsHeavyItems) {
  Rng rng(8);
  std::vector<double> w(10, 1.0);
  w[0] = 50.0;
  int first_count = 0;
  for (int rep = 0; rep < 500; ++rep) {
    const auto s = rng.WeightedSampleWithoutReplacement(w, 1);
    if (s[0] == 0) ++first_count;
  }
  EXPECT_GT(first_count, 350) << "heavy item should dominate single draws";
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(9);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleIndicesDistinctAndBounded) {
  Rng rng(10);
  const auto s = rng.SampleIndices(30, 12);
  ASSERT_EQ(s.size(), 12u);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 12u);
  for (size_t idx : s) EXPECT_LT(idx, 30u);
  EXPECT_THROW(rng.SampleIndices(3, 4), std::invalid_argument);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
}

TEST(StringUtilTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

TEST(StringUtilTest, Fnv1aHashStableAndDiscriminating) {
  EXPECT_EQ(Fnv1aHash("abc"), Fnv1aHash("abc"));
  EXPECT_NE(Fnv1aHash("abc"), Fnv1aHash("abd"));
  EXPECT_NE(Fnv1aHash(""), Fnv1aHash("a"));
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("FrEcHeT"), "frechet");
}

class FileUtilTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("neutraj_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(FileUtilTest, WriteReadRoundtrip) {
  const std::string path = (dir_ / "f.txt").string();
  WriteFileAtomic(path, "hello\nworld");
  EXPECT_TRUE(FileExists(path));
  EXPECT_EQ(ReadFile(path), "hello\nworld");
}

TEST_F(FileUtilTest, AtomicWriteLeavesNoTempFile) {
  const std::string path = (dir_ / "g.txt").string();
  WriteFileAtomic(path, "data");
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(FileUtilTest, ReadMissingFileThrows) {
  EXPECT_THROW(ReadFile((dir_ / "missing").string()), std::runtime_error);
}

TEST_F(FileUtilTest, EnsureDirectoryCreatesNested) {
  const std::string nested = (dir_ / "a" / "b" / "c").string();
  EXPECT_TRUE(EnsureDirectory(nested));
  EXPECT_TRUE(std::filesystem::is_directory(nested));
  EXPECT_TRUE(EnsureDirectory(nested)) << "idempotent on existing dirs";
}

TEST_F(FileUtilTest, ConcurrentAtomicWritesLeaveOneIntactFile) {
  const std::string path = (dir_ / "contended.txt").string();
  constexpr int kWriters = 4;
  constexpr int kRounds = 25;
  std::vector<std::string> payloads;
  for (int w = 0; w < kWriters; ++w) {
    // Distinct, large payloads so a torn write would be detectable.
    payloads.push_back(std::string(16384, static_cast<char>('A' + w)));
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kRounds; ++i) WriteFileAtomic(path, payloads[w]);
    });
  }
  for (auto& t : threads) t.join();

  // The survivor is exactly one writer's payload, never a mix.
  const std::string got = ReadFile(path);
  EXPECT_NE(std::find(payloads.begin(), payloads.end(), got), payloads.end());
  // And no temp files leak, even under contention.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << entry.path();
  }
}

TEST(ChecksumTest, Crc32MatchesKnownVectors) {
  // IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("a"), Crc32("b"));
}

// The plain bytewise CRC-32 the sliced Crc32 must reproduce.
uint32_t BytewiseCrc32(const unsigned char* p, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(ChecksumTest, SlicedCrc32MatchesBytewiseReference) {
  Rng rng(5);
  std::vector<unsigned char> buf(1u << 20);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  // Every alignment against every tail length around the 8-byte stride.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(Crc32(buf.data() + offset, len),
                BytewiseCrc32(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
  EXPECT_EQ(Crc32(buf.data(), buf.size()),
            BytewiseCrc32(buf.data(), buf.size()));
}

TEST(ByteCodecTest, LittleEndianLayoutAndStickyFailure) {
  ByteWriter w;
  w.U8(0x01);
  w.U16(0x0302);
  w.U32(0x07060504u);
  w.U64(0x0f0e0d0c0b0a0908ull);
  w.F64(-0.0);
  w.Str("ab");
  const std::string bytes = w.Take();
  const std::string expected(
      "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"
      "\x00\x00\x00\x00\x00\x00\x00\x80"
      "\x02\x00\x00\x00"
      "ab",
      29);
  EXPECT_EQ(bytes, expected);

  ByteReader r(bytes);
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 1.0;
  std::string str;
  ASSERT_TRUE(r.U8(&u8) && r.U16(&u16) && r.U32(&u32) && r.U64(&u64) &&
              r.F64(&f64) && r.Str(&str));
  EXPECT_EQ(u8, 0x01);
  EXPECT_EQ(u16, 0x0302);
  EXPECT_EQ(u32, 0x07060504u);
  EXPECT_EQ(u64, 0x0f0e0d0c0b0a0908ull);
  EXPECT_TRUE(std::signbit(f64) && f64 == 0.0);
  EXPECT_EQ(str, "ab");
  EXPECT_TRUE(r.Done());

  // A short read fails the reader for good, even for reads that would fit.
  const std::string three = bytes.substr(0, 3);
  ByteReader short_read(three);
  EXPECT_FALSE(short_read.U32(&u32));
  EXPECT_FALSE(short_read.U8(&u8));
  EXPECT_EQ(short_read.Remaining(), 0u);
  EXPECT_FALSE(short_read.Done());
  // A string whose length prefix overruns the bytes is refused up front.
  const std::string overrun_bytes("\xff\xff\xff\x00x", 5);
  ByteReader overrun(overrun_bytes);
  EXPECT_FALSE(overrun.Str(&str));
}

TEST(FramingTest, WriteParseRoundtrip) {
  SectionWriter w("model");
  w.Add("alpha", "hello");
  w.Add("beta", std::string("bin\0ary\n", 8));
  const std::string file = w.Finish();

  const SectionReader r(file, "model", "test");
  EXPECT_TRUE(r.Has("alpha"));
  EXPECT_FALSE(r.Has("gamma"));
  EXPECT_EQ(r.Get("alpha"), "hello");
  EXPECT_EQ(r.Get("beta"), std::string("bin\0ary\n", 8));
  EXPECT_THROW(r.Get("gamma"), std::runtime_error);
}

TEST(FramingTest, RejectsWrongKindAndGarbage) {
  SectionWriter w("model");
  w.Add("alpha", "hello");
  const std::string file = w.Finish();
  EXPECT_THROW(SectionReader(file, "checkpoint", "test"), std::runtime_error);
  EXPECT_THROW(SectionReader("not a framed file", "model", "test"),
               std::runtime_error);
}

TEST(FramingTest, DetectsBitFlipWithChecksumError) {
  SectionWriter w("model");
  w.Add("alpha", "the quick brown fox jumps over the lazy dog");
  std::string file = w.Finish();
  file[file.find("quick")] ^= 0x01;
  try {
    SectionReader r(file, "model", "test");
    FAIL() << "bit flip went undetected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST(FramingTest, DetectsTruncation) {
  SectionWriter w("model");
  w.Add("alpha", std::string(1000, 'x'));
  const std::string file = w.Finish();
  // Cut inside the payload and right before "END\n" (missing END marker).
  for (const size_t cut : {file.size() / 2, file.size() - 4}) {
    try {
      SectionReader r(file.substr(0, cut), "model", "test");
      FAIL() << "truncation at " << cut << " went undetected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncat"), std::string::npos)
          << e.what();
    }
  }
}

TEST(RngTest, SaveLoadStateResumesStreamExactly) {
  Rng rng(314);
  for (int i = 0; i < 100; ++i) rng.Uniform(0.0, 1.0);
  const std::string state = rng.SaveState();

  std::vector<double> expected;
  for (int i = 0; i < 50; ++i) expected.push_back(rng.Gaussian(0.0, 1.0));

  Rng other(999);  // Different seed; LoadState must fully override it.
  other.LoadState(state);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(other.Gaussian(0.0, 1.0), expected[i]);
  }
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  const double first = sw.ElapsedMillis();
  EXPECT_GE(sw.ElapsedMillis(), first);  // Monotone.
  sw.Restart();
  EXPECT_LE(sw.ElapsedSeconds(), first / 1e3 + 1.0);
  (void)sink;
}

}  // namespace
}  // namespace neutraj
