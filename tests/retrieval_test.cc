// Tests for the retrieval subsystem (src/retrieval/): int8 quantized tier,
// IVF ANN index, and the serve-layer backends.
//
// The load-bearing invariants pinned here:
//   - the block kernel is exact integer math and matches a naive reference
//     loop at every dimension (so SIMD variants cannot diverge);
//   - the IVF build is deterministic across thread counts and rebuilds;
//   - IVF results are exact over the probed lists: every returned distance
//     is the exact float distance, and probing every list reproduces the
//     exact scan bit-for-bit — also after live inserts that raced queries
//     and left a list's ids out of order.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd_dispatch.h"
#include "core/embedding_db.h"
#include "core/search.h"
#include "nn/matrix.h"
#include "retrieval/backend.h"
#include "retrieval/ivf_index.h"
#include "retrieval/kernels.h"
#include "retrieval/quantized.h"

namespace neutraj::retrieval {
namespace {

constexpr size_t kDim = 8;

std::vector<nn::Vector> GaussianRows(size_t n, uint64_t seed,
                                     size_t dim = kDim) {
  Rng rng(seed);
  std::vector<nn::Vector> rows(n, nn::Vector(dim));
  for (nn::Vector& r : rows) {
    for (double& x : r) x = rng.Gaussian(0.0, 1.0);
  }
  return rows;
}

/// Clustered rows — the workload IVF is built for: `n` rows scattered
/// tightly around `centers` random centers.
std::vector<nn::Vector> ClusteredRows(size_t n, size_t centers, uint64_t seed,
                                      size_t dim = kDim) {
  Rng rng(seed);
  std::vector<nn::Vector> mu(centers, nn::Vector(dim));
  for (nn::Vector& m : mu) {
    for (double& x : m) x = rng.Gaussian(0.0, 4.0);
  }
  std::vector<nn::Vector> rows(n, nn::Vector(dim));
  for (nn::Vector& r : rows) {
    const nn::Vector& m = mu[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(centers) - 1))];
    for (size_t d = 0; d < dim; ++d) r[d] = m[d] + rng.Gaussian(0.0, 0.3);
  }
  return rows;
}

EmbeddingDatabase FlatDb(const std::vector<nn::Vector>& rows) {
  EmbeddingDatabase db;
  for (const nn::Vector& r : rows) db.Insert(r);
  return db;
}

// ---------------------------------------------------------------------------
// Kernels.

TEST(KernelsTest, ExactL2MatchesCoreDistanceBitwise) {
  Rng rng(11);
  for (size_t dim : {1u, 2u, 7u, 8u, 16u, 33u}) {
    nn::Vector a(dim), b(dim);
    for (size_t d = 0; d < dim; ++d) {
      a[d] = rng.Gaussian(0.0, 3.0);
      b[d] = rng.Gaussian(0.0, 3.0);
    }
    EXPECT_EQ(std::sqrt(ExactSquaredL2(a.data(), b.data(), dim)),
              nn::L2Distance(a, b));
  }
}

/// A random block in BlockCodeOffset's layout, its query codes and weights
/// packed in pairs, and the naive per-row sums.
struct RandomBlock {
  std::vector<int8_t> block;
  std::vector<int32_t> q_pairs, w_pairs;
  int64_t sums[kCodeBlockRows] = {};
};

RandomBlock MakeBlock(size_t dim, Rng* rng) {
  RandomBlock b;
  b.block.assign(BlockBytes(dim), 0);
  std::vector<int8_t> q(dim);
  std::vector<int32_t> w(dim);
  for (size_t d = 0; d < dim; ++d) {
    q[d] = static_cast<int8_t>(rng->UniformInt(-127, 127));
    w[d] = static_cast<int32_t>(rng->UniformInt(0, 128));
    for (size_t r = 0; r < kCodeBlockRows; ++r) {
      const int8_t a = static_cast<int8_t>(rng->UniformInt(-127, 127));
      b.block[BlockCodeOffset(r, d)] = a;
      const int64_t diff = static_cast<int64_t>(a) - q[d];
      b.sums[r] += w[d] * diff * diff;
    }
  }
  b.q_pairs = PackDimensionPairs(q.data(), dim);
  b.w_pairs = PackDimensionPairs(w.data(), dim);
  return b;
}

TEST(KernelsTest, ForcedPortableAndAvx2DispatchAreBitIdentical) {
  // The runtime-dispatched AVX2 kernel (kernels_avx2.cc, cpuid-gated) must
  // agree with the portable reference on every sum at every dim — including
  // an odd dim's padded pair — so the kernel choice can never change which
  // rows get their exact distance. Forcing each implementation through
  // SetSimdKernel runs both on one machine; on a CPU without AVX2 only
  // the portable/auto agreement is pinned.
  Rng rng(13);
  const int64_t all = std::numeric_limits<int64_t>::max();
  int64_t portable[kCodeBlockRows], sums[kCodeBlockRows];
  for (size_t dim = 1; dim <= 70; ++dim) {
    const RandomBlock b = MakeBlock(dim, &rng);
    const auto run = [&](int64_t* out) {
      return BlockCodeSquaredL2(b.block.data(), b.q_pairs.data(),
                                b.w_pairs.data(), b.q_pairs.size(), all, out);
    };

    SetSimdKernel(SimdKernel::kPortable);
    EXPECT_EQ(std::string(QuantizedKernelName()), "portable");
    ASSERT_TRUE(run(portable));
    EXPECT_TRUE(std::equal(portable, portable + kCodeBlockRows, b.sums))
        << "dim " << dim;

    if (Avx2Available()) {
      SetSimdKernel(SimdKernel::kAvx2);
      EXPECT_EQ(std::string(QuantizedKernelName()), "avx2");
      ASSERT_TRUE(run(sums));
      EXPECT_TRUE(std::equal(sums, sums + kCodeBlockRows, portable))
          << "dim " << dim;
    } else {
      EXPECT_THROW(SetSimdKernel(SimdKernel::kAvx2), std::runtime_error);
    }

    SetSimdKernel(SimdKernel::kAuto);
    ASSERT_TRUE(run(sums));
    EXPECT_TRUE(std::equal(sums, sums + kCodeBlockRows, portable))
        << "dim " << dim;
  }
}

TEST(KernelsTest, BlockKernelsMatchTheNaiveSumsAndExitAlike) {
  // Every dim to past one 128-pair i32 run; limits below, between and above
  // the sums, so both the half-way and the final test fire. The portable and
  // AVX2 kernels must return the same decision and, when they go on, the
  // naive sums exactly. Extreme codes and weights exercise the i16 and i32
  // headroom.
  Rng rng(14);
  for (size_t dim = 1; dim <= 300; dim += dim < 40 ? 1 : 37) {
    for (int trial = 0; trial < 4; ++trial) {
      RandomBlock b = MakeBlock(dim, &rng);
      if (trial == 3) {  // Worst case: every diff is 254 at weight 128.
        std::fill(b.block.begin(), b.block.end(), int8_t{-127});
        std::vector<int8_t> q(dim, 127);
        std::vector<int32_t> w(dim, 128);
        b.q_pairs = PackDimensionPairs(q.data(), dim);
        b.w_pairs = PackDimensionPairs(w.data(), dim);
        for (int64_t& s : b.sums) {
          s = static_cast<int64_t>(dim) * 128 * 254 * 254;
        }
      }
      const int64_t lo = *std::min_element(b.sums, b.sums + kCodeBlockRows);
      const int64_t hi = *std::max_element(b.sums, b.sums + kCodeBlockRows);
      for (const int64_t limit :
           {int64_t{0}, lo / 3, lo - 1, lo, (lo + hi) / 2, hi,
            std::numeric_limits<int64_t>::max()}) {
        SCOPED_TRACE(::testing::Message()
                     << "dim " << dim << " trial " << trial << " limit "
                     << limit);
        int64_t portable[kCodeBlockRows], avx2[kCodeBlockRows];
        const bool go_on = internal::BlockCodeSquaredL2Portable(
            b.block.data(), b.q_pairs.data(), b.w_pairs.data(),
            b.q_pairs.size(), limit, portable);
        EXPECT_EQ(go_on, lo <= limit)
            << "a block goes on exactly when some full sum is within limit";
        if (go_on) {
          EXPECT_TRUE(std::equal(portable, portable + kCodeBlockRows, b.sums));
        }
        if (!Avx2Available()) continue;
        EXPECT_EQ(internal::BlockCodeSquaredL2Avx2(
                      b.block.data(), b.q_pairs.data(), b.w_pairs.data(),
                      b.q_pairs.size(), limit, avx2),
                  go_on);
        if (go_on) {
          EXPECT_TRUE(std::equal(avx2, avx2 + kCodeBlockRows, b.sums));
        }
      }
    }
  }
}

TEST(KernelsTest, BlockKernelsExitAtTheHalfAlike) {
  // A partial sum over the first half of the pairs already past the limit
  // stops the kernel, whatever the rest would add; a block whose first
  // half is small goes on. Both kernels decide the same.
  for (const size_t dim : {4ul, 32ul, 63ul, 131ul}) {
    const size_t half_dims = (dim + 1) / 2 / 2 * 2;  // In the first half.
    std::vector<int8_t> block(BlockBytes(dim), 0);
    std::vector<int8_t> q(dim, 0);
    std::vector<int32_t> w(dim, 1);
    for (size_t r = 0; r < kCodeBlockRows; ++r) {
      for (size_t d = 0; d < half_dims; ++d) {
        block[BlockCodeOffset(r, d)] = 100;
      }
    }
    const std::vector<int32_t> q_pairs = PackDimensionPairs(q.data(), dim);
    const std::vector<int32_t> w_pairs = PackDimensionPairs(w.data(), dim);
    const int64_t first_half = static_cast<int64_t>(half_dims) * 100 * 100;
    int64_t sums[kCodeBlockRows];
    for (const bool avx2 : {false, true}) {
      if (avx2 && !Avx2Available()) continue;
      const auto kernel = avx2 ? &internal::BlockCodeSquaredL2Avx2
                               : &internal::BlockCodeSquaredL2Portable;
      EXPECT_FALSE(kernel(block.data(), q_pairs.data(), w_pairs.data(),
                          q_pairs.size(), first_half - 1, sums))
          << "dim " << dim << " avx2 " << avx2;
      EXPECT_TRUE(kernel(block.data(), q_pairs.data(), w_pairs.data(),
                         q_pairs.size(), first_half, sums))
          << "dim " << dim << " avx2 " << avx2;
      EXPECT_EQ(sums[0], first_half);
    }
  }
}

TEST(KernelsTest, ForcedBlockDispatchPicksEachKernel) {
  Rng rng(15);
  const RandomBlock b = MakeBlock(32, &rng);
  int64_t sums[kCodeBlockRows];
  SetSimdKernel(SimdKernel::kPortable);
  ASSERT_TRUE(BlockCodeSquaredL2(b.block.data(), b.q_pairs.data(),
                                 b.w_pairs.data(), b.q_pairs.size(),
                                 std::numeric_limits<int64_t>::max(), sums));
  EXPECT_TRUE(std::equal(sums, sums + kCodeBlockRows, b.sums));
  if (Avx2Available()) {
    SetSimdKernel(SimdKernel::kAvx2);
    ASSERT_TRUE(BlockCodeSquaredL2(b.block.data(), b.q_pairs.data(),
                                   b.w_pairs.data(), b.q_pairs.size(),
                                   std::numeric_limits<int64_t>::max(), sums));
    EXPECT_TRUE(std::equal(sums, sums + kCodeBlockRows, b.sums));
  }
  SetSimdKernel(SimdKernel::kAuto);
}

TEST(KernelsTest, QuantizeRowRoundsHalfAwayFromZeroLikeLround) {
  // Values on and beside exact halves of the scale and far outside the
  // clamp: the branch-free rounding must give lround's codes bit for bit,
  // and the returned error must be the sum of the squared residuals.
  Rng rng(16);
  for (size_t dim = 1; dim <= 19; ++dim) {
    std::vector<double> v(dim), scales(dim);
    for (size_t d = 0; d < dim; ++d) {
      scales[d] = d % 3 == 0 ? 1.0 : rng.Uniform(0.01, 2.0);
      const double kinds[] = {
          static_cast<double>(rng.UniformInt(-130, 130)) + 0.5,
          rng.Gaussian(0.0, 500.0), -0.49999999999999994 * scales[d],
          rng.Gaussian(0.0, 30.0)};
      v[d] = kinds[d % 4];
    }
    std::vector<int8_t> code(dim);
    const double sq = QuantizeRow(v.data(), scales.data(), dim, code.data());
    double want_sq = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const long want = std::lround(std::clamp(v[d] / scales[d], -127.0, 127.0));
      EXPECT_EQ(code[d], want) << "dim " << dim << " d " << d;
      const double diff = v[d] - scales[d] * static_cast<double>(want);
      want_sq += diff * diff;
    }
    EXPECT_DOUBLE_EQ(sq, want_sq) << "dim " << dim;
  }
}

TEST(KernelsTest, BoundedTopKIsIdenticalUnderEitherKernel) {
  std::vector<nn::Vector> rows = GaussianRows(5000, 16, 24);
  EmbeddingDatabase flat = FlatDb(rows);
  const EmbeddingDatabase db =
      EmbeddingDatabase::Deserialize(flat.Serialize(), "test");
  const std::vector<nn::Vector> queries = GaussianRows(20, 17, 24);
  for (const nn::Vector& q : queries) {
    const SearchResult want = EmbeddingTopK(rows, q, 10);
    SetSimdKernel(SimdKernel::kPortable);
    const SearchResult portable = db.TopK(q, 10);
    EXPECT_EQ(portable.ids, want.ids);
    EXPECT_EQ(portable.dists, want.dists);
    if (Avx2Available()) {
      SetSimdKernel(SimdKernel::kAvx2);
      const SearchResult avx2 = db.TopK(q, 10);
      EXPECT_EQ(avx2.ids, want.ids);
      EXPECT_EQ(avx2.dists, want.dists);
    }
  }
  SetSimdKernel(SimdKernel::kAuto);
}

// ---------------------------------------------------------------------------
// Int8 quantizer.

TEST(Int8QuantizerTest, RoundTripWithinPerDimensionBound) {
  const auto rows = GaussianRows(200, 21);
  const Int8Quantizer q = Int8Quantizer::Train(rows);
  ASSERT_EQ(q.dim(), kDim);
  std::vector<int8_t> code(kDim);
  for (const nn::Vector& r : rows) {
    q.EncodeWithError(r.data(), code.data());
    const nn::Vector back = q.Decode(code.data());
    double sq_err = 0.0;
    for (size_t d = 0; d < kDim; ++d) {
      // In-range inputs reconstruct within half a quantization step.
      EXPECT_LE(std::fabs(back[d] - r[d]), q.scales()[d] / 2.0 + 1e-15);
      sq_err += (back[d] - r[d]) * (back[d] - r[d]);
    }
    EXPECT_LE(sq_err, q.SquaredErrorBound() + 1e-15);
  }
}

TEST(Int8QuantizerTest, OutOfRangeInputsClampToTheTrainedRange) {
  const auto rows = GaussianRows(50, 22);
  const Int8Quantizer q = Int8Quantizer::Train(rows);
  nn::Vector wild(kDim, 1e6);
  std::vector<int8_t> code(kDim);
  q.EncodeWithError(wild.data(), code.data());
  for (size_t d = 0; d < kDim; ++d) EXPECT_EQ(code[d], 127);
}

TEST(Int8QuantizerTest, EncodeWithErrorMatchesEncodeAndBoundsTheError) {
  // Scales of exactly 1 (max magnitude 127) put values on exact halves, where
  // the branch-free rounding must agree with std::lround.
  std::vector<nn::Vector> sample = GaussianRows(500, 31, 6);
  for (nn::Vector& r : sample) r[0] = std::clamp(r[0], -1.0, 1.0) * 127.0;
  sample[0][0] = 127.0;
  for (size_t i = 1; i < 40; ++i) {
    sample[i][0] = (static_cast<double>(i) - 20.0) + 0.5;
  }
  sample[40][0] = 0.49999999999999994;
  sample[41][0] = -0.49999999999999994;
  sample[42][0] = -0.0;
  const Int8Quantizer q = Int8Quantizer::Train(sample);
  ASSERT_EQ(q.scales()[0], 1.0);
  std::vector<int8_t> code(q.dim());
  for (const nn::Vector& v : sample) {
    const double error = q.EncodeWithError(v.data(), code.data());
    for (size_t d = 0; d < q.dim(); ++d) {
      EXPECT_EQ(code[d], std::lround(std::clamp(v[d] / q.scales()[d], -127.0,
                                                127.0)));
    }
    const double exact = nn::L2Distance(v, q.Decode(code.data()));
    EXPECT_GE(error, exact);
    EXPECT_LE(error, exact * (1.0 + 1e-8) + 1e-300);
  }
  // Past the trained range the code clamps and the error says how far.
  nn::Vector outside = sample[1];
  outside[2] = 1e6;
  EXPECT_GT(q.EncodeWithError(outside.data(), code.data()), 1e5);
}

TEST(Int8QuantizerTest, BoundWeightsNeverOverstateTheDecodedDistance) {
  // c · Σ w′_d (a_d − b_d)² ≤ ‖decode(a) − decode(b)‖², with scales spread
  // over four orders of magnitude so some weights floor to 0.
  std::vector<nn::Vector> rows = GaussianRows(400, 32, 12);
  for (nn::Vector& r : rows) {
    for (size_t d = 0; d < r.size(); ++d) {
      r[d] *= std::pow(10.0, -0.4 * static_cast<double>(d));
    }
  }
  const Int8Quantizer q = Int8Quantizer::Train(rows);
  for (const int32_t w : q.bound_weights()) {
    EXPECT_GE(w, 0);
    EXPECT_LE(w, 128);
  }
  EXPECT_EQ(q.bound_weights().back(), 0);
  std::vector<int8_t> a(q.dim()), b(q.dim());
  for (size_t i = 0; i + 1 < rows.size(); i += 2) {
    q.EncodeWithError(rows[i].data(), a.data());
    q.EncodeWithError(rows[i + 1].data(), b.data());
    int64_t sum = 0;
    for (size_t d = 0; d < q.dim(); ++d) {
      const int64_t diff = static_cast<int64_t>(a[d]) - b[d];
      sum += q.bound_weights()[d] * diff * diff;
    }
    const double decoded =
        nn::L2Distance(q.Decode(a.data()), q.Decode(b.data()));
    EXPECT_LE(q.bound_scale() * static_cast<double>(sum),
              decoded * decoded * (1.0 + 1e-12));
  }
}

TEST(Int8QuantizerTest, RejectsEmptyAndRaggedSamples) {
  EXPECT_THROW(Int8Quantizer::Train({}), std::invalid_argument);
  std::vector<nn::Vector> ragged = {nn::Vector(3, 1.0), nn::Vector(4, 1.0)};
  EXPECT_THROW(Int8Quantizer::Train(ragged), std::invalid_argument);
  const Int8Quantizer q = Int8Quantizer::Train({nn::Vector(3, 1.0)});
  CodeBlocks codes;
  EXPECT_THROW(codes.Append(q, nn::Vector(5, 0.0)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// EmbeddingDatabase::TopKOf (the exact re-rank primitive).

TEST(TopKOfTest, MatchesFullScanWhenCandidatesCoverIt) {
  const auto rows = GaussianRows(120, 41);
  const EmbeddingDatabase db = FlatDb(rows);
  const nn::Vector q = GaussianRows(1, 42)[0];

  std::vector<size_t> all(rows.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  const SearchResult expected = db.TopK(q, 10);
  const SearchResult got = db.TopKOf(q, all, 10);
  EXPECT_EQ(got.ids, expected.ids);
  EXPECT_EQ(got.dists, expected.dists);

  // Duplicates are scored once; exclude drops the id; bad ids throw.
  const std::vector<size_t> dup = {3, 3, 3, 9};
  const SearchResult d = db.TopKOf(q, dup, 10);
  EXPECT_EQ(d.size(), 2u);
  const SearchResult ex = db.TopKOf(q, dup, 10, /*exclude=*/3);
  EXPECT_EQ(ex.ids, (std::vector<size_t>{9}));
  EXPECT_THROW(db.TopKOf(q, {rows.size()}, 10), std::out_of_range);
}

// ---------------------------------------------------------------------------
// IVF index.

IvfIndex::Options SmallIvfOptions() {
  IvfIndex::Options o;
  o.nlist = 32;
  o.train_sample = 1024;
  o.kmeans_iters = 6;
  o.seed = 7;
  o.default_nprobe = 6;
  return o;
}

TEST(IvfIndexTest, BuildIsDeterministicAcrossThreadCountsAndRebuilds) {
  const auto rows = ClusteredRows(1500, 12, 51);
  const EmbeddingDatabase db = FlatDb(rows);
  IvfIndex a(SmallIvfOptions());
  IvfIndex b(SmallIvfOptions());
  a.Build(rows, /*threads=*/1);
  b.Build(rows, /*threads=*/4);
  ASSERT_TRUE(a.built());
  ASSERT_EQ(a.nlist(), b.nlist());
  ASSERT_EQ(a.size(), rows.size());

  const auto queries = GaussianRows(16, 52);
  for (const nn::Vector& q : queries) {
    for (size_t nprobe : {0u, 1u, 4u, 32u}) {
      const std::vector<size_t> la = a.Probe(q, nprobe);
      EXPECT_EQ(la, b.Probe(q, nprobe));
      size_t sa = 0, sb = 0;
      const SearchResult ra = a.TopK(db, q, la, 10, -1, &sa);
      const SearchResult rb = b.TopK(db, q, la, 10, -1, &sb);
      EXPECT_EQ(ra.ids, rb.ids);
      EXPECT_EQ(ra.dists, rb.dists);
      EXPECT_EQ(sa, sb);
    }
  }
}

TEST(IvfIndexTest, FullProbeCoversTheWholeCorpus) {
  const auto rows = ClusteredRows(800, 8, 53);
  const EmbeddingDatabase db = FlatDb(rows);
  IvfIndex index(SmallIvfOptions());
  index.Build(rows);
  const nn::Vector q = GaussianRows(1, 54)[0];
  const std::vector<size_t> lists = index.Probe(q, /*nprobe=*/index.nlist());
  EXPECT_EQ(lists.size(), index.nlist());
  size_t scanned = 0;
  const SearchResult got = index.TopK(db, q, lists, 5, -1, &scanned);
  EXPECT_EQ(scanned, rows.size());  // Every row's list read.
  const SearchResult want = db.TopK(q, 5);
  EXPECT_EQ(got.ids, want.ids);
  EXPECT_EQ(got.dists, want.dists);
  // One list: the exact top-k of that list's rows.
  const SearchResult one = index.TopK(db, q, {lists.front()}, 5);
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(lists.front(), index.Probe(db.at(one.ids[i]), 1).front());
  }
}

TEST(IvfIndexTest, LiveInsertsAreSearchable) {
  auto rows = ClusteredRows(400, 6, 55);
  EmbeddingDatabase db = FlatDb(rows);
  IvfIndex index(SmallIvfOptions());
  index.Build(rows);
  // Insert a distinctive new row and query right next to it.
  nn::Vector novel(kDim, 0.0);
  novel[0] = 2.5;
  index.Insert(db.Insert(novel), novel);
  EXPECT_EQ(index.size(), rows.size() + 1);
  const SearchResult r =
      index.TopK(db, novel, index.Probe(novel, index.nlist()), 1);
  ASSERT_FALSE(r.ids.empty());
  EXPECT_EQ(r.ids.front(), rows.size());
}

TEST(IvfIndexTest, ValidatesUsage) {
  const EmbeddingDatabase db = FlatDb(GaussianRows(64, 56));
  IvfIndex index(SmallIvfOptions());
  EXPECT_THROW(index.Insert(0, nn::Vector(kDim, 0.0)), std::logic_error);
  EXPECT_THROW(index.Probe(nn::Vector(kDim, 0.0), 3), std::logic_error);
  EXPECT_THROW(index.TopK(db, nn::Vector(kDim, 0.0), {0}, 3),
               std::logic_error);
  EXPECT_THROW(index.Build({}), std::invalid_argument);
  index.Build(GaussianRows(64, 56));
  EXPECT_THROW(index.Build(GaussianRows(64, 56)), std::logic_error);
  EXPECT_THROW(index.Insert(64, nn::Vector(3, 0.0)), std::invalid_argument);
  EXPECT_THROW(index.Probe(nn::Vector(3, 0.0), 3), std::invalid_argument);
  EXPECT_THROW(index.TopK(db, nn::Vector(kDim, 0.0), {index.nlist()}, 3),
               std::out_of_range);
}

// ---------------------------------------------------------------------------
// Backends.

TEST(BackendTest, IvfWithFullProbeIsBitIdenticalToExact) {
  const auto rows = ClusteredRows(900, 10, 61);
  const EmbeddingDatabase db = FlatDb(rows);
  ExactBackend exact(&db);
  IvfBackend ivf(&db, SmallIvfOptions());
  ivf.Build();

  const auto queries = GaussianRows(12, 62);
  for (const nn::Vector& q : queries) {
    const SearchResult e = exact.TopK(q, 10, -1, 0);
    const SearchResult g = ivf.TopK(q, 10, -1, /*nprobe=*/ivf.index().nlist());
    EXPECT_EQ(g.ids, e.ids);
    EXPECT_EQ(g.dists, e.dists);  // Bit-identical, not approximately equal.
  }
}

TEST(BackendTest, IvfScoresAreExactRegardlessOfRecall) {
  const auto rows = ClusteredRows(900, 10, 63);
  const EmbeddingDatabase db = FlatDb(rows);
  IvfBackend ivf(&db, SmallIvfOptions());
  ivf.Build();
  const auto queries = GaussianRows(12, 64);
  for (const nn::Vector& q : queries) {
    const SearchResult r = ivf.TopK(q, 10, -1, 0);  // Default narrow probe.
    ASSERT_EQ(r.ids.size(), r.dists.size());
    for (size_t i = 0; i < r.ids.size(); ++i) {
      // Every returned score is the exact float distance — the bound
      // only decides which rows are scored, never their scores.
      EXPECT_EQ(r.dists[i], nn::L2Distance(db.at(r.ids[i]), q));
    }
    for (size_t i = 1; i < r.dists.size(); ++i) {
      EXPECT_LE(r.dists[i - 1], r.dists[i]);
    }
  }
}

TEST(BackendTest, IvfRecallOnClusteredDataIsHigh) {
  const auto rows = ClusteredRows(2000, 16, 65);
  const EmbeddingDatabase db = FlatDb(rows);
  IvfBackend ivf(&db, SmallIvfOptions());
  ivf.Build();
  const auto queries = ClusteredRows(32, 16, 65);  // Same distribution.
  size_t hit = 0, total = 0;
  for (const nn::Vector& q : queries) {
    const SearchResult exact = db.TopK(q, 10);
    const SearchResult approx = ivf.TopK(q, 10, -1, 0);
    const std::set<size_t> truth(exact.ids.begin(), exact.ids.end());
    for (const size_t id : approx.ids) hit += truth.count(id);
    total += exact.ids.size();
  }
  // Deterministic (seeded) workload: this is a fixed number, asserted as a
  // floor so index tweaks that help recall don't need test edits.
  EXPECT_GE(static_cast<double>(hit) / static_cast<double>(total), 0.95);
}

TEST(BackendTest, NotifyInsertKeepsIndexInSyncWithDatabase) {
  const auto rows = ClusteredRows(300, 6, 66);
  EmbeddingDatabase db = FlatDb(rows);
  IvfBackend ivf(&db, SmallIvfOptions());
  ivf.Build();
  nn::Vector novel(kDim, 0.0);
  novel[3] = 3.0;
  const size_t id = db.Insert(novel);
  ivf.NotifyInsert(id, novel);
  const SearchResult r = ivf.TopK(novel, 1, -1, ivf.index().nlist());
  ASSERT_EQ(r.ids.size(), 1u);
  EXPECT_EQ(r.ids.front(), id);
  EXPECT_EQ(r.dists.front(), 0.0);
}

TEST(BackendTest, LiveInsertsRacingTopKKeepIdsDenseAndFullProbeExact) {
  // The serving write path under concurrency: each writer appends a row to
  // the primary database, then mirrors it into the IVF index, while TopK
  // (probe + bounded scan) runs against both. A race target for TSan via
  // the `retrieval` label.
  constexpr size_t kSeedRows = 400;
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 250;
  const auto rows = ClusteredRows(kSeedRows + kThreads * kPerThread, 8, 67);
  EmbeddingDatabase db =
      FlatDb(std::vector<nn::Vector>(rows.begin(), rows.begin() + kSeedRows));
  IvfBackend ivf(&db, SmallIvfOptions());
  ivf.Build();

  // Each thread records the (id, row index) pairs the database assigned.
  std::vector<std::vector<std::pair<size_t, size_t>>> assigned(kThreads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const size_t row = kSeedRows + t * kPerThread + i;
        const size_t id = db.Insert(rows[row]);
        ivf.NotifyInsert(id, rows[row]);
        assigned[t].push_back({id, row});
        if (i % 8 == 0) {
          // Racing reader: the database may hold rows not yet mirrored into
          // the index, but the index never holds an id the database lacks.
          const SearchResult r = ivf.TopK(rows[row], 3, -1, 0);
          EXPECT_FALSE(r.ids.empty());
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  ASSERT_EQ(db.size(), rows.size());
  ASSERT_EQ(ivf.index().size(), rows.size());
  std::set<size_t> ids;
  for (const auto& per_thread : assigned) {
    for (const auto& [id, row] : per_thread) {
      EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
      EXPECT_EQ(db.at(id), rows[row]);
    }
  }
  // Dense: the inserts took exactly the ids after the seed rows.
  EXPECT_EQ(*ids.begin(), kSeedRows);
  EXPECT_EQ(*ids.rbegin(), rows.size() - 1);

  // Post-quiesce, a full probe is bit-identical to the exact scan.
  const auto queries = GaussianRows(20, 68);
  for (const nn::Vector& q : queries) {
    const SearchResult expected = db.TopK(q, 10);
    const SearchResult got = ivf.TopK(q, 10, -1, ivf.index().nlist());
    EXPECT_EQ(got.ids, expected.ids);
    EXPECT_EQ(got.dists, expected.dists);
  }
}

TEST(BackendTest, DefaultIvfAtFullProbeMatchesExactAfterOutOfOrderInserts) {
  // Default IvfIndex::Options. Integer coordinates make every distance
  // exact, so rows in different lists tie at the k-th distance; duplicate
  // rows tie inside a list; a quarter of the inserts fall past the trained
  // range and clamp. Three threads take the serving write path (db.Insert,
  // then NotifyInsert outside any lock), each mirroring its pair of rows in
  // reverse, so the lists hold ids out of order.
  constexpr size_t kSeedRows = 3000;
  constexpr size_t kThreads = 3;
  constexpr size_t kPairs = 150;
  Rng rng(81);
  const auto int_row = [&](int64_t range) {
    nn::Vector r(kDim);
    for (double& x : r) x = static_cast<double>(rng.UniformInt(-range, range));
    return r;
  };
  std::vector<nn::Vector> seed(kSeedRows);
  for (nn::Vector& r : seed) r = int_row(6);
  EmbeddingDatabase db =
      EmbeddingDatabase::Deserialize(FlatDb(seed).Serialize(), "test");
  IvfBackend ivf(&db, IvfIndex::Options{});
  ivf.Build();

  std::vector<nn::Vector> inserts(kThreads * kPairs * 2);
  for (size_t i = 0; i < inserts.size(); ++i) {
    inserts[i] = i % 4 == 0   ? seed[rng.UniformInt(0, kSeedRows - 1)]
                 : i % 4 == 1 ? int_row(18)
                              : int_row(6);
  }
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t p = 0; p < kPairs; ++p) {
        const nn::Vector& a = inserts[2 * (t * kPairs + p)];
        const nn::Vector& b = inserts[2 * (t * kPairs + p) + 1];
        const size_t id_a = db.Insert(a);
        const size_t id_b = db.Insert(b);
        ivf.NotifyInsert(id_b, b);
        ivf.NotifyInsert(id_a, a);
      }
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_EQ(db.size(), kSeedRows + inserts.size());
  ASSERT_EQ(ivf.index().size(), db.size());

  const size_t nlist = ivf.index().nlist();
  size_t ties = 0;
  for (size_t i = 0; i < 200; ++i) {
    nn::Vector q;
    int64_t exclude = -1;
    switch (i % 4) {
      case 0: q = int_row(6); break;
      case 1: q = int_row(18); break;  // Past the range: the query clamps.
      case 2:  // A clamped inserted row, itself excluded.
        exclude = static_cast<int64_t>(kSeedRows + 4 * (i % 150) + 1);
        q = db.at(static_cast<size_t>(exclude));
        break;
      default:  // A seed row and a far-off exclude.
        q = seed[i];
        exclude = static_cast<int64_t>(db.size() + i);
    }
    const size_t k = i % 10 == 9 ? 1 : 10;
    const SearchResult want = db.TopK(q, k + 1, exclude);
    ties += want.size() == k + 1 && want.dists[k - 1] == want.dists[k];
    const SearchResult got = ivf.TopK(q, k, exclude, nlist);
    ASSERT_EQ(got.size(), k) << "query " << i;
    for (size_t j = 0; j < k; ++j) {
      EXPECT_EQ(got.ids[j], want.ids[j]) << "query " << i << " rank " << j;
      EXPECT_EQ(got.dists[j], want.dists[j]) << "query " << i << " rank " << j;
    }
  }
  EXPECT_GT(ties, 20u) << "the data must tie at the k-th distance";
}

TEST(BackendTest, ExactHelpersRacingAnInserterMatchTheInlineScan) {
  // The served exact path under concurrency: two callers share their
  // chunked scans with the backend's three helper threads (one or more
  // each: a 4-thread backend lends (4 - c) / c helpers to c callers) while
  // a writer appends rows. A race target for TSan via the `retrieval`
  // label.
  constexpr size_t kDimWide = 32;
  constexpr size_t kCallers = 2;
  constexpr size_t kQueriesPerCaller = 24;
  constexpr size_t kInserts = 400;
  const size_t chunk = EmbeddingDatabase::ScanChunkRows(kDimWide);
  const auto rows = GaussianRows(3 * chunk + kInserts, 71, kDimWide);
  EmbeddingDatabase db = FlatDb(
      std::vector<nn::Vector>(rows.begin(), rows.end() - kInserts));
  ExactBackend exact(&db, /*threads=*/4);
  const auto queries = GaussianRows(kCallers * kQueriesPerCaller, 72, kDimWide);

  std::vector<std::thread> workers;
  workers.emplace_back([&] {
    for (size_t row = rows.size() - kInserts; row < rows.size(); ++row) {
      exact.NotifyInsert(db.Insert(rows[row]), rows[row]);
    }
  });
  for (size_t c = 0; c < kCallers; ++c) {
    workers.emplace_back([&, c] {
      for (size_t i = 0; i < kQueriesPerCaller; ++i) {
        const SearchResult r =
            exact.TopK(queries[c * kQueriesPerCaller + i], 10, -1, 0);
        ASSERT_EQ(r.size(), 10u);
        EXPECT_TRUE(std::is_sorted(r.dists.begin(), r.dists.end()));
        EXPECT_EQ(std::set<size_t>(r.ids.begin(), r.ids.end()).size(), 10u);
      }
    });
  }
  for (auto& w : workers) w.join();

  // Quiesced: the helpers' chunked scan is bit-identical to the inline one.
  ASSERT_EQ(db.size(), rows.size());
  for (size_t i = 0; i < kQueriesPerCaller; ++i) {
    const nn::Vector& q = queries[i];
    for (const size_t k : {size_t{1}, size_t{10}, rows.size()}) {
      const SearchResult want = db.TopK(q, k, /*exclude=*/5);
      const SearchResult got = exact.TopK(q, k, /*exclude=*/5, 0);
      EXPECT_EQ(got.ids, want.ids);
      EXPECT_EQ(got.dists, want.dists);
    }
  }
}

}  // namespace
}  // namespace neutraj::retrieval
