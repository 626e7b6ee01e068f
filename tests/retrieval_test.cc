// Tests for the retrieval subsystem (src/retrieval/): int8 quantized tier,
// IVF ANN index, and the serve-layer backends.
//
// The load-bearing invariants pinned here:
//   - the quantized kernel is exact integer math and matches a naive
//     reference loop at every dimension (so SIMD variants cannot diverge);
//   - the IVF build is deterministic across thread counts and rebuilds;
//   - IVF results are exactly re-ranked: every returned distance is the
//     exact float distance, and probing every cell reproduces the exact
//     scan bit-for-bit — also after live inserts that raced queries.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
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
    const nn::Vector& m =
        mu[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(centers) - 1))];
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

TEST(KernelsTest, WeightedKernelMatchesNaiveReferenceAtEveryDim) {
  Rng rng(12);
  for (size_t dim = 1; dim <= 40; ++dim) {
    std::vector<int8_t> a(dim), b(dim);
    std::vector<int32_t> w(dim);
    for (size_t d = 0; d < dim; ++d) {
      a[d] = static_cast<int8_t>(rng.UniformInt(-127, 127));
      b[d] = static_cast<int8_t>(rng.UniformInt(-127, 127));
      w[d] = static_cast<int32_t>(rng.UniformInt(1, 256));
    }
    int64_t ref = 0;
    for (size_t d = 0; d < dim; ++d) {
      const int64_t diff = static_cast<int64_t>(a[d]) - b[d];
      ref += static_cast<int64_t>(w[d]) * diff * diff;
    }
    EXPECT_EQ(WeightedCodeSquaredL2(a.data(), b.data(), w.data(), dim), ref)
        << "dim " << dim << " kernel " << QuantizedKernelName();
    int64_t plain = 0;
    for (size_t d = 0; d < dim; ++d) {
      const int64_t diff = static_cast<int64_t>(a[d]) - b[d];
      plain += diff * diff;
    }
    EXPECT_EQ(CodeSquaredL2(a.data(), b.data(), dim), plain);
  }
}

TEST(KernelsTest, ForcedPortableAndAvx2DispatchAreBitIdentical) {
  // The runtime-dispatched AVX2 kernel (kernels_avx2.cc, cpuid-gated) must
  // agree with the portable reference on every accumulator bit at every
  // dim — including the masked tail lanes — so the kernel choice can never
  // change which candidates survive to the exact re-rank. Forcing each
  // implementation through SetQuantizedKernel runs both on one machine;
  // on a CPU without AVX2 only the portable/auto agreement is pinned.
  Rng rng(13);
  for (size_t dim = 1; dim <= 70; ++dim) {
    std::vector<int8_t> a(dim), b(dim);
    std::vector<int32_t> w(dim);
    for (size_t d = 0; d < dim; ++d) {
      a[d] = static_cast<int8_t>(rng.UniformInt(-127, 127));
      b[d] = static_cast<int8_t>(rng.UniformInt(-127, 127));
      w[d] = static_cast<int32_t>(rng.UniformInt(1, 256));
    }

    SetQuantizedKernel(QuantizedKernel::kPortable);
    const int64_t portable =
        WeightedCodeSquaredL2(a.data(), b.data(), w.data(), dim);
    EXPECT_EQ(std::string(QuantizedKernelName()), "portable");
    EXPECT_EQ(portable,
              internal::WeightedCodeSquaredL2Portable(a.data(), b.data(),
                                                      w.data(), dim));

    if (internal::QuantizedAvx2Available()) {
      SetQuantizedKernel(QuantizedKernel::kAvx2);
      EXPECT_EQ(std::string(QuantizedKernelName()), "avx2");
      EXPECT_EQ(WeightedCodeSquaredL2(a.data(), b.data(), w.data(), dim),
                portable)
          << "dim " << dim;
      EXPECT_EQ(internal::WeightedCodeSquaredL2Avx2(a.data(), b.data(),
                                                    w.data(), dim),
                portable)
          << "dim " << dim;
    } else {
      EXPECT_THROW(SetQuantizedKernel(QuantizedKernel::kAvx2),
                   std::runtime_error);
    }

    SetQuantizedKernel(QuantizedKernel::kAuto);
    EXPECT_EQ(WeightedCodeSquaredL2(a.data(), b.data(), w.data(), dim),
              portable)
        << "dim " << dim;
  }
}

// ---------------------------------------------------------------------------
// Int8 quantizer.

TEST(Int8QuantizerTest, RoundTripWithinPerDimensionBound) {
  const auto rows = GaussianRows(200, 21);
  const Int8Quantizer q = Int8Quantizer::Train(rows);
  ASSERT_EQ(q.dim(), kDim);
  for (const nn::Vector& r : rows) {
    const std::vector<int8_t> code = q.Encode(r);
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
  const std::vector<int8_t> code = q.Encode(wild);
  for (size_t d = 0; d < kDim; ++d) EXPECT_EQ(code[d], 127);
}

TEST(Int8QuantizerTest, ProxyDistanceIsSymmetricZeroOnSelf) {
  const auto rows = GaussianRows(64, 23);
  const Int8Quantizer q = Int8Quantizer::Train(rows);
  const auto a = q.Encode(rows[0]);
  const auto b = q.Encode(rows[1]);
  EXPECT_EQ(q.WeightedCodeAccum(a.data(), b.data()),
            q.WeightedCodeAccum(b.data(), a.data()));
  EXPECT_EQ(q.WeightedCodeAccum(a.data(), a.data()), 0);
  EXPECT_GT(q.WeightedCodeAccum(a.data(), b.data()), 0);
  // The mapped proxy approximates the true squared L2 to within the
  // combined quantization + weight-rounding slack (loose sanity bound).
  const double approx = q.ApproxSquaredL2(a.data(), b.data());
  const double exact =
      ExactSquaredL2(rows[0].data(), rows[1].data(), kDim);
  EXPECT_NEAR(approx, exact, 0.5 * exact + 1.0);
}

TEST(Int8QuantizerTest, RejectsEmptyAndRaggedSamples) {
  EXPECT_THROW(Int8Quantizer::Train({}), std::invalid_argument);
  std::vector<nn::Vector> ragged = {nn::Vector(3, 1.0), nn::Vector(4, 1.0)};
  EXPECT_THROW(Int8Quantizer::Train(ragged), std::invalid_argument);
  const Int8Quantizer q = Int8Quantizer::Train({nn::Vector(3, 1.0)});
  EXPECT_THROW(q.Encode(nn::Vector(5, 0.0)), std::invalid_argument);
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
  o.rerank = 32;
  return o;
}

TEST(IvfIndexTest, BuildIsDeterministicAcrossThreadCountsAndRebuilds) {
  const auto rows = ClusteredRows(1500, 12, 51);
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
      const auto ca = a.Candidates(q, 10, nprobe);
      const auto cb = b.Candidates(q, 10, nprobe);
      EXPECT_EQ(ca.ids, cb.ids);
      EXPECT_EQ(ca.scanned, cb.scanned);
      EXPECT_EQ(ca.probed, cb.probed);
    }
  }
}

TEST(IvfIndexTest, FullProbeCoversTheWholeCorpus) {
  const auto rows = ClusteredRows(800, 8, 53);
  IvfIndex index(SmallIvfOptions());
  index.Build(rows);
  const nn::Vector q = GaussianRows(1, 54)[0];
  const auto c = index.Candidates(q, 5, /*nprobe=*/index.nlist());
  EXPECT_EQ(c.probed, index.nlist());
  EXPECT_EQ(c.scanned, rows.size());  // Every posting visited.
  EXPECT_EQ(c.ids.size(), std::max<size_t>(5, SmallIvfOptions().rerank));
}

TEST(IvfIndexTest, LiveInsertsAreSearchable) {
  auto rows = ClusteredRows(400, 6, 55);
  IvfIndex index(SmallIvfOptions());
  index.Build(rows);
  // Insert a distinctive new row and query right next to it.
  nn::Vector novel(kDim, 0.0);
  novel[0] = 2.5;
  index.Insert(rows.size(), novel);
  EXPECT_EQ(index.size(), rows.size() + 1);
  const auto c = index.Candidates(novel, 1, index.nlist());
  ASSERT_FALSE(c.ids.empty());
  EXPECT_EQ(c.ids.front(), rows.size());
}

TEST(IvfIndexTest, ValidatesUsage) {
  IvfIndex index(SmallIvfOptions());
  EXPECT_THROW(index.Insert(0, nn::Vector(kDim, 0.0)), std::logic_error);
  EXPECT_THROW(index.Candidates(nn::Vector(kDim, 0.0), 3), std::logic_error);
  EXPECT_THROW(index.Build({}), std::invalid_argument);
  index.Build(GaussianRows(64, 56));
  EXPECT_THROW(index.Build(GaussianRows(64, 56)), std::logic_error);
  EXPECT_THROW(index.Insert(64, nn::Vector(3, 0.0)), std::invalid_argument);
  EXPECT_THROW(index.Candidates(nn::Vector(3, 0.0), 3),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Backends.

TEST(BackendTest, IvfWithFullProbeIsBitIdenticalToExact) {
  const auto rows = ClusteredRows(900, 10, 61);
  const EmbeddingDatabase db = FlatDb(rows);
  ExactBackend exact(&db);
  IvfIndex::Options opts = SmallIvfOptions();
  opts.rerank = rows.size();  // Surface every scanned id.
  IvfBackend ivf(&db, opts);
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
      // Every returned score is the exact float distance — the re-rank
      // guarantee that makes quantization invisible in results.
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
  // (probe + exact re-rank) runs against both. A race target for TSan via
  // the `retrieval` label.
  constexpr size_t kSeedRows = 400;
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 250;
  const auto rows = ClusteredRows(kSeedRows + kThreads * kPerThread, 8, 67);
  EmbeddingDatabase db =
      FlatDb(std::vector<nn::Vector>(rows.begin(), rows.begin() + kSeedRows));
  IvfIndex::Options opts = SmallIvfOptions();
  opts.rerank = rows.size();  // Full probe then surfaces every row.
  IvfBackend ivf(&db, opts);
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
