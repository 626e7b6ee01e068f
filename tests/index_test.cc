// Tests for the spatial indexes: R-tree vs linear scan equivalence,
// structural invariants, and the grid inverted index.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "distance/measures.h"
#include "index/frechet_lsh.h"
#include "index/inverted_grid.h"
#include "index/rtree.h"
#include "test_util.h"

namespace neutraj {
namespace {

std::vector<BoundingBox> RandomBoxes(size_t n, double extent, Rng* rng) {
  std::vector<BoundingBox> boxes;
  for (size_t i = 0; i < n; ++i) {
    BoundingBox b = BoundingBox::Empty();
    const double x = rng->Uniform(0, extent);
    const double y = rng->Uniform(0, extent);
    b.Extend(Point(x, y));
    b.Extend(Point(x + rng->Uniform(1, extent / 10),
                   y + rng->Uniform(1, extent / 10)));
    boxes.push_back(b);
  }
  return boxes;
}

std::vector<size_t> LinearScan(const std::vector<BoundingBox>& boxes,
                               const BoundingBox& query) {
  std::vector<size_t> out;
  for (size_t i = 0; i < boxes.size(); ++i) {
    if (boxes[i].Intersects(query)) out.push_back(i);
  }
  return out;
}

class RTreeSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RTreeSizeTest, QueryMatchesLinearScan) {
  Rng rng(91 + GetParam());
  const auto boxes = RandomBoxes(GetParam(), 1000.0, &rng);
  const RTree tree(boxes);
  EXPECT_EQ(tree.size(), boxes.size());
  for (int q = 0; q < 30; ++q) {
    BoundingBox query = BoundingBox::Empty();
    const double x = rng.Uniform(0, 1000), y = rng.Uniform(0, 1000);
    query.Extend(Point(x, y));
    query.Extend(Point(x + rng.Uniform(1, 300), y + rng.Uniform(1, 300)));
    EXPECT_EQ(tree.Query(query), LinearScan(boxes, query));
  }
}

INSTANTIATE_TEST_SUITE_P(VariousSizes, RTreeSizeTest,
                         ::testing::Values(1, 5, 16, 17, 100, 500),
                         [](const auto& param_info) {
                           return "n" + std::to_string(param_info.param);
                         });

TEST(RTreeTest, EmptyTree) {
  const RTree tree((std::vector<BoundingBox>()));
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Height(), 0u);
  BoundingBox q = BoundingBox::Empty();
  q.Extend(Point(0, 0));
  EXPECT_TRUE(tree.Query(q).empty());
}

TEST(RTreeTest, HeightGrowsLogarithmically) {
  Rng rng(92);
  const RTree small(RandomBoxes(10, 100.0, &rng));
  EXPECT_EQ(small.Height(), 1u) << "10 items fit a single leaf level";
  const RTree big(RandomBoxes(1000, 100.0, &rng));
  EXPECT_GE(big.Height(), 2u);
  EXPECT_LE(big.Height(), 4u) << "fanout 16 over 1000 items";
}

TEST(RTreeTest, ForTrajectoriesUsesMbrs) {
  Rng rng(93);
  const auto corpus = testing::RandomCorpus(50, 5, 15, 800.0, &rng);
  const RTree tree = RTree::ForTrajectories(corpus);
  // Querying a trajectory's own MBR must return the trajectory.
  for (size_t i = 0; i < corpus.size(); i += 7) {
    const auto hits = tree.Query(corpus[i].Bounds());
    EXPECT_TRUE(std::binary_search(hits.begin(), hits.end(), i));
  }
}

TEST(RTreeTest, DisjointQueryReturnsNothing) {
  Rng rng(94);
  const auto boxes = RandomBoxes(100, 1000.0, &rng);
  const RTree tree(boxes);
  BoundingBox far = BoundingBox::Empty();
  far.Extend(Point(1e7, 1e7));
  far.Extend(Point(1e7 + 1, 1e7 + 1));
  EXPECT_TRUE(tree.Query(far).empty());
}

Grid IndexGrid() {
  BoundingBox region = BoundingBox::Empty();
  region.Extend(Point(0, 0));
  region.Extend(Point(1000, 1000));
  return Grid(region, 50.0);
}

TEST(InvertedGridTest, QueryFindsTrajectoriesSharingCells) {
  Rng rng(95);
  const auto corpus = testing::RandomCorpus(30, 5, 20, 1000.0, &rng);
  const InvertedGridIndex index(IndexGrid(), corpus);
  EXPECT_EQ(index.size(), corpus.size());
  for (size_t q = 0; q < corpus.size(); q += 5) {
    const auto hits = index.Query(corpus[q], /*expand=*/0);
    // A trajectory always shares cells with itself.
    EXPECT_TRUE(std::binary_search(hits.begin(), hits.end(), q));
  }
}

TEST(InvertedGridTest, QueryMatchesBruteForceCellIntersection) {
  Rng rng(96);
  const Grid grid = IndexGrid();
  const auto corpus = testing::RandomCorpus(40, 5, 20, 1000.0, &rng);
  const InvertedGridIndex index(grid, corpus);

  auto cells_of = [&](const Trajectory& t, int32_t expand) {
    std::set<int64_t> cells;
    for (const Point& p : t) {
      for (const GridCell& c : grid.ScanWindow(grid.CellOf(p), expand)) {
        cells.insert(grid.FlatIndex(c));
      }
    }
    return cells;
  };

  for (size_t q = 0; q < corpus.size(); q += 9) {
    for (int32_t expand : {0, 1, 2}) {
      const auto query_cells = cells_of(corpus[q], expand);
      std::vector<size_t> expected;
      for (size_t j = 0; j < corpus.size(); ++j) {
        const auto tc = cells_of(corpus[j], 0);
        const bool overlap = std::any_of(tc.begin(), tc.end(), [&](int64_t c) {
          return query_cells.count(c) > 0;
        });
        if (overlap) expected.push_back(j);
      }
      EXPECT_EQ(index.Query(corpus[q], expand), expected)
          << "query " << q << " expand " << expand;
    }
  }
}

TEST(InvertedGridTest, ExpansionWidensCandidates) {
  Rng rng(97);
  const auto corpus = testing::RandomCorpus(50, 5, 15, 1000.0, &rng);
  const InvertedGridIndex index(IndexGrid(), corpus);
  const auto narrow = index.Query(corpus[0], 0);
  const auto wide = index.Query(corpus[0], 3);
  EXPECT_GE(wide.size(), narrow.size());
  // narrow subset of wide.
  EXPECT_TRUE(
      std::includes(wide.begin(), wide.end(), narrow.begin(), narrow.end()));
}

TEST(InvertedGridTest, CellPostingsAreSortedUnique) {
  Rng rng(98);
  const Grid grid = IndexGrid();
  const auto corpus = testing::RandomCorpus(30, 10, 30, 1000.0, &rng);
  const InvertedGridIndex index(grid, corpus);
  for (int32_t qy = 0; qy < grid.num_rows(); qy += 4) {
    for (int32_t px = 0; px < grid.num_cols(); px += 4) {
      const auto& postings = index.CellPostings(GridCell{px, qy});
      for (size_t i = 1; i < postings.size(); ++i) {
        EXPECT_LT(postings[i - 1], postings[i]);
      }
    }
  }
}

TEST(FrechetLshTest, IdenticalCurvesAlwaysCollide) {
  Rng rng(221);
  const auto corpus = testing::RandomCorpus(30, 8, 20, 800.0, &rng);
  const FrechetLshIndex index(corpus, /*delta=*/100.0, /*tables=*/4);
  EXPECT_EQ(index.size(), corpus.size());
  for (size_t q = 0; q < corpus.size(); q += 5) {
    const auto cand = index.Candidates(corpus[q]);
    EXPECT_TRUE(std::binary_search(cand.begin(), cand.end(), q))
        << "a curve must collide with itself in every table";
  }
}

TEST(FrechetLshTest, NearDuplicatesUsuallyCollide) {
  Rng rng(222);
  // Base curves plus small-noise copies; the copy should land in the base
  // curve's candidate set for most queries (multi-table amplification).
  std::vector<Trajectory> corpus;
  std::vector<Trajectory> noisy;
  for (int i = 0; i < 30; ++i) {
    Trajectory base = testing::RandomTrajectory(12, 2000.0, &rng);
    Trajectory copy;
    for (size_t j = 0; j < base.size(); ++j) {
      copy.Append(Point(base[j].x + rng.Gaussian(0, 3.0),
                        base[j].y + rng.Gaussian(0, 3.0)));
    }
    corpus.push_back(std::move(base));
    noisy.push_back(std::move(copy));
  }
  const FrechetLshIndex index(corpus, /*delta=*/250.0, /*tables=*/8);
  int hits = 0;
  for (size_t i = 0; i < noisy.size(); ++i) {
    const auto cand = index.Candidates(noisy[i]);
    if (std::binary_search(cand.begin(), cand.end(), i)) ++hits;
  }
  EXPECT_GE(hits, 20) << "most near-duplicates should collide";
}

TEST(FrechetLshTest, FarCurvesRarelyCollide) {
  Rng rng(223);
  // Queries translated far away share no cells with the corpus.
  const auto corpus = testing::RandomCorpus(40, 8, 20, 800.0, &rng);
  const FrechetLshIndex index(corpus, 100.0, 4);
  size_t total_candidates = 0;
  for (int rep = 0; rep < 10; ++rep) {
    Trajectory far = testing::RandomTrajectory(12, 800.0, &rng);
    for (size_t j = 0; j < far.size(); ++j) {
      far[j].x += 1e6;
      far[j].y += 1e6;
    }
    total_candidates += index.Candidates(far).size();
  }
  EXPECT_EQ(total_candidates, 0u);
}

TEST(FrechetLshTest, CandidatesAreHighPrecision) {
  Rng rng(224);
  // Candidates returned by the LSH should be much closer (in Fréchet
  // distance) on average than random corpus members.
  const auto corpus = testing::RandomCorpus(60, 8, 16, 600.0, &rng);
  const FrechetLshIndex index(corpus, 400.0, 6);
  double cand_mean = 0.0, all_mean = 0.0;
  size_t cand_count = 0, all_count = 0;
  for (size_t q = 0; q < corpus.size(); q += 7) {
    for (size_t j : index.Candidates(corpus[q])) {
      if (j == q) continue;
      cand_mean += FrechetDistance(corpus[q], corpus[j]);
      ++cand_count;
    }
    for (size_t j = 0; j < corpus.size(); ++j) {
      if (j == q) continue;
      all_mean += FrechetDistance(corpus[q], corpus[j]);
      ++all_count;
    }
  }
  if (cand_count > 0) {
    cand_mean /= static_cast<double>(cand_count);
    all_mean /= static_cast<double>(all_count);
    EXPECT_LT(cand_mean, all_mean)
        << "LSH candidates must be closer than average";
  }
}

TEST(FrechetLshTest, Validation) {
  Rng rng(225);
  const auto corpus = testing::RandomCorpus(5, 5, 8, 100.0, &rng);
  EXPECT_THROW(FrechetLshIndex(corpus, 0.0, 2), std::invalid_argument);
  EXPECT_THROW(FrechetLshIndex(corpus, 10.0, 0), std::invalid_argument);
  const FrechetLshIndex index(corpus, 10.0, 2);
  EXPECT_GT(index.NumBuckets(), 0u);
  EXPECT_EQ(index.num_tables(), 2u);
}

}  // namespace
}  // namespace neutraj
