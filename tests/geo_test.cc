// Tests for geo/: points, bounding boxes, trajectories, grids and I/O.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "geo/grid.h"
#include "geo/point.h"
#include "geo/traj_io.h"
#include "geo/trajectory.h"
#include "test_util.h"

namespace neutraj {
namespace {

TEST(PointTest, Distances) {
  EXPECT_DOUBLE_EQ(EuclideanDistance(Point(0, 0), Point(3, 4)), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(Point(1, 1), Point(1, 1)), 0.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(Point(-1, 0), Point(2, 0)), 9.0);
}

TEST(BoundingBoxTest, EmptyAndExtend) {
  BoundingBox b = BoundingBox::Empty();
  EXPECT_TRUE(b.IsEmpty());
  b.Extend(Point(1, 2));
  EXPECT_FALSE(b.IsEmpty());
  EXPECT_DOUBLE_EQ(b.min_x, 1);
  EXPECT_DOUBLE_EQ(b.max_y, 2);
  b.Extend(Point(-1, 5));
  EXPECT_DOUBLE_EQ(b.Width(), 2);
  EXPECT_DOUBLE_EQ(b.Height(), 3);
  EXPECT_DOUBLE_EQ(b.Area(), 6);
}

TEST(BoundingBoxTest, ExtendWithBoxAndInflate) {
  BoundingBox a = BoundingBox::Empty();
  a.Extend(Point(0, 0));
  a.Extend(Point(2, 2));
  BoundingBox b = BoundingBox::Empty();
  b.Extend(Point(5, 5));
  a.Extend(b);
  EXPECT_DOUBLE_EQ(a.max_x, 5);
  const BoundingBox c = a.Inflated(1.0);
  EXPECT_DOUBLE_EQ(c.min_x, -1);
  EXPECT_DOUBLE_EQ(c.max_y, 6);
  a.Extend(BoundingBox::Empty());  // No-op.
  EXPECT_DOUBLE_EQ(a.max_x, 5);
}

TEST(BoundingBoxTest, ContainsAndIntersects) {
  BoundingBox a = BoundingBox::Empty();
  a.Extend(Point(0, 0));
  a.Extend(Point(10, 10));
  EXPECT_TRUE(a.Contains(Point(5, 5)));
  EXPECT_TRUE(a.Contains(Point(0, 10))) << "borders inclusive";
  EXPECT_FALSE(a.Contains(Point(-0.1, 5)));

  BoundingBox b = BoundingBox::Empty();
  b.Extend(Point(10, 10));
  b.Extend(Point(12, 12));
  EXPECT_TRUE(a.Intersects(b)) << "touching at a corner intersects";
  BoundingBox c = BoundingBox::Empty();
  c.Extend(Point(11, 11));
  c.Extend(Point(12, 12));
  EXPECT_FALSE(a.Intersects(c));
}

TEST(BoundingBoxTest, MinDistance) {
  BoundingBox a = BoundingBox::Empty();
  a.Extend(Point(0, 0));
  a.Extend(Point(10, 10));
  EXPECT_DOUBLE_EQ(a.MinDistance(Point(5, 5)), 0.0);
  EXPECT_DOUBLE_EQ(a.MinDistance(Point(13, 14)), 5.0);
  EXPECT_DOUBLE_EQ(a.MinDistance(Point(-2, 5)), 2.0);
}

TEST(TrajectoryTest, BasicAccessors) {
  Trajectory t({{0, 0}, {1, 0}, {1, 1}});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_FALSE(t.empty());
  EXPECT_DOUBLE_EQ(t.PathLength(), 2.0);
  const Point c = t.Centroid();
  EXPECT_NEAR(c.x, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(c.y, 1.0 / 3.0, 1e-12);
  const BoundingBox b = t.Bounds();
  EXPECT_DOUBLE_EQ(b.max_x, 1.0);
  EXPECT_DOUBLE_EQ(b.min_y, 0.0);
}

TEST(TrajectoryTest, DownsampleKeepsEndpointsAndLength) {
  Trajectory t;
  for (int i = 0; i < 100; ++i) t.Append(Point(i, 2 * i));
  const Trajectory d = t.Downsampled(10);
  ASSERT_EQ(d.size(), 10u);
  EXPECT_EQ(d[0], t[0]);
  EXPECT_EQ(d[9], t[99]);
  const Trajectory same = t.Downsampled(200);
  EXPECT_EQ(same.size(), t.size()) << "no-op when already short enough";
}

TEST(GridTest, CellMappingByCellSize) {
  BoundingBox region = BoundingBox::Empty();
  region.Extend(Point(0, 0));
  region.Extend(Point(100, 50));
  Grid g(region, 10.0);
  EXPECT_EQ(g.num_cols(), 10);
  EXPECT_EQ(g.num_rows(), 5);
  EXPECT_EQ(g.CellOf(Point(5, 5)).px, 0);
  EXPECT_EQ(g.CellOf(Point(5, 5)).qy, 0);
  EXPECT_EQ(g.CellOf(Point(95, 45)).px, 9);
  EXPECT_EQ(g.CellOf(Point(95, 45)).qy, 4);
}

TEST(GridTest, OutOfRegionPointsClampToBorder) {
  BoundingBox region = BoundingBox::Empty();
  region.Extend(Point(0, 0));
  region.Extend(Point(100, 100));
  Grid g(region, 10.0);
  EXPECT_EQ(g.CellOf(Point(-50, 500)).px, 0);
  EXPECT_EQ(g.CellOf(Point(-50, 500)).qy, 9);
  EXPECT_EQ(g.CellOf(Point(1000, -5)).px, 9);
  EXPECT_EQ(g.CellOf(Point(1000, -5)).qy, 0);
}

TEST(GridTest, HugeFiniteCoordinatesMapToCornerCells) {
  // (1e300 - min) / cell is out of int64's range, so casting it before the
  // clamp is undefined; on x86 the cast yields INT64_MIN and +1e300 landed
  // in cell 0. Clang's UBSan also reports such a cast; GCC's needs
  // -fsanitize=float-cast-overflow.
  BoundingBox region = BoundingBox::Empty();
  region.Extend(Point(0, 0));
  region.Extend(Point(100, 50));
  Grid g(region, 10.0);
  const GridCell hi = g.CellOf(Point(1e300, 1e300));
  EXPECT_EQ(hi.px, g.num_cols() - 1);
  EXPECT_EQ(hi.qy, g.num_rows() - 1);
  const GridCell lo = g.CellOf(Point(-1e300, -1e300));
  EXPECT_EQ(lo.px, 0);
  EXPECT_EQ(lo.qy, 0);
  const GridCell mixed = g.CellOf(Point(-1e300, 1e300));
  EXPECT_EQ(mixed.px, 0);
  EXPECT_EQ(mixed.qy, g.num_rows() - 1);
}

TEST(GridTest, CellCenterRoundTrips) {
  BoundingBox region = BoundingBox::Empty();
  region.Extend(Point(0, 0));
  region.Extend(Point(80, 80));
  Grid g(region, 8.0);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const Point p(rng.Uniform(0, 80), rng.Uniform(0, 80));
    const GridCell c = g.CellOf(p);
    const Point center = g.CellCenter(c);
    EXPECT_EQ(g.CellOf(center), c) << "center of a cell maps back to it";
    EXPECT_LE(std::abs(center.x - p.x), g.cell_width());
    EXPECT_LE(std::abs(center.y - p.y), g.cell_height());
  }
}

TEST(GridTest, NormalizeMapsRegionToUnitSquare) {
  BoundingBox region = BoundingBox::Empty();
  region.Extend(Point(10, 20));
  region.Extend(Point(110, 220));
  Grid g(region, 10.0);
  const Point lo = g.Normalize(Point(10, 20));
  const Point hi = g.Normalize(Point(110, 220));
  EXPECT_DOUBLE_EQ(lo.x, 0.0);
  EXPECT_DOUBLE_EQ(lo.y, 0.0);
  EXPECT_DOUBLE_EQ(hi.x, 1.0);
  EXPECT_DOUBLE_EQ(hi.y, 1.0);
}

TEST(GridTest, ScanWindowSizeAndClamping) {
  BoundingBox region = BoundingBox::Empty();
  region.Extend(Point(0, 0));
  region.Extend(Point(100, 100));
  Grid g(region, 10.0);
  const auto center_window = g.ScanWindow(GridCell{5, 5}, 2);
  EXPECT_EQ(center_window.size(), 25u);
  // Interior window covers the expected cells.
  EXPECT_EQ(center_window.front().px, 3);
  EXPECT_EQ(center_window.front().qy, 3);
  EXPECT_EQ(center_window.back().px, 7);
  EXPECT_EQ(center_window.back().qy, 7);
  // Corner window stays in bounds (clamped, still 25 entries).
  const auto corner_window = g.ScanWindow(GridCell{0, 0}, 2);
  EXPECT_EQ(corner_window.size(), 25u);
  for (const GridCell& c : corner_window) {
    EXPECT_GE(c.px, 0);
    EXPECT_GE(c.qy, 0);
  }
  // w = 0 degenerates to the single center cell.
  const auto w0 = g.ScanWindow(GridCell{4, 4}, 0);
  ASSERT_EQ(w0.size(), 1u);
  EXPECT_EQ(w0[0], (GridCell{4, 4}));
}

TEST(GridTest, FlatIndexIsBijective) {
  BoundingBox region = BoundingBox::Empty();
  region.Extend(Point(0, 0));
  region.Extend(Point(30, 20));
  Grid g(region, 10.0);  // 3 x 2 cells.
  std::set<int64_t> seen;
  for (int32_t qy = 0; qy < g.num_rows(); ++qy) {
    for (int32_t px = 0; px < g.num_cols(); ++px) {
      seen.insert(g.FlatIndex(GridCell{px, qy}));
    }
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), g.NumCells());
}

TEST(GridTest, RejectsDegenerateArguments) {
  BoundingBox region = BoundingBox::Empty();
  EXPECT_THROW(Grid(region, 10.0), std::invalid_argument);
  region.Extend(Point(0, 0));
  region.Extend(Point(1, 1));
  EXPECT_THROW(Grid(region, 0.0), std::invalid_argument);
  EXPECT_THROW(Grid(region, 0, 5), std::invalid_argument);
}

TEST(TrajIoTest, SerializeParseRoundtrip) {
  Rng rng(12);
  const auto corpus = testing::RandomCorpus(10, 3, 20, 1000.0, &rng);
  const std::string text = SerializeTrajectories(corpus);
  const auto parsed = ParseTrajectories(text);
  ASSERT_EQ(parsed.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_EQ(parsed[i].size(), corpus[i].size());
    for (size_t j = 0; j < corpus[i].size(); ++j) {
      EXPECT_NEAR(parsed[i][j].x, corpus[i][j].x, 1e-5);
      EXPECT_NEAR(parsed[i][j].y, corpus[i][j].y, 1e-5);
    }
  }
}

TEST(TrajIoTest, ParseSkipsBlankLines) {
  const auto trajs = ParseTrajectories("1,2;3,4\n\n  \n5,6\n");
  ASSERT_EQ(trajs.size(), 2u);
  EXPECT_EQ(trajs[0].size(), 2u);
  EXPECT_EQ(trajs[1].size(), 1u);
}

TEST(TrajIoTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(ParseTrajectories("1,2;3\n"), std::runtime_error);
  EXPECT_THROW(ParseTrajectories("1,x\n"), std::runtime_error);
  EXPECT_THROW(ParseTrajectories("1,2,3\n"), std::runtime_error);
}

TEST(TrajIoTest, ParseRejectsNonFiniteCoordinatesWithLineNumber) {
  // std::stod happily parses "nan" and "inf"; the parser must not.
  for (const char* bad : {"1,2;nan,3\n", "inf,2\n", "1,-inf\n"}) {
    try {
      ParseTrajectories(bad);
      FAIL() << "accepted non-finite input: " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
          << e.what();
    }
  }
  // The error names the offending line, not just the file.
  try {
    ParseTrajectories("1,2\n3,4\n5,nan\n");
    FAIL() << "accepted non-finite input";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace neutraj
