// Tests for the synthetic data substrate: road network, route generation,
// corpus generators and the dataset container.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "data/dataset.h"
#include "data/generators.h"
#include "data/road_network.h"
#include "distance/measures.h"

namespace neutraj {
namespace {

TEST(RoadNetworkTest, BuildsJitteredLattice) {
  RoadNetworkConfig cfg;
  cfg.grid_cols = 6;
  cfg.grid_rows = 5;
  cfg.spacing = 100.0;
  cfg.jitter = 10.0;
  const RoadNetwork net(cfg);
  EXPECT_EQ(net.NumNodes(), 30u);
  // Nodes stay near their lattice positions.
  for (size_t id = 0; id < net.NumNodes(); ++id) {
    const Point& p = net.NodePosition(id);
    const double lx = static_cast<double>(id % 6) * 100.0;
    const double ly = static_cast<double>(id / 6) * 100.0;
    EXPECT_LE(std::abs(p.x - lx), 10.0);
    EXPECT_LE(std::abs(p.y - ly), 10.0);
  }
  EXPECT_FALSE(net.Bounds().IsEmpty());
  EXPECT_THROW(RoadNetwork(RoadNetworkConfig{.grid_cols = 1}),
               std::invalid_argument);
}

TEST(RoadNetworkTest, AdjacencyIsSymmetric) {
  RoadNetworkConfig cfg;
  cfg.grid_cols = 8;
  cfg.grid_rows = 8;
  const RoadNetwork net(cfg);
  for (size_t u = 0; u < net.NumNodes(); ++u) {
    for (size_t v : net.Neighbors(u)) {
      const auto& back = net.Neighbors(v);
      EXPECT_NE(std::find(back.begin(), back.end(), u), back.end())
          << "edge " << u << "-" << v << " missing its reverse";
    }
  }
}

TEST(RoadNetworkTest, RandomRouteFollowsEdges) {
  RoadNetworkConfig cfg;
  cfg.grid_cols = 10;
  cfg.grid_rows = 10;
  cfg.edge_keep_prob = 1.0;
  const RoadNetwork net(cfg);
  Rng rng(101);
  for (int rep = 0; rep < 20; ++rep) {
    const auto route = net.RandomRoute(15, &rng);
    EXPECT_EQ(route.size(), 16u) << "fully connected lattice never gets stuck";
    for (size_t i = 1; i < route.size(); ++i) {
      const auto& nb = net.Neighbors(route[i - 1]);
      EXPECT_NE(std::find(nb.begin(), nb.end(), route[i]), nb.end())
          << "route step must use an existing edge";
    }
  }
}

TEST(RoadNetworkTest, RouteAvoidsImmediateBacktracking) {
  RoadNetworkConfig cfg;
  cfg.grid_cols = 10;
  cfg.grid_rows = 10;
  cfg.edge_keep_prob = 1.0;
  const RoadNetwork net(cfg);
  Rng rng(102);
  for (int rep = 0; rep < 10; ++rep) {
    const auto route = net.RandomRoute(20, &rng);
    for (size_t i = 2; i < route.size(); ++i) {
      // Interior nodes have >= 2 usable neighbors on a full lattice, so the
      // walk never needs to return to where it just came from.
      EXPECT_NE(route[i], route[i - 2]) << "immediate backtrack at " << i;
    }
  }
}

TEST(RoadNetworkTest, RouteToTrajectoryInterpolatesAtRequestedSpacing) {
  RoadNetworkConfig cfg;
  cfg.grid_cols = 5;
  cfg.grid_rows = 5;
  cfg.spacing = 400.0;
  cfg.jitter = 0.0;
  cfg.edge_keep_prob = 1.0;
  const RoadNetwork net(cfg);
  Rng rng(103);
  const auto route = net.RandomRoute(6, &rng);
  const Trajectory t =
      net.RouteToTrajectory(route, /*point_spacing=*/50.0, /*noise=*/0.0, &rng);
  // Noise-free: consecutive samples are at most ~spacing apart and the
  // number of points matches path_length / spacing within rounding.
  ASSERT_GE(t.size(), route.size());
  for (size_t i = 1; i < t.size(); ++i) {
    EXPECT_LE(EuclideanDistance(t[i - 1], t[i]), 50.0 + 1e-6);
  }
  double route_len = 0.0;
  for (size_t i = 1; i < route.size(); ++i) {
    route_len += EuclideanDistance(net.NodePosition(route[i - 1]),
                                   net.NodePosition(route[i]));
  }
  EXPECT_NEAR(static_cast<double>(t.size()), route_len / 50.0,
              static_cast<double>(route.size()) + 2.0);
  EXPECT_THROW(net.RouteToTrajectory(route, 0.0, 0.0, &rng),
               std::invalid_argument);
}

TEST(GeneratorTest, ProducesRequestedCorpus) {
  GeneratorConfig cfg = PortoLikeConfig(0.2);  // ~100 trajectories.
  const TrajectoryDataset db = GeneratePortoLike(cfg);
  EXPECT_EQ(db.name, "PortoLike");
  EXPECT_EQ(db.size(), cfg.num_trajectories);
  EXPECT_FALSE(db.region.IsEmpty());
  for (const Trajectory& t : db.trajectories) {
    EXPECT_GE(t.size(), cfg.min_points) << "paper: drop < 10 records";
    EXPECT_LE(t.size(), cfg.max_points);
  }
}

TEST(GeneratorTest, DeterministicForFixedSeed) {
  GeneratorConfig cfg = PortoLikeConfig(0.1);
  const TrajectoryDataset a = GeneratePortoLike(cfg);
  const TrajectoryDataset b = GeneratePortoLike(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.trajectories[i], b.trajectories[i]);
  }
  cfg.seed += 1;
  const TrajectoryDataset c = GeneratePortoLike(cfg);
  EXPECT_FALSE(a.trajectories[0] == c.trajectories[0]);
}

TEST(GeneratorTest, PortoLikeHasNearDuplicates) {
  // The popular-route mechanism must create pairs far more similar than the
  // typical pair — the property the paper's datasets exhibit.
  GeneratorConfig cfg = PortoLikeConfig(0.3);
  const TrajectoryDataset db = GeneratePortoLike(cfg);
  std::vector<double> dists;
  for (size_t i = 0; i < db.size(); ++i) {
    for (size_t j = i + 1; j < db.size(); ++j) {
      dists.push_back(HausdorffDistance(db.trajectories[i], db.trajectories[j]));
    }
  }
  std::sort(dists.begin(), dists.end());
  const double p02 = dists[dists.size() / 500];  // 0.2% quantile.
  const double median = dists[dists.size() / 2];
  EXPECT_LT(p02, median / 10.0)
      << "near-duplicate pairs should be far closer than the median pair";
  EXPECT_LT(dists.front(), 4.0 * cfg.noise_std)
      << "full-route repeats should differ by GPS noise only";
}

TEST(GeneratorTest, GeolifeLikeIsLongerAndLessConcentrated) {
  const TrajectoryDataset porto = GeneratePortoLike(PortoLikeConfig(0.2));
  const TrajectoryDataset geolife = GenerateGeolifeLike(GeolifeLikeConfig(0.2));
  EXPECT_EQ(geolife.name, "GeolifeLike");
  EXPECT_GT(geolife.MeanLength(), porto.MeanLength())
      << "human mobility preset produces longer traces";
}

TEST(DatasetTest, FilterShortAndRegion) {
  TrajectoryDataset db;
  db.trajectories.push_back(Trajectory({{0, 0}}));
  db.trajectories.push_back(Trajectory({{0, 0}, {1, 1}, {2, 2}}));
  db.FilterShort(2);
  ASSERT_EQ(db.size(), 1u);
  db.RecomputeRegion();
  EXPECT_DOUBLE_EQ(db.region.max_x, 2.0);
  EXPECT_DOUBLE_EQ(db.MeanLength(), 3.0);
  db.trajectories.clear();
  EXPECT_DOUBLE_EQ(db.MeanLength(), 0.0);
}

}  // namespace
}  // namespace neutraj
