#include "data/generators.h"

#include <algorithm>
#include <cmath>

namespace neutraj {

namespace {

/// Takes a contiguous sub-route covering at least `min_keep` of the route.
std::vector<size_t> SubRoute(const std::vector<size_t>& route, double min_keep,
                             Rng* rng) {
  if (route.size() <= 2) return route;
  const double keep = rng->Uniform(min_keep, 1.0);
  const size_t len = std::max<size_t>(
      2, static_cast<size_t>(
             std::llround(keep * static_cast<double>(route.size()))));
  if (len >= route.size()) return route;
  const size_t start = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(route.size() - len)));
  return std::vector<size_t>(route.begin() + static_cast<long>(start),
                             route.begin() + static_cast<long>(start + len));
}

}  // namespace

TrajectoryDataset GenerateCorpus(const std::string& name,
                                 const GeneratorConfig& cfg) {
  Rng rng(cfg.seed);
  RoadNetwork network(cfg.road);

  // Pre-draw the popular route pool.
  std::vector<std::vector<size_t>> popular;
  popular.reserve(cfg.num_popular_routes);
  for (size_t i = 0; i < cfg.num_popular_routes; ++i) {
    const size_t hops = static_cast<size_t>(rng.UniformInt(
        static_cast<int64_t>(cfg.min_hops), static_cast<int64_t>(cfg.max_hops)));
    popular.push_back(network.RandomRoute(hops, &rng));
  }

  TrajectoryDataset out;
  out.name = name;
  out.trajectories.reserve(cfg.num_trajectories);
  size_t attempts = 0;
  const size_t max_attempts = cfg.num_trajectories * 20 + 100;
  while (out.trajectories.size() < cfg.num_trajectories &&
         attempts < max_attempts) {
    ++attempts;
    std::vector<size_t> route;
    if (!popular.empty() && rng.Bernoulli(cfg.popular_fraction)) {
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(popular.size()) - 1));
      // Half of the popular trips cover the full route (near-duplicates
      // differing only by GPS noise — the property the paper highlights);
      // the rest are sub-trips of it.
      route = rng.Bernoulli(0.5)
                  ? popular[pick]
                  : SubRoute(popular[pick], cfg.min_keep_fraction, &rng);
    } else {
      const size_t hops = static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(cfg.min_hops),
                         static_cast<int64_t>(cfg.max_hops)));
      route = network.RandomRoute(hops, &rng);
    }
    Trajectory t = network.RouteToTrajectory(route, cfg.point_spacing,
                                             cfg.noise_std, &rng);
    if (cfg.max_points > 0) t = t.Downsampled(cfg.max_points);
    if (t.size() < cfg.min_points) continue;  // Paper: drop < 10 records.
    out.trajectories.push_back(std::move(t));
  }
  out.RecomputeRegion();
  return out;
}

GeneratorConfig PortoLikeConfig(double scale) {
  GeneratorConfig cfg;
  cfg.num_trajectories = static_cast<size_t>(std::llround(500 * scale));
  cfg.min_hops = 4;
  cfg.max_hops = 12;
  cfg.point_spacing = 80.0;
  cfg.noise_std = 20.0;
  cfg.num_popular_routes = 30;
  cfg.popular_fraction = 0.6;
  cfg.max_points = 48;
  cfg.seed = 13;
  cfg.road.grid_cols = 18;
  cfg.road.grid_rows = 18;
  cfg.road.spacing = 500.0;
  cfg.road.seed = 101;
  return cfg;
}

GeneratorConfig GeolifeLikeConfig(double scale) {
  GeneratorConfig cfg;
  cfg.num_trajectories = static_cast<size_t>(std::llround(350 * scale));
  cfg.min_hops = 6;
  cfg.max_hops = 20;
  cfg.point_spacing = 120.0;
  cfg.noise_std = 35.0;      // Human GPS is noisier than taxi data.
  cfg.num_popular_routes = 12;
  cfg.popular_fraction = 0.35;
  cfg.max_points = 64;
  cfg.seed = 29;
  cfg.road.grid_cols = 16;
  cfg.road.grid_rows = 16;
  cfg.road.spacing = 600.0;
  cfg.road.jitter = 160.0;
  cfg.road.seed = 202;
  return cfg;
}

TrajectoryDataset GeneratePortoLike(const GeneratorConfig& cfg) {
  return GenerateCorpus("PortoLike", cfg);
}

TrajectoryDataset GenerateGeolifeLike(const GeneratorConfig& cfg) {
  return GenerateCorpus("GeolifeLike", cfg);
}

}  // namespace neutraj
