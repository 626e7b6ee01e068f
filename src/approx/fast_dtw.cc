#include "approx/fast_dtw.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace neutraj {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Halves a trajectory's resolution by averaging adjacent point pairs.
Trajectory Coarsen(const Trajectory& t) {
  Trajectory out;
  for (size_t i = 0; i + 1 < t.size(); i += 2) {
    out.Append(Point((t[i].x + t[i + 1].x) / 2.0, (t[i].y + t[i + 1].y) / 2.0));
  }
  if (t.size() % 2 == 1) out.Append(t[t.size() - 1]);
  return out;
}

/// Projects a low-resolution warp path to the next resolution and expands it
/// by `radius` cells in every direction, producing per-row column ranges.
std::vector<std::pair<size_t, size_t>> ExpandWindow(const WarpPath& low_path,
                                                    size_t n, size_t m,
                                                    int radius) {
  const int64_t in = static_cast<int64_t>(n);
  const int64_t im = static_cast<int64_t>(m);
  std::vector<std::pair<int64_t, int64_t>> range(
      n, {std::numeric_limits<int64_t>::max(),
          std::numeric_limits<int64_t>::min()});
  auto mark = [&](int64_t i, int64_t lo, int64_t hi) {
    if (i < 0 || i >= in) return;
    std::pair<int64_t, int64_t>& r = range[static_cast<size_t>(i)];
    r.first = std::min(r.first, lo);
    r.second = std::max(r.second, hi);
  };
  for (const auto& [li, lj] : low_path) {
    // Each low-res cell (li, lj) covers rows {2li, 2li+1} and
    // columns {2lj, 2lj+1} at the finer resolution.
    const int64_t i0 = static_cast<int64_t>(2 * li);
    const int64_t j0 = static_cast<int64_t>(2 * lj);
    for (int64_t di = -radius; di <= 1 + radius; ++di) {
      mark(i0 + di, j0 - radius, j0 + 1 + radius);
    }
  }
  std::vector<std::pair<size_t, size_t>> window(n);
  int64_t prev_hi = 0;
  for (size_t i = 0; i < n; ++i) {
    int64_t lo = range[i].first;
    int64_t hi = range[i].second;
    if (lo > hi) {  // Row not covered (short low-res path); bridge it.
      lo = prev_hi;
      hi = prev_hi;
    }
    lo = std::clamp<int64_t>(lo, 0, im - 1);
    hi = std::clamp<int64_t>(hi, 0, im - 1);
    // Keep the window column-monotone so the DP recurrence stays connected.
    lo = std::min(lo, prev_hi);
    window[i] = {static_cast<size_t>(lo), static_cast<size_t>(hi)};
    prev_hi = hi;
  }
  window[0].first = 0;
  window[n - 1].second = static_cast<size_t>(im - 1);
  return window;
}

}  // namespace

DtwResult WindowedDtw(const Trajectory& a, const Trajectory& b,
                      const std::vector<std::pair<size_t, size_t>>& window) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) throw std::invalid_argument("WindowedDtw: empty input");
  if (window.size() != n) {
    throw std::invalid_argument("WindowedDtw: window rows != |a|");
  }
  // Full DP table (windowed rows only are finite); needed for path recovery.
  std::vector<double> dp(n * m, kInf);
  auto at = [&](size_t i, size_t j) -> double& { return dp[i * m + j]; };
  for (size_t i = 0; i < n; ++i) {
    const auto [lo, hi] = window[i];
    if (lo > hi || hi >= m) throw std::invalid_argument("WindowedDtw: bad window");
    for (size_t j = lo; j <= hi; ++j) {
      const double cost = EuclideanDistance(a[i], b[j]);
      double best;
      if (i == 0 && j == 0) {
        best = 0.0;
      } else {
        best = kInf;
        if (i > 0) best = std::min(best, at(i - 1, j));
        if (j > 0) best = std::min(best, at(i, j - 1));
        if (i > 0 && j > 0) best = std::min(best, at(i - 1, j - 1));
      }
      at(i, j) = cost + best;
    }
  }
  DtwResult result;
  result.distance = at(n - 1, m - 1);
  // Path recovery by greedy backtracking over the three predecessors.
  size_t i = n - 1, j = m - 1;
  result.path.emplace_back(i, j);
  while (i > 0 || j > 0) {
    double best = kInf;
    size_t bi = i, bj = j;
    if (i > 0 && j > 0 && at(i - 1, j - 1) < best) {
      best = at(i - 1, j - 1);
      bi = i - 1;
      bj = j - 1;
    }
    if (i > 0 && at(i - 1, j) < best) {
      best = at(i - 1, j);
      bi = i - 1;
      bj = j;
    }
    if (j > 0 && at(i, j - 1) < best) {
      bi = i;
      bj = j - 1;
    }
    i = bi;
    j = bj;
    result.path.emplace_back(i, j);
  }
  std::reverse(result.path.begin(), result.path.end());
  return result;
}

DtwResult DtwWithPath(const Trajectory& a, const Trajectory& b) {
  std::vector<std::pair<size_t, size_t>> full(a.size(), {0, b.size() - 1});
  return WindowedDtw(a, b, full);
}

namespace {

DtwResult FastDtwRecursive(const Trajectory& a, const Trajectory& b, int radius) {
  const size_t min_size = static_cast<size_t>(radius) + 2;
  if (a.size() <= min_size || b.size() <= min_size) {
    return DtwWithPath(a, b);
  }
  const Trajectory ca = Coarsen(a);
  const Trajectory cb = Coarsen(b);
  const DtwResult low = FastDtwRecursive(ca, cb, radius);
  const auto window = ExpandWindow(low.path, a.size(), b.size(), radius);
  return WindowedDtw(a, b, window);
}

}  // namespace

double FastDtwDistance(const Trajectory& a, const Trajectory& b, int radius) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("FastDtwDistance: empty input");
  }
  if (radius < 0) throw std::invalid_argument("FastDtwDistance: radius < 0");
  return FastDtwRecursive(a, b, radius).distance;
}

double BandedDtwDistance(const Trajectory& a, const Trajectory& b,
                         double band_fraction) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("BandedDtwDistance: empty input");
  }
  if (band_fraction < 0.0 || band_fraction > 1.0) {
    throw std::invalid_argument("BandedDtwDistance: band_fraction not in [0,1]");
  }
  const size_t n = a.size();
  const size_t m = b.size();
  // Band half-width in columns, slope-adjusted so the diagonal from (0,0)
  // to (n-1, m-1) is always inside the window.
  const int64_t band = std::max<int64_t>(
      1, static_cast<int64_t>(band_fraction * static_cast<double>(std::min(n, m))));
  std::vector<std::pair<size_t, size_t>> window(n);
  int64_t prev_hi = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t center = n > 1 ? static_cast<int64_t>(
                                       i * (m - 1) / (n - 1))
                                 : 0;
    int64_t lo = std::clamp<int64_t>(center - band, 0,
                                     static_cast<int64_t>(m) - 1);
    const int64_t hi = std::clamp<int64_t>(center + band, 0,
                                           static_cast<int64_t>(m) - 1);
    lo = std::min(lo, prev_hi);  // Keep the window connected between rows.
    window[i] = {static_cast<size_t>(lo), static_cast<size_t>(hi)};
    prev_hi = hi;
  }
  window[0].first = 0;
  window[n - 1].second = m - 1;
  return WindowedDtw(a, b, window).distance;
}

}  // namespace neutraj
