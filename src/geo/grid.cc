#include "geo/grid.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace neutraj {

Grid::Grid(const BoundingBox& region, double cell_size) : region_(region) {
  if (region.IsEmpty()) throw std::invalid_argument("Grid: empty region");
  if (cell_size <= 0.0) throw std::invalid_argument("Grid: cell_size <= 0");
  num_cols_ = std::max<int32_t>(
      1, static_cast<int32_t>(std::ceil(region.Width() / cell_size)));
  num_rows_ = std::max<int32_t>(
      1, static_cast<int32_t>(std::ceil(region.Height() / cell_size)));
  cell_w_ = region.Width() > 0 ? region.Width() / num_cols_ : cell_size;
  cell_h_ = region.Height() > 0 ? region.Height() / num_rows_ : cell_size;
}

Grid::Grid(const BoundingBox& region, int32_t num_cols, int32_t num_rows)
    : region_(region), num_cols_(num_cols), num_rows_(num_rows) {
  if (region.IsEmpty()) throw std::invalid_argument("Grid: empty region");
  if (num_cols <= 0 || num_rows <= 0) {
    throw std::invalid_argument("Grid: non-positive cell counts");
  }
  cell_w_ = region.Width() > 0 ? region.Width() / num_cols_ : 1.0;
  cell_h_ = region.Height() > 0 ? region.Height() / num_rows_ : 1.0;
}

GridCell Grid::CellOf(const Point& p) const {
  // Clamp in floating point, then truncate: a far-out coordinate (1e300)
  // must not reach an integer cast it would overflow. NaN maps to 0.
  auto cell = [](double v, int32_t count) {
    const double hi = static_cast<double>(count - 1);
    return static_cast<int32_t>(v > 0.0 ? std::min(v, hi) : 0.0);
  };
  return GridCell{cell((p.x - region_.min_x) / cell_w_, num_cols_),
                  cell((p.y - region_.min_y) / cell_h_, num_rows_)};
}

Point Grid::CellCenter(const GridCell& c) const {
  return Point(region_.min_x + (c.px + 0.5) * cell_w_,
               region_.min_y + (c.qy + 0.5) * cell_h_);
}

GridSequence Grid::Discretize(const Trajectory& t) const {
  GridSequence seq;
  seq.reserve(t.size());
  for (const Point& p : t) seq.push_back(CellOf(p));
  return seq;
}

Point Grid::Normalize(const Point& p) const {
  const double w = region_.Width() > 0 ? region_.Width() : 1.0;
  const double h = region_.Height() > 0 ? region_.Height() : 1.0;
  return Point((p.x - region_.min_x) / w, (p.y - region_.min_y) / h);
}

std::vector<GridCell> Grid::ScanWindow(const GridCell& c, int32_t w) const {
  std::vector<GridCell> cells;
  ScanWindowInto(c, w, &cells);
  return cells;
}

void Grid::ScanWindowInto(const GridCell& c, int32_t w,
                          std::vector<GridCell>* out) const {
  const int32_t side = 2 * w + 1;
  out->clear();
  out->reserve(static_cast<size_t>(side) * side);
  for (int32_t dy = -w; dy <= w; ++dy) {
    for (int32_t dx = -w; dx <= w; ++dx) {
      GridCell g{std::clamp(c.px + dx, 0, num_cols_ - 1),
                 std::clamp(c.qy + dy, 0, num_rows_ - 1)};
      out->push_back(g);
    }
  }
}

}  // namespace neutraj
