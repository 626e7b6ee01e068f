// Tests for the dense kernels in nn/matrix.h.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "nn/matrix.h"

namespace neutraj::nn {
namespace {

Matrix Make2x3() {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  return a;
}

TEST(MatrixTest, BasicAccessors) {
  Matrix a = Make2x3();
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_EQ(a.cols(), 3u);
  EXPECT_EQ(a.size(), 6u);
  EXPECT_DOUBLE_EQ(a(1, 2), 6);
  EXPECT_DOUBLE_EQ(a.Row(1)[0], 4);
  a.Zero();
  EXPECT_DOUBLE_EQ(a.SquaredNorm(), 0.0);
}

TEST(MatrixTest, SquaredNorm) {
  Matrix a(1, 2);
  a(0, 0) = 3;
  a(0, 1) = 4;
  EXPECT_DOUBLE_EQ(a.SquaredNorm(), 25.0);
}

TEST(MatVecTest, ComputesProduct) {
  const Matrix a = Make2x3();
  Vector y;
  MatVec(a, {1, 0, -1}, &y);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], -2);
  EXPECT_DOUBLE_EQ(y[1], -2);
}

TEST(MatVecTest, AccumAddsToExisting) {
  const Matrix a = Make2x3();
  Vector y = {10, 20};
  MatVecAccum(a, {1, 1, 1}, &y);
  EXPECT_DOUBLE_EQ(y[0], 16);
  EXPECT_DOUBLE_EQ(y[1], 35);
}

TEST(MatVecTest, ShapeMismatchThrows) {
  const Matrix a = Make2x3();
  Vector y;
  EXPECT_THROW(MatVec(a, {1, 2}, &y), std::invalid_argument);
  Vector bad(3);
  EXPECT_THROW(MatVecAccum(a, {1, 2, 3}, &bad), std::invalid_argument);
}

TEST(MatTVecTest, ComputesTransposedProduct) {
  const Matrix a = Make2x3();
  Vector y;
  MatTVec(a, {1, -1}, &y);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], -3);
  EXPECT_DOUBLE_EQ(y[1], -3);
  EXPECT_DOUBLE_EQ(y[2], -3);
}

TEST(MatTVecTest, TransposeConsistency) {
  // (A^T x) . y == x . (A y) for all x, y.
  const Matrix a = Make2x3();
  const Vector x = {0.5, -1.5};
  const Vector y = {2, 3, -1};
  Vector atx, ay;
  MatTVec(a, x, &atx);
  MatVec(a, y, &ay);
  EXPECT_NEAR(Dot(atx, y), Dot(x, ay), 1e-12);
}

TEST(OuterProductTest, RankOneUpdate) {
  Matrix a(2, 2);
  AddOuterProduct(&a, {1, 2}, {3, 4});
  EXPECT_DOUBLE_EQ(a(0, 0), 3);
  EXPECT_DOUBLE_EQ(a(0, 1), 4);
  EXPECT_DOUBLE_EQ(a(1, 0), 6);
  EXPECT_DOUBLE_EQ(a(1, 1), 8);
  AddOuterProduct(&a, {1, 0}, {1, 1});  // Accumulates.
  EXPECT_DOUBLE_EQ(a(0, 0), 4);
  EXPECT_DOUBLE_EQ(a(1, 1), 8);
}

TEST(VectorKernelsTest, AxpyHadamardDot) {
  Vector y = {1, 2};
  AxpyInPlace(2.0, {3, -1}, &y);
  EXPECT_DOUBLE_EQ(y[0], 7);
  EXPECT_DOUBLE_EQ(y[1], 0);

  Vector h;
  Hadamard({2, 3}, {4, 5}, &h);
  EXPECT_DOUBLE_EQ(h[0], 8);
  EXPECT_DOUBLE_EQ(h[1], 15);
  HadamardAccum({1, 1}, {1, 1}, &h);
  EXPECT_DOUBLE_EQ(h[0], 9);

  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_THROW(Dot({1}, {1, 2}), std::invalid_argument);
}

TEST(VectorKernelsTest, Norms) {
  EXPECT_DOUBLE_EQ(SquaredNorm({3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(L2Norm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(L2Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_THROW(L2Distance({1}, {1, 2}), std::invalid_argument);
}

TEST(SoftmaxTest, NormalizesAndOrders) {
  Vector v = {1.0, 2.0, 3.0};
  SoftmaxInPlace(&v);
  double total = 0.0;
  for (double x : v) total += x;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_LT(v[0], v[1]);
  EXPECT_LT(v[1], v[2]);
}

TEST(SoftmaxTest, StableUnderLargeInputs) {
  Vector v = {1000.0, 1000.0};
  SoftmaxInPlace(&v);
  EXPECT_NEAR(v[0], 0.5, 1e-12);
  EXPECT_NEAR(v[1], 0.5, 1e-12);
  Vector single = {-500.0};
  SoftmaxInPlace(&single);
  EXPECT_DOUBLE_EQ(single[0], 1.0);
  Vector empty;
  SoftmaxInPlace(&empty);  // Must not crash.
  EXPECT_TRUE(empty.empty());
}

// The kernels' fixed accumulation orders (nn/kernels.h): MatVecAccum sums
// each row in four column lanes, MatTVecAccum takes rows four at a time.
// They must agree with the textbook double loop to 1e-12 on every shape,
// including the remainders of the 4-wide lanes and row blocks, follow their
// documented order bit for bit, and be deterministic run to run.
class BlockedKernelTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {
 protected:
  // Deterministic pseudo-random fill, no RNG dependency.
  static double Value(size_t i) {
    return std::sin(0.7 * static_cast<double>(i) + 0.13) *
           (1.0 + 0.01 * static_cast<double>(i % 7));
  }
  static Matrix FillMatrix(size_t rows, size_t cols, size_t salt) {
    Matrix a(rows, cols);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) a(r, c) = Value(salt + r * cols + c);
    }
    return a;
  }
  static Vector FillVector(size_t n, size_t salt) {
    Vector v(n);
    for (size_t i = 0; i < n; ++i) v[i] = Value(salt + i);
    return v;
  }
};

TEST_P(BlockedKernelTest, MatVecAccumMatchesReference) {
  const auto [rows, cols] = GetParam();
  const Matrix a = FillMatrix(rows, cols, 1);
  const Vector x = FillVector(cols, 100);
  Vector y = FillVector(rows, 200);
  Vector expect = y;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) expect[r] += a(r, c) * x[c];
  }
  // The documented order: lane l sums columns c ≡ l (mod 4) of the whole
  // 4-column chunks, tail columns go to lane 0, then (l0 + l1) + (l2 + l3).
  Vector ordered = y;
  for (size_t r = 0; r < rows; ++r) {
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    const size_t whole = cols / 4 * 4;
    for (size_t c = 0; c < whole; ++c) lane[c % 4] += a(r, c) * x[c];
    for (size_t c = whole; c < cols; ++c) lane[0] += a(r, c) * x[c];
    ordered[r] += (lane[0] + lane[1]) + (lane[2] + lane[3]);
  }
  MatVecAccum(a, x, &y);
  for (size_t r = 0; r < rows; ++r) {
    EXPECT_NEAR(y[r], expect[r], 1e-12) << "row " << r;
    EXPECT_EQ(y[r], ordered[r]) << "row " << r;
  }
  // Determinism: a second run produces bit-identical output.
  Vector y2 = FillVector(rows, 200);
  MatVecAccum(a, x, &y2);
  EXPECT_EQ(y, y2);
}

TEST_P(BlockedKernelTest, MatTVecAccumMatchesReference) {
  const auto [rows, cols] = GetParam();
  const Matrix a = FillMatrix(rows, cols, 2);
  const Vector x = FillVector(rows, 300);
  Vector y = FillVector(cols, 400);
  Vector expect = y;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) expect[c] += a(r, c) * x[r];
  }
  MatTVecAccum(a, x, &y);
  for (size_t c = 0; c < cols; ++c) {
    EXPECT_NEAR(y[c], expect[c], 1e-12) << "col " << c;
  }
  Vector y2 = FillVector(cols, 400);
  MatTVecAccum(a, x, &y2);
  EXPECT_EQ(y, y2);
}

TEST_P(BlockedKernelTest, AddOuterProductMatchesReference) {
  const auto [rows, cols] = GetParam();
  Matrix a = FillMatrix(rows, cols, 3);
  const Vector u = FillVector(rows, 500);
  const Vector v = FillVector(cols, 600);
  Matrix expect = a;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) expect(r, c) += u[r] * v[c];
  }
  AddOuterProduct(&a, u, v);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      EXPECT_NEAR(a(r, c), expect(r, c), 1e-12) << r << "," << c;
    }
  }
}

TEST_P(BlockedKernelTest, ZeroInputsAreSkippedWithoutEffect) {
  const auto [rows, cols] = GetParam();
  const Matrix a = FillMatrix(rows, cols, 4);
  Vector y = FillVector(cols, 700);
  const Vector before = y;
  MatTVecAccum(a, Vector(rows, 0.0), &y);  // x == 0: y must be untouched.
  EXPECT_EQ(y, before);

  Matrix m = FillMatrix(rows, cols, 5);
  const Matrix m_before = m;
  AddOuterProduct(&m, Vector(rows, 0.0), FillVector(cols, 800));
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(m.data()[i], m_before.data()[i]);
  }
}

// Shapes straddle every remainder class of the 4-wide lanes and row blocks:
// 1..5 rows and cols, plus realistic gate sizes (4d x d with d = 12 and 13).
INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedKernelTest,
    ::testing::Values(std::make_pair<size_t, size_t>(1, 1),
                      std::make_pair<size_t, size_t>(1, 5),
                      std::make_pair<size_t, size_t>(2, 3),
                      std::make_pair<size_t, size_t>(3, 2),
                      std::make_pair<size_t, size_t>(4, 4),
                      std::make_pair<size_t, size_t>(5, 4),
                      std::make_pair<size_t, size_t>(7, 9),
                      std::make_pair<size_t, size_t>(48, 12),
                      std::make_pair<size_t, size_t>(52, 13)));

TEST(ActivationTest, SigmoidAndTanh) {
  Vector s, t;
  SigmoidInto({0.0, 100.0, -100.0}, &s);
  EXPECT_NEAR(s[0], 0.5, 1e-12);
  EXPECT_NEAR(s[1], 1.0, 1e-12);
  EXPECT_NEAR(s[2], 0.0, 1e-12);
  TanhInto({0.0, 1.0}, &t);
  EXPECT_NEAR(t[0], 0.0, 1e-12);
  EXPECT_NEAR(t[1], std::tanh(1.0), 1e-12);
}

}  // namespace
}  // namespace neutraj::nn
