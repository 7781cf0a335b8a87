#include "util/matrix.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/random.h"

namespace trendspeed {
namespace {

Matrix FromRows(const std::vector<std::vector<double>>& rows) {
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r)
    for (size_t c = 0; c < rows[r].size(); ++c) m(r, c) = rows[r][c];
  return m;
}

TEST(MatrixTest, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(CholeskySolveTest, SolvesSpdSystem) {
  Matrix a = FromRows({{4, 1}, {1, 3}});
  auto x = CholeskySolve(a, {1.0, 2.0});
  ASSERT_TRUE(x.ok());
  // Verify A x = b.
  EXPECT_NEAR(4 * (*x)[0] + (*x)[1], 1.0, 1e-12);
  EXPECT_NEAR((*x)[0] + 3 * (*x)[1], 2.0, 1e-12);
}

TEST(CholeskySolveTest, RejectsNonSpd) {
  Matrix a = FromRows({{0, 1}, {1, 0}});
  auto x = CholeskySolve(a, {1.0, 1.0});
  EXPECT_EQ(x.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CholeskySolveTest, RejectsShapeMismatch) {
  Matrix a = FromRows({{1, 0}, {0, 1}});
  EXPECT_EQ(CholeskySolve(a, {1.0}).status().code(),
            StatusCode::kInvalidArgument);
  Matrix rect(2, 3);
  EXPECT_EQ(CholeskySolve(rect, {1.0, 1.0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CholeskySolveTest, RandomSpdSystemsSolve) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 2 + rng.NextIndex(6);
    Matrix x(n + 3, n);
    for (size_t i = 0; i < n + 3; ++i)
      for (size_t j = 0; j < n; ++j) x(i, j) = rng.Gaussian(0.0, 1.0);
    // A = X^T X + 0.5 I is positive definite.
    Matrix a(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        for (size_t r = 0; r < n + 3; ++r) a(i, j) += x(r, i) * x(r, j);
      }
      a(i, i) += 0.5;
    }
    std::vector<double> b(n);
    for (auto& v : b) v = rng.Gaussian(0.0, 1.0);
    auto sol = CholeskySolve(a, b);
    ASSERT_TRUE(sol.ok());
    for (size_t i = 0; i < n; ++i) {
      double back = 0.0;
      for (size_t j = 0; j < n; ++j) back += a(i, j) * (*sol)[j];
      EXPECT_NEAR(back, b[i], 1e-8);
    }
  }
}

}  // namespace
}  // namespace trendspeed
