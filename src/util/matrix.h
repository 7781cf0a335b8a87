// Small dense linear algebra: a row-major Matrix and a Cholesky solver for
// symmetric positive definite systems.
//
// Sized for the model-fitting workloads in this library (normal equations
// with tens of unknowns); no BLAS, no SIMD heroics, just cache-friendly loops.

#ifndef TRENDSPEED_UTIL_MATRIX_H_
#define TRENDSPEED_UTIL_MATRIX_H_

#include <cstddef>
#include <vector>

#include "util/logging.h"
#include "util/status.h"

namespace trendspeed {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    TS_CHECK_LT(r, rows_);
    TS_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    TS_CHECK_LT(r, rows_);
    TS_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  const std::vector<double>& data() const { return data_; }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Solves A x = b for symmetric positive definite A via Cholesky (in-place
/// copy). Fails with InvalidArgument on shape mismatch and FailedPrecondition
/// when A is not positive definite.
Result<std::vector<double>> CholeskySolve(const Matrix& a,
                                          const std::vector<double>& b);

}  // namespace trendspeed

#endif  // TRENDSPEED_UTIL_MATRIX_H_
