#include "util/matrix.h"

#include <cmath>

namespace trendspeed {

Result<std::vector<double>> CholeskySolve(const Matrix& a,
                                          const std::vector<double>& b) {
  size_t n = a.rows();
  if (a.cols() != n) {
    return Status::InvalidArgument("CholeskySolve: matrix not square");
  }
  if (b.size() != n) {
    return Status::InvalidArgument("CholeskySolve: rhs size mismatch");
  }
  // Lower-triangular factor L with A = L L^T, computed into a local copy.
  Matrix l = a;
  for (size_t j = 0; j < n; ++j) {
    double diag = l(j, j);
    for (size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) {
      return Status::FailedPrecondition(
          "CholeskySolve: matrix not positive definite");
    }
    double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      double v = l(i, j);
      for (size_t k = 0; k < j; ++k) v -= l(i, k) * l(j, k);
      l(i, j) = v / ljj;
    }
  }
  // Forward solve L z = b.
  std::vector<double> z(n);
  for (size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (size_t k = 0; k < i; ++k) v -= l(i, k) * z[k];
    z[i] = v / l(i, i);
  }
  // Back solve L^T x = z.
  std::vector<double> x(n);
  for (size_t ii = n; ii > 0; --ii) {
    size_t i = ii - 1;
    double v = z[i];
    for (size_t k = i + 1; k < n; ++k) v -= l(k, i) * x[k];
    x[i] = v / l(i, i);
  }
  return x;
}

}  // namespace trendspeed
