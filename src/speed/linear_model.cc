#include "speed/linear_model.h"

#include <algorithm>
#include <cmath>

#include "util/matrix.h"

namespace trendspeed {

double TrendMean::PredictHard(int t) const {
  if (trained[t]) return mean[t];
  int other = 1 - t;
  if (trained[other]) return mean[other];
  return 0.0;  // no information: no deviation from the historical mean
}

void TrendFitStats::Add(double x, double y, int t, double w) {
  double row[4] = {1.0, t == 1 ? 1.0 : -1.0, x,
                   x * std::min(w, WeightedTrendModel::kWeightCap)};
  double* g = gram;
  for (int a = 0; a < 4; ++a) {
    for (int b = a; b < 4; ++b) *g++ += row[a] * row[b];
    xty[a] += row[a] * y;
  }
  ++count[t];
  y_sum[t] += y;
}

void TrendFitStats::Merge(const TrendFitStats& other) {
  for (int k = 0; k < 10; ++k) gram[k] += other.gram[k];
  for (int k = 0; k < 4; ++k) xty[k] += other.xty[k];
  for (int t = 0; t < 2; ++t) {
    count[t] += other.count[t];
    y_sum[t] += other.y_sum[t];
  }
}

WeightedTrendModel FitWeightedTrendModel(const TrendFitStats& stats,
                                         double ridge_lambda,
                                         uint32_t min_samples) {
  WeightedTrendModel model;
  model.samples = static_cast<uint32_t>(stats.total());
  if (stats.total() < min_samples || stats.count[0] == 0 ||
      stats.count[1] == 0) {
    return model;
  }
  Matrix gram(4, 4);
  const double* g = stats.gram;
  for (size_t a = 0; a < 4; ++a) {
    for (size_t b = a; b < 4; ++b) gram(a, b) = gram(b, a) = *g++;
    gram(a, a) += ridge_lambda;
  }
  auto fit = CholeskySolve(
      gram, std::vector<double>(stats.xty, stats.xty + 4));
  if (!fit.ok()) return model;
  model.a = (*fit)[0];
  model.c = (*fit)[1];
  model.b0 = (*fit)[2];
  model.b1 = (*fit)[3];
  model.trained = true;
  return model;
}

TrendMean FitTrendMean(const TrendFitStats& stats, uint32_t min_samples) {
  TrendMean out;
  for (int t = 0; t < 2; ++t) {
    out.samples[t] = static_cast<uint32_t>(stats.count[t]);
    if (out.samples[t] >= min_samples) {
      out.mean[t] = stats.y_sum[t] / out.samples[t];
      out.trained[t] = true;
    }
  }
  return out;
}

LogisticCalibration FitLogistic(
    const std::vector<std::vector<TrendPoint>>& chunks, uint32_t min_samples,
    uint32_t newton_iters) {
  LogisticCalibration cal;
  size_t n = 0;
  for (const auto& chunk : chunks) n += chunk.size();
  if (n < min_samples) return cal;
  double w0 = 0.0, w1 = 0.0;  // bias, gamma
  for (uint32_t iter = 0; iter < newton_iters; ++iter) {
    // Gradient and Hessian of the negative log likelihood (+ tiny ridge).
    double g0 = 1e-6 * w0, g1 = 1e-6 * w1;
    double h00 = 1e-6, h01 = 0.0, h11 = 1e-6;
    for (const auto& chunk : chunks) {
      for (const TrendPoint& s : chunk) {
        double z = w0 + w1 * s.x;
        double p = 1.0 / (1.0 + std::exp(-z));
        double y = s.t == 1 ? 1.0 : 0.0;
        double diff = p - y;
        g0 += diff;
        g1 += diff * s.x;
        double v = p * (1.0 - p);
        h00 += v;
        h01 += v * s.x;
        h11 += v * s.x * s.x;
      }
    }
    double det = h00 * h11 - h01 * h01;
    if (std::fabs(det) < 1e-12) break;
    double d0 = (h11 * g0 - h01 * g1) / det;
    double d1 = (h00 * g1 - h01 * g0) / det;
    w0 -= d0;
    w1 -= d1;
    if (std::fabs(d0) + std::fabs(d1) < 1e-10) break;
  }
  cal.bias = w0;
  cal.gamma = w1;
  cal.trained = true;
  return cal;
}

}  // namespace trendspeed
