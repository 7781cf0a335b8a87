// Trend-conditioned linear regression primitives for the speed model.
//
// All regressions live in relative-deviation space (d = v / historical_mean
// - 1) and are conditioned on the road's trend: congestion ("down") episodes
// and free-flowing ("up") episodes follow visibly different lines, which is
// why the trend step feeds the speed step.

#ifndef TRENDSPEED_SPEED_LINEAR_MODEL_H_
#define TRENDSPEED_SPEED_LINEAR_MODEL_H_

#include <cstdint>
#include <vector>

namespace trendspeed {

/// Per-trend intercept-only model: the mean deviation given the trend. Used
/// when no neighbour information is available at prediction time.
struct TrendMean {
  double mean[2] = {0.0, 0.0};
  uint32_t samples[2] = {0, 0};
  bool trained[2] = {false, false};
  /// Explicit zeroed padding: models are serialized as raw bytes, so equal
  /// models must have equal padding too.
  uint8_t padding[6] = {};

  bool any_trained() const { return trained[0] || trained[1]; }
  double PredictHard(int t) const;
  double Predict(double p_up) const {
    return (1.0 - p_up) * PredictHard(0) + p_up * PredictHard(1);
  }
};

/// Weight-aware affine trend model:
///     d = a + c*t + (b0 + b1 * min(w, kWeightCap)) * x
/// The effective slope grows with the influence weight backing x: a
/// weakly-supported summary is shrunk hard, a strongly-supported one passes
/// nearly through. Calibrated by training on randomly sparsified neighbour
/// sets so every weight regime is represented.
struct WeightedTrendModel {
  static constexpr double kWeightCap = 2.0;

  double a = 0.0;
  double c = 0.0;
  double b0 = 1.0;
  double b1 = 0.0;
  uint32_t samples = 0;
  bool trained = false;
  /// Explicit zeroed padding (see TrendMean::padding).
  uint8_t padding[3] = {};

  double SlopeAt(double w) const {
    double wc = w < kWeightCap ? w : kWeightCap;
    return b0 + b1 * wc;
  }
  /// Blends the trend shift by the posterior P(up).
  double Predict(double x, double w, double p_up) const {
    double t = 2.0 * p_up - 1.0;
    if (!trained) return x;  // pass-through fallback
    return a + c * t + SlopeAt(w) * x;
  }
};

/// Sufficient statistics of the trend-conditioned regressions over a set of
/// samples (x = neighbour-summary deviation, y = own deviation, t = own
/// trend index, w = influence weight backing x): the upper triangle of the
/// Gram matrix of the design row (1, ±1, x, x * min(w, kWeightCap)), where
/// ±1 is -1 for down and +1 for up; X^T y; and each trend's sample count and
/// y sum. Adding samples in a fixed order reproduces the sums of the dense
/// normal equations bitwise; Merge pools the stats of disjoint sample sets.
struct TrendFitStats {
  /// Upper triangle, row-major: (0,0) (0,1) (0,2) (0,3) (1,1) ... (3,3).
  double gram[10] = {};
  double xty[4] = {};
  uint64_t count[2] = {0, 0};
  double y_sum[2] = {0.0, 0.0};

  void Add(double x, double y, int t, double w);
  void Merge(const TrendFitStats& other);
  uint64_t total() const { return count[0] + count[1]; }
};

/// Fits a WeightedTrendModel by solving the ridge normal equations
/// (X^T X + lambda I) beta = X^T y with Cholesky; lambda must be > 0. Stays
/// untrained below `min_samples` or when only one trend is present.
WeightedTrendModel FitWeightedTrendModel(const TrendFitStats& stats,
                                         double ridge_lambda,
                                         uint32_t min_samples);

/// Fits a TrendMean (per-trend average of y); a trend branch with fewer
/// than `min_samples` samples stays untrained.
TrendMean FitTrendMean(const TrendFitStats& stats, uint32_t min_samples);

/// One logistic-calibration sample: neighbour summary x and trend index t.
struct TrendPoint {
  double x = 0.0;
  int t = 0;
};

/// 1-D logistic calibration P(t = up | x) = sigmoid(bias + gamma * x),
/// fit by Newton's method. Used to convert the influence-weighted seed
/// deviation into soft trend evidence for the MRF.
struct LogisticCalibration {
  double bias = 0.0;
  double gamma = 0.0;
  bool trained = false;

  /// Log-odds of "up" given x (0 when untrained).
  double LogOdds(double x) const { return trained ? bias + gamma * x : 0.0; }
};

/// Fits the calibration over the concatenation of `chunks`, summed in order
/// (training passes one chunk per road, in road order).
LogisticCalibration FitLogistic(
    const std::vector<std::vector<TrendPoint>>& chunks,
    uint32_t min_samples = 50, uint32_t newton_iters = 12);

}  // namespace trendspeed

#endif  // TRENDSPEED_SPEED_LINEAR_MODEL_H_
