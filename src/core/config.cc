#include "core/config.h"

#include <cmath>

namespace trendspeed {

Status PipelineConfig::Validate() const {
  if (corr.min_same_prob < 0.5 || corr.min_same_prob >= 1.0) {
    return Status::InvalidArgument("corr.min_same_prob must be in [0.5, 1)");
  }
  if (corr.max_hops == 0) {
    return Status::InvalidArgument("corr.max_hops must be positive");
  }
  if (influence.max_hops == 0) {
    return Status::InvalidArgument("influence.max_hops must be positive");
  }
  if (influence.min_influence <= 0.0 || influence.min_influence >= 1.0) {
    return Status::InvalidArgument("influence.min_influence must be in (0,1)");
  }
  if (propagation.max_layers == 0) {
    return Status::InvalidArgument("propagation.max_layers must be positive");
  }
  if (!(speed.ridge_lambda > 0.0)) {  // also rejects NaN
    return Status::InvalidArgument("speed.ridge_lambda must be > 0");
  }
  if (!std::isfinite(propagation.spatial_discount)) {
    return Status::InvalidArgument("propagation.spatial_discount must be finite");
  }
  // `!(…)` checks also reject NaN, which fails every comparison.
  if (!(trend.bp.damping >= 0.0 && trend.bp.damping < 1.0)) {
    return Status::InvalidArgument("trend.bp.damping must be in [0, 1)");
  }
  if (!(trend.edge_compat_power > 0.0) ||
      !std::isfinite(trend.edge_compat_power)) {
    return Status::InvalidArgument(
        "trend.edge_compat_power must be finite and > 0");
  }
  if (!(trend.prior_pseudo_count >= 0.0) ||
      !std::isfinite(trend.prior_pseudo_count)) {
    return Status::InvalidArgument(
        "trend.prior_pseudo_count must be finite and >= 0");
  }
  // BP runs exactly max_iters sweeps a slot; over 1,000 is a corrupt file.
  if (trend.bp.max_iters == 0 || trend.bp.max_iters > 1000) {
    return Status::InvalidArgument("trend.bp.max_iters must be in [1, 1000]");
  }
  // Backfill knobs: a hop count beyond any plausible network diameter is a
  // units mistake, and `!(a > b)` style keeps NaN-poisoned damping invalid.
  constexpr uint32_t kMaxBackfillHops = 64;
  if (evidence_backfill_hops > kMaxBackfillHops) {
    return Status::InvalidArgument(
        "evidence_backfill_hops implausibly large");
  }
  if (!(evidence_backfill_damping > 0.0) ||
      !(evidence_backfill_damping <= 1.0)) {
    return Status::InvalidArgument(
        "evidence_backfill_damping must be in (0, 1]");
  }
  // Parallel knobs: 0 means "auto"; explicit values beyond any plausible
  // machine are almost certainly a units mistake, not a 5000-core box.
  constexpr uint32_t kMaxThreads = 4096;
  if (trend.bp.num_threads > kMaxThreads) {
    return Status::InvalidArgument("trend.bp.num_threads implausibly large");
  }
  if (seed_selection.num_threads > kMaxThreads) {
    return Status::InvalidArgument(
        "seed_selection.num_threads implausibly large");
  }
  return Status::OK();
}

}  // namespace trendspeed
