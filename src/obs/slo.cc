#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "obs/catalog.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"

namespace trendspeed {
namespace obs {

const char* SloStageName(SloStage stage) {
  switch (stage) {
    case SloStage::kTotal:
      return "total";
    case SloStage::kQueueWait:
      return "queue_wait";
    case SloStage::kAdmission:
      return "admission";
    case SloStage::kBp:
      return "bp";
    case SloStage::kPublish:
      return "publish";
  }
  return "unknown";
}

const char* SloStateName(SloState state) {
  switch (state) {
    case SloState::kOk:
      return "ok";
    case SloState::kWarn:
      return "warn";
    case SloState::kBreach:
      return "breach";
  }
  return "unknown";
}

double SloOptions::BudgetMs(SloStage stage) const {
  switch (stage) {
    case SloStage::kTotal:
      return total_budget_ms;
    case SloStage::kQueueWait:
      return queue_wait_budget_ms;
    case SloStage::kAdmission:
      return admission_budget_ms;
    case SloStage::kBp:
      return bp_budget_ms;
    case SloStage::kPublish:
      return publish_budget_ms;
  }
  return 0.0;
}

const char* SloOptions::Invalid() const {
  for (size_t i = 0; i < kNumSloStages; ++i) {
    double b = BudgetMs(static_cast<SloStage>(i));
    if (!(b >= 0.0) || !std::isfinite(b)) {
      return "slo stage budgets must be finite and >= 0 ms";
    }
  }
  if (window_slots == 0) return "slo window_slots must be >= 1";
  if (short_window_slots == 0) return "slo short_window_slots must be >= 1";
  if (short_window_slots > long_window_slots) {
    return "slo short_window_slots must be <= long_window_slots";
  }
  if (long_window_slots > window_slots) {
    return "slo long_window_slots must be <= window_slots";
  }
  if (!(error_budget > 0.0) || !(error_budget <= 1.0)) {
    return "slo error_budget must be in (0, 1]";
  }
  if (!(warn_burn_rate > 0.0) || !std::isfinite(warn_burn_rate)) {
    return "slo warn_burn_rate must be finite and > 0";
  }
  if (!(breach_burn_rate >= warn_burn_rate) ||
      !std::isfinite(breach_burn_rate)) {
    return "slo breach_burn_rate must be finite and >= warn_burn_rate";
  }
  return nullptr;
}

SloEngine::SloEngine(const SloOptions& options, const FlightRecorder* flight)
    : opts_(options), flight_(flight) {
  for (StageTrack& t : tracks_) t.window.assign(opts_.window_slots, 0.0);
}

void SloEngine::AttachMetrics(MetricsRegistry* registry) {
  m_breaches_ = GetCounter(registry, kSloBreachesTotal);
  m_dumps_ = GetCounter(registry, kSloDumpsTotal);
  for (size_t i = 0; i < kNumSloStages; ++i) {
    StageTrack& t = tracks_[i];
    t.g_state = GetGauge(registry, kSloStageState[i]);
    t.g_p50 = GetGauge(registry, kSloStageP50Ms[i]);
    t.g_p95 = GetGauge(registry, kSloStageP95Ms[i]);
    t.g_p99 = GetGauge(registry, kSloStageP99Ms[i]);
  }
}

size_t SloEngine::WindowFill() const {
  return static_cast<size_t>(
      std::min<uint64_t>(slots_observed_, opts_.window_slots));
}

double SloEngine::QuantileMs(SloStage stage, double q) const {
  size_t n = WindowFill();
  if (n == 0) return 0.0;
  const std::vector<double>& w = tracks_[static_cast<size_t>(stage)].window;
  std::vector<double> sorted(w.begin(), w.begin() + static_cast<long>(n));
  std::sort(sorted.begin(), sorted.end());
  // Exact order statistic: the smallest x with at least ceil(q*n) samples
  // <= x. Deterministic, no interpolation.
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  return sorted[rank - 1];
}

double SloEngine::BurnRate(SloStage stage, uint32_t k) const {
  double budget = opts_.BudgetMs(stage);
  if (budget <= 0.0) return 0.0;
  size_t n = std::min<size_t>(WindowFill(), k);
  if (n == 0) return 0.0;
  const std::vector<double>& w = tracks_[static_cast<size_t>(stage)].window;
  size_t over = 0;
  for (size_t i = 0; i < n; ++i) {
    // Walk backwards from the most recent observation.
    size_t idx = static_cast<size_t>((slots_observed_ - 1 - i) %
                                     opts_.window_slots);
    if (w[idx] > budget) ++over;
  }
  double frac = static_cast<double>(over) / static_cast<double>(n);
  return frac / opts_.error_budget;
}

void SloEngine::ObserveSlot(const SlotCriticalPath& cp) {
  const double vals[kNumSloStages] = {
      NanosToMillis(cp.total_ns), NanosToMillis(cp.queue_wait_ns),
      NanosToMillis(cp.admission_ns), NanosToMillis(cp.bp_ns),
      NanosToMillis(cp.publish_ns)};
  size_t write_idx =
      static_cast<size_t>(slots_observed_ % opts_.window_slots);
  ++slots_observed_;
  bool entered_breach = false;
  SloStage breach_stage = SloStage::kTotal;
  for (size_t i = 0; i < kNumSloStages; ++i) {
    SloStage stage = static_cast<SloStage>(i);
    StageTrack& t = tracks_[i];
    t.window[write_idx] = vals[i];
    Set(t.g_p50, QuantileMs(stage, 0.50));
    Set(t.g_p95, QuantileMs(stage, 0.95));
    Set(t.g_p99, QuantileMs(stage, 0.99));
    if (opts_.BudgetMs(stage) <= 0.0) continue;
    double short_burn = BurnRate(stage, opts_.short_window_slots);
    double long_burn = BurnRate(stage, opts_.long_window_slots);
    SloState next = t.state;
    if (short_burn >= opts_.breach_burn_rate &&
        long_burn >= opts_.breach_burn_rate) {
      next = SloState::kBreach;
    } else if (short_burn >= opts_.warn_burn_rate &&
               long_burn >= opts_.warn_burn_rate) {
      next = SloState::kWarn;
    } else if (short_burn < opts_.warn_burn_rate) {
      next = SloState::kOk;
    }  // else: short window hot, long window cool — hold the previous state
    if (next == SloState::kBreach && t.state != SloState::kBreach) {
      ++breaches_;
      Add(m_breaches_);
      if (!entered_breach) {
        entered_breach = true;
        breach_stage = stage;
      }
    }
    t.state = next;
    Set(t.g_state, static_cast<double>(next));
  }
  if (entered_breach) {
    DumpRing(std::string("breach:") + SloStageName(breach_stage), cp.slot);
  }
}

void SloEngine::NoteDegradation(const char* reason, uint64_t slot) {
  DumpRing(std::string("degradation:") +
               (reason != nullptr ? reason : "unknown"),
           slot);
}

void SloEngine::DumpRing(const std::string& reason, uint64_t slot) {
  if (dumps_.size() >= opts_.max_dumps) return;
  // A slot that both degrades and breaches would otherwise burn two of the
  // max_dumps quota on near-identical ring contents.
  if (!dumps_.empty() && dumps_.back().slot == slot &&
      dumps_.back().reason == reason) {
    return;
  }
  Dump d;
  d.reason = reason;
  d.slot = slot;
  std::string trace =
      flight_ != nullptr
          ? ToChromeTraceJson(*flight_)
          : std::string("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
  d.json = "{\"reason\":\"" + reason + "\",\"slot\":" + std::to_string(slot) +
           ",\"trace\":" + trace + "}";
  if (!opts_.dump_dir.empty()) {
    std::ofstream f(opts_.dump_dir + "/slo_dump_" +
                    std::to_string(dumps_.size()) + ".json");
    if (f.good()) f << d.json << "\n";
  }
  dumps_.push_back(std::move(d));
  Add(m_dumps_);
}

SloState SloEngine::state(SloStage stage) const {
  return tracks_[static_cast<size_t>(stage)].state;
}

}  // namespace obs
}  // namespace trendspeed
