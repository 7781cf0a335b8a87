// Latency SLO engine over per-slot critical-path decompositions.
//
// Each served slot yields one SlotCriticalPath (obs/flight.h); the engine
// folds it into per-stage rolling windows and drives, per stage with a
// declared budget:
//
//   * exact rolling p50/p95/p99 gauges (sorted-copy quantiles over the last
//     window_slots observations — exact, not histogram-interpolated, so the
//     goldens are byte-stable);
//   * a multi-window burn-rate state machine. The burn rate over the last k
//     slots is (fraction of slots over budget) / error_budget; the state is
//
//       breach  when short- AND long-window burn >= breach_burn_rate
//       warn    when short- AND long-window burn >= warn_burn_rate
//       ok      when the short-window burn drops below warn_burn_rate
//       (otherwise the previous state holds — hysteresis while the long
//        window is still hot but the short window is cooling)
//
//     Windows shorter than their nominal size (start-up) use every
//     observation so far, so the machine is deterministic from slot 1.
//
// On an ok->breach transition — or whenever the serving layer reports a
// degradation counter firing (NoteDegradation) — the engine dumps the
// always-on flight-recorder ring as a deterministic JSON artifact
// ({"reason":...,"slot":...,"trace":<Chrome trace JSON>}), capped at
// max_dumps per engine and optionally mirrored to dump_dir.
//
// Windows are slot-count driven, not wall-clock driven: the engine needs no
// clock of its own, which keeps every test a pure function of the fed
// latencies. Single-threaded consumer contract: ObserveSlot/NoteDegradation
// are called from the serving thread only (same thread that runs Ingest);
// accessors are safe from that thread.

#ifndef TRENDSPEED_OBS_SLO_H_
#define TRENDSPEED_OBS_SLO_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight.h"

namespace trendspeed {
namespace obs {

class Counter;
class Gauge;
class MetricsRegistry;

/// Stages with independently budgetable latency. kTotal is the end-to-end
/// slot latency (queue-wait + Ingest envelope); the rest are the
/// critical-path components from SlotCriticalPath.
enum class SloStage : uint8_t {
  kTotal = 0,
  kQueueWait,
  kAdmission,
  kBp,
  kPublish,
};
constexpr size_t kNumSloStages = 5;

/// Stable lower_snake_case stage name, also the `stage` label value on the
/// trendspeed_slo_* gauges ("total", "queue_wait", ...).
const char* SloStageName(SloStage stage);

enum class SloState : uint8_t { kOk = 0, kWarn = 1, kBreach = 2 };
const char* SloStateName(SloState state);

/// Declared in ObservabilityOptions::slo and validated with the pipeline
/// config. A budget of 0 leaves that stage untracked (quantile gauges still
/// update); the engine is enabled iff any budget is positive.
struct SloOptions {
  double total_budget_ms = 0.0;
  double queue_wait_budget_ms = 0.0;
  double admission_budget_ms = 0.0;
  double bp_budget_ms = 0.0;
  double publish_budget_ms = 0.0;

  /// Rolling window for the quantile gauges (and the upper bound for the
  /// burn-rate windows below).
  uint32_t window_slots = 128;
  uint32_t short_window_slots = 8;
  uint32_t long_window_slots = 64;

  /// Fraction of slots allowed over budget at burn rate 1.0.
  double error_budget = 0.05;
  double warn_burn_rate = 1.0;
  double breach_burn_rate = 4.0;

  /// Flight-ring dump artifacts retained per engine (breaches past the cap
  /// still count and still flip state; they just stop dumping).
  size_t max_dumps = 4;
  /// When non-empty, each dump is also written to
  /// `<dump_dir>/slo_dump_<n>.json` (write errors are ignored — dumping is
  /// diagnostics, never a serving failure).
  std::string dump_dir;

  bool enabled() const {
    return total_budget_ms > 0.0 || queue_wait_budget_ms > 0.0 ||
           admission_budget_ms > 0.0 || bp_budget_ms > 0.0 ||
           publish_budget_ms > 0.0;
  }
  double BudgetMs(SloStage stage) const;

  /// Static English reason the options are invalid, or nullptr when valid.
  /// (obs is the bottom layer and cannot return util/status.h Status; the
  /// config layer wraps this into Status::InvalidArgument.)
  const char* Invalid() const;
};

class SloEngine {
 public:
  /// `flight` may be null (dumps then carry an empty trace); options must
  /// satisfy Invalid() == nullptr.
  SloEngine(const SloOptions& options, const FlightRecorder* flight);

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// Mirrors state/quantiles/breach counts into the registry
  /// (trendspeed_slo_*). Call before the first ObserveSlot; null detaches.
  void AttachMetrics(MetricsRegistry* registry);

  /// Folds one served slot's decomposition into every stage window and
  /// advances the burn-rate machine. Dumps the flight ring on an
  /// into-breach transition.
  void ObserveSlot(const SlotCriticalPath& cp);

  /// Serving-layer degradation hook (out-of-order slot, rejected batch,
  /// estimation failure, carry-forward): dumps the flight ring immediately
  /// with reason "degradation:<reason>", independent of latency state.
  void NoteDegradation(const char* reason, uint64_t slot);

  SloState state(SloStage stage) const;
  /// Exact q-quantile (0 < q <= 1) over the stage's current window; 0 when
  /// nothing observed yet.
  double QuantileMs(SloStage stage, double q) const;
  /// Burn rate over the last min(k, observed) slots for a budgeted stage;
  /// 0 for unbudgeted stages.
  double BurnRate(SloStage stage, uint32_t k) const;

  uint64_t slots_observed() const { return slots_observed_; }
  uint64_t breaches() const { return breaches_; }

  struct Dump {
    std::string reason;
    uint64_t slot = 0;
    std::string json;
  };
  const std::vector<Dump>& dumps() const { return dumps_; }

  const SloOptions& options() const { return opts_; }

 private:
  struct StageTrack {
    std::vector<double> window;  // circular, indexed by slots_observed_
    SloState state = SloState::kOk;
    Gauge* g_state = nullptr;
    Gauge* g_p50 = nullptr;
    Gauge* g_p95 = nullptr;
    Gauge* g_p99 = nullptr;
  };

  size_t WindowFill() const;
  void DumpRing(const std::string& reason, uint64_t slot);

  const SloOptions opts_;
  const FlightRecorder* flight_;
  std::array<StageTrack, kNumSloStages> tracks_;
  uint64_t slots_observed_ = 0;
  uint64_t breaches_ = 0;
  std::vector<Dump> dumps_;
  Counter* m_breaches_ = nullptr;
  Counter* m_dumps_ = nullptr;
};

}  // namespace obs
}  // namespace trendspeed

#endif  // TRENDSPEED_OBS_SLO_H_
