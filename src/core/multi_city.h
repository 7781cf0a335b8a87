// MultiCityServer: N independent city graphs behind one process.
//
// Each city is its own ServingSession — its own estimator, slot clock,
// estimate workspace, and degradation counters — while the heavyweight
// process-wide resources are shared: every session's parallel work (BP
// sweeps, seed selection) runs on the one ThreadPool::Global(), and cities
// created with the same MetricsRegistry in their ServingOptions export
// into one scrape endpoint: one node serving several cities from one
// binary.
//
// Sessions are independent by construction — there is no cross-city
// state — so interleaving Ingest calls across cities in any order is
// equivalent to running the cities in separate processes (pinned by
// tests/multi_city_test.cc).

#ifndef TRENDSPEED_CORE_MULTI_CITY_H_
#define TRENDSPEED_CORE_MULTI_CITY_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/serving.h"
#include "util/status.h"

namespace trendspeed {

class MultiCityServer {
 public:
  struct CitySpec {
    /// Unique, non-empty routing key.
    std::string name;
    /// Must outlive the server.
    const TrafficSpeedEstimator* estimator = nullptr;
    /// Per-city serving knobs. Point several cities' observability at the
    /// same registry for one shared scrape endpoint.
    ServingOptions serving;
  };

  /// Builds one session per spec. Fails on an empty spec list, a null
  /// estimator, or a duplicate/empty city name.
  static Result<MultiCityServer> Create(const std::vector<CitySpec>& cities);

  size_t num_cities() const { return sessions_.size(); }
  const std::string& name(size_t city) const { return names_[city]; }
  /// Index for a city name; npos when unknown.
  static constexpr size_t kNotFound = static_cast<size_t>(-1);
  size_t Find(std::string_view name) const;

  ServingSession& session(size_t city) { return sessions_[city]; }
  const ServingSession& session(size_t city) const { return sessions_[city]; }

  /// Forwards one slot of observations to the named city's session; the
  /// full ServingSession::Ingest contract applies per city.
  Result<ServingSession::SlotReport> Ingest(
      std::string_view city, uint64_t slot,
      const std::vector<SeedSpeed>& observations);
  Result<ServingSession::SlotReport> Ingest(
      size_t city, uint64_t slot, const std::vector<SeedSpeed>& observations);

  /// Cumulative counters summed across every city — the process-level
  /// health view (per-city breakdowns come from session(i).stats()).
  ServingStats TotalStats() const;

 private:
  MultiCityServer() = default;

  std::vector<std::string> names_;
  std::vector<ServingSession> sessions_;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_CORE_MULTI_CITY_H_
