// Sim-time telemetry sampler (migopt::obs).
//
// Subsumes the old ad-hoc SimConfig::sample_interval_seconds series: the
// replay engine calls due()/record() at event-loop steps, so sample times
// land on event times exactly as before — the legacy {time, queue depth,
// running, cache hit rate} columns are bit-identical to the deleted path
// (pinned by tests/trace/test_obs_replay.cpp) — and each row additionally
// carries busy/idle nodes, the standing power budget, cumulative
// dispatched-vs-completed counts, the RunMemo hit rate, and the per-tenant
// backlog (submitted - completed, by tenant id).
//
// Everything recorded is simulation-derived, so the series is deterministic
// for a given trace regardless of host, thread count, or wall clock. The
// finished series (SampleSeries) emits as a schema-v1 JSON object or as CSV.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace migopt::obs {

struct SamplerConfig {
  /// > 0: sample roughly every this many simulated seconds (at event-loop
  /// steps). 0 disables the sampler entirely.
  double interval_seconds = 0.0;
};

/// One telemetry snapshot. All cumulative fields count since replay start.
struct SampleRow {
  double time_seconds = 0.0;
  std::uint64_t queue_depth = 0;
  std::uint64_t running = 0;       ///< running jobs
  std::uint64_t busy_nodes = 0;
  std::uint64_t idle_nodes = 0;
  /// Standing power budget in watts; < 0 means unconstrained (no contract).
  double budget_watts = -1.0;
  std::uint64_t dispatched = 0;    ///< cumulative dispatch events
  std::uint64_t completed = 0;     ///< cumulative completed jobs
  double cache_hit_rate = 0.0;     ///< decision table, cumulative this replay
  double memo_hit_rate = 0.0;      ///< RunMemo, cumulative this replay
  /// Outstanding jobs per tenant id at sample time (submitted - completed).
  /// Tenant ids are interned on first arrival, so early rows are shorter
  /// than late ones; emission pads with zeros to the final tenant count.
  std::vector<std::uint64_t> tenant_backlog;
};

/// The finished series: rows plus the tenant-name column order.
struct SampleSeries {
  double interval_seconds = 0.0;
  std::vector<std::string> tenants;  ///< by tenant id (backlog column order)
  std::vector<SampleRow> rows;

  bool empty() const noexcept { return rows.empty(); }

  /// {"label": ..., "interval_seconds": ..., "tenants": [...],
  ///  "columns": [...], "rows": [[...], ...]} — fixed column order, tenant
  ///  backlog padded to tenants.size(). Deterministic.
  json::Value to_json(std::string_view label) const;

  /// CSV with a header row; one column per scalar plus one
  /// `backlog:<tenant>` column per tenant. `label` prefixes every data row
  /// (first column) so multi-cluster series can share one file.
  std::string to_csv(std::string_view label) const;
};

/// The collector the replay engine drives. Cheap when disabled: due()
/// is one comparison against +inf.
class Sampler {
 public:
  Sampler() = default;
  explicit Sampler(SamplerConfig config);

  bool enabled() const noexcept { return interval_ > 0.0; }
  /// True when the clock has reached the next sample time.
  bool due(double now) const noexcept { return now >= next_; }

  /// Record one snapshot and re-arm at now + interval (the legacy series'
  /// exact re-arm rule). `tenant_backlog` is copied into the row.
  void record(SampleRow row) {
    series_.rows.push_back(std::move(row));
    next_ = series_.rows.back().time_seconds + interval_;
  }

  void reserve(std::size_t rows) { series_.rows.reserve(rows); }

  /// Finish the series: attach the tenant-name column order and hand the
  /// accumulated rows over. The sampler is spent afterwards.
  SampleSeries finish(std::vector<std::string> tenants) {
    series_.tenants = std::move(tenants);
    return std::move(series_);
  }

 private:
  double interval_ = 0.0;
  double next_ = std::numeric_limits<double>::infinity();
  SampleSeries series_;
};

}  // namespace migopt::obs
