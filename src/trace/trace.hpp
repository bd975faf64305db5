// migopt::trace — the trace model for large multi-tenant replays.
//
// A Trace is a time-ordered stream of cluster-level events: job arrivals
// (which tenant submitted which workload, how much solo GPU time it wants,
// at what priority/deadline) and cluster power-budget changes (the
// datacenter handing the GPU partition a new cap-sum contract). Traces are
// plain data — they can be generated synthetically (generator.hpp), saved
// and loaded as CSV or JSON, and replayed deterministically through the
// scheduler stack (sim_engine.hpp).
//
// A TraceEvent is 96 bytes: the time, the two strings, then the numbers,
// with the one-byte kind packed beside the priority. An arrival's
// work_seconds and a budget event's budget_watts share one slot, so read
// either only after checking `kind`. The CSV form keeps both columns and
// writes 0 in the one the kind does not use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/json.hpp"

namespace migopt::trace {

enum class EventKind : std::uint8_t { JobArrival, PowerBudget };

struct TraceEvent {
  double time_seconds = 0.0;

  // JobArrival fields.
  std::string tenant;            ///< accounting key for per-tenant metrics
  std::string app;               ///< workload-registry name (profile key)
  union {
    double work_seconds = 0.0;   ///< JobArrival: solo full-chip GPU seconds
    double budget_watts;         ///< PowerBudget: <= 0 lifts the budget
  };
  double deadline_seconds = 0.0; ///< relative to arrival; 0 = none
  int priority = 0;              ///< higher dispatches first (FIFO tie-break)

  EventKind kind = EventKind::JobArrival;

  static TraceEvent arrival(double time_seconds, std::string tenant,
                            std::string app, double work_seconds,
                            int priority = 0, double deadline_seconds = 0.0);
  static TraceEvent budget(double time_seconds, double budget_watts);

  /// Field sanity (finite non-negative time, arrival has app + positive
  /// work, ...); throws ContractViolation.
  void validate() const;
  /// validate() plus the time order against the preceding event's time
  /// (0 for the first event): Trace::validate's check of one event, for
  /// walks that visit the trace in pieces (FleetEngine::plan's chunked
  /// pre-pass) and must fail with the same message.
  void validate_after(double previous_time_seconds) const;
};

static_assert(sizeof(TraceEvent) == 96,
              "TraceEvent packs to two strings and four 8-byte slots");

struct Trace {
  /// Events in non-decreasing time_seconds order (validate() enforces it;
  /// equal-time order is meaningful and preserved by every round-trip).
  std::vector<TraceEvent> events;

  std::size_t job_count() const noexcept;
  std::size_t budget_event_count() const noexcept;
  /// Time of the last event (0 for an empty trace).
  double horizon_seconds() const noexcept;
  void validate() const;

  /// Stable time-ordered merge (compose e.g. arrivals with a budget walk).
  static Trace merge(const Trace& a, const Trace& b);

  // CSV round-trip: header `kind,time_s,tenant,app,work_s,priority,
  // deadline_s,budget_w`, one row per event.
  CsvDocument to_csv() const;
  static Trace from_csv(const CsvDocument& document);
  void save_csv(const std::string& path) const;
  static Trace load_csv(const std::string& path);

  // JSON round-trip: `{"schema": "migopt-trace-v1", "events": [...]}`.
  json::Value to_json() const;
  static Trace from_json(const json::Value& document);
  void save_json(const std::string& path) const;
  static Trace load_json(const std::string& path);
};

}  // namespace migopt::trace
