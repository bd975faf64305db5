#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace migopt::trace {
namespace {

Trace sample_trace() {
  Trace trace;
  trace.events.push_back(TraceEvent::budget(0.0, 1500.0));
  trace.events.push_back(
      TraceEvent::arrival(0.5, "t0", "sgemm", 12.25, 0, 0.0));
  trace.events.push_back(
      TraceEvent::arrival(0.5, "t1", "stream", 3.875, 1, 60.5));
  trace.events.push_back(TraceEvent::budget(2.0, 0.0));  // lifts the budget
  trace.events.push_back(
      TraceEvent::arrival(7.125, "t0", "kmeans", 100.0, -2, 0.0));
  return trace;
}

void expect_equal(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    SCOPED_TRACE(i);
    const TraceEvent& x = a.events[i];
    const TraceEvent& y = b.events[i];
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.time_seconds, y.time_seconds);
    EXPECT_EQ(x.tenant, y.tenant);
    EXPECT_EQ(x.app, y.app);
    EXPECT_EQ(x.priority, y.priority);
    EXPECT_EQ(x.deadline_seconds, y.deadline_seconds);
    // The two share one field; compare the one the kind uses.
    if (x.kind == EventKind::JobArrival)
      EXPECT_EQ(x.work_seconds, y.work_seconds);
    else
      EXPECT_EQ(x.budget_watts, y.budget_watts);
  }
}

/// Self-deleting temp path so round-trip tests leave no droppings.
class TempFile {
 public:
  explicit TempFile(const char* name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Trace, CountsAndHorizon) {
  const Trace trace = sample_trace();
  EXPECT_EQ(trace.job_count(), 3u);
  EXPECT_EQ(trace.budget_event_count(), 2u);
  EXPECT_EQ(trace.horizon_seconds(), 7.125);
  EXPECT_EQ(Trace{}.horizon_seconds(), 0.0);
}

TEST(Trace, ValidateRejectsBadEvents) {
  EXPECT_THROW(TraceEvent::arrival(1.0, "t0", "", 5.0), ContractViolation);
  EXPECT_THROW(TraceEvent::arrival(1.0, "t0", "sgemm", 0.0),
               ContractViolation);
  EXPECT_THROW(TraceEvent::arrival(-1.0, "t0", "sgemm", 5.0),
               ContractViolation);
  Trace unsorted = sample_trace();
  std::swap(unsorted.events.front(), unsorted.events.back());
  EXPECT_THROW(unsorted.validate(), ContractViolation);
}

TEST(Trace, CsvRoundTripIsExact) {
  const Trace trace = sample_trace();
  const CsvDocument document = trace.to_csv();
  EXPECT_EQ(document.row_count(), trace.events.size());
  expect_equal(trace, Trace::from_csv(document));
  // And through an actual file.
  const TempFile file("trace_roundtrip.csv");
  trace.save_csv(file.path());
  expect_equal(trace, Trace::load_csv(file.path()));
}

TEST(Trace, JsonRoundTripIsExact) {
  const Trace trace = sample_trace();
  const json::Value document = trace.to_json();
  expect_equal(trace, Trace::from_json(document));
  // dump -> parse -> from_json as the file path will see it.
  expect_equal(trace, Trace::from_json(json::parse(document.dump(2))));
  const TempFile file("trace_roundtrip.json");
  trace.save_json(file.path());
  expect_equal(trace, Trace::load_json(file.path()));
}

TEST(Trace, JsonRejectsWrongSchema) {
  json::Value document = sample_trace().to_json();
  document.set("schema", "something-else");
  EXPECT_THROW(Trace::from_json(document), ContractViolation);
  EXPECT_THROW(Trace::from_json(json::Value::object()), ContractViolation);
}

TEST(Trace, CsvRejectsMissingColumnsAndBadCells) {
  CsvDocument missing({"kind", "time_s"});
  EXPECT_THROW(Trace::from_csv(missing), ContractViolation);
  CsvDocument bad_kind({"kind", "time_s", "tenant", "app", "work_s",
                        "priority", "deadline_s", "budget_w"});
  bad_kind.add_row({"nonsense", "0.0", "t", "sgemm", "5.0", "0", "0.0", "0.0"});
  EXPECT_THROW(Trace::from_csv(bad_kind), ContractViolation);
  CsvDocument bad_priority({"kind", "time_s", "tenant", "app", "work_s",
                            "priority", "deadline_s", "budget_w"});
  bad_priority.add_row({"arrival", "0.0", "t", "sgemm", "5.0", "0.5", "0.0",
                        "0.0"});
  EXPECT_THROW(Trace::from_csv(bad_priority), ContractViolation);
}

TEST(Trace, CsvRejectsAValueInTheInactiveColumn) {
  // work_s and budget_w share one field, so the column the kind does not use
  // must read 0: a value there would otherwise be silently dropped.
  const auto expect_rejection = [](const CsvDocument& csv, const char* what) {
    try {
      Trace::from_csv(csv);
      ADD_FAILURE() << "accepted " << what;
    } catch (const ContractViolation& error) {
      EXPECT_NE(std::string(error.what()).find(what), std::string::npos)
          << error.what();
    }
  };
  const std::vector<std::string> header = {
      "kind", "time_s", "tenant", "app", "work_s", "priority", "deadline_s",
      "budget_w"};
  CsvDocument arrival(header);
  arrival.add_row({"arrival", "0.0", "t0", "sgemm", "5.0", "0", "0.0", "0.0"});
  arrival.add_row(
      {"arrival", "1.0", "t0", "sgemm", "5.0", "0", "0.0", "900.0"});
  expect_rejection(arrival, "trace CSV row 1: arrival with nonzero budget_w");
  CsvDocument budget(header);
  budget.add_row({"budget", "0.0", "", "", "0.0", "0", "0.0", "900.0"});
  budget.add_row({"budget", "1.0", "", "", "5.0", "0", "0.0", "700.0"});
  expect_rejection(budget, "trace CSV row 1: budget event with nonzero work_s");
  // Zero in the inactive column, as the writer emits it, loads.
  EXPECT_EQ(Trace::from_csv(sample_trace().to_csv()).events.size(), 5u);
}

TEST(Trace, LoadersRejectPrioritiesOutsideIntRange) {
  // A finite integer-valued priority beyond int must be a named contract
  // violation, not an undefined double -> int conversion.
  const auto expect_named_rejection = [](const auto& load, const char* source) {
    try {
      load();
      ADD_FAILURE() << source << " accepted priority 1e30";
    } catch (const ContractViolation& error) {
      EXPECT_NE(std::string(error.what()).find(std::string(source) +
                                               " priority out of int range"),
                std::string::npos)
          << error.what();
    }
  };
  CsvDocument csv({"kind", "time_s", "tenant", "app", "work_s", "priority",
                   "deadline_s", "budget_w"});
  csv.add_row({"arrival", "0.0", "t", "sgemm", "5.0", "1e30", "0.0", "0.0"});
  expect_named_rejection([&] { Trace::from_csv(csv); }, "trace CSV");

  Trace trace;
  trace.events.push_back(TraceEvent::arrival(0.5, "t0", "sgemm", 12.25, 7, 0.0));
  std::string text = trace.to_json().dump();
  const std::size_t at = text.find("\"priority\":");
  ASSERT_NE(at, std::string::npos) << text;
  const std::size_t seven = text.find('7', at);
  ASSERT_NE(seven, std::string::npos);
  text.replace(seven, 1, "1e30");
  expect_named_rejection([&] { Trace::from_json(json::parse(text)); },
                         "trace JSON");
  text.replace(text.find("1e30"), 4, "-3e9");
  expect_named_rejection([&] { Trace::from_json(json::parse(text)); },
                         "trace JSON");
}

TEST(Trace, MergeIsStableByTime) {
  Trace arrivals;
  arrivals.events.push_back(TraceEvent::arrival(1.0, "t0", "sgemm", 5.0));
  arrivals.events.push_back(TraceEvent::arrival(2.0, "t0", "stream", 5.0));
  Trace budgets;
  budgets.events.push_back(TraceEvent::budget(0.0, 900.0));
  budgets.events.push_back(TraceEvent::budget(2.0, 700.0));
  const Trace merged = Trace::merge(arrivals, budgets);
  ASSERT_EQ(merged.events.size(), 4u);
  EXPECT_EQ(merged.events[0].kind, EventKind::PowerBudget);
  EXPECT_EQ(merged.events[1].app, "sgemm");
  // Tie at t=2.0: the first operand's event precedes.
  EXPECT_EQ(merged.events[2].app, "stream");
  EXPECT_EQ(merged.events[3].kind, EventKind::PowerBudget);
  merged.validate();
}

}  // namespace
}  // namespace migopt::trace
