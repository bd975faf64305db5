#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/assert.hpp"
#include "common/string_util.hpp"

namespace migopt::trace {

namespace {

constexpr const char* kJsonSchema = "migopt-trace-v1";

const char* kind_name(EventKind kind) {
  return kind == EventKind::JobArrival ? "arrival" : "budget";
}

EventKind kind_of(const std::string& name) {
  if (name == "arrival") return EventKind::JobArrival;
  if (name == "budget") return EventKind::PowerBudget;
  throw ContractViolation("trace: unknown event kind '" + name + "'");
}

double parse_cell(const std::string& text, const char* what) {
  const auto value = str::parse_double(text);
  MIGOPT_REQUIRE(value.has_value(),
                 std::string("trace: unparsable ") + what + ": '" + text + "'");
  return *value;
}

double number_of(const json::Value& object, const char* key) {
  const json::Value* value = object.find(key);
  MIGOPT_REQUIRE(value != nullptr,
                 std::string("trace: JSON event missing '") + key + "'");
  MIGOPT_REQUIRE(value->kind() == json::Value::Kind::Int ||
                     value->kind() == json::Value::Kind::Double,
                 std::string("trace: JSON '") + key + "' is not a number");
  return value->as_double();
}

/// A job priority read as a double: must be an integer inside int's range
/// (a cast from outside it is undefined behaviour, not a wrap).
int priority_of(double value, const char* source) {
  MIGOPT_REQUIRE(value == std::floor(value),
                 std::string(source) + " priority must be an integer");
  MIGOPT_REQUIRE(value >= static_cast<double>(std::numeric_limits<int>::min()) &&
                     value <= static_cast<double>(std::numeric_limits<int>::max()),
                 std::string(source) + " priority out of int range: " +
                     str::format_exact(value));
  return static_cast<int>(value);
}

std::string string_of(const json::Value& object, const char* key) {
  const json::Value* value = object.find(key);
  MIGOPT_REQUIRE(value != nullptr && value->kind() == json::Value::Kind::String,
                 std::string("trace: JSON event missing string '") + key + "'");
  return value->as_string();
}

}  // namespace

TraceEvent TraceEvent::arrival(double time_seconds, std::string tenant,
                               std::string app, double work_seconds,
                               int priority, double deadline_seconds) {
  TraceEvent event;
  event.kind = EventKind::JobArrival;
  event.time_seconds = time_seconds;
  event.tenant = std::move(tenant);
  event.app = std::move(app);
  event.work_seconds = work_seconds;
  event.priority = priority;
  event.deadline_seconds = deadline_seconds;
  event.validate();
  return event;
}

TraceEvent TraceEvent::budget(double time_seconds, double budget_watts) {
  TraceEvent event;
  event.kind = EventKind::PowerBudget;
  event.time_seconds = time_seconds;
  event.budget_watts = budget_watts;
  event.validate();
  return event;
}

void TraceEvent::validate() const {
  MIGOPT_REQUIRE(std::isfinite(time_seconds) && time_seconds >= 0.0,
                 "trace event time must be finite and >= 0");
  if (kind == EventKind::JobArrival) {
    MIGOPT_REQUIRE(!app.empty(), "trace arrival without an app name");
    MIGOPT_REQUIRE(std::isfinite(work_seconds) && work_seconds > 0.0,
                   "trace arrival needs positive work_seconds");
    MIGOPT_REQUIRE(std::isfinite(deadline_seconds) && deadline_seconds >= 0.0,
                   "trace arrival deadline must be finite and >= 0");
  } else {
    MIGOPT_REQUIRE(std::isfinite(budget_watts),
                   "trace budget event needs a finite wattage");
  }
}

std::size_t Trace::job_count() const noexcept {
  std::size_t count = 0;
  for (const TraceEvent& event : events)
    if (event.kind == EventKind::JobArrival) ++count;
  return count;
}

std::size_t Trace::budget_event_count() const noexcept {
  return events.size() - job_count();
}

double Trace::horizon_seconds() const noexcept {
  return events.empty() ? 0.0 : events.back().time_seconds;
}

void TraceEvent::validate_after(double previous_time_seconds) const {
  validate();
  MIGOPT_REQUIRE(time_seconds >= previous_time_seconds,
                 "trace events must be sorted by time");
}

void Trace::validate() const {
  double previous = 0.0;
  for (const TraceEvent& event : events) {
    event.validate_after(previous);
    previous = event.time_seconds;
  }
}

Trace Trace::merge(const Trace& a, const Trace& b) {
  a.validate();
  b.validate();
  Trace merged;
  merged.events.reserve(a.events.size() + b.events.size());
  // Stable: ties take from `a` first, preserving each input's order.
  std::merge(a.events.begin(), a.events.end(), b.events.begin(),
             b.events.end(), std::back_inserter(merged.events),
             [](const TraceEvent& x, const TraceEvent& y) {
               return x.time_seconds < y.time_seconds;
             });
  return merged;
}

CsvDocument Trace::to_csv() const {
  validate();
  CsvDocument document({"kind", "time_s", "tenant", "app", "work_s",
                        "priority", "deadline_s", "budget_w"});
  for (const TraceEvent& event : events) {
    // work_s and budget_w share one field; the other kind's column is 0.
    const bool arrival = event.kind == EventKind::JobArrival;
    document.add_row(
        {kind_name(event.kind), json::format_double(event.time_seconds),
         event.tenant, event.app,
         json::format_double(arrival ? event.work_seconds : 0.0),
         std::to_string(event.priority),
         json::format_double(event.deadline_seconds),
         json::format_double(arrival ? 0.0 : event.budget_watts)});
  }
  return document;
}

Trace Trace::from_csv(const CsvDocument& document) {
  for (const char* column : {"kind", "time_s", "tenant", "app", "work_s",
                             "priority", "deadline_s", "budget_w"})
    MIGOPT_REQUIRE(document.column_index(column).has_value(),
                   std::string("trace CSV missing column '") + column + "'");
  Trace trace;
  trace.events.reserve(document.row_count());
  for (std::size_t i = 0; i < document.row_count(); ++i) {
    TraceEvent& event = trace.events.emplace_back();
    event.kind = kind_of(document.cell(i, "kind"));
    event.time_seconds = parse_cell(document.cell(i, "time_s"), "time_s");
    event.tenant = document.cell(i, "tenant");
    event.app = document.cell(i, "app");
    const double work = parse_cell(document.cell(i, "work_s"), "work_s");
    event.priority = priority_of(
        parse_cell(document.cell(i, "priority"), "priority"), "trace CSV");
    event.deadline_seconds =
        parse_cell(document.cell(i, "deadline_s"), "deadline_s");
    const double watts = parse_cell(document.cell(i, "budget_w"), "budget_w");
    // The kind's own column fills the shared field; the other must be 0.
    if (event.kind == EventKind::JobArrival) {
      MIGOPT_REQUIRE(watts == 0.0, "trace CSV row " + std::to_string(i) +
                                       ": arrival with nonzero budget_w");
      event.work_seconds = work;
    } else {
      MIGOPT_REQUIRE(work == 0.0, "trace CSV row " + std::to_string(i) +
                                      ": budget event with nonzero work_s");
      event.budget_watts = watts;
    }
  }
  trace.validate();
  return trace;
}

void Trace::save_csv(const std::string& path) const { to_csv().save(path); }

Trace Trace::load_csv(const std::string& path) {
  return from_csv(CsvDocument::load(path));
}

json::Value Trace::to_json() const {
  validate();
  json::Value document = json::Value::object();
  document.set("schema", kJsonSchema);
  json::Value event_array = json::Value::array();
  for (const TraceEvent& event : events) {
    json::Value entry = json::Value::object();
    entry.set("kind", kind_name(event.kind));
    entry.set("t", event.time_seconds);
    if (event.kind == EventKind::JobArrival) {
      entry.set("tenant", event.tenant);
      entry.set("app", event.app);
      entry.set("work_s", event.work_seconds);
      entry.set("priority", event.priority);
      entry.set("deadline_s", event.deadline_seconds);
    } else {
      entry.set("watts", event.budget_watts);
    }
    event_array.push_back(std::move(entry));
  }
  document.set("events", std::move(event_array));
  return document;
}

Trace Trace::from_json(const json::Value& document) {
  MIGOPT_REQUIRE(document.kind() == json::Value::Kind::Object,
                 "trace JSON must be an object");
  const json::Value* schema = document.find("schema");
  MIGOPT_REQUIRE(schema != nullptr &&
                     schema->kind() == json::Value::Kind::String &&
                     schema->as_string() == kJsonSchema,
                 std::string("trace JSON schema must be '") + kJsonSchema + "'");
  const json::Value* event_array = document.find("events");
  MIGOPT_REQUIRE(event_array != nullptr &&
                     event_array->kind() == json::Value::Kind::Array,
                 "trace JSON needs an 'events' array");
  Trace trace;
  trace.events.reserve(event_array->size());
  for (const json::Value& entry : event_array->elements()) {
    MIGOPT_REQUIRE(entry.kind() == json::Value::Kind::Object,
                   "trace JSON events must be objects");
    TraceEvent& event = trace.events.emplace_back();
    event.kind = kind_of(string_of(entry, "kind"));
    event.time_seconds = number_of(entry, "t");
    if (event.kind == EventKind::JobArrival) {
      event.tenant = string_of(entry, "tenant");
      event.app = string_of(entry, "app");
      event.work_seconds = number_of(entry, "work_s");
      event.priority = priority_of(number_of(entry, "priority"), "trace JSON");
      event.deadline_seconds = number_of(entry, "deadline_s");
    } else {
      event.budget_watts = number_of(entry, "watts");
    }
  }
  trace.validate();
  return trace;
}

void Trace::save_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  MIGOPT_REQUIRE(out.good(), "trace: cannot open for write: " + path);
  out << to_json().dump(2) << '\n';
  MIGOPT_REQUIRE(out.good(), "trace: write failed: " + path);
}

Trace Trace::load_json(const std::string& path) {
  std::ifstream in(path);
  MIGOPT_REQUIRE(in.good(), "trace: cannot open for read: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_json(json::parse(buffer.str()));
}

}  // namespace migopt::trace
