#include "sched/job.hpp"

#include <string>

#include "common/assert.hpp"

namespace migopt::sched {

void Job::validate() const {
  MIGOPT_REQUIRE(id >= 0, "job needs a non-negative id");
  MIGOPT_REQUIRE(app_id != kNoSymbol, "job needs an interned app id");
  MIGOPT_REQUIRE(kernel != nullptr, "job needs a kernel");
  MIGOPT_REQUIRE(work_units > 0.0, "job needs positive work");
  MIGOPT_REQUIRE(submit_time >= 0.0, "negative submit time");
}

void Job::require_arrived(double now) const {
  MIGOPT_REQUIRE(submit_time <= now, "job " + std::to_string(id) +
                                         " dispatched before its submit time");
}

}  // namespace migopt::sched
