// Cluster co-location scenario — the paper's Figure 1 end to end, and its
// "future work" scheduler-side extension: a multi-node cluster drains a mixed
// job queue, the co-scheduler pairs complementary jobs using the trained
// allocator, nodes execute pairs on MIG partitions under policy-chosen power
// caps, and first-seen applications get exclusive profile runs.
//
// Compares three operating modes on the same queue:
//   exclusive   — one job per GPU, no MIG (the classic HPC baseline);
//   throughput  — co-scheduling with Problem 1 at the TDP;
//   efficiency  — co-scheduling with Problem 2 (caps optimized per pair).
//
// The comparison is a report scenario, so the tool speaks the shared bench
// CLI: --json writes a schema-v1 BENCH document (the end-to-end probe for the
// scheduler's DecisionCache — hits/misses per mode are part of the table).
//
// Usage: ./examples/cluster_colocation [num_jobs] [num_nodes] [seed]
//            [--json PATH] [--filter REGEX] [--list] ...
#include <cmath>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "report/harness.hpp"
#include "sched/cluster.hpp"

namespace {

using namespace migopt;
using report::MetricValue;

struct StreamConfig {
  int num_jobs = 48;
  int num_nodes = 4;
  std::uint64_t seed = 7;
};

std::vector<sched::Job> make_job_stream(const gpusim::GpuChip& chip,
                                        const wl::WorkloadRegistry& registry,
                                        sched::CoScheduler& scheduler,
                                        int count, Rng& rng) {
  const auto names = registry.names();
  std::vector<sched::Job> jobs;
  double submit = 0.0;
  for (int i = 0; i < count; ++i) {
    const auto& name = names[rng.bounded(names.size())];
    sched::Job job;
    job.id = i;
    job.app_id = scheduler.intern_app(name);
    job.kernel = &registry.by_name(name).kernel;
    // The walltime estimate HPC users submit with: here, the exact per-unit
    // solo time. The co-scheduler uses it to refuse duration-mismatched
    // pairings (a short partner would strand the long job on a small
    // partition for its whole tail).
    job.solo_seconds_per_wu = chip.baseline_seconds(*job.kernel);
    // 10-40 s of solo GPU time per job.
    const double target_seconds = 10.0 + rng.uniform() * 30.0;
    job.work_units = std::max(1.0, target_seconds / job.solo_seconds_per_wu);
    job.submit_time = submit;
    submit += rng.uniform() * 0.5;  // light arrival stagger
    jobs.push_back(job);
  }
  return jobs;
}

report::ScenarioResult run_modes(const StreamConfig& config,
                                 const report::RunContext&) {
  gpusim::GpuChip reference_chip;
  const wl::WorkloadRegistry registry(reference_chip.arch());
  const auto pairs = wl::table8_pairs();

  struct ModeSpec {
    const char* name;
    bool coscheduling;
    core::Policy policy;
  };
  const ModeSpec modes[] = {
      {"exclusive-FIFO", false, core::Policy::problem1(250.0, 0.2)},
      {"co-sched P1 (throughput)", true, core::Policy::problem1(250.0, 0.2)},
      {"co-sched P2 (efficiency)", true, core::Policy::problem2(0.2)},
  };

  report::ScenarioResult result;
  report::Section section;
  section.title = std::to_string(config.num_jobs) + " jobs, " +
                  std::to_string(config.num_nodes) + " nodes, seed " +
                  std::to_string(config.seed);
  section.label_header = "mode";
  section.columns = {"makespan [s]", "energy [kJ]", "mean turnaround [s]",
                     "pairs",        "exclusive",   "profile runs",
                     "cache hits",   "cache misses"};

  std::vector<sched::ClusterReport> reports;
  for (const auto& mode : modes) {
    // Fresh allocator per mode so profile-run accounting is comparable.
    auto allocator =
        core::ResourcePowerAllocator::train(reference_chip, registry, pairs);
    sched::CoScheduler scheduler(allocator, mode.policy);
    sched::ClusterConfig cluster_config;
    cluster_config.node_count = config.num_nodes;
    cluster_config.enable_coscheduling = mode.coscheduling;
    sched::Cluster cluster(cluster_config);

    Rng rng(config.seed);  // identical job stream in every mode
    const auto report = cluster.run(
        make_job_stream(reference_chip, registry, scheduler, config.num_jobs,
                        rng),
        scheduler);
    section.add_row(
        mode.name,
        {MetricValue::num(report.makespan_seconds, 1),
         MetricValue::num(report.total_energy_joules / 1000.0, 1),
         MetricValue::num(report.mean_turnaround, 1),
         MetricValue::of_count(static_cast<long long>(report.pair_dispatches)),
         MetricValue::of_count(
             static_cast<long long>(report.exclusive_dispatches)),
         MetricValue::of_count(static_cast<long long>(report.profile_runs)),
         MetricValue::of_count(
             static_cast<long long>(report.decision_cache_hits)),
         MetricValue::of_count(
             static_cast<long long>(report.decision_cache_misses))});
    reports.push_back(report);
  }

  const double makespan_gain =
      reports[0].makespan_seconds / reports[1].makespan_seconds;
  const double energy_gain =
      reports[0].total_energy_joules / reports[2].total_energy_joules;
  section.add_summary("makespan_gain_p1_vs_exclusive",
                      MetricValue::num(makespan_gain));
  section.add_summary("energy_gain_p2_vs_exclusive",
                      MetricValue::num(energy_gain));
  result.add_section(std::move(section));
  result.add_note(
      "co-scheduling (P1) speeds the queue up " +
      str::format_fixed(makespan_gain, 2) +
      "x vs exclusive; power-cap co-optimization (P2) uses " +
      str::format_fixed(energy_gain, 2) +
      "x less energy than exclusive.\ncache hits count allocator searches the "
      "scheduler's DecisionCache answered without re-running the optimizer.");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      migopt::report::parse_options(argc, argv, /*allow_positionals=*/true);
  if (!options.has_value()) return 1;

  StreamConfig config;
  const auto parse_int = [](const std::string& text, const char* what,
                            double minimum, auto& out) {
    const auto value = migopt::str::parse_double(text);
    if (!value.has_value() || *value < minimum ||
        *value != std::floor(*value) || *value > 9.0e15) {
      std::fprintf(stderr, "error: %s must be an integer >= %.0f, got '%s'\n",
                   what, minimum, text.c_str());
      return false;
    }
    out = static_cast<std::remove_reference_t<decltype(out)>>(*value);
    return true;
  };
  const auto& positionals = options->positionals;
  if (positionals.size() > 0 &&
      !parse_int(positionals[0], "num_jobs", 1.0, config.num_jobs))
    return 1;
  if (positionals.size() > 1 &&
      !parse_int(positionals[1], "num_nodes", 1.0, config.num_nodes))
    return 1;
  if (positionals.size() > 2 &&
      !parse_int(positionals[2], "seed", 0.0, config.seed))
    return 1;

  migopt::report::register_scenario(
      {"cluster_colocation", "Scheduler",
       "exclusive vs co-scheduled (P1/P2) drain of one job stream on " +
           std::to_string(config.num_nodes) + " nodes",
       [config](const migopt::report::RunContext& ctx) {
         return run_modes(config, ctx);
       }});
  return migopt::report::run_scenarios("cluster_colocation", *options);
}
