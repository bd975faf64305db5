// migopt_cli — command-line front end for the offline/online workflow.
//
// The paper's Figure 7 splits the system into an offline phase (profile the
// benchmark set, calibrate the model) and an online phase (answer allocation
// queries inside the job manager). This tool persists the offline artifacts
// to disk and serves decisions from them, the way a site would deploy it:
//
//   migopt_cli train   --out DIR
//       run the offline phase; create DIR if needed and write
//       DIR/model.csv + DIR/profiles.csv
//   migopt_cli decide  --artifacts DIR --app1 A --app2 B
//                      [--problem 1|2] [--cap WATTS] [--alpha A] [--json PATH]
//       load artifacts, print the chosen state/cap + predicted metrics
//   migopt_cli classify --app A [--json PATH]
//       print the Table 7 class and profile counters of a benchmark
//   migopt_cli list
//       list the bundled benchmarks and their classes
//
// decide/classify render through migopt::report, so --json emits the same
// BENCH document schema the bench binaries produce.
// Exit code 0 on success, 1 on bad usage or missing data.
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>

#include "common/string_util.hpp"
#include "core/classifier.hpp"
#include "core/trainer.hpp"
#include "core/workflow.hpp"
#include "gpusim/gpu.hpp"
#include "profiling/profiler.hpp"
#include "report/reporter.hpp"
#include "workloads/corun_pairs.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace migopt;
using report::MetricValue;

/// Minimal --key value parser; positional args are rejected.
std::optional<std::map<std::string, std::string>> parse_flags(int argc,
                                                              char** argv,
                                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "error: expected --flag value pairs, got '%s'\n",
                   key.c_str());
      return std::nullopt;
    }
    flags[key.substr(2)] = argv[++i];
  }
  return flags;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  migopt_cli train    --out DIR\n"
               "  migopt_cli decide   --artifacts DIR --app1 A --app2 B\n"
               "                      [--problem 1|2] [--cap WATTS] [--alpha A]\n"
               "                      [--json PATH]\n"
               "  migopt_cli classify --app A [--json PATH]\n"
               "  migopt_cli list\n");
  return 1;
}

/// Render one ad-hoc scenario result the same way the bench harness does:
/// text to stdout, plus the BENCH JSON document when --json was given.
int emit(const std::map<std::string, std::string>& flags,
         const std::string& name, const std::string& tag,
         const std::string& description, report::ScenarioResult result) {
  const report::Scenario scenario{name, tag, description, nullptr};
  report::CompletedScenario completed;
  completed.scenario = &scenario;
  completed.result = std::move(result);
  std::printf("%s", report::render_text(scenario, completed.result).c_str());
  const auto json = flags.find("json");
  if (json != flags.end()) {
    report::write_json_file(
        json->second, report::to_json("migopt_cli", report::RunMetadata{},
                                      {completed}));
    std::printf("\nwrote %s\n", json->second.c_str());
  }
  return 0;
}

int cmd_train(const std::map<std::string, std::string>& flags) {
  const auto out = flags.find("out");
  if (out == flags.end()) return usage();
  std::filesystem::create_directories(out->second);

  gpusim::GpuChip chip;
  const wl::WorkloadRegistry registry(chip.arch());
  const auto artifacts = core::train_offline(chip, registry, wl::table8_pairs(),
                                             core::TrainingConfig{});
  const std::string model_path = out->second + "/model.csv";
  const std::string profiles_path = out->second + "/profiles.csv";
  artifacts.model.save(model_path);
  artifacts.profiles.save(profiles_path);
  std::printf("offline phase: %zu profile runs, %zu solo runs, %zu co-runs\n",
              artifacts.report.profile_runs, artifacts.report.solo_runs,
              artifacts.report.corun_runs);
  std::printf("wrote %s (%zu scalability + %zu interference keys)\n",
              model_path.c_str(), artifacts.model.scalability_entries(),
              artifacts.model.interference_entries());
  std::printf("wrote %s (%zu app profiles)\n", profiles_path.c_str(),
              artifacts.profiles.size());
  return 0;
}

int cmd_decide(const std::map<std::string, std::string>& flags) {
  const auto dir = flags.find("artifacts");
  const auto app1 = flags.find("app1");
  const auto app2 = flags.find("app2");
  if (dir == flags.end() || app1 == flags.end() || app2 == flags.end())
    return usage();
  const double alpha =
      flags.count("alpha") ? std::stod(flags.at("alpha")) : 0.2;
  const int problem =
      flags.count("problem") ? std::stoi(flags.at("problem")) : 1;
  const double cap = flags.count("cap") ? std::stod(flags.at("cap")) : 230.0;

  core::PerfModel model = core::PerfModel::load(dir->second + "/model.csv");
  prof::ProfileDb profiles =
      prof::ProfileDb::load(dir->second + "/profiles.csv");
  for (const auto& app : {app1->second, app2->second}) {
    if (!profiles.contains(app)) {
      std::fprintf(stderr,
                   "error: no profile for '%s' — run it exclusively first "
                   "(Figure 7 of the paper)\n",
                   app.c_str());
      return 1;
    }
  }
  const core::ResourcePowerAllocator allocator(
      std::move(model), std::move(profiles),
      core::ResourcePowerAllocator::Config{});

  const core::Policy policy = problem == 2
                                  ? core::Policy::problem2(alpha)
                                  : core::Policy::problem1(cap, alpha);
  const core::Decision decision =
      allocator.allocate(app1->second, app2->second, policy);

  report::ScenarioResult result;
  report::Section section;
  section.label_header = "pair";
  section.columns = {"problem", "alpha", "state", "cap [W]", "pred T",
                     "pred F", "pred eff [1/W]", "evaluations"};
  if (decision.feasible) {
    section.add_row(app1->second + "+" + app2->second,
                    {MetricValue::of_count(problem), MetricValue::num(alpha, 2),
                     MetricValue::str(decision.state.name()),
                     MetricValue::num(decision.power_cap_watts, 0),
                     MetricValue::num(decision.predicted.throughput),
                     MetricValue::num(decision.predicted.fairness),
                     MetricValue::num(decision.predicted.energy_efficiency, 5),
                     MetricValue::of_count(
                         static_cast<long long>(decision.evaluations))});
  } else {
    result.add_note("no state satisfies fairness > " +
                    str::format_fixed(alpha, 2) + "; run exclusively");
  }
  result.add_section(std::move(section));
  return emit(flags, "decide", "Online decision",
              "allocator decision for (" + app1->second + ", " + app2->second +
                  ")",
              std::move(result));
}

int cmd_classify(const std::map<std::string, std::string>& flags) {
  const auto app = flags.find("app");
  if (app == flags.end()) return usage();
  gpusim::GpuChip chip;
  const wl::WorkloadRegistry registry(chip.arch());
  const auto& spec = registry.by_name(app->second);
  const auto profile = prof::profile_run(chip, spec.kernel);
  const auto cls = core::classify(chip, spec.kernel, profile);

  report::ScenarioResult result;
  report::Section section;
  section.label_header = "benchmark";
  section.columns = {"derived class", "expected class", "counters"};
  section.add_row(app->second,
                  {MetricValue::str(wl::to_string(cls)),
                   MetricValue::str(wl::to_string(spec.expected_class)),
                   MetricValue::str(profile.to_string())});
  result.add_section(std::move(section));
  return emit(flags, "classify", "Table 7 classification",
              "measured classification of " + app->second, std::move(result));
}

int cmd_list() {
  gpusim::GpuChip chip;
  const wl::WorkloadRegistry registry(chip.arch());
  for (const auto& spec : registry.all())
    std::printf("%-14s %s\n", spec.kernel.name.c_str(),
                wl::to_string(spec.expected_class));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const auto flags = parse_flags(argc, argv, 2);
  if (!flags.has_value()) return usage();
  try {
    if (command == "train") return cmd_train(*flags);
    if (command == "decide") return cmd_decide(*flags);
    if (command == "classify") return cmd_classify(*flags);
    if (command == "list") return cmd_list();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
