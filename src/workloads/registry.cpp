#include "workloads/registry.hpp"

#include "common/assert.hpp"
#include "workloads/gemm_suite.hpp"
#include "workloads/micro_suite.hpp"
#include "workloads/rodinia_suite.hpp"

namespace migopt::wl {

const char* to_string(WorkloadClass cls) noexcept {
  switch (cls) {
    case WorkloadClass::TI: return "TI";
    case WorkloadClass::CI: return "CI";
    case WorkloadClass::MI: return "MI";
    case WorkloadClass::US: return "US";
  }
  return "??";
}

WorkloadRegistry::WorkloadRegistry(const gpusim::ArchConfig& arch)
    : solves_(arch) {
  auto append = [this](std::vector<WorkloadSpec>&& suite) {
    for (auto& spec : suite) specs_.push_back(std::move(spec));
  };
  append(gemm_suite(arch));
  append(rodinia_suite(arch));
  append(micro_suite(arch));

  // No duplicate names.
  for (std::size_t i = 0; i < specs_.size(); ++i)
    for (std::size_t j = i + 1; j < specs_.size(); ++j)
      MIGOPT_ENSURE(specs_[i].kernel.name != specs_[j].kernel.name,
                    "duplicate workload name: " + specs_[i].kernel.name);
}

const WorkloadSpec& WorkloadRegistry::by_name(const std::string& name) const {
  for (const auto& spec : specs_)
    if (spec.kernel.name == name) return spec;
  MIGOPT_REQUIRE(false, "unknown workload: " + name);
  // Unreachable; MIGOPT_REQUIRE throws.
  throw ContractViolation("unreachable");
}

bool WorkloadRegistry::contains(const std::string& name) const noexcept {
  for (const auto& spec : specs_)
    if (spec.kernel.name == name) return true;
  return false;
}

std::vector<const WorkloadSpec*> WorkloadRegistry::by_class(WorkloadClass cls) const {
  std::vector<const WorkloadSpec*> out;
  for (const auto& spec : specs_)
    if (spec.expected_class == cls) out.push_back(&spec);
  return out;
}

std::vector<std::string> WorkloadRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const auto& spec : specs_) out.push_back(spec.kernel.name);
  return out;
}

}  // namespace migopt::wl
