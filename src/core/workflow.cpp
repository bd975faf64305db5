#include "core/workflow.hpp"

#include "common/assert.hpp"

namespace migopt::core {

ResourcePowerAllocator ResourcePowerAllocator::train(
    const gpusim::GpuChip& chip, const wl::WorkloadRegistry& registry,
    const std::vector<wl::CorunPair>& pairs, Config config) {
  TrainedArtifacts artifacts =
      train_offline(chip, registry, pairs, config.training);
  ResourcePowerAllocator allocator(std::move(artifacts.model),
                                   std::move(artifacts.profiles),
                                   std::move(config));
  allocator.report_ = artifacts.report;
  return allocator;
}

ResourcePowerAllocator ResourcePowerAllocator::train(
    const gpusim::GpuChip& chip, const wl::WorkloadRegistry& registry,
    const std::vector<wl::CorunPair>& pairs) {
  return train(chip, registry, pairs, Config{});
}

ResourcePowerAllocator::ResourcePowerAllocator(PerfModel model,
                                               prof::ProfileDb profiles,
                                               Config config)
    : model_(std::move(model)),
      profiles_(std::move(profiles)),
      optimizer_(model_, std::move(config.states), std::move(config.caps)) {}

bool ResourcePowerAllocator::can_coschedule(const std::string& app) const noexcept {
  return profiles_.contains(app);
}

void ResourcePowerAllocator::record_profile(const std::string& app,
                                            const prof::CounterSet& counters) {
  profiles_.put(app, counters);
}

Decision ResourcePowerAllocator::allocate(const std::string& app1,
                                          const std::string& app2,
                                          const Policy& policy) const {
  MIGOPT_REQUIRE(can_coschedule(app1), "no profile for app: " + app1);
  MIGOPT_REQUIRE(can_coschedule(app2), "no profile for app: " + app2);
  return allocate_profiles(profiles_.at(app1), profiles_.at(app2), policy);
}

const prof::CounterSet& ResourcePowerAllocator::profile_by_id(Symbol app) const {
  const prof::CounterSet* profile = profiles_.find_by_id(app);
  MIGOPT_REQUIRE(profile != nullptr, "no profile for app id: " + std::to_string(app));
  return *profile;
}

Decision ResourcePowerAllocator::allocate(Symbol app1, Symbol app2,
                                          const Policy& policy) const {
  const prof::CounterSet& profile1 = profile_by_id(app1);
  return allocate_profiles(profile1, profile_by_id(app2), policy);
}

std::vector<Decision> ResourcePowerAllocator::allocate_all_ceilings(
    Symbol app1, Symbol app2, const Policy& policy) const {
  const prof::CounterSet& profile1 = profile_by_id(app1);
  return optimizer_.decide_all_ceilings(profile1, profile_by_id(app2), policy);
}

Decision ResourcePowerAllocator::allocate_profiles(
    const prof::CounterSet& profile1, const prof::CounterSet& profile2,
    const Policy& policy) const {
  return optimizer_.decide(profile1, profile2, policy);
}

}  // namespace migopt::core
