// Registry of all paper benchmarks, indexed by name and by class.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "gpusim/arch_config.hpp"
#include "gpusim/solve_store.hpp"
#include "workloads/characteristics.hpp"

namespace migopt::wl {

/// The 24 paper workloads built for one architecture. The workloads are
/// immutable; the registry also owns the steady-state solve cache keyed by
/// their kernels (solves()), which replay sessions and fleet shards fill and
/// share. Kernel addresses are that cache's keys, so a registry is neither
/// copied nor moved.
class WorkloadRegistry {
 public:
  explicit WorkloadRegistry(const gpusim::ArchConfig& arch);
  WorkloadRegistry(const WorkloadRegistry&) = delete;
  WorkloadRegistry& operator=(const WorkloadRegistry&) = delete;

  /// Solves of these kernels on the registry's architecture (recorded in
  /// the store, SolveStore::arch()), shared by every session that
  /// replays them (sched::Cluster::share_solves). Thread-safe; logically
  /// const, since a cached solve equals a fresh one to the bit.
  gpusim::SolveStore& solves() const noexcept { return solves_; }

  std::span<const WorkloadSpec> all() const noexcept { return specs_; }
  std::size_t size() const noexcept { return specs_.size(); }

  /// Lookup by benchmark name; throws ContractViolation on unknown names.
  const WorkloadSpec& by_name(const std::string& name) const;
  bool contains(const std::string& name) const noexcept;

  /// All members of a class, in registry order.
  std::vector<const WorkloadSpec*> by_class(WorkloadClass cls) const;

  std::vector<std::string> names() const;

 private:
  std::vector<WorkloadSpec> specs_;
  mutable gpusim::SolveStore solves_;
};

}  // namespace migopt::wl
