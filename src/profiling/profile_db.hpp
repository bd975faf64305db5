// Persistent profile database (the "App Profiles" store in the paper's
// Figure 7 workflow). Applications without a stored profile must run
// exclusively once before they are eligible for co-scheduling.
//
// The authoritative store is the dense id-indexed profile column over a
// SymbolTable (the pattern PerfModel uses for its coefficient tables): the
// scheduler's per-candidate contains()/at() probes on the dispatch hot path
// are an open-addressing name probe (string paths) or a plain vector load
// (interned paths). The std::map this mirrored until PR 8 is gone — the
// name-ordered walks save()/app_names() used it for are reproduced
// byte-identically by sorting the (small, cold) name set on demand.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.hpp"
#include "profiling/counters.hpp"

namespace migopt::prof {

class ProfileDb {
 public:
  ProfileDb() = default;

  bool contains(const std::string& app) const noexcept;
  std::optional<CounterSet> find(const std::string& app) const;

  /// Lookup that throws ContractViolation when missing (programming error on
  /// paths that must have checked contains() first).
  const CounterSet& at(const std::string& app) const;

  /// Insert or replace.
  void put(const std::string& app, const CounterSet& counters);

  std::size_t size() const noexcept { return profile_count_; }
  /// Names with a stored profile, in lexicographic order (the iteration
  /// order of the retired authoritative std::map, byte-for-byte).
  std::vector<std::string> app_names() const;

  /// Bumped on every put(). Consumers that cache decisions derived from the
  /// stored profiles (sched::CoScheduler's decision table) compare revisions to detect
  /// mutation through any path. Interning does NOT bump the revision — an id
  /// assignment changes no stored profile.
  std::uint64_t revision() const noexcept { return revision_; }

  // --- Interned fast path ---------------------------------------------------
  //
  // Ids are dense, assigned in first-intern order, and stable for the
  // database's lifetime; they are only meaningful against this instance.

  /// Get-or-assign the dense id of `app` (no profile needs to exist yet).
  Symbol intern_app(std::string_view app) { return symbols_.intern(app); }

  /// Lookup without interning; nullopt when the app was never interned.
  std::optional<Symbol> app_symbol(std::string_view app) const noexcept {
    return symbols_.find(app);
  }

  /// Name of an interned app id (throws on ids this db never assigned).
  const std::string& app_name(Symbol id) const { return symbols_.name(id); }

  /// O(1): does a profile exist for this interned id?
  bool contains(Symbol id) const noexcept {
    return id < by_id_.size() && by_id_[id].has_value();
  }

  /// O(1) profile lookup by interned id; nullptr when absent.
  const CounterSet* find_by_id(Symbol id) const noexcept {
    return contains(id) ? &*by_id_[id] : nullptr;
  }

  /// CSV round-trip: header "app,f1..f8".
  void save(const std::string& path) const;
  static ProfileDb load(const std::string& path);

 private:
  /// Ids with a stored profile, sorted by name (what name-ordered walks
  /// iterate; see app_names/save).
  std::vector<Symbol> sorted_profile_ids() const;

  SymbolTable symbols_;  ///< app name -> dense id
  /// Authoritative profile column indexed by symbol id; empty slot =
  /// interned, no profile yet.
  std::vector<std::optional<CounterSet>> by_id_;
  std::size_t profile_count_ = 0;  ///< engaged slots of by_id_
  std::uint64_t revision_ = 0;
};

}  // namespace migopt::prof
