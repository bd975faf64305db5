// The paper's linear-regression performance model (Section 4.3):
//
//   RPerf_Appi(S, P) = C(S,P) · H(F_Appi) + Σ_{j≠i} D(S,P) · J(F_Appj)
//
// Coefficients are fit independently per hardware state as seen by one
// application: its GPC count, the LLC/HBM option, and the chip power cap.
// C comes from exclusive solo runs over the scaling grid; D comes from
// co-run residuals.
//
// Storage is one dense grid over (gpcs × option × cap), one C row and one D
// row per cell plus a presence flag each. The sorted GPC and cap value lists
// give each value a slot; the row of a key is
// ((gpc_slot * 2 + option) * caps + cap_slot), so rows run in ModelKey order
// and save() walks them directly. `dense_key` is a pair of direct array
// lookups — no tree walk, no hashing — so `predict` and `predict_solo` are
// O(1) per candidate and the optimizer can pre-intern its whole candidate
// grid once (see optimizer.hpp). set_* writes a row in place; a GPC count or
// cap the grid has not seen yet grows the grid once, moving existing rows to
// their new indices, and every set_* bumps revision() so pre-interned keys
// fail closed.
#pragma once

#include <array>
#include <cmath>
#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "gpusim/mig.hpp"
#include "profiling/counters.hpp"

namespace migopt::core {

/// Tolerance for snapping a floating-point cap onto the integer-watt grid
/// the coefficient tables are keyed by.
inline constexpr double kCapGridEpsilonWatts = 1e-6;

/// Round a cap to the integer-watt model grid. Returns -1 when the cap is
/// non-positive, absurd, or off the grid by more than kCapGridEpsilonWatts —
/// callers either reject loudly (ModelKey::make) or fall back to a cold path
/// that throws with full context.
inline int cap_grid_watts(double cap_watts) noexcept {
  if (!(cap_watts > 0.0) || cap_watts >= 1e9) return -1;
  const int rounded = static_cast<int>(cap_watts + 0.5);
  if (std::abs(cap_watts - rounded) > kCapGridEpsilonWatts) return -1;
  return rounded;
}

/// Per-application hardware view keying the coefficient tables. The power cap
/// is stored in integer watts (the paper's grid is 20 W steps; keys must
/// compare exactly).
struct ModelKey {
  int gpcs = 0;
  gpusim::MemOption option = gpusim::MemOption::Shared;
  int power_cap_watts = 0;

  auto operator<=>(const ModelKey&) const = default;

  /// Rounds `cap_watts` to the nearest integer watt; throws ContractViolation
  /// (naming the offending value) when the cap is off the integer-watt grid
  /// by more than kCapGridEpsilonWatts rather than silently truncating.
  static ModelKey make(int gpcs, gpusim::MemOption option, double cap_watts);
  std::string to_string() const;
};

class PerfModel {
 public:
  using CVector = std::array<double, kHBasisCount>;
  using DVector = std::array<double, kJBasisCount>;

  /// Grid row of one (gpcs, option, cap) combination; kNoKey when its GPC
  /// count or cap is not in the grid.
  using DenseKey = std::int32_t;
  static constexpr DenseKey kNoKey = -1;

  /// Write the coefficients of `key`, growing the grid when its GPC count or
  /// cap is new. Throws ContractViolation on a non-finite coefficient, a key
  /// out of range, or a grid that would grow past 2^16 rows.
  void set_scalability(const ModelKey& key, const CVector& c);
  void set_interference(const ModelKey& key, const DVector& d);

  bool has_scalability(const ModelKey& key) const noexcept;
  bool has_interference(const ModelKey& key) const noexcept;

  /// Throw ContractViolation naming `key` when its coefficients are missing.
  const CVector& scalability(const ModelKey& key) const;
  const DVector& interference(const ModelKey& key) const;

  /// Predicted RPerf of a solo run: C(key) · H(profile).
  double predict_solo(const ModelKey& key, const prof::CounterSet& profile) const;

  /// Predicted RPerf with co-runners: C·H(self) + Σ D·J(other). Missing D
  /// coefficients are a contract violation — train co-runs first.
  double predict(const ModelKey& key, const prof::CounterSet& self,
                 std::span<const prof::CounterSet> others) const;

  /// Predictions can dip slightly below zero for extrapolated states; metric
  /// code clamps at this floor.
  static constexpr double kRelPerfFloor = 1e-3;
  static double clamp_relperf(double predicted) noexcept;

  // --- Dense hot-path interface -------------------------------------------
  //
  // dense_key maps (gpcs, option, integer cap) to its grid row via two
  // direct-address slot arrays. Rows are only meaningful when the matching
  // dense_has_* check passes.

  DenseKey dense_key(int gpcs, gpusim::MemOption option, int cap_watts) const noexcept {
    const auto g = static_cast<std::size_t>(gpcs);
    const auto w = static_cast<std::size_t>(cap_watts);
    if (g >= gpc_slot_.size() || w >= cap_slot_.size()) return kNoKey;
    const int gpc_slot = gpc_slot_[g];
    const int cap_slot = cap_slot_[w];
    if ((gpc_slot | cap_slot) < 0) return kNoKey;
    const std::size_t option_slot = option == gpusim::MemOption::Shared ? 1 : 0;
    const std::size_t row =
        (static_cast<std::size_t>(gpc_slot) * 2 + option_slot) *
            cap_values_.size() +
        static_cast<std::size_t>(cap_slot);
    return static_cast<DenseKey>(row);
  }
  DenseKey dense_key(const ModelKey& key) const noexcept {
    return dense_key(key.gpcs, key.option, key.power_cap_watts);
  }

  // The size() bound makes keys interned against an older, smaller grid fail
  // closed instead of reading out of range.
  bool dense_has_scalability(DenseKey key) const noexcept {
    return key >= 0 && static_cast<std::size_t>(key) < has_c_.size() &&
           has_c_[static_cast<std::size_t>(key)] != 0;
  }
  bool dense_has_interference(DenseKey key) const noexcept {
    return key >= 0 && static_cast<std::size_t>(key) < has_d_.size() &&
           has_d_[static_cast<std::size_t>(key)] != 0;
  }

  /// Coefficient rows (kHBasisCount / kJBasisCount doubles). Only valid for
  /// keys passing the matching dense_has_* check.
  const double* scalability_row(DenseKey key) const noexcept {
    return c_rows_[static_cast<std::size_t>(key)].data();
  }
  const double* interference_row(DenseKey key) const noexcept {
    return d_rows_[static_cast<std::size_t>(key)].data();
  }

  /// Bumped on every mutation (set_*). Consumers that pre-intern dense keys
  /// (the Optimizer's candidate grid) check this to detect staleness.
  std::uint64_t revision() const noexcept { return revision_; }

  std::size_t scalability_entries() const noexcept;
  std::size_t interference_entries() const noexcept;
  /// Keys with C coefficients, in ModelKey order.
  std::vector<ModelKey> scalability_keys() const;

  /// CSV round-trip of both coefficient kinds, rows in ModelKey order. load
  /// rejects duplicate (kind, key) rows and everything set_* rejects.
  void save(const std::string& path) const;
  static PerfModel load(const std::string& path);

 private:
  /// Row of `key`, growing the grid first when its GPC count or cap is new.
  std::size_t row_of(const ModelKey& key);
  /// Add every GPC count and cap of `keys` not yet in the grid in one
  /// regrow, moving existing rows to their new indices.
  void grow(std::span<const ModelKey> keys);
  ModelKey key_of(std::size_t row) const noexcept;

  // Sorted distinct GPC counts / integer-watt caps, and their slot arrays,
  // direct-addressed by value (-1 where the value is absent).
  std::vector<int> gpc_values_;
  std::vector<int> cap_values_;
  std::vector<std::int16_t> gpc_slot_;
  std::vector<std::int16_t> cap_slot_;
  std::vector<CVector> c_rows_;
  std::vector<DVector> d_rows_;
  std::vector<std::uint8_t> has_c_;
  std::vector<std::uint8_t> has_d_;
  std::uint64_t revision_ = 0;
};

}  // namespace migopt::core
