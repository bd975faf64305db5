#include "core/perf_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/csv.hpp"
#include "common/matrix.hpp"
#include "common/string_util.hpp"

namespace migopt::core {

namespace {

// Sanity bounds: the slot arrays are direct-addressed by GPC count / integer
// watts, so reject keys that would make them absurd.
constexpr int kMaxGpcs = 4096;
constexpr int kMaxCapWatts = 100000;  // 100 kW

// Bound on grid rows (GPC values × 2 options × cap values). A trained model
// uses a few dozen; the bound keeps a hostile model file from asking for
// gigabytes, and keeps every slot index within int16 (at most 2^15 caps).
constexpr std::size_t kMaxRows = std::size_t{1} << 16;

template <std::size_t N>
void require_finite(const std::array<double, N>& coeffs, const char* kind,
                    const ModelKey& key) {
  MIGOPT_REQUIRE(std::all_of(coeffs.begin(), coeffs.end(),
                             [](double v) { return std::isfinite(v); }),
                 std::string("non-finite ") + kind + " coefficient for " +
                     key.to_string());
}

void sort_unique(std::vector<int>& values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
}

std::vector<std::int16_t> slots_of(const std::vector<int>& sorted_values) {
  std::vector<std::int16_t> slots(
      static_cast<std::size_t>(sorted_values.back()) + 1, -1);
  for (std::size_t i = 0; i < sorted_values.size(); ++i)
    slots[static_cast<std::size_t>(sorted_values[i])] =
        static_cast<std::int16_t>(i);
  return slots;
}

}  // namespace

ModelKey ModelKey::make(int gpcs, gpusim::MemOption option, double cap_watts) {
  MIGOPT_REQUIRE(gpcs > 0, "model key needs positive GPC count");
  MIGOPT_REQUIRE(cap_watts > 0.0, "model key needs positive power cap");
  const int rounded = cap_grid_watts(cap_watts);
  MIGOPT_REQUIRE(rounded > 0,
                 "power cap " + str::format_exact(cap_watts) +
                     " W is off the integer-watt model grid by more than " +
                     str::format_exact(kCapGridEpsilonWatts) +
                     " W — caps must sit on the trained grid");
  return ModelKey{gpcs, option, rounded};
}

std::string ModelKey::to_string() const {
  return std::to_string(gpcs) + "g/" + gpusim::to_string(option) + "/" +
         std::to_string(power_cap_watts) + "W";
}

void PerfModel::set_scalability(const ModelKey& key, const CVector& c) {
  require_finite(c, "scalability", key);
  const std::size_t row = row_of(key);
  c_rows_[row] = c;
  has_c_[row] = 1;
  ++revision_;
}

void PerfModel::set_interference(const ModelKey& key, const DVector& d) {
  require_finite(d, "interference", key);
  const std::size_t row = row_of(key);
  d_rows_[row] = d;
  has_d_[row] = 1;
  ++revision_;
}

std::size_t PerfModel::row_of(const ModelKey& key) {
  if (dense_key(key) < 0) grow({&key, 1});
  return static_cast<std::size_t>(dense_key(key));
}

void PerfModel::grow(std::span<const ModelKey> keys) {
  // Grow into a fresh grid and swap it in, so a throw leaves *this intact.
  PerfModel grown;
  grown.gpc_values_ = gpc_values_;
  grown.cap_values_ = cap_values_;
  for (const ModelKey& key : keys) {
    MIGOPT_REQUIRE(key.gpcs > 0 && key.gpcs <= kMaxGpcs,
                   "model key GPC count out of range: " +
                       std::to_string(key.gpcs));
    MIGOPT_REQUIRE(
        key.power_cap_watts > 0 && key.power_cap_watts <= kMaxCapWatts,
        "model key power cap out of range: " +
            std::to_string(key.power_cap_watts) + " W");
    grown.gpc_values_.push_back(key.gpcs);
    grown.cap_values_.push_back(key.power_cap_watts);
  }
  sort_unique(grown.gpc_values_);
  sort_unique(grown.cap_values_);
  if (grown.gpc_values_.size() == gpc_values_.size() &&
      grown.cap_values_.size() == cap_values_.size())
    return;
  const std::size_t rows =
      grown.gpc_values_.size() * 2 * grown.cap_values_.size();
  MIGOPT_REQUIRE(rows <= kMaxRows,
                 "coefficient grid too large: " +
                     std::to_string(grown.gpc_values_.size()) +
                     " GPC counts x " +
                     std::to_string(grown.cap_values_.size()) + " caps need " +
                     std::to_string(rows) + " rows, limit " +
                     std::to_string(kMaxRows));
  grown.gpc_slot_ = slots_of(grown.gpc_values_);
  grown.cap_slot_ = slots_of(grown.cap_values_);
  grown.c_rows_.resize(rows);
  grown.d_rows_.resize(rows);
  grown.has_c_.resize(rows);
  grown.has_d_.resize(rows);
  for (std::size_t old = 0; old < has_c_.size(); ++old) {
    const auto row = static_cast<std::size_t>(grown.dense_key(key_of(old)));
    grown.c_rows_[row] = c_rows_[old];
    grown.d_rows_[row] = d_rows_[old];
    grown.has_c_[row] = has_c_[old];
    grown.has_d_[row] = has_d_[old];
  }
  grown.revision_ = revision_;
  *this = std::move(grown);
}

ModelKey PerfModel::key_of(std::size_t row) const noexcept {
  const std::size_t caps = cap_values_.size();
  const std::size_t view = row / caps;  // gpc_slot * 2 + option
  return ModelKey{gpc_values_[view / 2],
                  view % 2 == 0 ? gpusim::MemOption::Private
                                : gpusim::MemOption::Shared,
                  cap_values_[row % caps]};
}

bool PerfModel::has_scalability(const ModelKey& key) const noexcept {
  return dense_has_scalability(dense_key(key));
}

bool PerfModel::has_interference(const ModelKey& key) const noexcept {
  return dense_has_interference(dense_key(key));
}

const PerfModel::CVector& PerfModel::scalability(const ModelKey& key) const {
  const DenseKey k = dense_key(key);
  MIGOPT_REQUIRE(dense_has_scalability(k),
                 "no scalability coefficients for " + key.to_string());
  return c_rows_[static_cast<std::size_t>(k)];
}

const PerfModel::DVector& PerfModel::interference(const ModelKey& key) const {
  const DenseKey k = dense_key(key);
  MIGOPT_REQUIRE(dense_has_interference(k),
                 "no interference coefficients for " + key.to_string());
  return d_rows_[static_cast<std::size_t>(k)];
}

double PerfModel::predict_solo(const ModelKey& key,
                               const prof::CounterSet& profile) const {
  const CVector& c = scalability(key);
  const auto h = basis_h(profile);
  double acc = 0.0;
  for (std::size_t i = 0; i < kHBasisCount; ++i) acc += c[i] * h[i];
  return acc;
}

double PerfModel::predict(const ModelKey& key, const prof::CounterSet& self,
                          std::span<const prof::CounterSet> others) const {
  double acc = predict_solo(key, self);
  if (!others.empty()) {
    const DVector& d = interference(key);
    for (const auto& other : others) {
      const auto j = basis_j(other);
      for (std::size_t i = 0; i < kJBasisCount; ++i) acc += d[i] * j[i];
    }
  }
  return acc;
}

double PerfModel::clamp_relperf(double predicted) noexcept {
  return std::max(kRelPerfFloor, predicted);
}

std::size_t PerfModel::scalability_entries() const noexcept {
  return static_cast<std::size_t>(std::count(has_c_.begin(), has_c_.end(), 1));
}

std::size_t PerfModel::interference_entries() const noexcept {
  return static_cast<std::size_t>(std::count(has_d_.begin(), has_d_.end(), 1));
}

std::vector<ModelKey> PerfModel::scalability_keys() const {
  std::vector<ModelKey> out;
  for (std::size_t row = 0; row < has_c_.size(); ++row)
    if (has_c_[row] != 0) out.push_back(key_of(row));
  return out;
}

namespace {
constexpr const char* kKindScalability = "C";
constexpr const char* kKindInterference = "D";
}  // namespace

void PerfModel::save(const std::string& path) const {
  std::vector<std::string> header = {"kind", "gpcs", "option", "power_cap_watts"};
  const std::size_t coeff_cols = std::max(kHBasisCount, kJBasisCount);
  for (std::size_t i = 0; i < coeff_cols; ++i)
    header.push_back("coeff" + std::to_string(i));
  CsvDocument doc(std::move(header));

  auto add = [&doc, coeff_cols](const char* kind, const ModelKey& key,
                                std::span<const double> coeffs) {
    std::vector<std::string> row = {kind, std::to_string(key.gpcs),
                                    gpusim::to_string(key.option),
                                    std::to_string(key.power_cap_watts)};
    for (std::size_t i = 0; i < coeff_cols; ++i)
      row.push_back(i < coeffs.size() ? str::format_exact(coeffs[i]) : "");
    doc.add_row(std::move(row));
  };
  for (std::size_t row = 0; row < has_c_.size(); ++row)
    if (has_c_[row] != 0) add(kKindScalability, key_of(row), c_rows_[row]);
  for (std::size_t row = 0; row < has_d_.size(); ++row)
    if (has_d_[row] != 0) add(kKindInterference, key_of(row), d_rows_[row]);
  doc.save(path);
}

PerfModel PerfModel::load(const std::string& path) {
  const CsvDocument doc = CsvDocument::load(path);
  std::vector<ModelKey> keys;
  keys.reserve(doc.row_count());
  for (std::size_t r = 0; r < doc.row_count(); ++r) {
    const double gpcs_value = doc.cell_as_double(r, "gpcs");
    MIGOPT_REQUIRE(gpcs_value >= 1.0 && gpcs_value <= kMaxGpcs,
                   "gpcs out of range in model file: " +
                       str::format_exact(gpcs_value));
    const int gpcs = static_cast<int>(gpcs_value);
    MIGOPT_REQUIRE(static_cast<double>(gpcs) == gpcs_value,
                   "non-integer gpcs in model file: " +
                       str::format_exact(gpcs_value));
    const std::string& option = doc.cell(r, "option");
    MIGOPT_REQUIRE(option == "private" || option == "shared",
                   "bad option in model file: " + option);
    const std::string& kind = doc.cell(r, "kind");
    MIGOPT_REQUIRE(kind == kKindScalability || kind == kKindInterference,
                   "bad coefficient kind in model file: " + kind);
    // ModelKey::make validates the cap against the integer-watt grid, so a
    // hand-edited 230.7 W row fails loudly instead of truncating to 230.
    keys.push_back(ModelKey::make(
        gpcs,
        option == "private" ? gpusim::MemOption::Private
                            : gpusim::MemOption::Shared,
        doc.cell_as_double(r, "power_cap_watts")));
  }

  // Size the grid for the whole file at once: growing it key by key would
  // move every row once per new cap.
  PerfModel model;
  model.grow(keys);
  for (std::size_t r = 0; r < keys.size(); ++r) {
    const ModelKey& key = keys[r];
    const std::string& kind = doc.cell(r, "kind");
    const bool scalability = kind == kKindScalability;
    MIGOPT_REQUIRE(!(scalability ? model.has_scalability(key)
                                 : model.has_interference(key)),
                   "duplicate " + kind + " row for " + key.to_string() +
                       " in model file");
    if (scalability) {
      CVector c{};
      for (std::size_t i = 0; i < kHBasisCount; ++i)
        c[i] = doc.cell_as_double(r, "coeff" + std::to_string(i));
      model.set_scalability(key, c);
    } else {
      DVector d{};
      for (std::size_t i = 0; i < kJBasisCount; ++i)
        d[i] = doc.cell_as_double(r, "coeff" + std::to_string(i));
      model.set_interference(key, d);
    }
  }
  return model;
}

}  // namespace migopt::core
