#include "core/perf_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/optimizer.hpp"
#include "test_util.hpp"

namespace migopt::core {
namespace {

using gpusim::MemOption;
using prof::Counter;
using prof::CounterSet;

CounterSet sample_profile() {
  CounterSet f;
  f[Counter::ComputeThroughputPct] = 100.0;
  f[Counter::MemoryThroughputPct] = 40.0;
  f[Counter::DramThroughputPct] = 15.0;
  f[Counter::L2HitRatePct] = 85.0;
  f[Counter::OccupancyPct] = 50.0;
  return f;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string saved_bytes(const PerfModel& model, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  model.save(path);
  std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

/// Expect `fn` to throw a ContractViolation whose message contains `needle`.
template <typename Fn>
void expect_violation(Fn&& fn, const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "expected a ContractViolation naming \"" << needle << "\"";
  } catch (const ContractViolation& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

TEST(ModelKey, MakeAndToString) {
  const ModelKey key = ModelKey::make(4, MemOption::Shared, 230.0);
  EXPECT_EQ(key.gpcs, 4);
  EXPECT_EQ(key.power_cap_watts, 230);
  EXPECT_EQ(key.to_string(), "4g/shared/230W");
}

TEST(ModelKey, RejectsNonIntegralCapsAndBadArgs) {
  EXPECT_THROW(ModelKey::make(4, MemOption::Shared, 230.5), ContractViolation);
  EXPECT_THROW(ModelKey::make(0, MemOption::Shared, 230.0), ContractViolation);
  EXPECT_THROW(ModelKey::make(4, MemOption::Shared, -1.0), ContractViolation);
}

TEST(ModelKey, SnapsNearGridCapsToNearestWatt) {
  // Floating-point noise within the grid epsilon rounds to the nearest watt
  // instead of truncating or throwing.
  EXPECT_EQ(ModelKey::make(4, MemOption::Shared, 229.9999995).power_cap_watts, 230);
  EXPECT_EQ(ModelKey::make(4, MemOption::Shared, 230.0000004).power_cap_watts, 230);
  EXPECT_EQ(ModelKey::make(4, MemOption::Shared, 150.0 + 5e-7).power_cap_watts, 150);
}

TEST(ModelKey, OffGridCapThrowsNamingTheValue) {
  try {
    ModelKey::make(4, MemOption::Shared, 230.25);
    FAIL() << "off-grid cap must throw";
  } catch (const ContractViolation& error) {
    EXPECT_NE(std::string(error.what()).find("230.25"), std::string::npos)
        << error.what();
  }
  // Truncation victims of the old int cast are rejected, not rounded down.
  EXPECT_THROW(ModelKey::make(4, MemOption::Shared, 230.9), ContractViolation);
  EXPECT_THROW(ModelKey::make(4, MemOption::Shared, 149.01), ContractViolation);
}

TEST(CapGridWatts, RoundsAndRejects) {
  EXPECT_EQ(cap_grid_watts(230.0), 230);
  EXPECT_EQ(cap_grid_watts(229.9999995), 230);
  EXPECT_EQ(cap_grid_watts(230.25), -1);
  EXPECT_EQ(cap_grid_watts(0.0), -1);
  EXPECT_EQ(cap_grid_watts(-5.0), -1);
  EXPECT_EQ(cap_grid_watts(1e12), -1);
}

TEST(ModelKey, OrderingDistinguishesAllFields) {
  const ModelKey a = ModelKey::make(3, MemOption::Shared, 150.0);
  const ModelKey b = ModelKey::make(4, MemOption::Shared, 150.0);
  const ModelKey c = ModelKey::make(3, MemOption::Private, 150.0);
  const ModelKey d = ModelKey::make(3, MemOption::Shared, 250.0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(a, ModelKey::make(3, MemOption::Shared, 150.0));
}

TEST(PerfModel, PredictSoloIsDotProduct) {
  PerfModel model;
  const ModelKey key = ModelKey::make(4, MemOption::Shared, 250.0);
  // C = e_6 (constant only) -> prediction == constant.
  model.set_scalability(key, {0, 0, 0, 0, 0, 0.42});
  EXPECT_NEAR(model.predict_solo(key, sample_profile()), 0.42, 1e-12);

  // C weights H4 (= F4/100 = 0.85).
  model.set_scalability(key, {0, 0, 0, 2.0, 0, 0});
  EXPECT_NEAR(model.predict_solo(key, sample_profile()), 1.7, 1e-12);
}

TEST(PerfModel, PredictAddsInterferenceTerms) {
  PerfModel model;
  const ModelKey key = ModelKey::make(3, MemOption::Shared, 250.0);
  model.set_scalability(key, {0, 0, 0, 0, 0, 0.5});
  // D = (-0.2 on J1=F3/100, 0, -0.1 const).
  model.set_interference(key, {-0.2, 0.0, -0.1});

  CounterSet other;
  other[Counter::DramThroughputPct] = 50.0;
  const std::vector<CounterSet> others = {other};
  // 0.5 - 0.2*0.5 - 0.1 = 0.3.
  EXPECT_NEAR(model.predict(key, sample_profile(), others), 0.3, 1e-12);
}

TEST(PerfModel, PredictWithoutOthersSkipsD) {
  PerfModel model;
  const ModelKey key = ModelKey::make(3, MemOption::Shared, 250.0);
  model.set_scalability(key, {0, 0, 0, 0, 0, 0.5});
  // No D set; empty others must not require it.
  EXPECT_NEAR(model.predict(key, sample_profile(), {}), 0.5, 1e-12);
}

TEST(PerfModel, MissingCoefficientsThrow) {
  PerfModel model;
  const ModelKey key = ModelKey::make(4, MemOption::Private, 150.0);
  EXPECT_THROW(model.predict_solo(key, sample_profile()), ContractViolation);
  model.set_scalability(key, {0, 0, 0, 0, 0, 1.0});
  const std::vector<CounterSet> others = {sample_profile()};
  EXPECT_THROW(model.predict(key, sample_profile(), others), ContractViolation);
}

TEST(PerfModel, HasAndCounts) {
  PerfModel model;
  const ModelKey key = ModelKey::make(4, MemOption::Private, 150.0);
  EXPECT_FALSE(model.has_scalability(key));
  model.set_scalability(key, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(model.has_scalability(key));
  EXPECT_EQ(model.scalability_entries(), 1u);
  EXPECT_EQ(model.interference_entries(), 0u);
  EXPECT_EQ(model.scalability_keys().size(), 1u);
}

TEST(PerfModel, ClampRelPerf) {
  EXPECT_DOUBLE_EQ(PerfModel::clamp_relperf(-0.5), PerfModel::kRelPerfFloor);
  EXPECT_DOUBLE_EQ(PerfModel::clamp_relperf(0.7), 0.7);
}

TEST(PerfModelDense, DenseKeyInternsTrainedCombinationsOnly) {
  PerfModel model;
  const ModelKey trained = ModelKey::make(4, MemOption::Shared, 250.0);
  EXPECT_EQ(model.dense_key(trained), PerfModel::kNoKey);
  model.set_scalability(trained, {1, 2, 3, 4, 5, 6});
  EXPECT_GE(model.dense_key(trained), 0);
  EXPECT_TRUE(model.dense_has_scalability(model.dense_key(trained)));
  EXPECT_FALSE(model.dense_has_interference(model.dense_key(trained)));
  // Untrained neighbors in the same slot space stay unkeyed or coefficient-less.
  EXPECT_EQ(model.dense_key(3, MemOption::Shared, 250), PerfModel::kNoKey);
  EXPECT_EQ(model.dense_key(4, MemOption::Shared, 230), PerfModel::kNoKey);
  const PerfModel::DenseKey other_option =
      model.dense_key(4, MemOption::Private, 250);
  EXPECT_FALSE(model.dense_has_scalability(other_option));
  EXPECT_FALSE(model.dense_has_scalability(PerfModel::kNoKey));
}

TEST(PerfModelDense, MutationBumpsRevisionAndReindexes) {
  PerfModel model;
  const std::uint64_t initial = model.revision();
  const ModelKey key1 = ModelKey::make(4, MemOption::Shared, 250.0);
  model.set_scalability(key1, {0, 0, 0, 0, 0, 1.0});
  EXPECT_GT(model.revision(), initial);
  const std::uint64_t after_first = model.revision();
  const PerfModel::DenseKey dense1 = model.dense_key(key1);

  // A new key grows the grid; the old key keeps resolving correctly even
  // though its row moved.
  const ModelKey key2 = ModelKey::make(2, MemOption::Private, 170.0);
  model.set_scalability(key2, {0, 0, 0, 0, 0, 2.0});
  EXPECT_GT(model.revision(), after_first);
  EXPECT_TRUE(model.dense_has_scalability(model.dense_key(key1)));
  EXPECT_TRUE(model.dense_has_scalability(model.dense_key(key2)));
  EXPECT_DOUBLE_EQ(model.scalability_row(model.dense_key(key1))[5], 1.0);
  EXPECT_DOUBLE_EQ(model.scalability_row(model.dense_key(key2))[5], 2.0);
  (void)dense1;
}

TEST(PerfModelDense, ShuffledInsertionGrowsTheGridInPlace) {
  // Every trained key plus a GPC count (5, between 4 and 7) and a cap
  // (200 W, between 190 and 210) the grid has not seen, inserted in shuffled
  // order: each growth must keep every earlier row, and the final grid must
  // save exactly what sorted insertion saves.
  const PerfModel& trained = test::shared_artifacts().model;
  const ModelKey between_gpcs = ModelKey::make(5, MemOption::Shared, 190.0);
  const ModelKey between_cap = ModelKey::make(4, MemOption::Private, 200.0);
  ASSERT_EQ(trained.dense_key(between_gpcs), PerfModel::kNoKey);
  ASSERT_EQ(trained.dense_key(between_cap), PerfModel::kNoKey);
  const PerfModel::CVector extra_c = {0.5, -0.25, 1.0 / 3.0, 0, 0, 0.75};
  const PerfModel::DVector extra_d = {-1.0 / 7.0, 0.125, -0.5};

  std::vector<ModelKey> keys = trained.scalability_keys();
  ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  keys.push_back(between_gpcs);
  keys.push_back(between_cap);
  const auto insert = [&](PerfModel& model, const ModelKey& key) {
    const bool extra = !trained.has_scalability(key);
    model.set_scalability(key, extra ? extra_c : trained.scalability(key));
    if (extra || trained.has_interference(key))
      model.set_interference(key, extra ? extra_d : trained.interference(key));
  };
  const auto expect_row = [&](const PerfModel& model, const ModelKey& key) {
    const bool extra = !trained.has_scalability(key);
    ASSERT_TRUE(model.has_scalability(key)) << key.to_string();
    EXPECT_EQ(model.scalability(key),
              extra ? extra_c : trained.scalability(key))
        << key.to_string();
    if (extra || trained.has_interference(key)) {
      ASSERT_TRUE(model.has_interference(key)) << key.to_string();
      EXPECT_EQ(model.interference(key),
                extra ? extra_d : trained.interference(key))
          << key.to_string();
    } else {
      EXPECT_FALSE(model.has_interference(key)) << key.to_string();
    }
  };

  std::vector<ModelKey> shuffled = keys;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(7));
  PerfModel model;
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    insert(model, shuffled[i]);
    for (std::size_t k = 0; k <= i; ++k) expect_row(model, shuffled[k]);
  }

  std::sort(keys.begin(), keys.end());
  PerfModel sorted_model;
  for (const ModelKey& key : keys) insert(sorted_model, key);
  EXPECT_EQ(model.scalability_keys(), keys);
  EXPECT_EQ(saved_bytes(model, "migopt_model_shuffled.csv"),
            saved_bytes(sorted_model, "migopt_model_sorted.csv"));

  // Growing a model under a live Optimizer moves its rows; the Optimizer's
  // pre-interned keys must fail closed, not read the moved rows.
  PerfModel grown = trained;
  const Optimizer optimizer(grown, paper_states(), paper_power_caps());
  const CounterSet other = test::shared_artifacts().profiles.at("stream");
  EXPECT_NO_THROW(
      optimizer.decide(sample_profile(), other, Policy::problem2(0.2)));
  insert(grown, between_gpcs);
  insert(grown, between_cap);
  for (const ModelKey& key : keys) expect_row(grown, key);
  expect_violation(
      [&] { optimizer.decide(sample_profile(), other, Policy::problem2(0.2)); },
      "PerfModel was mutated");
}

TEST(PerfModel, SetRejectsNonFiniteCoefficients) {
  PerfModel model;
  const ModelKey key = ModelKey::make(4, MemOption::Shared, 230.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  expect_violation([&] { model.set_scalability(key, {0, 0, nan, 0, 0, 1}); },
                   "non-finite scalability coefficient for 4g/shared/230W");
  expect_violation([&] { model.set_interference(key, {-inf, 0, 0}); },
                   "non-finite interference coefficient for 4g/shared/230W");
  EXPECT_FALSE(model.has_scalability(key));
  EXPECT_FALSE(model.has_interference(key));
}

TEST(PerfModelDense, SaveLoadPreservesDenseLookups) {
  PerfModel model;
  const ModelKey key = ModelKey::make(3, MemOption::Private, 170.0);
  model.set_scalability(key, {1, 2, 3, 4, 5, 6});
  model.set_interference(key, {-0.1, 0.2, -0.3});
  const std::string path = ::testing::TempDir() + "/migopt_model_dense.csv";
  model.save(path);
  const PerfModel loaded = PerfModel::load(path);
  const PerfModel::DenseKey dense = loaded.dense_key(key);
  ASSERT_TRUE(loaded.dense_has_scalability(dense));
  ASSERT_TRUE(loaded.dense_has_interference(dense));
  for (std::size_t i = 0; i < kHBasisCount; ++i)
    EXPECT_NEAR(loaded.scalability_row(dense)[i], model.scalability(key)[i], 1e-9);
  std::remove(path.c_str());
}

TEST(PerfModel, SaveLoadRoundTrip) {
  PerfModel model;
  const ModelKey key1 = ModelKey::make(4, MemOption::Shared, 250.0);
  const ModelKey key2 = ModelKey::make(3, MemOption::Private, 170.0);
  model.set_scalability(key1, {0.1, -0.2, 1.0 / 3.0, -0.4, 5e-324, 0.6});
  model.set_scalability(key2, {1, 2, 3, 4, 5, 6});
  model.set_interference(key2, {-0.01, 2.0 / 7.0, -1e300});

  // format_exact round-trips every double, so the coefficients come back bit
  // for bit and a second save writes the same bytes.
  const std::string path = ::testing::TempDir() + "/migopt_model_test.csv";
  model.save(path);
  const std::string first = read_file(path);
  const PerfModel loaded = PerfModel::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.scalability_entries(), 2u);
  EXPECT_EQ(loaded.interference_entries(), 1u);
  EXPECT_EQ(loaded.scalability(key1), model.scalability(key1));
  EXPECT_EQ(loaded.scalability(key2), model.scalability(key2));
  EXPECT_EQ(loaded.interference(key2), model.interference(key2));
  EXPECT_FALSE(loaded.has_interference(key1));
  EXPECT_EQ(saved_bytes(loaded, "migopt_model_resaved.csv"), first);
}

TEST(PerfModel, LoadRejectsCorruptedFiles) {
  const std::string path = ::testing::TempDir() + "/migopt_model_corrupt.csv";
  const auto write_file = [&path](const std::string& contents) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(contents.c_str(), f);
    std::fclose(f);
  };
  const std::string header =
      "kind,gpcs,option,power_cap_watts,coeff0,coeff1,coeff2,coeff3,coeff4,"
      "coeff5\n";
  const auto load = [&path] { PerfModel::load(path); };

  write_file(header + "banana,4,shared,250,1,2,3,4,5,6\n");
  expect_violation(load, "bad coefficient kind in model file: banana");

  write_file(header + "C,4,exclusive,250,1,2,3,4,5,6\n");
  expect_violation(load, "bad option in model file: exclusive");

  write_file(header + "C,4,shared,250,one,2,3,4,5,6\n");
  EXPECT_THROW(PerfModel::load(path), ContractViolation);

  // from_chars parses nan and inf; the model must not accept them.
  write_file(header + "C,4,shared,250,nan,2,3,4,5,6\n");
  expect_violation(load, "non-finite scalability coefficient for 4g/shared/250W");
  write_file(header + "C,4,shared,250,1,2,3,4,5,6\n" +
             "D,4,shared,250,1,-inf,3,,,\n");
  expect_violation(load,
                   "non-finite interference coefficient for 4g/shared/250W");

  // A repeated (kind, key) row is an error, not "last row wins".
  write_file(header + "C,4,shared,250,1,2,3,4,5,6\n" +
             "D,4,shared,250,1,2,3,,,\n" + "C,4,shared,250,6,5,4,3,2,1\n");
  expect_violation(load, "duplicate C row for 4g/shared/250W in model file");

  // 129 GPC counts x 2 options x 256 caps needs 66,048 rows, past the 2^16
  // bound: rejected before any grid is allocated.
  std::string oversize = header;
  for (int r = 0; r < 256; ++r)
    oversize += "C," + std::to_string(1 + r % 129) + ",shared," +
                std::to_string(1 + r) + ",1,2,3,4,5,6\n";
  write_file(oversize);
  expect_violation(load, "coefficient grid too large");

  std::remove(path.c_str());
  EXPECT_THROW(PerfModel::load("/no/such/model.csv"), ContractViolation);
}

TEST(PerfModel, LoadRejectsOffGridAndNonIntegerKeys) {
  const std::string path = ::testing::TempDir() + "/migopt_model_offgrid.csv";
  const auto write_file = [&path](const char* contents) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(contents, f);
    std::fclose(f);
  };
  const std::string header =
      "kind,gpcs,option,power_cap_watts,coeff0,coeff1,coeff2,coeff3,coeff4,"
      "coeff5\n";

  // An off-grid cap must fail loudly, not truncate to 230 W.
  write_file((header + "C,4,shared,230.7,1,2,3,4,5,6\n").c_str());
  EXPECT_THROW(PerfModel::load(path), ContractViolation);

  // Fractional and non-positive GPC counts are rejected the same way.
  write_file((header + "C,4.7,shared,230,1,2,3,4,5,6\n").c_str());
  EXPECT_THROW(PerfModel::load(path), ContractViolation);
  write_file((header + "C,0,shared,230,1,2,3,4,5,6\n").c_str());
  EXPECT_THROW(PerfModel::load(path), ContractViolation);

  std::remove(path.c_str());
}

}  // namespace
}  // namespace migopt::core
