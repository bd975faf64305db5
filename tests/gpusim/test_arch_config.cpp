#include "gpusim/arch_config.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "common/assert.hpp"

namespace migopt::gpusim {
namespace {

TEST(ArchConfig, DefaultValidates) {
  EXPECT_NO_THROW(a100_sxm_like().validate());
}

TEST(ArchConfig, ModulesForGpcsMatchesA100Table) {
  // The paper's scaling rule: 1,2,3,4,7 GPCs -> 1,2,4,4,8 LLC/HBM modules.
  const ArchConfig arch = a100_sxm_like();
  EXPECT_EQ(arch.modules_for_gpcs(1), 1);
  EXPECT_EQ(arch.modules_for_gpcs(2), 2);
  EXPECT_EQ(arch.modules_for_gpcs(3), 4);
  EXPECT_EQ(arch.modules_for_gpcs(4), 4);
  EXPECT_EQ(arch.modules_for_gpcs(7), 8);
}

TEST(ArchConfig, UnsupportedSizesHaveNoModules) {
  const ArchConfig arch = a100_sxm_like();
  for (int gpcs : {0, 5, 6, 8, 9, -1}) EXPECT_EQ(arch.modules_for_gpcs(gpcs), 0) << gpcs;
}

TEST(ArchConfig, ValidGiSizes) {
  const ArchConfig arch = a100_sxm_like();
  for (int gpcs : {1, 2, 3, 4, 7}) EXPECT_TRUE(arch.valid_gi_size(gpcs)) << gpcs;
  for (int gpcs : {0, 5, 6, 8}) EXPECT_FALSE(arch.valid_gi_size(gpcs)) << gpcs;
}

TEST(ArchConfig, PipeRateScalesLinearly) {
  const ArchConfig arch = a100_sxm_like();
  const double one = arch.pipe_rate(Pipe::Fp32, 1, 1.0);
  EXPECT_DOUBLE_EQ(arch.pipe_rate(Pipe::Fp32, 4, 1.0), 4.0 * one);
  EXPECT_DOUBLE_EQ(arch.pipe_rate(Pipe::Fp32, 1, 0.5), 0.5 * one);
  EXPECT_DOUBLE_EQ(arch.pipe_rate(Pipe::Fp32, 8, 0.25), 2.0 * one);
}

TEST(ArchConfig, TensorPipesFasterThanCudaCores) {
  const ArchConfig arch = a100_sxm_like();
  EXPECT_GT(arch.pipe_rate(Pipe::TensorMixed, 1, 1.0), arch.pipe_rate(Pipe::Fp32, 1, 1.0));
  EXPECT_GT(arch.pipe_rate(Pipe::TensorInteger, 1, 1.0),
            arch.pipe_rate(Pipe::TensorMixed, 1, 1.0));
}

struct BadConfigCase {
  const char* name;
  void (*mutate)(ArchConfig&);
};

// Without this gtest prints the case as raw bytes, i.e. the ASLR-dependent
// addresses of `name` and `mutate`, and those bytes end up in the ctest names
// that gtest_discover_tests records, so every build would name the cases anew.
void PrintTo(const BadConfigCase& c, std::ostream* os) { *os << c.name; }

class ArchConfigValidation : public ::testing::TestWithParam<BadConfigCase> {};

TEST_P(ArchConfigValidation, RejectsBadField) {
  ArchConfig arch = a100_sxm_like();
  GetParam().mutate(arch);
  EXPECT_THROW(arch.validate(), ContractViolation);
}

INSTANTIATE_TEST_SUITE_P(
    BadFields, ArchConfigValidation,
    ::testing::Values(
        BadConfigCase{"zero_gpcs", [](ArchConfig& a) { a.total_gpcs = 0; }},
        BadConfigCase{"usable_exceeds_total",
                      [](ArchConfig& a) { a.mig_usable_gpcs = a.total_gpcs + 1; }},
        BadConfigCase{"zero_sms", [](ArchConfig& a) { a.sms_per_gpc = 0; }},
        BadConfigCase{"zero_modules", [](ArchConfig& a) { a.memory_modules = 0; }},
        BadConfigCase{"inverted_clocks",
                      [](ArchConfig& a) { a.min_clock_ghz = a.max_clock_ghz + 1.0; }},
        BadConfigCase{"zero_pipe_rate",
                      [](ArchConfig& a) { a.pipe_peak_per_gpc[0] = 0.0; }},
        BadConfigCase{"zero_hbm_bw",
                      [](ArchConfig& a) { a.hbm_bandwidth_total = 0.0; }},
        BadConfigCase{"issue_fraction_above_one",
                      [](ArchConfig& a) { a.per_gpc_bw_issue_fraction = 1.5; }},
        BadConfigCase{"kappa_out_of_range",
                      [](ArchConfig& a) { a.l2_interference_kappa = 1.0; }},
        BadConfigCase{"tdp_below_idle",
                      [](ArchConfig& a) { a.tdp_watts = a.idle_power_watts - 1.0; }},
        BadConfigCase{"min_cap_below_idle",
                      [](ArchConfig& a) { a.min_power_cap_watts = a.idle_power_watts; }},
        BadConfigCase{"negative_pipe_power",
                      [](ArchConfig& a) { a.pipe_power_per_gpc[2] = -1.0; }},
        BadConfigCase{"exponent_out_of_range",
                      [](ArchConfig& a) { a.dynamic_power_exponent = 0.5; }},
        BadConfigCase{"boost_out_of_range",
                      [](ArchConfig& a) { a.small_partition_efficiency_boost = 0.9; }}),
    [](const ::testing::TestParamInfo<BadConfigCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace migopt::gpusim
