// Cross-module integration and property suites: the differential and
// metamorphic properties that tie the whole system together.
//
//  * Differential: NOVA cycle simulation == LUT baseline == functional
//    fixed-point evaluation, across a parameterized sweep of deployments
//    and functions.
//  * Traffic model: conservation and fold-scaling properties.
//  * Energy: structural orderings that the paper's conclusions rest on.
#include <gtest/gtest.h>

#include <cmath>

#include "accel/traffic.hpp"
#include "approx/mlp_fitter.hpp"
#include "common/rng.hpp"
#include "core/overlay.hpp"
#include "lut/lut_unit.hpp"

namespace nova {
namespace {

using approx::NonLinearFn;

struct SweepCase {
  NonLinearFn fn;
  int breakpoints;
  int routers;
  int neurons;
  int elems_per_router;
};

class UnitEquivalence : public ::testing::TestWithParam<SweepCase> {};

TEST_P(UnitEquivalence, SimMatchesFunctionalAndLutBitExactly) {
  const auto [fn, breakpoints, routers, neurons, elems] = GetParam();
  const auto& table =
      approx::PwlLibrary::instance().get(fn, breakpoints);

  Rng rng(static_cast<std::uint64_t>(breakpoints) * 7919 + routers);
  std::vector<std::vector<double>> inputs(
      static_cast<std::size_t>(routers));
  const approx::Domain d = table.domain();
  for (auto& stream : inputs) {
    for (int i = 0; i < elems; ++i) {
      // Cover the domain plus out-of-domain extrapolation on both sides.
      stream.push_back(rng.uniform(d.lo - 0.5 * d.width(),
                                   d.hi + 0.5 * d.width()));
    }
  }

  core::NovaConfig nova_cfg;
  nova_cfg.routers = routers;
  nova_cfg.neurons_per_router = neurons;
  core::NovaVectorUnit nova(nova_cfg);
  const auto nova_result = nova.approximate(table, inputs);

  lut::LutConfig lut_cfg;
  lut_cfg.units = routers;
  lut_cfg.neurons_per_unit = neurons;
  lut::LutVectorUnit lut(lut_cfg);
  const auto lut_result = lut.approximate(table, inputs);

  for (std::size_t r = 0; r < inputs.size(); ++r) {
    ASSERT_EQ(nova_result.outputs[r].size(), inputs[r].size());
    for (std::size_t i = 0; i < inputs[r].size(); ++i) {
      const double functional = table.eval_fixed(inputs[r][i]);
      EXPECT_DOUBLE_EQ(nova_result.outputs[r][i], functional);
      EXPECT_DOUBLE_EQ(lut_result.outputs[r][i], functional);
    }
  }
  // Identical latency (the paper's premise) whenever the line fits the
  // single-cycle reach.
  EXPECT_EQ(nova_result.wave_latency_cycles, lut_result.wave_latency_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    DeploymentSweep, UnitEquivalence,
    ::testing::Values(
        SweepCase{NonLinearFn::kGelu, 16, 2, 16, 40},
        SweepCase{NonLinearFn::kGelu, 16, 8, 128, 300},
        SweepCase{NonLinearFn::kExp, 16, 4, 128, 257},
        SweepCase{NonLinearFn::kExp, 8, 10, 256, 100},
        SweepCase{NonLinearFn::kTanh, 8, 1, 8, 33},
        SweepCase{NonLinearFn::kSigmoid, 16, 10, 64, 128},
        SweepCase{NonLinearFn::kReciprocal, 16, 4, 32, 64},
        SweepCase{NonLinearFn::kSilu, 32, 4, 16, 50}));

TEST(Traffic, WeightStationarySingleFoldHandCount) {
  // 8x8 array, m=4, k=8, n=8 (one fold): filter 8*8*2 B, ifmap 4*8*2 B,
  // ofmap 4*8*2 B; DRAM identical (no partial-sum spill).
  const accel::SystolicConfig cfg{8, 8, accel::Dataflow::kWeightStationary};
  const auto t = accel::gemm_traffic(cfg, 4, 8, 8);
  EXPECT_EQ(t.filter_sram_reads, 128);
  EXPECT_EQ(t.ifmap_sram_reads, 64);
  EXPECT_EQ(t.ofmap_sram_writes, 64);
  EXPECT_EQ(t.dram_ofmap, 64);
}

TEST(Traffic, PartialSumSpillGrowsWithRowFolds) {
  const accel::SystolicConfig cfg{8, 8, accel::Dataflow::kWeightStationary};
  const auto one_fold = accel::gemm_traffic(cfg, 4, 8, 8);
  const auto two_folds = accel::gemm_traffic(cfg, 4, 16, 8);
  // k doubled -> 2 row folds -> ofmap DRAM = m*n*(2*2-1) = 3x the single
  // fold's m*n.
  EXPECT_EQ(two_folds.dram_ofmap, 3 * one_fold.dram_ofmap);
}

TEST(Traffic, OutputStationaryWritesOutputsOnce) {
  const accel::SystolicConfig cfg{8, 8, accel::Dataflow::kOutputStationary};
  const auto t = accel::gemm_traffic(cfg, 16, 64, 16);
  EXPECT_EQ(t.ofmap_sram_writes, 16 * 16 * 2);
  EXPECT_EQ(t.dram_ofmap, 16 * 16 * 2);
}

TEST(Traffic, WorkloadTrafficSumsGemms) {
  const accel::SystolicConfig cfg{128, 128,
                                  accel::Dataflow::kWeightStationary};
  const auto wl = workload::model_workload(workload::bert_tiny(128));
  const auto total = accel::workload_traffic(cfg, wl);
  std::int64_t by_hand = 0;
  for (const auto& g : wl.gemms) {
    by_hand += accel::gemm_traffic(cfg, g.m, g.k, g.n).total_dram() * g.count;
  }
  EXPECT_EQ(total.total_dram(), by_hand);
}

TEST(Traffic, ArithmeticIntensityIsPositiveAndFinite) {
  const accel::SystolicConfig cfg{128, 128,
                                  accel::Dataflow::kWeightStationary};
  for (const auto& model : workload::paper_benchmarks(1024)) {
    const double ai =
        accel::arithmetic_intensity(cfg, workload::model_workload(model));
    EXPECT_GT(ai, 0.0) << model.name;
    EXPECT_TRUE(std::isfinite(ai)) << model.name;
  }
}

TEST(EnergyOrdering, NovaPerElementEnergyFallsWithNeuronCount) {
  // The broadcast amortizes across neurons: NOVA's marginal energy per
  // element decreases with neurons per router, the LUT baseline's does not.
  const auto& t = hw::tech22();
  auto nova_energy = [&t](int neurons) {
    hw::VectorUnitConfig cfg;
    cfg.kind = hw::UnitKind::kNovaNoc;
    cfg.neurons_per_unit = neurons;
    return hw::estimate_cost(t, cfg).energy_per_approx_pj;
  };
  auto lut_energy = [&t](int neurons) {
    hw::VectorUnitConfig cfg;
    cfg.kind = hw::UnitKind::kPerNeuronLut;
    cfg.neurons_per_unit = neurons;
    return hw::estimate_cost(t, cfg).energy_per_approx_pj;
  };
  EXPECT_GT(nova_energy(16), nova_energy(256));
  EXPECT_DOUBLE_EQ(lut_energy(16), lut_energy(256));
  EXPECT_LT(nova_energy(128), lut_energy(128));
}

TEST(EnergyOrdering, SimulatedEnergyConsistentWithAnalyticModel) {
  // The cycle-simulated marginal energy per element must land near the
  // analytic estimate_cost() figure for the same deployment.
  const auto& table =
      approx::PwlLibrary::instance().get(NonLinearFn::kGelu, 16);
  core::NovaConfig cfg;
  cfg.routers = 8;
  cfg.neurons_per_router = 128;
  core::NovaVectorUnit unit(cfg);
  Rng rng(43);
  std::vector<std::vector<double>> inputs(8);
  for (auto& stream : inputs) {
    for (int i = 0; i < 1024; ++i) stream.push_back(rng.uniform(-8.0, 8.0));
  }
  const auto result = unit.approximate(table, inputs);
  const auto energy = core::estimate_energy(hw::tech22(), cfg, 16, result);
  const double per_elem =
      energy.total_pj() /
      static_cast<double>(result.stats.counter("unit.mac_ops"));

  hw::VectorUnitConfig analytic;
  analytic.kind = hw::UnitKind::kNovaNoc;
  analytic.units = 8;
  analytic.neurons_per_unit = 128;
  const double expect =
      hw::estimate_cost(hw::tech22(), analytic).energy_per_approx_pj;
  EXPECT_NEAR(per_elem / expect, 1.0, 0.25);
}

}  // namespace
}  // namespace nova
