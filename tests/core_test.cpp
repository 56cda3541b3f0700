// Tests for the NOVA core: mapper schedules (tag/slot layout, clock
// multiplier), cycle-accurate vector-unit behavior (correctness against the
// functional PWL evaluation, latency, throughput, pipelining), overlay
// configuration, and energy accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "approx/fit.hpp"
#include "approx/mlp_fitter.hpp"
#include "core/mapper.hpp"
#include "core/overlay.hpp"
#include "core/vector_unit.hpp"
#include "common/rng.hpp"

namespace nova::core {
namespace {

using approx::NonLinearFn;
using approx::PwlTable;

const PwlTable& gelu16() {
  return approx::PwlLibrary::instance().get(NonLinearFn::kGelu, 16);
}

TEST(Mapper, SixteenBreakpointsNeedTwoFlitsAtDoubleClock) {
  const auto schedule = make_schedule(gelu16(), 8);
  EXPECT_EQ(schedule.noc_clock_multiplier, 2);
  ASSERT_EQ(schedule.flits.size(), 2u);
  EXPECT_EQ(schedule.flits[0].tag(), 0);
  EXPECT_EQ(schedule.flits[1].tag(), 1);
  EXPECT_EQ(schedule.flits[0].bits(), 257);
}

TEST(Mapper, EightBreakpointsFitOneFlit) {
  const PwlTable table = approx::fit_uniform(NonLinearFn::kTanh, 8);
  const auto schedule = make_schedule(table, 8);
  EXPECT_EQ(schedule.noc_clock_multiplier, 1);
  EXPECT_EQ(schedule.flits.size(), 1u);
}

TEST(Mapper, TagIsAddressLsbForTwoFlits) {
  const auto schedule = make_schedule(gelu16(), 8);
  for (int addr = 0; addr < 16; ++addr) {
    EXPECT_EQ(schedule.tag_of(addr), addr % 2);
    EXPECT_EQ(schedule.slot_of(addr), addr / 2);
  }
}

TEST(Mapper, FlitLayoutRecoversEveryPair) {
  // Address A's pair must sit in flit (A mod m) slot (A div m).
  const auto& table = gelu16();
  const auto schedule = make_schedule(table, 8);
  for (int addr = 0; addr < table.breakpoints(); ++addr) {
    const auto expect = table.quantized_pair(addr);
    const auto& flit = schedule.flits[static_cast<std::size_t>(
        schedule.tag_of(addr))];
    const auto got = flit.pair(schedule.slot_of(addr));
    EXPECT_EQ(got.slope.raw(), expect.slope.raw()) << "address " << addr;
    EXPECT_EQ(got.bias.raw(), expect.bias.raw()) << "address " << addr;
  }
}

TEST(Mapper, CheckMappingMatchesPaperScalability) {
  const auto check = check_mapping(hw::tech22(), 10, 1.0, 1500.0, 2);
  EXPECT_TRUE(check.single_cycle_lookup);
  EXPECT_EQ(check.max_hops_per_cycle, 10);
  const auto too_long = check_mapping(hw::tech22(), 16, 1.0, 1500.0, 2);
  EXPECT_FALSE(too_long.single_cycle_lookup);
  EXPECT_GT(too_long.broadcast_accel_cycles, 1);
}

NovaConfig small_config() {
  NovaConfig cfg;
  cfg.routers = 4;
  cfg.neurons_per_router = 8;
  cfg.pairs_per_flit = 8;
  cfg.accel_freq_mhz = 1400.0;
  return cfg;
}

TEST(VectorUnit, OutputsMatchFunctionalFixedPointEvaluation) {
  // The cycle-accurate simulation must agree bit-for-bit with the
  // functional eval_fixed path: same comparator, same pairs, same MAC.
  const auto& table = gelu16();
  NovaVectorUnit unit(small_config());
  Rng rng(7);
  std::vector<std::vector<double>> inputs(4);
  for (auto& stream : inputs) {
    for (int i = 0; i < 37; ++i) stream.push_back(rng.uniform(-8.0, 8.0));
  }
  const auto result = unit.approximate(table, inputs);
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    ASSERT_EQ(result.outputs[r].size(), inputs[r].size());
    for (std::size_t i = 0; i < inputs[r].size(); ++i) {
      EXPECT_DOUBLE_EQ(result.outputs[r][i],
                       table.eval_fixed(inputs[r][i]))
          << "router " << r << " elem " << i;
    }
  }
}

TEST(VectorUnit, SingleWaveHasTwoCycleLatency) {
  // One wave (<= neurons per router): lookup cycle + MAC cycle, matching
  // the NN-LUT baseline walkthrough in the paper.
  NovaVectorUnit unit(small_config());
  const std::vector<std::vector<double>> inputs{{0.5}, {1.0}, {-2.0}, {3.0}};
  const auto result = unit.approximate(gelu16(), inputs);
  EXPECT_EQ(result.wave_latency_cycles, 2);
  EXPECT_EQ(result.accel_cycles, 2u);
}

TEST(VectorUnit, ThroughputIsOneWavePerCycle) {
  // W waves, fully pipelined: W + 1 accelerator cycles.
  NovaConfig cfg = small_config();
  NovaVectorUnit unit(cfg);
  const int waves = 10;
  std::vector<std::vector<double>> inputs(
      static_cast<std::size_t>(cfg.routers));
  Rng rng(9);
  for (auto& stream : inputs) {
    for (int i = 0; i < waves * cfg.neurons_per_router; ++i) {
      stream.push_back(rng.uniform(-4.0, 4.0));
    }
  }
  const auto result = unit.approximate(gelu16(), inputs);
  EXPECT_EQ(result.accel_cycles, static_cast<sim::Cycle>(waves + 1));
}

TEST(VectorUnit, NocRunsAtTwiceTheAccelClockFor16Breakpoints) {
  NovaVectorUnit unit(small_config());
  const std::vector<std::vector<double>> inputs{{0.5}, {1.0}, {-2.0}, {3.0}};
  const auto result = unit.approximate(gelu16(), inputs);
  EXPECT_EQ(result.noc_cycles, 2 * result.accel_cycles);
  // Two flits injected for the single wave.
  EXPECT_EQ(result.stats.counter("noc.flits_injected"), 2u);
}

TEST(VectorUnit, OperationCountsAreExact) {
  NovaConfig cfg = small_config();
  NovaVectorUnit unit(cfg);
  std::vector<std::vector<double>> inputs(4);
  Rng rng(11);
  int total = 0;
  for (auto& stream : inputs) {
    for (int i = 0; i < 20; ++i) {
      stream.push_back(rng.uniform(-4.0, 4.0));
      ++total;
    }
  }
  const auto result = unit.approximate(gelu16(), inputs);
  EXPECT_EQ(result.stats.counter("unit.comparator_ops"),
            static_cast<std::uint64_t>(total));
  EXPECT_EQ(result.stats.counter("unit.mac_ops"),
            static_cast<std::uint64_t>(total));
  EXPECT_EQ(result.stats.counter("unit.pair_captures"),
            static_cast<std::uint64_t>(total));
}

TEST(VectorUnit, UnevenStreamsDrainCorrectly) {
  NovaVectorUnit unit(small_config());
  std::vector<std::vector<double>> inputs{{0.1, 0.2, 0.3}, {}, {-1.0}, {2.0, -2.0}};
  const auto result = unit.approximate(gelu16(), inputs);
  EXPECT_EQ(result.outputs[0].size(), 3u);
  EXPECT_TRUE(result.outputs[1].empty());
  EXPECT_EQ(result.outputs[2].size(), 1u);
  EXPECT_EQ(result.outputs[3].size(), 2u);
}

TEST(VectorUnit, EmptyBatchCompletesInZeroCycles) {
  NovaVectorUnit unit(small_config());
  const std::vector<std::vector<double>> inputs(4);
  const auto result = unit.approximate(gelu16(), inputs);
  EXPECT_EQ(result.accel_cycles, 0u);
}

TEST(VectorUnit, MappingCheckFlagsOversizedDeployments) {
  NovaConfig cfg = small_config();
  cfg.routers = 24;  // beyond the 10-router single-cycle reach
  cfg.accel_freq_mhz = 1500.0;
  NovaVectorUnit unit(cfg);
  const auto check = unit.mapping_check(gelu16());
  EXPECT_FALSE(check.single_cycle_lookup);
}

TEST(Overlay, PaperConfigsForEveryHost) {
  for (const auto host :
       {hw::AcceleratorKind::kReact, hw::AcceleratorKind::kTpuV3,
        hw::AcceleratorKind::kTpuV4, hw::AcceleratorKind::kJetsonNvdla}) {
    const auto overlay = make_overlay(host);
    EXPECT_EQ(overlay.host, host);
    EXPECT_FALSE(overlay.attachment.empty());
    EXPECT_EQ(overlay.nova.routers, overlay.cost_config.units);
    EXPECT_EQ(overlay.nova.neurons_per_router,
              overlay.cost_config.neurons_per_unit);
  }
  // Spot-check Table II numbers.
  const auto react = make_overlay(hw::AcceleratorKind::kReact);
  EXPECT_EQ(react.nova.routers, 10);
  EXPECT_EQ(react.nova.neurons_per_router, 256);
  EXPECT_DOUBLE_EQ(react.nova.accel_freq_mhz, 240.0);
  const auto tpu4 = make_overlay(hw::AcceleratorKind::kTpuV4);
  EXPECT_EQ(tpu4.nova.routers, 8);
  EXPECT_EQ(tpu4.nova.neurons_per_router, 128);
}

TEST(Overlay, EnergyAccountsForEveryCountedOperation) {
  NovaConfig cfg = small_config();
  NovaVectorUnit unit(cfg);
  std::vector<std::vector<double>> inputs(4);
  Rng rng(13);
  for (auto& stream : inputs) {
    for (int i = 0; i < 16; ++i) stream.push_back(rng.uniform(-4.0, 4.0));
  }
  const auto result = unit.approximate(gelu16(), inputs);
  const auto energy = estimate_energy(hw::tech22(), cfg, 16, result);
  EXPECT_GT(energy.comparator_pj, 0.0);
  EXPECT_GT(energy.mac_pj, 0.0);
  EXPECT_GT(energy.wire_pj, 0.0);
  EXPECT_GT(energy.select_pj, 0.0);
  EXPECT_NEAR(energy.total_pj(),
              energy.comparator_pj + energy.select_pj + energy.mac_pj +
                  energy.wire_pj + energy.register_pj,
              1e-9);
}

TEST(Overlay, EnergyGrowsLinearlyWithWork) {
  NovaConfig cfg = small_config();
  NovaVectorUnit unit(cfg);
  Rng rng(15);
  auto make_inputs = [&rng, &cfg](int per_router) {
    std::vector<std::vector<double>> inputs(
        static_cast<std::size_t>(cfg.routers));
    for (auto& stream : inputs) {
      for (int i = 0; i < per_router; ++i) {
        stream.push_back(rng.uniform(-4.0, 4.0));
      }
    }
    return inputs;
  };
  const auto small = unit.approximate(gelu16(), make_inputs(8));
  const auto large = unit.approximate(gelu16(), make_inputs(80));
  const double e_small =
      estimate_energy(hw::tech22(), cfg, 16, small).total_pj();
  const double e_large =
      estimate_energy(hw::tech22(), cfg, 16, large).total_pj();
  EXPECT_NEAR(e_large / e_small, 10.0, 1.5);
}

}  // namespace
}  // namespace nova::core
