// Randomized property suites over wide parameter sweeps: the invariants
// each module must hold for *any* configuration, not just the paper's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "approx/fit.hpp"
#include "approx/softmax.hpp"
#include "common/rng.hpp"
#include "core/mapper.hpp"
#include "hwmodel/timing.hpp"
#include "hwmodel/vector_unit_cost.hpp"
#include "noc/line_noc.hpp"

namespace nova {
namespace {

// ---------------------------------------------------------------------------
// Line NoC: for random (routers, bypass depth, flit count), every router
// observes every flit exactly once, in line order, and observation cycles
// follow the SMART latching formula floor(router / hops) + injection slot.
// ---------------------------------------------------------------------------

class NocProperties : public ::testing::TestWithParam<int> {};

/// Records the cycle of each (flit tag, router) observation and counts
/// repeated ones.
class ScheduleSink final : public noc::CaptureSink {
 public:
  void on_observation(int router, const noc::Flit& flit,
                      sim::Cycle now) override {
    const auto key = std::make_pair(flit.tag(), router);
    if (seen.contains(key)) ++duplicates;
    seen[key] = now;
  }
  std::map<std::pair<int, int>, sim::Cycle> seen;
  int duplicates = 0;
};

TEST_P(NocProperties, ObservationScheduleMatchesSmartFormula) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 8; ++trial) {
    const int routers = 1 + static_cast<int>(rng.next_below(20));
    const int hops = 1 + static_cast<int>(rng.next_below(12));
    const int flits = 1 + static_cast<int>(rng.next_below(5));

    sim::StatRegistry stats;
    noc::LineNoc line(noc::LineNocConfig{routers, hops}, &stats);
    ScheduleSink sink;
    line.set_sink(&sink);
    for (int f = 0; f < flits; ++f) {
      line.inject(noc::Flit(f, std::vector<noc::SlopeBiasPair>(8)));
    }
    for (int c = 0; c < 64 && !line.idle(); ++c) {
      line.tick(static_cast<sim::Cycle>(c));
    }
    EXPECT_TRUE(line.idle());
    EXPECT_EQ(sink.duplicates, 0);
    ASSERT_EQ(sink.seen.size(), static_cast<std::size_t>(routers) * flits);
    for (int f = 0; f < flits; ++f) {
      for (int j = 0; j < routers; ++j) {
        // Flit f enters the line at cycle f (one injection per cycle) and
        // reaches router j after floor(j / hops) further latchings.
        const sim::Cycle expect =
            static_cast<sim::Cycle>(f) + static_cast<sim::Cycle>(j / hops);
        const sim::Cycle got = sink.seen[std::make_pair(f, j)];
        EXPECT_EQ(got, expect)
            << "routers=" << routers << " hops=" << hops << " flit=" << f
            << " router=" << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NocProperties, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// Mapper: for any (breakpoints, pairs/flit), the (tag, slot) decomposition
// is a bijection onto the flit train and the multiplier is minimal.
// ---------------------------------------------------------------------------

struct MapperCase {
  int breakpoints;
  int pairs_per_flit;
};

class MapperProperties : public ::testing::TestWithParam<MapperCase> {};

TEST_P(MapperProperties, TagSlotDecompositionIsBijective) {
  const auto [bp, pairs] = GetParam();
  const auto table = approx::fit_uniform(approx::NonLinearFn::kSigmoid, bp);
  const auto schedule = core::make_schedule(table, pairs);
  EXPECT_EQ(schedule.noc_clock_multiplier, (bp + pairs - 1) / pairs);
  EXPECT_EQ(static_cast<int>(schedule.flits.size()),
            schedule.noc_clock_multiplier);
  std::map<std::pair<int, int>, int> used;  // (tag, slot) -> address
  for (int addr = 0; addr < bp; ++addr) {
    const int tag = schedule.tag_of(addr);
    const int slot = schedule.slot_of(addr);
    EXPECT_GE(tag, 0);
    EXPECT_LT(tag, schedule.noc_clock_multiplier);
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, pairs);
    EXPECT_FALSE(used.contains({tag, slot}))
        << "collision at addr " << addr;
    used[{tag, slot}] = addr;
    // The flit really carries this address's pair.
    const auto expect = table.quantized_pair(addr);
    const auto got =
        schedule.flits[static_cast<std::size_t>(tag)].pair(slot);
    EXPECT_EQ(got.slope.raw(), expect.slope.raw());
    EXPECT_EQ(got.bias.raw(), expect.bias.raw());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MapperProperties,
    ::testing::Values(MapperCase{4, 8}, MapperCase{8, 8}, MapperCase{16, 8},
                      MapperCase{32, 8}, MapperCase{16, 4}, MapperCase{16, 2},
                      MapperCase{16, 16}, MapperCase{7, 8}, MapperCase{9, 4},
                      MapperCase{13, 8}));

// ---------------------------------------------------------------------------
// PWL evaluation: fixed-point output deviates from the double PWL by at
// most the quantization budget (input LSB * |slope| + pair LSBs + rounding)
// for every library function.
// ---------------------------------------------------------------------------

class QuantizationBound
    : public ::testing::TestWithParam<approx::NonLinearFn> {};

TEST_P(QuantizationBound, FixedEvalWithinBudget) {
  const auto fn = GetParam();
  const auto table = approx::fit_adaptive(fn, 16);
  Rng rng(77);
  const auto d = table.domain();
  double max_slope = 0.0;
  for (const double s : table.slopes()) {
    max_slope = std::max(max_slope, std::abs(s));
  }
  // Budget: input quantization propagated through the slope, the quantized
  // slope acting on |x|, the bias LSB, and the final MAC rounding.
  double max_abs_x = std::max(std::abs(d.lo), std::abs(d.hi));
  const double lsb = Word16::resolution();
  const double budget =
      lsb * (max_slope + max_abs_x + 2.0) + 1e-9;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(d.lo, d.hi);
    EXPECT_NEAR(table.eval_fixed(x), table.eval(x), budget)
        << approx::to_string(fn) << " at x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFunctions, QuantizationBound,
    ::testing::Values(approx::NonLinearFn::kExp,
                      approx::NonLinearFn::kReciprocal,
                      approx::NonLinearFn::kGelu, approx::NonLinearFn::kTanh,
                      approx::NonLinearFn::kSigmoid,
                      approx::NonLinearFn::kErf, approx::NonLinearFn::kSilu,
                      approx::NonLinearFn::kSoftplus,
                      approx::NonLinearFn::kRsqrt));

// ---------------------------------------------------------------------------
// Cost model: monotonicity and scale-invariance properties that hold for
// arbitrary configurations.
// ---------------------------------------------------------------------------

TEST(CostProperties, AreaAndPowerMonotoneInNeurons) {
  const auto& t = hw::tech22();
  for (const auto kind :
       {hw::UnitKind::kNovaNoc, hw::UnitKind::kPerNeuronLut,
        hw::UnitKind::kPerCoreLut, hw::UnitKind::kNvdlaSdp}) {
    double prev_area = 0.0, prev_power = 0.0;
    for (int n = 8; n <= 1024; n *= 2) {
      hw::VectorUnitConfig cfg;
      cfg.kind = kind;
      cfg.neurons_per_unit = n;
      const auto cost = hw::estimate_cost(t, cfg);
      EXPECT_GT(cost.area_um2, prev_area) << hw::to_string(kind);
      EXPECT_GT(cost.power_mw, prev_power) << hw::to_string(kind);
      prev_area = cost.area_um2;
      prev_power = cost.power_mw;
    }
  }
}

TEST(CostProperties, TotalsScaleLinearlyWithUnits) {
  const auto& t = hw::tech22();
  hw::VectorUnitConfig one;
  one.kind = hw::UnitKind::kPerNeuronLut;
  one.units = 1;
  hw::VectorUnitConfig four = one;
  four.units = 4;
  const auto c1 = hw::estimate_cost(t, one);
  const auto c4 = hw::estimate_cost(t, four);
  EXPECT_NEAR(c4.area_um2 / c1.area_um2, 4.0, 1e-9);
  EXPECT_NEAR(c4.power_mw / c1.power_mw, 4.0, 1e-6);
}

TEST(CostProperties, PowerScalesWithActivity) {
  const auto& t = hw::tech22();
  hw::VectorUnitConfig lo;
  lo.kind = hw::UnitKind::kNovaNoc;
  lo.activity = 0.2;
  hw::VectorUnitConfig hi = lo;
  hi.activity = 0.4;
  const auto cost_lo = hw::estimate_cost(t, lo);
  const auto cost_hi = hw::estimate_cost(t, hi);
  // Dynamic power doubles; leakage (small) does not.
  EXPECT_GT(cost_hi.power_mw / cost_lo.power_mw, 1.9);
  EXPECT_LE(cost_hi.power_mw / cost_lo.power_mw, 2.0);
}

TEST(CostProperties, BreakpointCountShiftsNocClockNotThroughput) {
  const auto& t = hw::tech22();
  hw::VectorUnitConfig cfg16;
  cfg16.breakpoints = 16;
  hw::VectorUnitConfig cfg32 = cfg16;
  cfg32.breakpoints = 32;
  EXPECT_EQ(cfg16.noc_clock_multiplier(), 2);
  EXPECT_EQ(cfg32.noc_clock_multiplier(), 4);
  EXPECT_DOUBLE_EQ(hw::estimate_cost(t, cfg16).throughput_elems_per_cycle,
                   hw::estimate_cost(t, cfg32).throughput_elems_per_cycle);
}

TEST(TimingProperties, LatencyTimesReachCoversLine) {
  // For any line, latency * hops_per_cycle >= segments, and one fewer
  // cycle would not suffice.
  const auto& t = hw::tech22();
  for (int routers = 1; routers <= 40; ++routers) {
    for (const double mhz : {500.0, 1000.0, 1500.0, 2000.0}) {
      const int reach = hw::max_hops_per_cycle(t, mhz, 1.0);
      if (reach < 1) continue;
      const int latency = hw::broadcast_latency_cycles(
          t, mhz, hw::LineNocLayout{routers, 1.0});
      EXPECT_GE(latency * reach, routers);
      EXPECT_LT((latency - 1) * reach, routers);
    }
  }
}

// ---------------------------------------------------------------------------
// Softmax: permutation equivariance and shift invariance survive the PWL
// approximation (metamorphic properties of the hardware operator).
// ---------------------------------------------------------------------------

TEST(SoftmaxProperties, ShiftInvarianceHolds) {
  Rng rng(91);
  std::vector<float> base(32), shifted(32), out_a(32), out_b(32);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = static_cast<float>(rng.normal(0.0, 1.5));
    shifted[i] = base[i] + 3.25f;  // exactly representable in Q6.10
  }
  approx::softmax_pwl(base, out_a, 16);
  approx::softmax_pwl(shifted, out_b, 16);
  for (std::size_t i = 0; i < base.size(); ++i) {
    // Max-shift normalization makes the operator exactly shift-invariant
    // up to fixed-point quantization of the inputs.
    EXPECT_NEAR(out_a[i], out_b[i], 5e-3);
  }
}

TEST(SoftmaxProperties, ReversalEquivariance) {
  Rng rng(93);
  std::vector<float> in(24), rev(24), out(24), out_rev(24);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>(rng.normal(0.0, 2.0));
  }
  rev.assign(in.rbegin(), in.rend());
  approx::softmax_pwl(in, out, 16);
  approx::softmax_pwl(rev, out_rev, 16);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(out[i], out_rev[in.size() - 1 - i]);
  }
}

TEST(SoftmaxProperties, MonotoneInItsArgument) {
  // Raising one logit must not lower its probability.
  Rng rng(95);
  std::vector<float> in(16), bumped(16), out(16), out_bumped(16);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  bumped = in;
  bumped[5] += 1.0f;
  approx::softmax_pwl(in, out, 16);
  approx::softmax_pwl(bumped, out_bumped, 16);
  EXPECT_GE(out_bumped[5] + 1e-4f, out[5]);
}

}  // namespace
}  // namespace nova
