// Unit tests for the multi-clock cycle engine and statistics registry.
#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/stats.hpp"

namespace nova::sim {
namespace {

TEST(Engine, SingleDomainTicksOncePerCycle) {
  Engine engine;
  const int dom = engine.add_domain("core", 1);
  int fired = 0;
  engine.add_callback(dom, [&fired](Cycle) { ++fired; });
  engine.run_base_cycles(25);
  EXPECT_EQ(fired, 25);
  EXPECT_EQ(engine.cycles(dom), 25u);
}

TEST(Engine, FastDomainTicksMultiplierTimesPerBaseCycle) {
  Engine engine;
  const int core = engine.add_domain("core", 1);
  const int noc = engine.add_domain("noc", 2);
  int core_fired = 0, noc_fired = 0;
  engine.add_callback(core, [&](Cycle) { ++core_fired; });
  engine.add_callback(noc, [&](Cycle) { ++noc_fired; });
  engine.run_base_cycles(10);
  EXPECT_EQ(core_fired, 10);
  EXPECT_EQ(noc_fired, 20);
  EXPECT_EQ(engine.cycles(noc), 20u);
}

TEST(Engine, DomainLocalCycleNumbersAreConsecutive) {
  Engine engine;
  engine.add_domain("core", 1);
  const int noc = engine.add_domain("noc", 4);
  Cycle expected = 0;
  bool monotonic = true;
  engine.add_callback(noc, [&](Cycle now) {
    if (now != expected) monotonic = false;
    ++expected;
  });
  engine.run_base_cycles(5);
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(expected, 20u);
}

TEST(Engine, ComponentsFireInRegistrationOrderWithinTick) {
  Engine engine;
  const int dom = engine.add_domain("core", 1);
  std::vector<int> order;
  engine.add_callback(dom, [&](Cycle) { order.push_back(1); });
  engine.add_callback(dom, [&](Cycle) { order.push_back(2); });
  engine.run_base_cycles(2);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 1);
  EXPECT_EQ(order[3], 2);
}

class CountingComponent : public Ticked {
 public:
  void tick(Cycle) override { ++count; }
  int count = 0;
};

TEST(Engine, TickedComponentsAreDriven) {
  Engine engine;
  const int dom = engine.add_domain("core", 1);
  CountingComponent comp;
  engine.add_component(dom, comp);
  engine.run_base_cycles(7);
  EXPECT_EQ(comp.count, 7);
}

TEST(Engine, RejectsNonDivisibleMultipliersAtRegistration) {
  // 2 and 3 cannot share a tick lattice: the violation must surface at
  // add_domain, not lazily on the first step() (or, worse, never, with
  // cycles() silently truncating the ratio).
  Engine engine;
  engine.add_domain("a", 2);
  EXPECT_DEATH(engine.add_domain("b", 3), "precondition");
}

TEST(Engine, AcceptsDivisibleMultipliersInAnyDivisibleOrder) {
  Engine engine;
  engine.add_domain("slow", 2);
  engine.add_domain("fast", 8);
  const int mid = engine.add_domain("mid", 4);
  EXPECT_EQ(engine.fastest_multiplier(), 8);
  engine.run_base_cycles(3);
  EXPECT_EQ(engine.cycles(mid), 12u);
}

TEST(Engine, CyclesIsConsistentWithoutAnyStep) {
  // Regression: cycles() used to recompute the fastest multiplier with a
  // lazily-validated ratio; it must be exact on a never-stepped engine.
  Engine engine;
  const int base = engine.add_domain("base", 1);
  const int noc = engine.add_domain("noc", 4);
  EXPECT_EQ(engine.cycles(base), 0u);
  EXPECT_EQ(engine.cycles(noc), 0u);
}

TEST(Engine, RegistrationOrderIsPreservedAcrossDomains) {
  // Interleaved registration across co-firing domains must still fire in
  // global registration order within the tick.
  Engine engine;
  const int slow = engine.add_domain("slow", 1);
  const int fast = engine.add_domain("fast", 2);
  std::vector<int> order;
  engine.add_callback(fast, [&](Cycle) { order.push_back(1); });
  engine.add_callback(slow, [&](Cycle) { order.push_back(2); });
  engine.add_callback(fast, [&](Cycle) { order.push_back(3); });
  engine.run_base_cycles(1);
  // Tick 0: all three in registration order; tick 1: fast domain only.
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
  EXPECT_EQ(order[3], 1);
  EXPECT_EQ(order[4], 3);
}

/// Busy for the first `busy_ticks` ticks, then quiescent.
class DrainingComponent : public Ticked {
 public:
  explicit DrainingComponent(int busy_ticks) : remaining_(busy_ticks) {}
  void tick(Cycle) override {
    ++ticked;
    if (remaining_ > 0) --remaining_;
  }
  [[nodiscard]] bool idle() const override { return remaining_ == 0; }
  int ticked = 0;

 private:
  int remaining_ = 0;
};

TEST(Engine, IdleFastForwardSkipsQuiescentSpans) {
  Engine engine;
  const int base = engine.add_domain("base", 1);
  const int noc = engine.add_domain("noc", 4);
  DrainingComponent slow_part(3);
  DrainingComponent fast_part(10);
  engine.add_component(base, slow_part);
  engine.add_component(noc, fast_part);
  engine.run_base_cycles(1'000'000);
  // Clocks cover the whole span...
  EXPECT_EQ(engine.cycles(base), 1'000'000u);
  EXPECT_EQ(engine.cycles(noc), 4'000'000u);
  // ...but ticks stop shortly after both components drain (the fast
  // component needs 10 of its ticks = 3 base cycles).
  EXPECT_LE(slow_part.ticked, 4);
  EXPECT_LE(fast_part.ticked, 16);
}

TEST(Engine, NeverIdleCallbackInhibitsFastForward) {
  Engine engine;
  const int dom = engine.add_domain("base", 1);
  int fired = 0;
  engine.add_callback(dom, [&](Cycle) { ++fired; });  // no idle predicate
  engine.run_base_cycles(500);
  EXPECT_EQ(fired, 500);
}

TEST(Engine, MultiDomainRunUntilIdleReportsConsumedCycles) {
  Engine engine;
  const int base = engine.add_domain("base", 1);
  engine.add_domain("noc", 2);
  DrainingComponent part(5);
  engine.add_component(base, part);
  const Cycle consumed = engine.run_until_idle(1000);
  EXPECT_EQ(consumed, 5u);
  EXPECT_EQ(part.ticked, 5);
  // Idle engine: run_until_idle returns immediately.
  EXPECT_EQ(engine.run_until_idle(1000), 0u);
}

TEST(Engine, RunUntilIdleHonoursBudget) {
  Engine engine;
  const int dom = engine.add_domain("base", 1);
  int fired = 0;
  engine.add_callback(dom, [&](Cycle) { ++fired; });
  EXPECT_EQ(engine.run_until_idle(7), 7u);
  EXPECT_EQ(fired, 7);
}

TEST(Stats, CounterIdInterningIsIdempotent) {
  StatRegistry stats;
  const StatId a = stats.counter_id("noc.observations");
  const StatId b = stats.counter_id("noc.observations");
  EXPECT_EQ(a, b);
  const StatId other = stats.counter_id("noc.flits_injected");
  EXPECT_FALSE(a == other);
  // Interleaved interning does not disturb earlier handles.
  EXPECT_EQ(stats.counter_id("noc.observations"), a);
}

TEST(Stats, CountersAccumulate) {
  StatRegistry stats;
  const StatId flits = stats.counter_id("flits");
  stats.bump(flits);
  stats.bump(flits, 4);
  EXPECT_EQ(stats.counter(flits), 5u);
  EXPECT_EQ(stats.counter("flits"), 5u);
  EXPECT_EQ(stats.counter("missing"), 0u);
}

TEST(Stats, AccumulatorsTrackMeanAndSum) {
  StatRegistry stats;
  const SampleId latency = stats.sample_id("latency");
  stats.sample(latency, 2.0);
  stats.sample(latency, 4.0);
  EXPECT_DOUBLE_EQ(stats.mean("latency"), 3.0);
  EXPECT_DOUBLE_EQ(stats.sum("latency"), 6.0);
  EXPECT_EQ(stats.sample_count("latency"), 2u);
}

TEST(Stats, InternedButUnusedNamesAddNoRow) {
  StatRegistry stats;
  const StatId alpha = stats.counter_id("alpha");
  (void)stats.counter_id("never_bumped");
  (void)stats.sample_id("never_sampled");
  stats.bump(alpha, 3);
  const std::string ascii = stats.to_table().to_ascii();
  EXPECT_NE(ascii.find("alpha"), std::string::npos);
  EXPECT_EQ(ascii.find("never_bumped"), std::string::npos);
  EXPECT_EQ(ascii.find("never_sampled"), std::string::npos);
}

TEST(Stats, TableContainsAllEntries) {
  StatRegistry stats;
  stats.bump(stats.counter_id("alpha"), 3);
  stats.sample(stats.sample_id("beta"), 1.5);
  stats.histogram("gamma").record(2.0);
  EXPECT_NE(stats.find_histogram("gamma"), nullptr);
  EXPECT_EQ(stats.find_histogram("missing"), nullptr);
  const auto table = stats.to_table();
  const std::string ascii = table.to_ascii();
  EXPECT_NE(ascii.find("alpha"), std::string::npos);
  EXPECT_NE(ascii.find("beta"), std::string::npos);
  EXPECT_NE(ascii.find("gamma (p99)"), std::string::npos);
}

TEST(Histogram, NearestRankPercentiles) {
  Histogram hist;
  for (int v = 1; v <= 100; ++v) hist.record(static_cast<double>(v));
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(hist.percentile(50.0), 50.0);
  EXPECT_DOUBLE_EQ(hist.percentile(95.0), 95.0);
  EXPECT_DOUBLE_EQ(hist.percentile(99.0), 99.0);
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 100.0);
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_DOUBLE_EQ(hist.mean(), 50.5);
  EXPECT_DOUBLE_EQ(hist.min(), 1.0);
  EXPECT_DOUBLE_EQ(hist.max(), 100.0);
}

TEST(Histogram, RecordAfterQueryKeepsOrderCorrect) {
  Histogram hist;
  hist.record(5.0);
  hist.record(1.0);
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 5.0);
  hist.record(9.0);  // appended after a sort; must re-sort lazily
  hist.record(0.5);
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 9.0);
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), 0.5);
}

TEST(Histogram, EmptyIsZero) {
  // The empty-histogram contract: all three order statistics (min, max,
  // percentile) and the moments return 0.0, consistently.
  const Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.percentile(99.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 0.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0);
}

}  // namespace
}  // namespace nova::sim
