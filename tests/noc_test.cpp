// Tests for the line NoC: SMART wavefront propagation timing, observation
// completeness, multi-flit pipelining, and statistics.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "noc/line_noc.hpp"

namespace nova::noc {
namespace {

Flit test_flit(int tag) {
  std::vector<SlopeBiasPair> pairs(8);
  return Flit(tag, std::move(pairs));
}

TEST(Flit, WidthMatchesPaper257Bits) {
  EXPECT_EQ(test_flit(0).bits(), 257);
}

TEST(Flit, RejectsEmptyPayload) {
  EXPECT_DEATH(Flit(0, {}), "precondition");
}

struct Observation {
  int router;
  sim::Cycle cycle;
  int tag;
};

/// Records every observation the line delivers, in delivery order.
class RecordingSink final : public CaptureSink {
 public:
  void on_observation(int router, const Flit& flit,
                      sim::Cycle noc_now) override {
    log.push_back({router, noc_now, flit.tag()});
  }
  std::vector<Observation> log;
};

std::vector<Observation> run_noc(int routers, int hops,
                                 const std::vector<int>& inject_tags,
                                 int cycles) {
  sim::StatRegistry stats;
  LineNoc noc(LineNocConfig{routers, hops}, &stats);
  RecordingSink sink;
  noc.set_sink(&sink);
  for (const int tag : inject_tags) noc.inject(test_flit(tag));
  for (int c = 0; c < cycles; ++c) noc.tick(static_cast<sim::Cycle>(c));
  return sink.log;
}

TEST(LineNoc, SingleCycleBroadcastWhenHopsCoverLine) {
  // 8 routers, 10-hop bypass: every router observes in the injection cycle.
  const auto log = run_noc(8, 10, {0}, 3);
  ASSERT_EQ(log.size(), 8u);
  for (const auto& obs : log) EXPECT_EQ(obs.cycle, 0u);
}

TEST(LineNoc, ObservationOrderFollowsTheLine) {
  const auto log = run_noc(6, 10, {0}, 2);
  ASSERT_EQ(log.size(), 6u);
  for (int j = 0; j < 6; ++j) EXPECT_EQ(log[static_cast<std::size_t>(j)].router, j);
}

TEST(LineNoc, MultiCycleTraversalLatchesAtHopBoundary) {
  // 8 routers, 3-hop bypass: routers 0-2 at cycle 0, 3-5 at 1, 6-7 at 2.
  const auto log = run_noc(8, 3, {0}, 5);
  ASSERT_EQ(log.size(), 8u);
  std::map<int, sim::Cycle> when;
  for (const auto& obs : log) when[obs.router] = obs.cycle;
  EXPECT_EQ(when[0], 0u);
  EXPECT_EQ(when[2], 0u);
  EXPECT_EQ(when[3], 1u);
  EXPECT_EQ(when[5], 1u);
  EXPECT_EQ(when[6], 2u);
  EXPECT_EQ(when[7], 2u);
}

TEST(LineNoc, OneFlitEntersPerCycle) {
  // Two flits queued: tags observed at router 0 in cycles 0 and 1.
  const auto log = run_noc(4, 10, {0, 1}, 4);
  std::vector<std::pair<sim::Cycle, int>> at_router0;
  for (const auto& obs : log) {
    if (obs.router == 0) at_router0.emplace_back(obs.cycle, obs.tag);
  }
  ASSERT_EQ(at_router0.size(), 2u);
  EXPECT_EQ(at_router0[0], (std::pair<sim::Cycle, int>{0, 0}));
  EXPECT_EQ(at_router0[1], (std::pair<sim::Cycle, int>{1, 1}));
}

TEST(LineNoc, PipelinedFlitsDoNotOvertake) {
  // With 2-hop bypass on 6 routers, flit 1 stays one latch behind flit 0.
  const auto log = run_noc(6, 2, {0, 1}, 8);
  std::map<int, std::vector<std::pair<sim::Cycle, int>>> per_router;
  for (const auto& obs : log) {
    per_router[obs.router].emplace_back(obs.cycle, obs.tag);
  }
  for (const auto& [router, seq] : per_router) {
    ASSERT_EQ(seq.size(), 2u) << "router " << router;
    EXPECT_LT(seq[0].first, seq[1].first);
    EXPECT_EQ(seq[0].second, 0);
    EXPECT_EQ(seq[1].second, 1);
  }
}

TEST(LineNoc, EveryRouterObservesEveryFlit) {
  const int routers = 10;
  const auto log = run_noc(routers, 4, {0, 1, 0, 1}, 16);
  EXPECT_EQ(log.size(), static_cast<std::size_t>(routers) * 4);
}

TEST(LineNoc, IdleAfterDrain) {
  sim::StatRegistry stats;
  LineNoc noc(LineNocConfig{4, 10}, &stats);
  noc.inject(test_flit(0));
  EXPECT_FALSE(noc.idle());
  noc.tick(0);
  EXPECT_TRUE(noc.idle());
}

TEST(LineNoc, StatsCountSegmentsAndLatches) {
  sim::StatRegistry stats;
  LineNoc noc(LineNocConfig{8, 3}, &stats);
  noc.inject(test_flit(0));
  for (int c = 0; c < 5; ++c) noc.tick(static_cast<sim::Cycle>(c));
  // 8 routers visited -> 8 segment traversals; 2 intermediate latches
  // (after routers 2 and 5).
  EXPECT_EQ(stats.counter("noc.segment_traversals"), 8u);
  EXPECT_EQ(stats.counter("noc.register_latches"), 2u);
  EXPECT_EQ(stats.counter("noc.flits_injected"), 1u);
  EXPECT_EQ(stats.counter("noc.observations"), 8u);
}

TEST(LineNoc, BatchedStatFlushMatchesPerEventTotals) {
  // The NoC aggregates stat deltas per tick and flushes once per counter;
  // the totals must equal an independent per-event count from the sink
  // (the pre-batching behavior bumped once per event, so equality here is
  // the before/after parity check). Multi-flit, multi-cycle traversal so
  // ticks carry several events each.
  sim::StatRegistry stats;
  LineNoc noc(LineNocConfig{9, 2}, &stats);
  RecordingSink sink;
  noc.set_sink(&sink);
  for (int tag = 0; tag < 3; ++tag) noc.inject(test_flit(tag));
  for (int c = 0; c < 12; ++c) noc.tick(static_cast<sim::Cycle>(c));
  ASSERT_TRUE(noc.idle());
  const auto observed_events = static_cast<std::uint64_t>(sink.log.size());
  // 3 flits x 9 routers, each observation also one wire segment.
  EXPECT_EQ(observed_events, 27u);
  EXPECT_EQ(stats.counter("noc.observations"), observed_events);
  EXPECT_EQ(stats.counter("noc.segment_traversals"), observed_events);
  // 9 routers at 2 hops/cycle: latches after routers 1,3,5,7 -> 4 per flit.
  EXPECT_EQ(stats.counter("noc.register_latches"), 12u);
  EXPECT_EQ(stats.counter("noc.flits_injected"), 3u);
}

TEST(LineNoc, DetachingTheSinkStopsDelivery) {
  sim::StatRegistry stats;
  LineNoc noc(LineNocConfig{6, 2}, &stats);
  RecordingSink sink;
  noc.set_sink(&sink);
  noc.inject(test_flit(0));
  noc.inject(test_flit(1));
  for (int c = 0; c < 8; ++c) noc.tick(static_cast<sim::Cycle>(c));
  // 2 flits x 6 routers.
  ASSERT_EQ(sink.log.size(), 12u);

  noc.set_sink(nullptr);
  noc.inject(test_flit(0));
  noc.tick(8);
  EXPECT_EQ(sink.log.size(), 12u);
  // The line still runs and counts without a sink: 3 flits injected.
  EXPECT_EQ(stats.counter("noc.flits_injected"), 3u);
}

TEST(LineNoc, SingleRouterLineWorks) {
  const auto log = run_noc(1, 10, {0, 1}, 3);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].router, 0);
  EXPECT_EQ(log[1].router, 0);
}

}  // namespace
}  // namespace nova::noc
