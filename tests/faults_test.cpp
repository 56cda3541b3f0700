// Tests for the failure-injection substrate: FaultPlan validation and
// window queries, the seeded MTBF/MTTR plan drawing, and the FailurePolicy
// retry/backoff/overload helpers. Scheduler-level fault behaviour (retries,
// shedding, determinism under faults) lives in serve_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "serve/faults.hpp"
#include "serve/policy.hpp"

namespace nova::serve {
namespace {

FaultWindow outage(double start, double end) {
  FaultWindow window;
  window.start_us = start;
  window.end_us = end;
  return window;
}

FaultWindow slow(double start, double end, double factor) {
  FaultWindow window;
  window.kind = FaultKind::kSlowdown;
  window.start_us = start;
  window.end_us = end;
  window.slowdown = factor;
  return window;
}

// Linear reference walks over every window from index 0: the lookups the
// plan answers by binary search must agree with them exactly.
double ref_next_up(const std::vector<FaultWindow>& windows, double t) {
  for (const auto& window : windows) {
    if (window.kind != FaultKind::kOutage) continue;
    if (window.end_us <= t) continue;
    if (window.start_us > t) break;
    t = window.end_us;
  }
  return t;
}

double ref_slowdown(const std::vector<FaultWindow>& windows, double t) {
  for (const auto& window : windows) {
    if (window.kind != FaultKind::kSlowdown) continue;
    if (window.start_us <= t && t < window.end_us) return window.slowdown;
    if (window.start_us > t) break;
  }
  return 1.0;
}

std::optional<double> ref_outage_in(const std::vector<FaultWindow>& windows,
                                    double start, double finish) {
  for (const auto& window : windows) {
    if (window.kind != FaultKind::kOutage) continue;
    if (window.start_us >= finish) break;
    if (window.start_us > start) return window.start_us;
  }
  return std::nullopt;
}

double ref_downtime(const std::vector<FaultWindow>& windows, double start,
                    double finish) {
  double down = 0.0;
  for (const auto& window : windows) {
    if (window.kind != FaultKind::kOutage) continue;
    if (window.start_us >= finish) break;
    down += std::max(0.0, std::min(window.end_us, finish) -
                              std::max(window.start_us, start));
  }
  return down;
}

/// A seeded timeline mixing outages and slowdowns, with back-to-back
/// windows (zero gaps) as well as short and long gaps between them.
std::vector<FaultWindow> random_windows(Rng& rng, int count) {
  std::vector<FaultWindow> windows;
  double t = rng.next_double() * 5.0;
  for (int w = 0; w < count; ++w) {
    const double draw = rng.next_double();
    const double gap = draw < 0.3 ? 0.0 : draw < 0.7 ? rng.next_double()
                                                     : 50.0 * draw;
    const double start = t + gap;
    const double end = start + 0.01 + 20.0 * rng.next_double();
    windows.push_back(rng.next_double() < 0.5
                          ? outage(start, end)
                          : slow(start, end, 1.0 + 3.0 * rng.next_double()));
    t = end;
  }
  return windows;
}

TEST(FaultPlan, DefaultPlanIsEmptyAndAlwaysUp) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.instances(), 0);
  EXPECT_TRUE(plan.windows(5).empty());
  EXPECT_DOUBLE_EQ(plan.next_up_us(0, 123.0), 123.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_at(3, 1.0), 1.0);
  EXPECT_FALSE(plan.outage_in(0, 0.0, 1e9).has_value());
  EXPECT_DOUBLE_EQ(plan.downtime_in(0, 0.0, 1e9), 0.0);
}

TEST(FaultPlan, WindowQueriesWalkTheTimeline) {
  const auto plan = FaultPlan::make(
      {{outage(10.0, 20.0), slow(30.0, 40.0, 2.5), outage(40.0, 50.0)}});
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.instances(), 1);

  // next_up: pushed past any outage covering t; slowdowns never block.
  EXPECT_DOUBLE_EQ(plan.next_up_us(0, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(plan.next_up_us(0, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(plan.next_up_us(0, 15.0), 20.0);
  EXPECT_DOUBLE_EQ(plan.next_up_us(0, 20.0), 20.0);
  EXPECT_DOUBLE_EQ(plan.next_up_us(0, 35.0), 35.0);
  EXPECT_DOUBLE_EQ(plan.next_up_us(0, 45.0), 50.0);
  // Instances past the plan are always healthy.
  EXPECT_DOUBLE_EQ(plan.next_up_us(1, 15.0), 15.0);

  // slowdown_at: the active factor inside [start, end), 1 elsewhere.
  EXPECT_DOUBLE_EQ(plan.slowdown_at(0, 29.9), 1.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_at(0, 30.0), 2.5);
  EXPECT_DOUBLE_EQ(plan.slowdown_at(0, 39.9), 2.5);
  EXPECT_DOUBLE_EQ(plan.slowdown_at(0, 40.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_at(0, 15.0), 1.0);  // outage, not slowdown

  // outage_in: the first outage OPENING strictly inside (start, finish).
  ASSERT_TRUE(plan.outage_in(0, 5.0, 15.0).has_value());
  EXPECT_DOUBLE_EQ(*plan.outage_in(0, 5.0, 15.0), 10.0);
  EXPECT_FALSE(plan.outage_in(0, 10.0, 15.0).has_value());  // opened at start
  EXPECT_FALSE(plan.outage_in(0, 20.0, 30.0).has_value());
  EXPECT_FALSE(plan.outage_in(0, 5.0, 10.0).has_value());  // opens at finish
  ASSERT_TRUE(plan.outage_in(0, 20.0, 60.0).has_value());
  EXPECT_DOUBLE_EQ(*plan.outage_in(0, 20.0, 60.0), 40.0);

  // downtime_in: clipped outage overlap; the slowdown window counts as up.
  EXPECT_DOUBLE_EQ(plan.downtime_in(0, 0.0, 100.0), 20.0);
  EXPECT_DOUBLE_EQ(plan.downtime_in(0, 15.0, 45.0), 10.0);
  EXPECT_DOUBLE_EQ(plan.downtime_in(0, 20.0, 40.0), 0.0);
}

TEST(FaultPlan, DrawIsDeterministicAndStableUnderPoolResizing) {
  FaultProfile profile;
  profile.mtbf_us = 500.0;
  profile.mttr_us = 100.0;
  const auto a = draw_fault_plan(profile, 3, 50000.0, 42);
  const auto b = draw_fault_plan(profile, 5, 50000.0, 42);
  ASSERT_FALSE(a.empty());
  // Instance i's windows are keyed by (seed, i) alone: growing the pool
  // must not perturb existing instances.
  for (int i = 0; i < 3; ++i) {
    const auto& wa = a.windows(i);
    const auto& wb = b.windows(i);
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t w = 0; w < wa.size(); ++w) {
      EXPECT_DOUBLE_EQ(wa[w].start_us, wb[w].start_us);
      EXPECT_DOUBLE_EQ(wa[w].end_us, wb[w].end_us);
      EXPECT_EQ(wa[w].kind, wb[w].kind);
    }
  }
  // Another seed gives another plan.
  const auto c = draw_fault_plan(profile, 3, 50000.0, 43);
  ASSERT_FALSE(c.empty());
  ASSERT_FALSE(a.windows(0).empty());
  ASSERT_FALSE(c.windows(0).empty());
  const bool differs =
      a.windows(0).size() != c.windows(0).size() ||
      a.windows(0).front().start_us != c.windows(0).front().start_us;
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, DrawMatchesTheConfiguredUnavailability) {
  FaultProfile profile;
  profile.mtbf_us = 900.0;
  profile.mttr_us = 100.0;  // long-run unavailability 10%
  const double horizon = 2e6;
  const auto plan = draw_fault_plan(profile, 4, horizon, 7);
  double down = 0.0;
  for (int i = 0; i < 4; ++i) down += plan.downtime_in(i, 0.0, horizon);
  const double unavailability = down / (4.0 * horizon);
  EXPECT_GT(unavailability, 0.07);
  EXPECT_LT(unavailability, 0.13);
}

TEST(FaultPlan, DrawsSlowdownsAtTheConfiguredFraction) {
  FaultProfile profile;
  profile.mtbf_us = 200.0;
  profile.mttr_us = 50.0;
  profile.slowdown_fraction = 0.5;
  profile.slowdown_factor = 3.0;
  const auto plan = draw_fault_plan(profile, 2, 100000.0, 11);
  int outages = 0, slowdowns = 0;
  for (int i = 0; i < 2; ++i) {
    for (const auto& window : plan.windows(i)) {
      if (window.kind == FaultKind::kSlowdown) {
        ++slowdowns;
        EXPECT_DOUBLE_EQ(window.slowdown, 3.0);
      } else {
        ++outages;
        EXPECT_DOUBLE_EQ(window.slowdown, 1.0);
      }
    }
  }
  ASSERT_GT(outages + slowdowns, 100);
  const double fraction =
      static_cast<double>(slowdowns) / (outages + slowdowns);
  EXPECT_GT(fraction, 0.4);
  EXPECT_LT(fraction, 0.6);
}

TEST(FaultPlan, LookupsMatchALinearWalkOnRandomPlans) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const int count = 1 + static_cast<int>(rng.next_below(60));
    const auto windows = random_windows(rng, count);
    const auto plan = FaultPlan::make({windows});
    // Probe at, just before and just after every window edge, and past
    // the last window.
    std::vector<double> probes = {0.0, windows.back().end_us + 1.0, 1e12};
    for (const auto& window : windows) {
      for (const double edge : {window.start_us, window.end_us}) {
        probes.push_back(edge);
        probes.push_back(std::nextafter(edge, -kInf));
        probes.push_back(std::nextafter(edge, kInf));
      }
    }
    std::sort(probes.begin(), probes.end());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const double t = probes[i];
      ASSERT_EQ(plan.next_up_us(0, t), ref_next_up(windows, t))
          << "trial " << trial << " t " << t;
      ASSERT_EQ(plan.slowdown_at(0, t), ref_slowdown(windows, t))
          << "trial " << trial << " t " << t;
      // Intervals from t to each of the next few probes (empty ones
      // included) and to far past the plan.
      for (std::size_t j = i; j < std::min(probes.size(), i + 8); ++j) {
        for (const double finish : {probes[j], 1e12}) {
          ASSERT_EQ(plan.outage_in(0, t, finish),
                    ref_outage_in(windows, t, finish))
              << "trial " << trial << " (" << t << ", " << finish << ")";
          ASSERT_EQ(plan.downtime_in(0, t, finish),
                    ref_downtime(windows, t, finish))
              << "trial " << trial << " [" << t << ", " << finish << "]";
        }
      }
    }
  }
}

TEST(FaultKindNames, RoundTrip) {
  EXPECT_STREQ(to_string(FaultKind::kOutage), "outage");
  EXPECT_STREQ(to_string(FaultKind::kSlowdown), "slowdown");
}

TEST(FaultPlanDeathTest, RejectsOverlappingWindows) {
  EXPECT_DEATH((void)FaultPlan::make({{outage(0.0, 10.0), outage(5.0, 15.0)}}),
               "sorted by start and non-overlapping");
  EXPECT_DEATH(
      (void)FaultPlan::make({{outage(20.0, 30.0), outage(0.0, 10.0)}}),
      "sorted by start and non-overlapping");
}

TEST(FaultPlanDeathTest, RejectsDegenerateWindows) {
  EXPECT_DEATH((void)FaultPlan::make({{outage(10.0, 10.0)}}),
               "duration must be positive");
  EXPECT_DEATH((void)FaultPlan::make({{outage(10.0, 5.0)}}),
               "duration must be positive");
  EXPECT_DEATH((void)FaultPlan::make({{outage(-1.0, 5.0)}}),
               "finite and start >= 0");
  EXPECT_DEATH(
      (void)FaultPlan::make({{outage(std::nan(""), 5.0)}}),
      "finite and start >= 0");
}

TEST(FaultPlanDeathTest, RejectsBadSlowdownFactors) {
  EXPECT_DEATH((void)FaultPlan::make({{slow(0.0, 5.0, 0.0)}}),
               "slowdown must be > 0");
  EXPECT_DEATH((void)FaultPlan::make({{slow(0.0, 5.0, -2.0)}}),
               "slowdown must be > 0");
  EXPECT_DEATH((void)FaultPlan::make({{slow(0.0, 5.0, 0.5)}}),
               "factor >= 1");
}

TEST(FaultPlanDeathTest, RejectsNonPositiveMtbfMttr) {
  FaultProfile profile;
  profile.mttr_us = -5.0;  // a negative MTTR inverts every repair draw
  EXPECT_DEATH((void)draw_fault_plan(profile, 1, 1000.0, 1), "precondition");
  profile.mttr_us = 0.0;
  EXPECT_DEATH((void)draw_fault_plan(profile, 1, 1000.0, 1), "precondition");
  profile.mttr_us = 100.0;
  profile.mtbf_us = 0.0;
  EXPECT_DEATH((void)draw_fault_plan(profile, 1, 1000.0, 1), "precondition");
}

TEST(RequestStatusNames, CoverEveryStatus) {
  EXPECT_STREQ(to_string(RequestStatus::kOk), "ok");
  EXPECT_STREQ(to_string(RequestStatus::kRetried), "retried");
  EXPECT_STREQ(to_string(RequestStatus::kShed), "shed");
  EXPECT_STREQ(to_string(RequestStatus::kDeadlineMiss), "deadline-miss");
  EXPECT_STREQ(to_string(RequestStatus::kFailed), "failed");
  EXPECT_EQ(kRequestStatusCount, 5);
}

TEST(FailurePolicy, BackoffGrowsExponentiallyAndCaps) {
  FailurePolicy policy;
  policy.backoff_base_us = 100.0;
  policy.backoff_cap_us = 1000.0;
  policy.backoff_jitter = 0.0;  // isolate the schedule from the jitter
  EXPECT_DOUBLE_EQ(retry_backoff_us(policy, 1, 0, 7), 100.0);
  EXPECT_DOUBLE_EQ(retry_backoff_us(policy, 2, 0, 7), 200.0);
  EXPECT_DOUBLE_EQ(retry_backoff_us(policy, 3, 0, 7), 400.0);
  EXPECT_DOUBLE_EQ(retry_backoff_us(policy, 4, 0, 7), 800.0);
  EXPECT_DOUBLE_EQ(retry_backoff_us(policy, 5, 0, 7), 1000.0);  // capped
  EXPECT_DOUBLE_EQ(retry_backoff_us(policy, 50, 0, 7), 1000.0);
}

TEST(FailurePolicy, JitterIsDeterministicBoundedAndSpreadsRequests) {
  FailurePolicy policy;
  policy.backoff_base_us = 100.0;
  policy.backoff_jitter = 0.25;
  const double a = retry_backoff_us(policy, 1, 3, 42);
  EXPECT_DOUBLE_EQ(a, retry_backoff_us(policy, 1, 3, 42));
  EXPECT_GE(a, 100.0);
  EXPECT_LT(a, 125.0);
  // Distinct requests (and attempts, and seeds) de-synchronize.
  EXPECT_NE(a, retry_backoff_us(policy, 1, 4, 42));
  EXPECT_NE(a, retry_backoff_us(policy, 2, 3, 42));
  EXPECT_NE(a, retry_backoff_us(policy, 1, 3, 43));
}

TEST(FailurePolicy, DegradedMaxBatchShrinksTowardOne) {
  FailurePolicy policy;
  EXPECT_EQ(degraded_max_batch(policy, 8, 1e9), 8);  // disabled by default
  policy.overload_queue_us = 100.0;
  EXPECT_EQ(degraded_max_batch(policy, 8, 0.0), 8);
  EXPECT_EQ(degraded_max_batch(policy, 8, 100.0), 8);  // at the threshold
  EXPECT_EQ(degraded_max_batch(policy, 8, 200.0), 4);
  EXPECT_EQ(degraded_max_batch(policy, 8, 400.0), 2);
  EXPECT_EQ(degraded_max_batch(policy, 8, 1e6), 1);  // floors at 1
}

TEST(FailurePolicy, OverloadShedSparesDeadlinesAndRetries) {
  FailurePolicy policy;
  EXPECT_FALSE(should_shed_overload(policy, 1e9, false, 1));  // disabled
  policy.overload_queue_us = 100.0;  // shed past 4x = 400 us
  EXPECT_FALSE(should_shed_overload(policy, 400.0, false, 1));
  EXPECT_TRUE(should_shed_overload(policy, 401.0, false, 1));
  // Deadline-carrying work and retries are never overload-shed.
  EXPECT_FALSE(should_shed_overload(policy, 1e9, true, 1));
  EXPECT_FALSE(should_shed_overload(policy, 1e9, false, 2));
}

TEST(FailurePolicyDeathTest, RejectsOutOfRangeFields) {
  FailurePolicy policy;
  policy.max_retries = -1;
  EXPECT_DEATH(validate(policy), "max_retries");
  policy = {};
  policy.backoff_base_us = 0.0;
  EXPECT_DEATH(validate(policy), "backoff_base_us");
  policy = {};
  policy.backoff_cap_us = policy.backoff_base_us / 2.0;
  EXPECT_DEATH(validate(policy), "backoff_cap_us");
  policy = {};
  policy.backoff_jitter = 1.5;
  EXPECT_DEATH(validate(policy), "backoff_jitter");
  policy = {};
  policy.overload_queue_us = -1.0;
  EXPECT_DEATH(validate(policy), "overload_queue_us");
  policy = {};
  policy.overload_shed_factor = 0.5;
  EXPECT_DEATH(validate(policy), "overload_shed_factor");
}

}  // namespace
}  // namespace nova::serve
