// Randomized parity test for serve::AvailabilityHeap against the linear
// argmin reference it replaced (serve::earliest_available_linear).
//
// The heap's whole claim is "byte-identical decisions to the scan" under
// the dispatch loop's access pattern: interleaved free_at advances (each
// followed by refresh), filtered peeks, and accept-all peeks, over fault
// plans with outage and slowdown windows. The test drives both policies
// through seeded random traffic and requires the SAME (availability,
// instance) pair at every step -- including the tie-break on the lowest
// instance index and the nullopt case when a filter rejects everything.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "serve/availability.hpp"
#include "serve/faults.hpp"

namespace {

using nova::Rng;
using nova::serve::AvailabilityHeap;
using nova::serve::earliest_available_linear;
using nova::serve::FaultPlan;
using nova::serve::FaultProfile;

/// The accept-all filter: peek_min_where(accept_all) is the unfiltered
/// minimum, always present (one fresh entry per instance).
bool accept_all(int /*instance*/) { return true; }

/// One randomized episode: a drawn fault plan, a pool of instances, and a
/// stream of interleaved mutations and peeks. Returns the number of peeks
/// compared (so callers can assert the episode actually exercised both
/// paths).
int run_episode(std::uint64_t seed, int instances, int steps) {
  Rng rng(seed);
  FaultProfile profile;
  profile.mtbf_us = 500.0 + rng.uniform(0.0, 2000.0);
  profile.mttr_us = 100.0 + rng.uniform(0.0, 500.0);
  profile.slowdown_fraction = 0.3;
  // Every third episode runs fault-free: the heap must also match the scan
  // when next_up_us degenerates to the identity on free_at.
  const FaultPlan faults =
      seed % 3 == 0 ? FaultPlan()
                    : nova::serve::draw_fault_plan(profile, instances,
                                                   20000.0, seed);

  std::vector<double> free_at(static_cast<std::size_t>(instances), 0.0);
  AvailabilityHeap heap(faults, free_at);

  int peeks = 0;
  for (int step = 0; step < steps; ++step) {
    const auto action = rng.next_below(4);
    if (action == 0) {
      // Advance a random instance's busy horizon (availability only ever
      // grows -- the heap's staleness argument depends on it) and refresh.
      const auto j = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(instances)));
      free_at[j] += rng.uniform(0.0, 400.0);
      heap.refresh(static_cast<int>(j));
    } else if (action == 1) {
      // Accept-all peek: always present.
      const auto got = heap.peek_min_where(accept_all);
      const auto want = earliest_available_linear(faults, free_at, accept_all);
      EXPECT_TRUE(got.has_value());
      EXPECT_TRUE(want.has_value());
      EXPECT_EQ(got, want) << "unfiltered peek diverged at step " << step;
      ++peeks;
    } else {
      // Filtered peek: a random subset mask, sometimes rejecting all.
      std::vector<bool> allowed(static_cast<std::size_t>(instances));
      for (auto&& bit : allowed) bit = rng.next_below(3) != 0;
      const auto ok = [&allowed](int j) {
        return allowed[static_cast<std::size_t>(j)];
      };
      const auto got = heap.peek_min_where(ok);
      const auto want = earliest_available_linear(faults, free_at, ok);
      EXPECT_EQ(got, want) << "filtered peek diverged at step " << step;
      ++peeks;
      // A filtered peek must not disturb the heap: the very next
      // accept-all peek still matches the scan.
      const auto after = heap.peek_min_where(accept_all);
      const auto after_want =
          earliest_available_linear(faults, free_at, accept_all);
      EXPECT_TRUE(after.has_value());
      EXPECT_EQ(after, after_want)
          << "peek_min_where perturbed the heap at step " << step;
    }
  }
  return peeks;
}

TEST(AvailabilityHeap, MatchesLinearScanOnRandomTraffic) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const int instances = 1 + static_cast<int>(seed % 7);
    ASSERT_GT(run_episode(seed, instances, 160), 0)
        << "episode " << seed << " never compared a peek";
  }
}

TEST(AvailabilityHeap, TieBreaksOnLowestInstance) {
  // All instances identical: the argmin must be instance 0 forever, no
  // matter how many stale entries pile up on the other instances.
  const FaultPlan faults;
  std::vector<double> free_at(4, 0.0);
  AvailabilityHeap heap(faults, free_at);
  EXPECT_EQ(heap.peek_min_where(accept_all),
            (std::pair<double, int>{0.0, 0}));
  for (std::size_t j = 0; j < free_at.size(); ++j) {
    free_at[j] = 10.0;  // same key everywhere, refreshed in reverse
  }
  for (int j = 3; j >= 0; --j) heap.refresh(j);
  EXPECT_EQ(heap.peek_min_where(accept_all),
            (std::pair<double, int>{10.0, 0}));
  const auto want = earliest_available_linear(faults, free_at, accept_all);
  EXPECT_EQ(heap.peek_min_where(accept_all), want);
}

TEST(AvailabilityHeap, AllRejectedYieldsNullopt) {
  const FaultPlan faults;
  std::vector<double> free_at(3, 5.0);
  AvailabilityHeap heap(faults, free_at);
  const auto none = heap.peek_min_where([](int) { return false; });
  EXPECT_FALSE(none.has_value());
  EXPECT_FALSE(earliest_available_linear(faults, free_at,
                                         [](int) { return false; })
                   .has_value());
  // And the rejection round-trip restored every entry.
  EXPECT_EQ(heap.peek_min_where(accept_all),
            (std::pair<double, int>{5.0, 0}));
}

}  // namespace
