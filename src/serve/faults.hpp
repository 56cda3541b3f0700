// Deterministic fault injection for the serving layer: per-instance
// fail/recover windows and slowdown intervals that the BatchScheduler's
// dispatch loop consults when placing work.
//
// A FaultPlan is a validated, immutable timeline per instance: ordered,
// non-overlapping windows during which the instance is either down (an
// outage -- dispatch skips it, batches in flight fail at the window start)
// or degraded (a slowdown -- service times stretch by a factor). Plans are
// either hand-built through FaultPlan::make (which validates eagerly and
// aborts with a message naming the offending window, the same contract as
// BatchScheduler's stream validation) or drawn from a seeded exponential
// MTBF/MTTR profile via draw_fault_plan.
//
// Lookups: every query binary-searches the instance's windows for the
// first one ending after the query time and walks on from there, so a
// query costs O(log W) in the instance's W windows plus the few windows
// it actually inspects -- dispatch asks several per iteration, and W grows
// with the stream's horizon.
//
// Determinism: every fault draw comes from an RNG stream keyed by
// (seed, instance id) alone -- never from thread timing, draw order across
// instances, or pool size -- so instance i's windows are byte-identical
// whether the pool holds 1 instance or 100, and reports stay byte-identical
// across --threads like everything else in the serve stack.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace nova::serve {

/// What a fault window does to its instance while active.
enum class FaultKind {
  /// Hard outage: the instance accepts no dispatches, and a batch in
  /// flight when the window opens fails at the window start.
  kOutage,
  /// Degraded service: dispatches still land but run `slowdown` times
  /// longer (thermal throttling, a noisy neighbour, a flaky link).
  kSlowdown,
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// One fault interval [start_us, end_us) on one instance.
struct FaultWindow {
  FaultKind kind = FaultKind::kOutage;
  double start_us = 0.0;
  double end_us = 0.0;
  /// Service-time multiplier while a kSlowdown window is active; must be
  /// >= 1 (a "slowdown" below 1 would be a speedup and is almost always a
  /// sign the caller inverted the factor). Outage windows keep 1.0.
  double slowdown = 1.0;
};

/// The validated per-instance fault timeline (see file comment). A
/// default-constructed plan has no windows anywhere: every instance is
/// always healthy, and the scheduler's behaviour is byte-identical to a
/// run without any plan at all.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Builds a plan from `windows[i]` = instance i's fault windows.
  /// Instances beyond windows.size() are fault-free. Validation is eager
  /// and active in every build type: each window needs a finite
  /// start_us >= 0, a positive duration, and slowdown >= 1 for kSlowdown
  /// windows; per instance the windows must be sorted by start and
  /// non-overlapping. A violation aborts with a message naming the
  /// instance and window index instead of mis-simulating silently.
  [[nodiscard]] static FaultPlan make(
      std::vector<std::vector<FaultWindow>> windows);

  /// True when no instance has any window (the zero-fault plan).
  [[nodiscard]] bool empty() const;

  /// Windows of `instance` (empty past the plan's instance count).
  [[nodiscard]] const std::vector<FaultWindow>& windows(int instance) const;

  /// Instances the plan carries windows for.
  [[nodiscard]] int instances() const {
    return static_cast<int>(windows_.size());
  }

  /// Earliest time >= t at which `instance` is outside every outage
  /// window (slowdown windows do not block dispatch).
  [[nodiscard]] double next_up_us(int instance, double t) const;

  /// Service-time multiplier active on `instance` at time t (1.0 outside
  /// every slowdown window).
  [[nodiscard]] double slowdown_at(int instance, double t) const;

  /// Start of the first outage window opening inside (start, finish), if
  /// any: the instant a batch in flight over that interval fails.
  [[nodiscard]] std::optional<double> outage_in(int instance, double start,
                                                double finish) const;

  /// Total outage time of `instance` inside [start, finish] (slowdown
  /// windows count as up); the availability numerator's complement.
  [[nodiscard]] double downtime_in(int instance, double start,
                                   double finish) const;

 private:
  /// `instance`'s windows from the first one ending after t: every window
  /// before it ends at or before t, so no query from t onward can use it.
  [[nodiscard]] std::span<const FaultWindow> windows_after(int instance,
                                                           double t) const;

  std::vector<std::vector<FaultWindow>> windows_;
};

/// Seeded exponential failure model: instances alternate exponentially
/// distributed up-times (mean mtbf_us) and repair times (mean mttr_us),
/// so the long-run expected unavailability is mttr / (mtbf + mttr).
struct FaultProfile {
  /// Mean time between failures (up-time before the next fault), > 0.
  double mtbf_us = 20000.0;
  /// Mean time to recover (fault window duration), > 0.
  double mttr_us = 2000.0;
  /// Fraction of drawn faults that degrade (kSlowdown) instead of killing
  /// (kOutage) the instance; in [0, 1].
  double slowdown_fraction = 0.0;
  /// Service-time multiplier of drawn slowdown windows; >= 1.
  double slowdown_factor = 4.0;
};

/// Draws a FaultPlan for `instances` instances over [0, horizon_us) from
/// `profile`. Instance i's windows come from an RNG stream keyed by
/// (seed, i) alone, so they do not change when the pool grows or shrinks.
/// Profile preconditions (positive MTBF/MTTR, fraction in [0, 1], factor
/// >= 1) abort eagerly on violation.
[[nodiscard]] FaultPlan draw_fault_plan(const FaultProfile& profile,
                                        int instances, double horizon_us,
                                        std::uint64_t seed);

}  // namespace nova::serve
