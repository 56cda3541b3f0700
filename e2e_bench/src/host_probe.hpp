// Host-speed probe: a fixed piece of single-threaded work, owned by the
// benchmark and independent of the nova library, timed between the
// benchmark's own measurements. On a shared host the same work can take
// 1.5x to 1.8x as long from one minute to the next (other tenants share
// the cores' caches and memory); the probe slows with it, so a time
// divided by the adjacent probe's slowdown is steady from run to run,
// while a change to the nova library moves it in full.
#pragma once

#include <cstdint>

namespace e2e {

/// The probe's duration on the host the scaled metrics are expressed
/// for: an uncontended 4-core Intel Xeon VM at 2.0 GHz. Only ratios
/// between runs matter; the value keeps scaled figures near raw ones.
inline constexpr double kProbeReferenceS = 0.048;

struct ProbeResult {
  double seconds = 0.0;
  /// Depends only on the probe's fixed inputs; equal on every call.
  std::uint64_t checksum = 0;
};

/// Sorts, hashes and tree-inserts a fixed pseudo-random sequence: small
/// allocations and scattered memory access, like pricing and dispatch.
ProbeResult run_host_probe();

/// How much slower than the reference host this probe ran (> 1: slower).
inline double slowdown(const ProbeResult& probe) {
  return probe.seconds / kProbeReferenceS;
}

}  // namespace e2e
