// The traced run's per-layer breakdown. BatchScheduler::run is one call,
// so the benchmark replays its pricing half through the same public calls
// with spans around each, and measures the layers hidden inside a single
// library call (calibration, graph build, verify, walk, fusion tuner,
// surrogate fit and predict) with probe calls of their own.
#pragma once

#include <cstddef>
#include <vector>

#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "trace.hpp"

namespace e2e {

/// Work counts from one pricing replay.
struct PricingReplay {
  std::size_t steps = 0;  ///< session steps across every plan
  std::size_t distinct_shapes = 0;
  /// Cycle-accurate calibrations pricing runs: every distinct shape under
  /// exact pricing, the anchors (plus the audit sample under hybrid)
  /// otherwise.
  std::size_t calibrations = 0;
  /// Filled by the probes only.
  std::size_t graphs_walked = 0;
  std::size_t graphs_verified = 0;
  /// Distinct shapes whose probed service cycles differ from the
  /// replayed pricing (0 when the probes reproduce pricing exactly).
  std::size_t probe_mismatches = 0;
};

/// Replays the pricing half of `BatchScheduler(config).run(requests)` on
/// one thread under spans "serve.plan" (session plans, distinct shapes,
/// table look-ups) and "serve.pricing" (the pricing calls and the fold into
/// per-step costs). With `probe`, a following "trace.probe" span re-runs
/// each layer inside those calls on its own, under spans named after the
/// layer: core.calibrate, serve.surrogate_fit, serve.predict,
/// pipeline.graph_build, analysis.verify, pipeline.walk, pipeline.tune.
[[nodiscard]] PricingReplay replay_pricing(
    const nova::serve::ServeConfig& config,
    const std::vector<nova::serve::InferenceRequest>& requests,
    Tracer& tracer, bool probe);

}  // namespace e2e
