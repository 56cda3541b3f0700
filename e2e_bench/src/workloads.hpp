// The benchmark's three workloads: a request stream plus the serving
// deployment that runs it. Every stream is a pure function of the seed
// and the scale, so a seed re-creates the same inputs on any machine.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/request.hpp"
#include "serve/scheduler.hpp"

namespace e2e {

/// One named workload, ready to run.
struct Workload {
  /// Deployment the stream is served on. `threads` is left at 1; the
  /// caller picks the pricing thread count per run.
  nova::serve::ServeConfig config;
  std::vector<nova::serve::InferenceRequest> requests;
  /// Independent streams (each from its own derived seed) an untraced run
  /// pools its modeled statistics over: enough simulated traffic that they
  /// settle from seed to seed.
  int replicas = 1;
};

/// whole_poisson, continuous_backlog, pricing_sweep.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds workload `name` from `seed` at `scale` (1.0 is the full size,
/// smaller values shrink the stream for smoke runs). nullopt for an
/// unknown name.
[[nodiscard]] std::optional<Workload> make_workload(const std::string& name,
                                                    std::uint64_t seed,
                                                    double scale);

}  // namespace e2e
