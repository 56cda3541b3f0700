// SimSession: one cycle-accurate run of the NOVA vector unit, with every
// piece of per-run state (engine, line NoC, pipeline waves, cursors,
// statistics) owned by the session object instead of living in the body of
// NovaVectorUnit::approximate.
//
// The extraction exists for the serving layer: a NovaVectorUnit is a pure
// description of a deployment, and any number of SimSessions over the same
// unit (or the same PwlTable) may run concurrently on independent threads --
// nothing in here touches shared mutable state. Callers must keep the table
// and input streams alive for the session's lifetime and must not share one
// session between threads; a session is single-shot (construct, run once,
// read the result).
//
// Hot-path structure (this is the simulator's innermost loop, and therefore
// the serving layer's per-request cost):
//   * The session attaches to the LineNoc as a noc::CaptureSink -- one
//     virtual call per router observation, no std::function hop.
//   * Wave issue runs in passes over each router's slice of the wave:
//     quantize every input, then the comparator bank -- boundaries in the
//     outer loop, neurons in the inner one, so the compiler vectorizes the
//     compares across neurons in 16-bit lanes. The same compares, summed
//     per boundary, give each tag's entry count. No pass branches on an
//     input's value.
//   * Capture is one count per (router, tag): the first observation of a
//     tag credits all of that tag's entries at once, and a wave is complete
//     when no entry is left uncredited.
//   * The MAC reads each entry's (slope, bias) from a per-address table
//     built once per session from the broadcast schedule -- the only pairs
//     the line ever carries (debug builds check each observed flit against
//     it).
//   * The two pipeline stages are two Wave buffers allocated at
//     construction and swapped, so a run allocates nothing per wave.
//   * Statistic counters are interned once (sim::StatId) and bumped as
//     per-wave aggregates, not once per element event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/vector_unit.hpp"
#include "noc/line_noc.hpp"

namespace nova::core {

/// One reentrant, single-shot simulation of a NOVA deployment approximating
/// `table` over per-router input streams.
class SimSession final : private noc::CaptureSink {
 public:
  /// `table` and `inputs` are borrowed for the session's lifetime.
  /// inputs.size() must equal config.routers.
  SimSession(const NovaConfig& config, const approx::PwlTable& table,
             const std::vector<std::vector<double>>& inputs);

  SimSession(const SimSession&) = delete;
  SimSession& operator=(const SimSession&) = delete;

  /// Runs the pipeline to drain and returns the batch result. Single-shot:
  /// calling run() twice is a contract violation.
  [[nodiscard]] ApproxResult run();

 private:
  /// One in-flight wave. Router r's entries occupy
  /// [r * neurons_per_router, r * neurons_per_router + taken[r]) of the
  /// per-entry buffers, which are sized once at construction.
  struct Wave {
    Wave(std::size_t routers, std::size_t neurons_per_router,
         std::size_t tags);

    std::vector<Word16> inputs;           ///< quantized input words
    std::vector<std::int16_t> addresses;  ///< comparator-bank outputs
    std::vector<std::size_t> taken;       ///< entries per router
    /// Entries of (router r, tag t) at r * tags + t not yet credited.
    std::vector<int> pending;
    /// Entries not yet credited, over all routers.
    std::size_t outstanding = 0;
    sim::Cycle issued_at = 0;
    bool active = false;
  };

  /// noc::CaptureSink: router `router` sees `flit` on the line.
  void on_observation(int router, const noc::Flit& flit,
                      sim::Cycle noc_now) override;
  void accel_tick(sim::Cycle now);
  [[nodiscard]] bool all_inputs_consumed() const;
  /// Quiescence of the accelerator-side pipeline stages (the engine's idle
  /// fast-forward hook for the wave-issue callback).
  [[nodiscard]] bool pipeline_idle() const;
  [[nodiscard]] bool drained() const;

  NovaConfig config_;
  const approx::PwlTable& table_;                 // borrowed
  const std::vector<std::vector<double>>& inputs_;  // borrowed

  BroadcastSchedule schedule_;
  int hops_per_noc_cycle_ = 1;
  sim::Engine engine_;
  int accel_domain_ = 0;
  int noc_domain_ = 0;
  ApproxResult result_;
  sim::StatId id_pair_captures_;
  sim::StatId id_mac_ops_;
  sim::StatId id_comparator_ops_;
  sim::StatId id_waves_;
  noc::LineNoc line_;

  std::vector<std::size_t> cursor_;
  /// The pair each lookup address selects, as the line carries it.
  std::vector<noc::SlopeBiasPair> pairs_;
  Wave lookup_wave_;
  Wave mac_wave_;
  sim::Cycle last_mac_cycle_ = 0;
  bool any_mac_done_ = false;
  bool ran_ = false;
};

}  // namespace nova::core
