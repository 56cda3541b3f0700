// Cycle-accurate model of the NOVA line NoC with SMART-style clockless
// repeaters (paper Section III.A.2).
//
// Topology: a single line of routers; flits are injected at the head and
// snake through every router in a fixed route ("the slope and bias values
// are stored in the NoC wires"). Each router's input has a register bank and
// a bypass path; within one NoC cycle a flit propagates combinationally
// through up to `max_hops_per_cycle` routers, then latches into the next
// router's input register and continues the following cycle -- the SMART
// multi-hop discipline.
//
// The model tracks each in-flight flit as a wavefront. A router "observes" a
// flit (sniffs the broadcast for its tag-matching logic) in the cycle the
// flit passes through it, whether by bypass or from its own latch.
#pragma once

#include <deque>

#include "noc/flit.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"

namespace nova::noc {

struct LineNocConfig {
  int routers = 4;
  /// SMART bypass depth: routers traversable combinationally per NoC cycle.
  /// Derived from hw::max_hops_per_cycle for the physical layout.
  int max_hops_per_cycle = 10;
};

/// Receiver of router observations: the capture datapath attached to the
/// line. One virtual call per (router, flit) observation.
class CaptureSink {
 public:
  virtual ~CaptureSink() = default;
  /// Router `router` observes `flit` in NoC cycle `noc_now`.
  virtual void on_observation(int router, const Flit& flit,
                              sim::Cycle noc_now) = 0;
};

/// The line NoC as a sim component clocked in the NoC domain.
class LineNoc final : public sim::Ticked {
 public:
  /// `stats` may be null; when provided the NoC counts flits, wire-segment
  /// traversals, register latches, and observations into it (counter names
  /// interned once here, bumped as per-tick aggregates).
  LineNoc(const LineNocConfig& config, sim::StatRegistry* stats);

  /// Attaches the capture datapath (non-owning; may be null to detach).
  /// The only way to observe the line: simulation sessions attach their
  /// capture units here, and tests attach a recording sink.
  void set_sink(CaptureSink* sink) { sink_ = sink; }

  /// Queues a flit for injection; at most one flit enters the line per NoC
  /// cycle (the line is a single physical channel).
  void inject(Flit flit);

  /// Advances all wavefronts one NoC cycle and starts the next queued flit.
  void tick(sim::Cycle now) override;

  /// True when no flit is in flight or queued. Doubles as the engine's
  /// quiescence hook: an idle line stays idle until the next inject(), so
  /// the engine may fast-forward across it.
  [[nodiscard]] bool idle() const override {
    return in_flight_.empty() && inject_queue_.empty();
  }

  [[nodiscard]] const LineNocConfig& config() const { return config_; }

 private:
  struct Wavefront {
    Flit flit;
    /// Next router index to observe this flit.
    int frontier = 0;
  };

  /// Per-tick stat deltas, accumulated locally in tick() and flushed as one
  /// bump per counter instead of one per event.
  struct TickDeltas {
    std::uint64_t observations = 0;
    std::uint64_t segment_traversals = 0;
    std::uint64_t register_latches = 0;
    std::uint64_t flits_injected = 0;
  };

  void advance(Wavefront& wave, sim::Cycle now, TickDeltas& deltas);

  LineNocConfig config_;
  sim::StatRegistry* stats_;  // non-owning, may be null
  sim::StatId id_observations_;
  sim::StatId id_segment_traversals_;
  sim::StatId id_register_latches_;
  sim::StatId id_flits_injected_;
  CaptureSink* sink_ = nullptr;  // non-owning
  std::deque<Wavefront> in_flight_;
  std::deque<Flit> inject_queue_;
};

}  // namespace nova::noc
