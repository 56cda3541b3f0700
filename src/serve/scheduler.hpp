// BatchScheduler: packs a stream of inference requests onto a pool of
// simulated NOVA accelerator instances and reports end-to-end latency
// percentiles and throughput.
//
// Two-phase design, so the outcome is bit-identical for any worker-thread
// count:
//
//   1. Pricing (parallel): every request is priced from its workload's
//      attention-pipeline operator graph on the configured host fabric --
//      the full-sequence prefill graph (pipeline::build_graph) or the
//      single-step decode graph at its KV-cache length
//      (pipeline::build_decode_graph) -- not from the non-linear stream
//      alone.
//      In `exact` pricing mode every distinct shape runs the cycle-accurate
//      path (serve::ExactPricer): up to sim_elements_cap elements per
//      router through core::SimSession over inputs synthesized
//      deterministically from (config.seed, request shape); the run's
//      measured steady-state wave rate and pipeline fill then parameterize
//      a PipelineExecutor walk of the graph, whose overlap-aware makespan
//      (fabric GEMM tiles overlapping NOVA waves) is the request's service
//      time. In `surrogate` mode only a handful of log-spaced anchor
//      shapes per (workload, phase, function, breakpoints) class run that
//      path; everything else interpolates on the fitted monotone PWL cost
//      curves (serve::PricingSurrogate), one prediction per distinct shape
//      on the worker pool, each into its own pre-sized slot. Under
//      `--fusion auto` every prediction also runs the per-shape fusion
//      tuner, whose candidate graphs are per-thread buffers reused from
//      shape to shape (pipeline/fusion.hpp). `hybrid` runs the surrogate and
//      additionally re-prices a deterministic sample of distinct shapes
//      exactly, reconciling the two within surrogate_tol (the audit lands
//      in ServeReport::surrogate; CLI/bench drivers exit non-zero on
//      drift). Requests are independent, so the worker pool shares nothing
//      but read-only state: the surrogate's fitted curves and the PWL
//      tables (pre-warmed before fan-out; PwlLibrary::get is additionally
//      thread-safe; PWL keys that are not baked train in parallel across
//      config.threads during that warm-up).
//
//      Pricing walks each request's step decomposition
//      (for_each_session_step in serve/session.hpp) once, into a flat
//      table: per-request step offsets, one dense shape id per step
//      (interned on the workload's small id plus the shape's ints, so no
//      per-step string is built or compared), and one share per step. The
//      distinct shapes are sorted into ShapeKey order before pricing, so
//      every pricing mode sees the same set in the same order whatever the
//      stream order. The fold leaves one flat StepCost array; no
//      per-request vector survives into dispatch.
//
//   2. Dispatch (serial, deterministic): one event-driven loop over
//      session steps. Each request's session plan (serve/session.hpp) --
//      prefill chunks plus a kv-growing decode chain -- is a chain of
//      dispatch units: a session pins to the instance that completes its
//      first unit (its KV cache lives there), later units become ready the
//      moment the previous one finishes, and each iteration the
//      earliest-startable unit wins the dispatch (ties to the oldest;
//      instance availability comes from a lazily-revalidated
//      (next_free_us, instance) min-heap). Up to max_batch other ready
//      units sharing the head's PWL table (function + breakpoints) AND
//      phase fuse in: fused waves reuse the broadcast flit train
//      back-to-back, so each extra member saves the pipeline-fill latency
//      of its first wave (the overlap credit). Prefill and decode never
//      fuse -- they share no wave shape. New sessions are admitted only
//      while the instance has a free session slot (max_batch concurrent
//      sessions per instance), which bounds interleaving so neither
//      admissions nor running sessions starve. The fusion scan stops
//      reading the new-session queue once the instance's slots are gone,
//      and the pinned queue holds one step per slot-holding session, so
//      under backlog a dispatch costs O(max_batch) scan visits however
//      deep the backlog grows (ServeReport::dispatch_scan_visits counts
//      them). The new-session queue costs no allocation per request: the
//      sessions never dispatched yet are the validated stream itself, in
//      (arrival, id) order, kept as a linked list over request ids (two
//      int arrays, O(1) unlink of any fused member); only sessions
//      re-queued by a fault before their first unit completed sit in a
//      small (ready_us, id)-ordered set, and the queue head and the fusion
//      scan walk the merge of the two. Admission control
//      (deadline/overload shedding) runs once per session, at its first
//      unit. An outage kills only the unit in flight: the session keeps
//      its completed units and retries just that one after backoff (the
//      retry budget, policy.max_retries, is per unit).
//
//      config.continuous picks the unit. Continuous batching
//      (Orca/Sarathi-style iteration-level scheduling) dispatches one
//      plan step per unit. Whole-request mode, the default, differs in
//      exactly two ways: every plan folds into ONE unit priced at its
//      summed service (so an outage loses the whole request), and the
//      fusion scan is a FIFO run that stops at the first table or phase
//      mismatch instead of skipping it. A one-unit session frees its slot
//      in the iteration that claims it, so the slot cap never binds there.
//
//      Failure awareness (config.faults + config.policy): dispatch skips
//      instances inside an outage window; a batch whose instance fails
//      mid-service is re-queued and retried with capped exponential
//      backoff + deterministic jitter (kFailed after max_retries);
//      requests whose projected finish already misses their deadline are
//      shed at admission; and past a projected-queue-wait threshold the
//      effective batch cap shrinks toward latency before best-effort work
//      is shed. With the default (empty) FaultPlan and default policy the
//      loop reduces exactly to the paragraphs above: a zero-fault run is
//      byte-identical to a fault-free one.
//
// All times are simulated microseconds; the accelerator clock converts the
// SimSession's cycle counts (config.nova.accel_freq_mhz cycles per us).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/vector_unit.hpp"
#include "hwmodel/vector_unit_cost.hpp"
#include "serve/faults.hpp"
#include "serve/policy.hpp"
#include "serve/request.hpp"
#include "serve/session.hpp"
#include "serve/surrogate.hpp"
#include "sim/stats.hpp"

namespace nova::serve {

/// Deployment of the serving pool.
struct ServeConfig {
  /// Hardware configuration of every instance in the pool.
  core::NovaConfig nova;
  /// Host accelerator whose compute fabric executes the GEMM side of each
  /// request's operator graph (the NOVA unit `nova` serves its non-linear
  /// side).
  hw::AcceleratorKind host = hw::AcceleratorKind::kTpuV4;
  /// Simulated accelerator instances served by the pool.
  int instances = 1;
  /// Worker threads pricing requests in phase 1 (does not affect results).
  int threads = 1;
  /// Max requests fused into one instance dispatch; 1 disables batching.
  /// Under `continuous` it is also the per-instance session-slot cap: at
  /// most max_batch sessions hold state on one instance at a time.
  int max_batch = 8;
  /// Seed for per-request input synthesis.
  std::uint64_t seed = 42;
  /// Elements per router simulated cycle-accurately when pricing one
  /// request; the remainder of the stream extrapolates at the measured
  /// steady-state rate.
  int sim_elements_cap = 8192;
  /// How distinct request shapes are priced (see surrogate.hpp): exact
  /// cycle-accurate runs per shape, surrogate interpolation anchored by a
  /// few such runs, or hybrid (surrogate + sampled exact reconciliation).
  PricingMode pricing = PricingMode::kExact;
  /// How pricing rewrites each shape's operator graph before walking it
  /// (pipeline/fusion.hpp): off = the builder graph untouched (byte
  /// identical to pre-fusion binaries), on = every fusion pass, auto = the
  /// per-shape tuner's argmin over all 8 masks. Admission therefore prices
  /// the TUNED graph: the same speedup the executor would realize is the
  /// one the scheduler projects. Composes with every pricing mode --
  /// surrogate/hybrid interpolate the calibration, and the fusion rewrite
  /// happens inside the shared graph walk.
  pipeline::FusionMode fusion = pipeline::FusionMode::kOff;
  /// Max cycle-accurate anchor runs per pricing class in surrogate/hybrid
  /// mode; classes with at most this many distinct lengths are anchored
  /// exactly (no interpolation at all).
  int surrogate_anchors = 8;
  /// Relative service-cycle tolerance hybrid reconciliation enforces.
  double surrogate_tol = 0.02;
  /// Distinct shapes hybrid mode re-prices exactly, spread evenly over the
  /// shape-sorted distinct set (deterministic; capped by the set size).
  int hybrid_samples = 24;
  /// Per-instance fault timeline dispatch simulates against (see
  /// faults.hpp). The default empty plan keeps every instance healthy and
  /// the run byte-identical to a pre-fault one.
  FaultPlan faults;
  /// Retry/backoff, deadline-shedding, and overload-degradation policy
  /// (see policy.hpp). Validated eagerly by the constructor.
  FailurePolicy policy;
  /// Continuous batching: dispatch at step granularity (sessions advance
  /// one kv-growing decode step per dispatch, prefills split into
  /// chunk_tokens-sized chunks) instead of whole requests. Off by
  /// default; the whole-request path is bit-identical to the pre-session
  /// scheduler.
  bool continuous = false;
  /// Prefill chunk size in prompt tokens under continuous batching; a
  /// prefill of seq_len S becomes ceil(S / chunk_tokens) dispatches.
  int chunk_tokens = 64;
};

/// Where and when one request was served -- or why it was not.
///
/// Unserved contract: outcomes whose status is kShed or kFailed were never
/// serviced to completion, and every service-side field stays at its zero
/// default -- instance == -1, batch_id == -1, service_cycles == 0,
/// service_us == start_us == finish_us == first_finish_us == 0.0
/// (enforced by the scheduler, not merely documented; shed requests are
/// priced for the admission projection but the price is not part of their
/// outcome). Aggregate consumers must filter on served() rather than
/// probing instance == -1. session_steps / prefill_chunks describe the
/// plan, not the service, and survive the zeroing.
struct RequestOutcome {
  InferenceRequest request;
  /// Terminal status; kOk/kRetried/kDeadlineMiss outcomes were served to
  /// completion, kShed/kFailed never were (see the unserved contract).
  RequestStatus status = RequestStatus::kOk;
  /// Dispatch attempts made: 1 + every retry any step of the session
  /// spent (1 = served first try; a shed request records the attempt it
  /// was shed on, a failed single-step request max_retries + 1).
  int attempts = 1;
  int instance = -1;
  int batch_id = -1;
  int batch_size = 1;
  /// Non-linear element operations one inference of this request costs.
  std::int64_t approx_ops = 0;
  /// Standalone service cost: the overlap-aware makespan of the request's
  /// operator-graph timeline, with the vector-unit rate and fill measured
  /// by the cycle-accurate pricing run.
  sim::Cycle service_cycles = 0;
  int wave_latency_cycles = 0;
  double service_us = 0.0;
  double start_us = 0.0;   ///< first (successful) dispatch of the session
  double finish_us = 0.0;  ///< completion of the session's last step
  /// Steps in this request's session plan: prefill chunks + decode steps,
  /// 1 for a classic single-step request. A plan property (set by
  /// pricing), so it survives the unserved zeroing.
  int session_steps = 1;
  /// Chunks the prefill split into (0 for decode-phase requests); also a
  /// plan property.
  int prefill_chunks = 0;
  /// Completion of the session's first step -- the time-to-first-token
  /// proxy under continuous batching. Equals finish_us for
  /// single-dispatch sessions; zeroed when unserved.
  double first_finish_us = 0.0;

  /// True when the request completed service (kOk/kRetried/kDeadlineMiss).
  [[nodiscard]] bool served() const {
    return status == RequestStatus::kOk ||
           status == RequestStatus::kRetried ||
           status == RequestStatus::kDeadlineMiss;
  }
  /// End-to-end latency; meaningful only for served() outcomes (0 minus
  /// arrival otherwise -- check served() first).
  [[nodiscard]] double latency_us() const {
    return finish_us - request.arrival_us;
  }
  [[nodiscard]] double queue_us() const {
    return start_us - request.arrival_us;
  }
};

/// Per-instance utilization and availability accounting.
struct InstanceStats {
  int requests = 0;
  int batches = 0;
  double busy_us = 0.0;
  /// Dispatches on this instance killed by an outage window.
  int failed_batches = 0;
  /// Outage time inside the report's makespan (slowdown windows count as
  /// up -- they serve, just slowly).
  double down_us = 0.0;
  /// Fraction of the makespan this instance was up; 1 when no faults.
  double availability = 1.0;
};

/// The full serving run: per-request outcomes plus aggregates.
struct ServeReport {
  /// Outcomes indexed by request id (= arrival order).
  std::vector<RequestOutcome> outcomes;
  std::vector<InstanceStats> instances;
  /// Aggregates; latency percentiles live in the "serve.latency_us"
  /// histogram, batch sizes in "serve.batch_size".
  sim::StatRegistry stats;
  /// How pricing ran: mode, anchor spend, and (hybrid) the reconciliation
  /// samples with their max relative error.
  SurrogateAudit surrogate;
  /// First arrival to last completion.
  double makespan_us = 0.0;
  /// Served requests (kOk/kRetried/kDeadlineMiss) per second of makespan:
  /// raw delivery rate, deadline misses included.
  double throughput_rps = 0.0;
  /// Useful work per second of makespan: served requests that also met
  /// their deadline (kOk/kRetried). Equals throughput_rps when nothing is
  /// shed, failed, or late -- i.e. in every fault-free, deadline-free run.
  double goodput_rps = 0.0;
  /// Outcome counts indexed by RequestStatus; sums to outcomes.size().
  std::array<std::uint64_t, kRequestStatusCount> status_counts{};
  /// Fusion-scan candidates dispatch examined, summed over dispatches: a
  /// deterministic count of host work, not model output, so it stays out
  /// of `stats` and out of every printed report. Per dispatch it is the
  /// instance's pinned steps (at most max_batch) plus the new-session
  /// entries read while the instance still has a free slot.
  std::uint64_t dispatch_scan_visits = 0;

  [[nodiscard]] std::uint64_t status_count(RequestStatus status) const {
    return status_counts[static_cast<std::size_t>(status)];
  }

  /// Latency percentile over SERVED requests only (the "serve.latency_us"
  /// histogram never records shed/failed outcomes, which have no finish).
  /// 0.0 when nothing was served, matching the Histogram empty contract.
  [[nodiscard]] double latency_percentile_us(double p) const;
};

/// Deterministic request-to-instance packing over a worker pool.
class BatchScheduler {
 public:
  explicit BatchScheduler(const ServeConfig& config);

  /// Serves `requests`. The stream contract -- sorted by arrival_us, ids
  /// 0..n-1, finite arrivals, coherent phase/kv_len -- is validated
  /// eagerly in every build type; a hand-built vector violating it aborts
  /// with a message naming the offending request instead of dispatching in
  /// a silently wrong order. Identical inputs give identical reports for
  /// every config.threads value, in every pricing mode.
  [[nodiscard]] ServeReport run(
      const std::vector<InferenceRequest>& requests) const;

 private:
  /// The priced dispatch units of every session, flat: session `id`'s
  /// units are costs[begin[id]] .. costs[begin[id + 1] - 1], one per plan
  /// step under continuous batching and one per request in whole mode.
  struct UnitTable {
    std::vector<std::size_t> begin;
    std::vector<StepCost> costs;
  };

  /// Walks every request's step decomposition into a flat table of
  /// interned shape ids, prices every distinct shape, and folds the
  /// results into per-request aggregates (outcomes) and the unit table.
  [[nodiscard]] UnitTable price_requests(
      const std::vector<InferenceRequest>& requests,
      std::vector<RequestOutcome>& outcomes, SurrogateAudit& audit) const;

  /// The step-clocked dispatch loop, over one-unit sessions in whole mode.
  /// Returns the last finish time.
  double dispatch(const std::vector<InferenceRequest>& requests,
                  const UnitTable& units, ServeReport& report) const;

  ServeConfig config_;
};

}  // namespace nova::serve
