#include "serve/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "accel/accelerator.hpp"
#include "approx/mlp_fitter.hpp"
#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "serve/availability.hpp"

namespace nova::serve {

namespace {

/// Eager stream-contract validation: the generators guarantee all of this,
/// but hand-built request vectors have violated it in practice, and a
/// violation does not crash -- it dispatches in a silently wrong order or
/// mis-prices a phase. Active in every build type (like NOVA_EXPECTS),
/// with a message naming the offending request.
void validate_stream(const std::vector<InferenceRequest>& requests) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& req = requests[i];
    const auto fail = [&](const char* what) {
      std::fprintf(stderr,
                   "nova: BatchScheduler::run precondition violation: "
                   "request at position %zu (id %d, workload '%s', "
                   "arrival %g us): %s\n",
                   i, req.id, req.workload.c_str(), req.arrival_us, what);
      std::abort();
    };
    if (req.id != static_cast<int>(i)) {
      fail("ids must be 0..n-1 in stream order (re-number after sorting)");
    }
    if (!std::isfinite(req.arrival_us) || req.arrival_us < 0.0) {
      fail("arrival_us must be finite and >= 0");
    }
    if (i > 0 && requests[i - 1].arrival_us > req.arrival_us) {
      fail("requests must be sorted by arrival_us (earlier request "
           "arrives later)");
    }
    if (req.seq_len < 1 || req.breakpoints < 2) {
      fail("seq_len must be >= 1 and breakpoints >= 2");
    }
    if (req.phase == pipeline::Phase::kDecode && req.kv_len < 1) {
      fail("decode requests need kv_len >= 1");
    }
    if (req.phase == pipeline::Phase::kPrefill && req.kv_len != 0) {
      fail("prefill requests must not carry a non-zero kv_len");
    }
    if (!std::isfinite(req.deadline_us) || req.deadline_us < 0.0) {
      fail("deadline_us must be finite and >= 0 (0 = no deadline)");
    }
    if (req.gen_steps < 0 || req.gen_steps > kMaxGenSteps) {
      fail("gen_steps must be in [0, kMaxGenSteps] (decode steps chained "
           "onto the request)");
    }
  }
}

/// One queued dispatch attempt: a session step waiting to be
/// (re)dispatched. Ordered by (ready time, id) so the initial queue
/// replays arrival order exactly and retries merge back deterministically.
/// A session has exactly one Pending entry alive at a time (its next
/// step), so id doubles as the session identity.
struct Pending {
  double ready_us = 0.0;
  int id = 0;
  /// 1-based attempt number this entry represents (per step under
  /// continuous batching: the retry budget is per step, not per session).
  int attempt = 1;

  friend bool operator<(const Pending& a, const Pending& b) {
    if (a.ready_us != b.ready_us) return a.ready_us < b.ready_us;
    return a.id < b.id;
  }
};

/// A step's pricing identity with the workload interned to a small dense
/// id: two StepKeys are equal exactly when their ShapeKeys are, and one
/// hashes without touching a string.
struct StepKey {
  std::uint32_t workload = 0;
  int seq_len = 0;
  approx::NonLinearFn function = approx::NonLinearFn::kGelu;
  int breakpoints = 0;
  pipeline::Phase phase = pipeline::Phase::kPrefill;
  int kv_len = 0;

  friend bool operator==(const StepKey&, const StepKey&) = default;
};

struct StepKeyHash {
  std::size_t operator()(const StepKey& key) const {
    std::uint64_t h = key.workload;
    for (const auto field :
         {static_cast<std::uint64_t>(key.seq_len),
          static_cast<std::uint64_t>(key.function),
          static_cast<std::uint64_t>(key.breakpoints),
          static_cast<std::uint64_t>(key.phase),
          static_cast<std::uint64_t>(key.kv_len)}) {
      h = (h ^ field) * 0x9e3779b97f4a7c15ULL;
    }
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

/// Pre-warms every PWL table `shapes` need, so pricing workers never wait
/// on one. Baked keys only copy build-time arrays; a key that is not baked
/// (any --breakpoints or trace value outside approx::kBakedBreakpoints)
/// trains, and PwlLibrary::get trains each such key outside its mutex, so
/// they train in parallel on up to `threads` workers. One call per
/// distinct table, not per request.
void warm_tables(const std::vector<ShapeKey>& shapes, int threads) {
  auto& library = approx::PwlLibrary::instance();
  std::vector<std::pair<approx::NonLinearFn, int>> untrained;
  for (const auto& shape : shapes) {
    if (approx::PwlLibrary::baked(shape.function, shape.breakpoints)) {
      (void)library.get(shape.function, shape.breakpoints);
    } else {
      untrained.emplace_back(shape.function, shape.breakpoints);
    }
  }
  std::sort(untrained.begin(), untrained.end());
  untrained.erase(std::unique(untrained.begin(), untrained.end()),
                  untrained.end());
  parallel_for(untrained.size(), threads, [&](std::size_t i) {
    (void)library.get(untrained[i].first, untrained[i].second);
  });
}

/// The sessions that have not completed a unit yet, in (ready_us, id)
/// order. The never-dispatched ones are the validated request stream
/// itself -- already in (arrival_us, id) order -- kept as a doubly linked
/// list over request ids, so a fused member anywhere in it unlinks in
/// O(1) and no entry is ever allocated. Only sessions a fault re-queued
/// (attempt >= 2) live in a set. The head and Cursor walk the merge.
class NewSessionQueue {
 public:
  explicit NewSessionQueue(const std::vector<InferenceRequest>& requests)
      : requests_(&requests),
        next_(requests.size()),
        prev_(requests.size()),
        head_(requests.empty() ? kNone : 0) {
    const int n = static_cast<int>(requests.size());
    for (int i = 0; i < n; ++i) {
      next_[static_cast<std::size_t>(i)] = i + 1 < n ? i + 1 : kNone;
      prev_[static_cast<std::size_t>(i)] = i - 1;
    }
  }

  /// A forward walk over the merged queue in (ready_us, id) order.
  class Cursor {
   public:
    [[nodiscard]] bool done() const {
      return fresh_ == kNone && retry_ == queue_->retries_.end();
    }
    /// The entry under the cursor; requires !done().
    [[nodiscard]] Pending operator*() const {
      return on_fresh() ? queue_->fresh(fresh_) : *retry_;
    }
    Cursor& operator++() {
      if (on_fresh()) {
        fresh_ = queue_->next_[static_cast<std::size_t>(fresh_)];
      } else {
        ++retry_;
      }
      return *this;
    }

   private:
    friend class NewSessionQueue;
    explicit Cursor(const NewSessionQueue& queue)
        : queue_(&queue),
          fresh_(queue.head_),
          retry_(queue.retries_.begin()) {}
    [[nodiscard]] bool on_fresh() const {
      return fresh_ != kNone && (retry_ == queue_->retries_.end() ||
                                 queue_->fresh(fresh_) < *retry_);
    }
    const NewSessionQueue* queue_;
    int fresh_;
    std::set<Pending>::const_iterator retry_;
  };

  [[nodiscard]] bool empty() const {
    return head_ == kNone && retries_.empty();
  }
  [[nodiscard]] Cursor begin() const { return Cursor(*this); }
  /// The queue head; requires !empty().
  [[nodiscard]] Pending front() const { return *begin(); }

  /// Removes a queued entry.
  void erase(const Pending& entry) {
    if (entry.attempt > 1) {
      retries_.erase(entry);
      return;
    }
    const auto id = static_cast<std::size_t>(entry.id);
    const int prev = prev_[id];
    const int next = next_[id];
    if (prev == kNone) {
      head_ = next;
    } else {
      next_[static_cast<std::size_t>(prev)] = next;
    }
    if (next != kNone) prev_[static_cast<std::size_t>(next)] = prev;
  }

  /// Re-queues a session whose first unit was killed (attempt >= 2).
  void push_retry(const Pending& entry) {
    NOVA_EXPECTS(entry.attempt > 1);
    retries_.insert(entry);
  }

 private:
  static constexpr int kNone = -1;

  [[nodiscard]] Pending fresh(int id) const {
    return Pending{(*requests_)[static_cast<std::size_t>(id)].arrival_us,
                   id, 1};
  }

  const std::vector<InferenceRequest>* requests_;
  std::vector<int> next_;
  std::vector<int> prev_;
  int head_;
  std::set<Pending> retries_;
};

}  // namespace

double ServeReport::latency_percentile_us(double p) const {
  const auto* hist = stats.find_histogram("serve.latency_us");
  return hist == nullptr ? 0.0 : hist->percentile(p);
}

BatchScheduler::BatchScheduler(const ServeConfig& config) : config_(config) {
  NOVA_EXPECTS(config.instances >= 1);
  NOVA_EXPECTS(config.threads >= 1);
  NOVA_EXPECTS(config.max_batch >= 1);
  NOVA_EXPECTS(config.sim_elements_cap >= 1);
  NOVA_EXPECTS(config.nova.accel_freq_mhz > 0.0);
  NOVA_EXPECTS(config.surrogate_anchors >= 2);
  NOVA_EXPECTS(config.surrogate_tol > 0.0);
  NOVA_EXPECTS(config.hybrid_samples >= 1);
  NOVA_EXPECTS(config.chunk_tokens >= 1);
  // Graph pricing counts fabric cycles at the host's clock and converts
  // the whole span at nova.accel_freq_mhz; a host/NOVA clock mismatch
  // would silently mis-scale the GEMM share of every latency, so the two
  // domains must agree (make_overlay(host).nova pairs them correctly).
  NOVA_EXPECTS(accel::make_accelerator(config.host).freq_mhz ==
               config.nova.accel_freq_mhz);
  validate(config.policy);
}

BatchScheduler::UnitTable BatchScheduler::price_requests(
    const std::vector<InferenceRequest>& requests,
    std::vector<RequestOutcome>& outcomes, SurrogateAudit& audit) const {
  // NOVA's service time is input-independent (a wave completes when the
  // full tagged flit train has broadcast, regardless of the data values),
  // so pricing is memoized per distinct shape; only the distinct set ever
  // touches a pricing path. The set spans every SESSION STEP: decode
  // steps are ordinary per-kv_len shapes of the request's pricing class
  // (exactly what the surrogate's per-class curves interpolate), and all
  // chunks of a prefill share its one full-sequence shape -- so a stream
  // of classic single-step requests yields the same distinct set (and the
  // same hybrid reconciliation sample) as the pre-session scheduler.
  //
  // The step table is flat: units.begin holds each request's step offset
  // (turned into unit offsets after the fold), and every step gets a
  // dense shape id, interned in first-seen order on a StepKey, plus its
  // share.
  const auto n = requests.size();
  const bool continuous = config_.continuous;
  const int chunk_tokens = config_.chunk_tokens;
  UnitTable units;
  units.begin.resize(n + 1);
  std::size_t total_steps = 0;
  for (std::size_t i = 0; i < n; ++i) {
    units.begin[i] = total_steps;
    const SessionCounts counts =
        session_counts(requests[i], continuous, chunk_tokens);
    outcomes[i].session_steps = counts.total_steps();
    outcomes[i].prefill_chunks = counts.prefill_chunks;
    total_steps += static_cast<std::size_t>(counts.total_steps());
  }
  units.begin[n] = total_steps;

  std::vector<std::uint32_t> step_shape;
  std::vector<double> step_share;
  step_shape.reserve(total_steps);
  step_share.reserve(total_steps);
  std::unordered_map<StepKey, std::uint32_t, StepKeyHash> shape_ids;
  std::vector<ShapeKey> first_seen;  // indexed by shape id
  std::vector<const std::string*> workloads;  // indexed by workload id
  for (const auto& req : requests) {
    std::uint32_t workload = 0;
    while (workload < workloads.size() &&
           *workloads[workload] != req.workload) {
      ++workload;
    }
    if (workload == workloads.size()) workloads.push_back(&req.workload);
    for_each_session_step(
        req, continuous, chunk_tokens, [&](const StepShape& step) {
          const StepKey key{workload,        step.seq_len, req.function,
                            req.breakpoints, step.phase,   step.kv_len};
          const auto [it, added] = shape_ids.try_emplace(
              key, static_cast<std::uint32_t>(first_seen.size()));
          if (added) {
            first_seen.push_back(ShapeKey{req.workload, step.seq_len,
                                          req.function, req.breakpoints,
                                          step.phase, step.kv_len});
          }
          step_shape.push_back(it->second);
          step_share.push_back(step.share);
        });
  }

  // The distinct set in ShapeKey order: pricing, the surrogate's classes
  // and the hybrid sample see it exactly as when it was a sorted map.
  std::vector<std::uint32_t> order(first_seen.size());
  std::iota(order.begin(), order.end(), 0U);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return first_seen[a] < first_seen[b];
            });
  std::vector<ShapeKey> distinct;
  distinct.reserve(order.size());
  for (const auto id : order) distinct.push_back(std::move(first_seen[id]));

  warm_tables(distinct, config_.threads);

  PricerConfig pricer_config{config_.nova, config_.host, config_.seed,
                             config_.sim_elements_cap};
  pricer_config.fusion = config_.fusion;
  const ExactPricer pricer(pricer_config);
  audit.mode = config_.pricing;
  audit.distinct_shapes = distinct.size();
  audit.tolerance = config_.surrogate_tol;
  audit.fusion = config_.fusion;

  std::vector<ShapeCost> costs;
  if (config_.pricing == PricingMode::kExact) {
    costs = price_shapes(pricer, distinct, config_.threads);
  } else {
    const PricingSurrogate surrogate(pricer, distinct,
                                     config_.surrogate_anchors,
                                     config_.threads);
    audit.classes = surrogate.classes().size();
    audit.anchors_priced = surrogate.anchors_priced();
    // Predictions run on the pool, each into its own pre-sized slot, so
    // the costs cannot depend on the thread count (predict is reentrant).
    costs.resize(distinct.size());
    parallel_for(distinct.size(), config_.threads, [&](std::size_t i) {
      costs[i] = surrogate.predict(distinct[i]);
    });
    if (config_.pricing == PricingMode::kHybrid) {
      // Deterministic reconciliation sample: k shapes spread evenly over
      // the shape-sorted distinct set (indices depend only on the set
      // size, never on threads or timing). Each is re-priced through the
      // exact path and compared on service cycles.
      const std::size_t k = std::min<std::size_t>(
          static_cast<std::size_t>(config_.hybrid_samples), distinct.size());
      std::vector<std::size_t> picks;
      picks.reserve(k);
      for (std::size_t s = 0; s < k; ++s) {
        picks.push_back(k == 1 ? 0
                               : s * (distinct.size() - 1) / (k - 1));
      }
      picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
      std::vector<ShapeKey> sampled;
      sampled.reserve(picks.size());
      for (const auto index : picks) sampled.push_back(distinct[index]);
      const auto exact = price_shapes(pricer, sampled, config_.threads);
      for (std::size_t s = 0; s < picks.size(); ++s) {
        SurrogateSample sample;
        sample.shape = sampled[s];
        sample.exact_cycles = exact[s].service_cycles;
        sample.surrogate_cycles = costs[picks[s]].service_cycles;
        sample.rel_error =
            std::abs(sample.surrogate_cycles - sample.exact_cycles) /
            std::max(sample.exact_cycles, 1.0);
        audit.max_rel_error =
            std::max(audit.max_rel_error, sample.rel_error);
        audit.samples.push_back(std::move(sample));
      }
      audit.within_tolerance = audit.max_rel_error <= audit.tolerance;
    }
  }

  // Fusion tallies for the audit: how many distinct shapes actually priced
  // a rewritten graph, and the best per-shape tuner win.
  for (const auto& cost : costs) {
    if (cost.fusion != pipeline::kFuseNone) ++audit.fused_shapes;
    audit.max_fusion_speedup =
        std::max(audit.max_fusion_speedup, cost.fusion_speedup);
  }

  // Back to shape-id order, so the fold indexes costs by step shape id.
  std::vector<ShapeCost> shape_cost(costs.size());
  for (std::size_t r = 0; r < order.size(); ++r) {
    shape_cost[order[r]] = costs[r];
  }

  // Fold the shape costs into per-unit dispatch costs and per-request
  // aggregates. A single-step plan with share 1.0 reproduces the
  // pre-session outcome fields bit for bit (1.0 * x == x).
  const double freq = config_.nova.accel_freq_mhz;
  units.costs.resize(continuous ? total_steps : n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& outcome = outcomes[i];
    outcome.request = requests[i];
    const std::size_t first = units.begin[i];
    const std::size_t last = units.begin[i + 1];
    double cycles = 0.0;
    std::int64_t ops = 0;
    for (std::size_t s = first; s < last; ++s) {
      const ShapeCost& cost = shape_cost[step_shape[s]];
      const double step_cycles = step_share[s] * cost.service_cycles;
      if (continuous) {
        units.costs[s] = StepCost{step_cycles, cost.wave_latency_cycles,
                                  step_cycles / freq};
      }
      cycles += step_cycles;
      // One inference runs each shape's ops once however it is sliced:
      // chunks of a prefill share its shape (count it once), decode steps
      // are all distinct kv_lens (each counts).
      if (s == first || step_shape[s - 1] != step_shape[s]) {
        ops += cost.approx_ops;
      }
    }
    outcome.approx_ops = ops;
    outcome.service_cycles =
        static_cast<sim::Cycle>(std::llround(cycles));
    outcome.service_us = cycles / freq;
    outcome.wave_latency_cycles =
        shape_cost[step_shape[first]].wave_latency_cycles;
    // Whole-request dispatch serves the plan as ONE unit: the summed
    // service at the first step's wave latency -- the outcome's own cost.
    if (!continuous) {
      units.costs[i] = StepCost{cycles, outcome.wave_latency_cycles,
                                outcome.service_us};
    }
  }
  if (!continuous) {
    std::iota(units.begin.begin(), units.begin.end(), std::size_t{0});
  }
  return units;
}

double BatchScheduler::dispatch(
    const std::vector<InferenceRequest>& requests, const UnitTable& units,
    ServeReport& report) const {
  // The step-clocked event loop (policy in the header). Scheduler-side
  // session state: a session pins to the instance that completes its first
  // unit and every later unit dispatches there; unpinned sessions may
  // start anywhere with a free session slot. Each iteration chooses the
  // unit that can START earliest across the fleet -- among each instance's
  // pinned queue head and the global FIFO head of not-yet-started
  // sessions -- breaking start-time ties toward the oldest (ready_us, id)
  // unit. Start time, first finish and retries spent accrue directly in
  // the session's outcome (start_us, first_finish_us, attempts - 1); the
  // unserved zeroing in run() clears them for sessions that never finish.
  struct Session {
    int next_step = 0;  ///< completed steps == index of the pending step
    int instance = -1;  ///< pinned instance; -1 until a step completes
    int prefill_chunks = 0;  ///< steps 0..prefill_chunks-1 are prefill
  };
  const auto n = requests.size();
  std::vector<Session> sessions(n);
  for (std::size_t i = 0; i < n; ++i) {
    sessions[i].prefill_chunks = report.outcomes[i].prefill_chunks;
  }
  std::vector<double> free_at(static_cast<std::size_t>(config_.instances),
                              0.0);
  std::vector<int> slots_used(static_cast<std::size_t>(config_.instances), 0);
  const int slot_cap = config_.max_batch;
  const bool continuous = config_.continuous;

  auto& batch_hist = report.stats.histogram("serve.batch_size");
  const sim::StatId id_batches = report.stats.counter_id("serve.batches");
  const sim::StatId id_requests = report.stats.counter_id("serve.requests");
  // Step counters are continuous-only: the classic report has no step rows.
  std::optional<sim::StatId> id_steps;
  std::optional<sim::StatId> id_preempted;
  if (continuous) {
    id_steps = report.stats.counter_id("serve.steps");
    id_preempted = report.stats.counter_id("serve.preempted_steps");
  }
  const sim::StatId id_retries = report.stats.counter_id("serve.retries");
  const sim::SampleId id_backoff = report.stats.sample_id("serve.backoff_us");
  const double cycle_us = 1.0 / config_.nova.accel_freq_mhz;
  const FaultPlan& faults = config_.faults;
  const FailurePolicy& policy = config_.policy;

  // Ready steps: per-instance queues of pinned sessions' next steps, one
  // global queue of sessions that have not completed a step yet. The
  // global queue replays arrival order exactly until a fault re-queues
  // something; from then on retries merge back by (ready time, id), still
  // a pure function of the inputs.
  std::vector<std::set<Pending>> pinned_q(
      static_cast<std::size_t>(config_.instances));
  NewSessionQueue new_q(requests);
  AvailabilityHeap avail_heap(faults, free_at);

  // Dispatch candidates as (start_us, head ready_us, head id, instance):
  // lexicographic min = earliest start, ties to the oldest step. One
  // entry per instance with a nonempty pinned queue, maintained by
  // refresh_pinned after every dispatch on that instance (nothing else
  // moves free_at or the pinned queues, so entries are never stale).
  using Candidate = std::tuple<double, double, int, int>;
  std::set<Candidate> pinned_cands;
  std::vector<std::optional<Candidate>> pinned_entry(
      static_cast<std::size_t>(config_.instances));
  const auto refresh_pinned = [&](int j) {
    const auto js = static_cast<std::size_t>(j);
    if (pinned_entry[js]) {
      pinned_cands.erase(*pinned_entry[js]);
      pinned_entry[js].reset();
    }
    if (!pinned_q[js].empty()) {
      const Pending& head = *pinned_q[js].begin();
      const double avail = faults.next_up_us(j, free_at[js]);
      const double start =
          faults.next_up_us(j, std::max(avail, head.ready_us));
      pinned_entry[js] = Candidate{start, head.ready_us, head.id, j};
      pinned_cands.insert(*pinned_entry[js]);
    }
  };

  // The phase a session's pending unit batches under: prefill while its
  // prefill chunks last (a whole-mode unit starts with its first chunk),
  // decode after. Function and breakpoints are the request's own.
  const auto unit_phase = [&](int id) {
    const auto& sess = sessions[static_cast<std::size_t>(id)];
    return sess.next_step < sess.prefill_chunks ? pipeline::Phase::kPrefill
                                                : pipeline::Phase::kDecode;
  };

  // Reused across iterations, so a dispatch allocates nothing for its
  // member list.
  std::vector<Pending> batch;
  std::uint64_t scan_visits = 0;

  // Terminal outcomes (completed, shed, failed) decrement; every live
  // session owns exactly one Pending entry, so live == 0 <=> queues empty.
  std::size_t live = n;
  int batch_id = 0;
  double last_finish = 0.0;
  while (live > 0) {
    // Candidate A: the FIFO head of not-yet-started sessions on the
    // earliest-available instance with a free session slot. Availability
    // is the instance's free time pushed past any outage window it lands
    // in; with no faults it is plain free_at.
    std::optional<Candidate> cand_new;
    if (!new_q.empty()) {
      const auto found = avail_heap.peek_min_where([&](int j) {
        return slots_used[static_cast<std::size_t>(j)] < slot_cap;
      });
      if (found) {
        const Pending head = new_q.front();
        const double start = faults.next_up_us(
            found->second, std::max(found->first, head.ready_us));
        cand_new = Candidate{start, head.ready_us, head.id, found->second};
      }
    }
    // Candidate B: the earliest-starting pinned queue head. At least one
    // candidate always exists: either a session slot is free somewhere
    // (candidate A) or some session holds a slot, and a slot-holding
    // session always has its next step pending in its pinned queue.
    const bool use_new =
        cand_new &&
        (pinned_cands.empty() || *cand_new < *pinned_cands.begin());
    const Candidate chosen =
        use_new ? *cand_new : *pinned_cands.begin();
    const int instance_index = std::get<3>(chosen);
    const auto instance = static_cast<std::size_t>(instance_index);
    const double start = std::get<0>(chosen);
    const Pending head =
        use_new ? new_q.front() : *pinned_q[instance].begin();
    const auto& head_req = requests[static_cast<std::size_t>(head.id)];
    auto& head_outcome = report.outcomes[static_cast<std::size_t>(head.id)];

    // Admission control runs once per session, on its first step (any
    // attempt of it). Overload shedding drops best-effort first-attempt
    // work when the projected queue wait blows past the policy threshold;
    // deadline shedding drops sessions whose priced standalone finish
    // already misses their SLO (serving them would burn capacity on work
    // that is late on arrival). Once a session has state on an instance,
    // shedding it would throw the completed steps away; it runs to
    // completion or to kFailed.
    if (use_new) {
      const double wait_us = start - head_req.arrival_us;
      if (should_shed_overload(policy, wait_us, head_req.has_deadline(),
                               head.attempt) ||
          (policy.shed_on_deadline && head_req.has_deadline() &&
           start + head_outcome.service_us >
               head_req.arrival_us + head_req.deadline_us)) {
        head_outcome.status = RequestStatus::kShed;
        head_outcome.attempts = head.attempt;
        new_q.erase(head);
        live -= 1;
        continue;
      }
    }
    const double wait_us =
        start - (use_new ? head_req.arrival_us : head.ready_us);

    // Fuse ready steps behind the head, up to the (possibly
    // overload-degraded) batch cap: merge-scan both queues in (ready_us,
    // id) order, taking steps that share the head step's PWL table AND
    // phase. Prefill and decode never fuse: they share no wave shape, so a
    // mixed dispatch could not reuse the broadcast flit train the overlap
    // credit models. Whole mode keeps the classic FIFO run and stops at
    // the first mismatch; continuous mode SKIPS mismatches, since step
    // order inside one instant carries no FIFO meaning at iteration
    // granularity. Not-yet-started sessions fuse in only while slots
    // remain, and claim theirs on success; once none remain the scan stops
    // reading the new-session queue altogether (free_slots only falls, so
    // no later entry there could be taken, and the pinned merge order does
    // not depend on it). That keeps a dispatch at O(max_batch) visits
    // however deep the backlog.
    const int cap = degraded_max_batch(policy, config_.max_batch, wait_us);
    const pipeline::Phase head_phase = unit_phase(head.id);
    batch.assign(1, head);
    int free_slots = slots_used[instance] < slot_cap
                         ? slot_cap - slots_used[instance]
                         : 0;
    if (use_new) free_slots -= 1;  // the head claims its slot on success
    auto pit = pinned_q[instance].begin();
    auto nit = new_q.begin();
    while (static_cast<int>(batch.size()) < cap) {
      while (pit != pinned_q[instance].end() && pit->id == head.id) ++pit;
      while (!nit.done() && (*nit).id == head.id) ++nit;
      const bool p_ok =
          pit != pinned_q[instance].end() && pit->ready_us <= start;
      const bool n_ok =
          free_slots > 0 && !nit.done() && (*nit).ready_us <= start;
      if (!p_ok && !n_ok) break;
      ++scan_visits;
      const bool take_pinned = p_ok && (!n_ok || *pit < *nit);
      const Pending cand = take_pinned ? *pit : *nit;
      if (take_pinned) {
        ++pit;
      } else {
        ++nit;
      }
      const auto& cand_req = requests[static_cast<std::size_t>(cand.id)];
      if (cand_req.function != head_req.function ||
          cand_req.breakpoints != head_req.breakpoints ||
          unit_phase(cand.id) != head_phase) {
        if (!continuous) break;
        continue;
      }
      if (!take_pinned) free_slots -= 1;
      batch.push_back(cand);
    }
    const int batch_size = static_cast<int>(batch.size());

    // Batch service = sum of standalone step costs minus the
    // pipeline-overlap credit: fused members reuse the in-flight broadcast
    // train, so every member after the first saves the pipeline fill of
    // its first wave (wave_latency - 1 accelerator cycles). An active
    // slowdown window stretches the whole dispatch.
    double service_us = 0.0;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const auto ms = static_cast<std::size_t>(batch[k].id);
      const StepCost& cost =
          units.costs[units.begin[ms] +
                      static_cast<std::size_t>(sessions[ms].next_step)];
      service_us += cost.service_us;
      if (k != 0) {
        service_us -= std::max(0, cost.wave_latency_cycles - 1) * cycle_us;
      }
    }
    service_us = std::max(service_us, cycle_us);
    service_us *= faults.slowdown_at(instance_index, start);
    const double finish = start + service_us;

    // A member came from the pinned queue exactly when its session is
    // pinned.
    for (const auto& member : batch) {
      if (sessions[static_cast<std::size_t>(member.id)].instance < 0) {
        new_q.erase(member);
      } else {
        pinned_q[instance].erase(member);
      }
    }
    auto& inst = report.instances[instance];

    // An outage window opening mid-service kills the dispatch: the work in
    // flight is lost, members retry after capped exponential backoff (or
    // fail for good once their attempts are spent), and the instance sits
    // out the window before taking new work. Only THIS step's work is
    // lost -- a pinned session keeps its completed steps (its KV cache
    // survives the window on the instance) and re-queues just the killed
    // step, which is where continuous batching's goodput-under-faults win
    // comes from; a whole-mode session retries from the start.
    if (const auto failed_at =
            faults.outage_in(instance_index, start, finish)) {
      for (const auto& member : batch) {
        const auto ms = static_cast<std::size_t>(member.id);
        const auto& sess = sessions[ms];
        auto& outcome = report.outcomes[ms];
        if (id_preempted) report.stats.bump(*id_preempted);
        if (member.attempt > policy.max_retries) {
          outcome.status = RequestStatus::kFailed;
          outcome.attempts += member.attempt - 1;
          if (sess.instance >= 0) {
            slots_used[static_cast<std::size_t>(sess.instance)] -= 1;
          }
          live -= 1;
        } else {
          const double backoff_us = retry_backoff_us(
              policy, member.attempt, member.id, config_.seed);
          report.stats.sample(id_backoff, backoff_us);
          report.stats.bump(id_retries);
          const Pending retry{*failed_at + backoff_us, member.id,
                              member.attempt + 1};
          if (sess.instance >= 0) {
            pinned_q[instance].insert(retry);
          } else {
            new_q.push_retry(retry);
          }
        }
      }
      inst.failed_batches += 1;
      inst.busy_us += *failed_at - start;
      free_at[instance] = *failed_at;
      avail_heap.refresh(instance_index);
      refresh_pinned(instance_index);
      ++batch_id;
      continue;
    }

    int completed = 0;
    for (const auto& member : batch) {
      const auto ms = static_cast<std::size_t>(member.id);
      auto& sess = sessions[ms];
      auto& outcome = report.outcomes[ms];
      const auto& req = requests[ms];
      if (sess.next_step == 0) outcome.start_us = start;
      outcome.attempts += member.attempt - 1;
      if (sess.instance < 0) {
        sess.instance = instance_index;
        slots_used[instance] += 1;
      }
      sess.next_step += 1;
      if (sess.next_step == 1) outcome.first_finish_us = finish;
      if (id_steps) report.stats.bump(*id_steps);
      if (static_cast<std::size_t>(sess.next_step) ==
          units.begin[ms + 1] - units.begin[ms]) {  // session complete
        slots_used[instance] -= 1;
        completed += 1;
        live -= 1;
        outcome.instance = instance_index;
        outcome.batch_id = batch_id;
        outcome.batch_size = batch_size;
        outcome.finish_us = finish;
        if (req.has_deadline() &&
            finish > req.arrival_us + req.deadline_us) {
          outcome.status = RequestStatus::kDeadlineMiss;
        } else if (outcome.attempts > 1) {
          outcome.status = RequestStatus::kRetried;
        } else {
          outcome.status = RequestStatus::kOk;
        }
      } else {
        // The next step becomes ready the instant this one finishes.
        pinned_q[instance].insert(Pending{finish, member.id, 1});
      }
    }
    inst.requests += completed;
    inst.batches += 1;
    inst.busy_us += service_us;
    batch_hist.record(static_cast<double>(batch_size));
    report.stats.bump(id_batches);
    report.stats.bump(id_requests, static_cast<std::uint64_t>(completed));

    free_at[instance] = finish;
    avail_heap.refresh(instance_index);
    refresh_pinned(instance_index);
    last_finish = std::max(last_finish, finish);
    ++batch_id;
  }
  report.dispatch_scan_visits = scan_visits;
  return last_finish;
}

ServeReport BatchScheduler::run(
    const std::vector<InferenceRequest>& requests) const {
  validate_stream(requests);
  ServeReport report;
  report.outcomes.resize(requests.size());
  report.instances.resize(static_cast<std::size_t>(config_.instances));
  report.surrogate.mode = config_.pricing;
  report.surrogate.tolerance = config_.surrogate_tol;
  if (requests.empty()) return report;

  // Phase 1: price every session step (exact, surrogate, or hybrid mode)
  // -- one chunk + its decode chain per request under whole-request
  // dispatch, chunked under continuous batching.
  const UnitTable units =
      price_requests(requests, report.outcomes, report.surrogate);

  // Phase 2: serial deterministic dispatch.
  auto& latency_hist = report.stats.histogram("serve.latency_us");
  const double last_finish = dispatch(requests, units, report);

  // Aggregates, in request order for determinism. Latency and service
  // samples cover served requests only (shed/failed outcomes never
  // finished -- recording their zeros would drag every percentile down);
  // unserved outcomes have their service-side fields zeroed to enforce the
  // RequestOutcome unserved contract.
  sim::Histogram* ttft_hist =
      config_.continuous ? &report.stats.histogram("serve.ttft_us") : nullptr;
  const sim::SampleId id_service = report.stats.sample_id("serve.service_us");
  const sim::SampleId id_queue = report.stats.sample_id("serve.queue_us");
  const sim::SampleId id_attempts = report.stats.sample_id("serve.attempts");
  std::uint64_t served = 0;
  for (auto& outcome : report.outcomes) {
    if (outcome.served()) {
      ++served;
      latency_hist.record(outcome.latency_us());
      report.stats.sample(id_service, outcome.service_us);
      report.stats.sample(id_queue, outcome.queue_us());
      if (ttft_hist != nullptr) {
        ttft_hist->record(outcome.first_finish_us -
                          outcome.request.arrival_us);
      }
    } else {
      outcome.service_cycles = 0;
      outcome.wave_latency_cycles = 0;
      outcome.service_us = 0.0;
      outcome.start_us = 0.0;
      outcome.finish_us = 0.0;
      outcome.first_finish_us = 0.0;
    }
    report.stats.sample(id_attempts, static_cast<double>(outcome.attempts));
    report.status_counts[static_cast<std::size_t>(outcome.status)] += 1;
  }
  report.makespan_us =
      std::max(0.0, last_finish - requests.front().arrival_us);
  const std::uint64_t on_time = report.status_count(RequestStatus::kOk) +
                                report.status_count(RequestStatus::kRetried);
  report.throughput_rps =
      report.makespan_us > 0.0
          ? static_cast<double>(served) * 1e6 / report.makespan_us
          : 0.0;
  report.goodput_rps =
      report.makespan_us > 0.0
          ? static_cast<double>(on_time) * 1e6 / report.makespan_us
          : 0.0;

  // Availability: outage time inside the serving interval, per instance.
  for (std::size_t j = 0; j < report.instances.size(); ++j) {
    auto& inst = report.instances[j];
    if (report.makespan_us > 0.0) {
      inst.down_us = config_.faults.downtime_in(
          static_cast<int>(j), requests.front().arrival_us, last_finish);
      inst.availability =
          std::max(0.0, 1.0 - inst.down_us / report.makespan_us);
    }
  }
  return report;
}

}  // namespace nova::serve
