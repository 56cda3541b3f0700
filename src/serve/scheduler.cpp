#include "serve/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "accel/accelerator.hpp"
#include "approx/mlp_fitter.hpp"
#include "common/assert.hpp"
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

void BatchScheduler::price_requests(
    const std::vector<InferenceRequest>& requests,
    const std::vector<SessionPlan>& plans,
    std::vector<RequestOutcome>& outcomes,
    std::vector<std::vector<StepCost>>& step_costs,
    SurrogateAudit& audit) const {
  // NOVA's service time is input-independent (a wave completes when the
  // full tagged flit train has broadcast, regardless of the data values),
  // so pricing is memoized per distinct shape; only the distinct set ever
  // touches a pricing path. The set spans every SESSION STEP: decode
  // steps are ordinary per-kv_len shapes of the request's pricing class
  // (exactly what the surrogate's per-class curves interpolate), and all
  // chunks of a prefill share its one full-sequence shape -- so a stream
  // of classic single-step requests yields the same distinct set (and the
  // same hybrid reconciliation sample) as the pre-session scheduler.
  // Each step keeps a pointer to its shape's slot (map nodes are stable),
  // so the fold below indexes costs without a second map lookup.
  std::map<ShapeKey, std::size_t> shape_slot;
  std::vector<const std::size_t*> step_slot;
  std::size_t total_steps = 0;
  for (const auto& plan : plans) total_steps += plan.steps.size();
  step_slot.reserve(total_steps);
  for (const auto& plan : plans) {
    for (const auto& step : plan.steps) {
      step_slot.push_back(&shape_slot.emplace(step.shape, 0).first->second);
    }
  }
  std::vector<ShapeKey> distinct;
  distinct.reserve(shape_slot.size());
  for (auto& entry : shape_slot) {
    entry.second = distinct.size();
    distinct.push_back(entry.first);
  }

  // Pre-warm every PWL table the stream needs on this thread. Baked keys
  // only copy build-time arrays, but a key that is not baked (any
  // --breakpoints or trace value outside approx::kBakedBreakpoints) is
  // trained on first use under the PwlLibrary mutex, so warming first
  // keeps the workers out of each other's way and out of the training
  // path entirely. One call per distinct shape, not per request.
  auto& library = approx::PwlLibrary::instance();
  for (const auto& shape : distinct) {
    (void)library.get(shape.function, shape.breakpoints);
  }

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
    costs.reserve(distinct.size());
    for (const auto& shape : distinct) {
      costs.push_back(surrogate.predict(shape));
    }
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

  // Fold the shape costs into per-step dispatch costs and per-request
  // aggregates. A single-step plan with share 1.0 reproduces the
  // pre-session outcome fields bit for bit (1.0 * x == x).
  const double freq = config_.nova.accel_freq_mhz;
  const bool continuous = config_.continuous;
  step_costs.assign(requests.size(), {});
  auto slot = step_slot.begin();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& plan = plans[i];
    auto& outcome = outcomes[i];
    outcome.request = requests[i];
    auto& steps = step_costs[i];
    if (continuous) steps.reserve(plan.steps.size());
    double cycles = 0.0;
    std::int64_t ops = 0;
    const ShapeKey* prev = nullptr;
    const std::size_t front_slot = **slot;
    for (const auto& step : plan.steps) {
      const ShapeCost& cost = costs[**slot++];
      const double step_cycles = step.share * cost.service_cycles;
      if (continuous) {
        steps.push_back(StepCost{step_cycles, cost.wave_latency_cycles,
                                 step_cycles / freq});
      }
      cycles += step_cycles;
      // One inference runs each shape's ops once however it is sliced:
      // chunks of a prefill share its shape (count it once), decode steps
      // are all distinct kv_lens (each counts).
      if (prev == nullptr || !(*prev == step.shape)) ops += cost.approx_ops;
      prev = &step.shape;
    }
    outcome.approx_ops = ops;
    outcome.service_cycles =
        static_cast<sim::Cycle>(std::llround(cycles));
    outcome.service_us = cycles / freq;
    outcome.wave_latency_cycles = costs[front_slot].wave_latency_cycles;
    outcome.session_steps = plan.total_steps();
    outcome.prefill_chunks = plan.prefill_chunks;
    // Whole-request dispatch serves the plan as ONE unit: the summed
    // service at the first step's wave latency -- the outcome's own cost.
    if (!continuous) {
      steps.push_back(StepCost{cycles, outcome.wave_latency_cycles,
                               outcome.service_us});
    }
  }
}

double BatchScheduler::dispatch(
    const std::vector<InferenceRequest>& requests,
    const std::vector<SessionPlan>& plans,
    const std::vector<std::vector<StepCost>>& step_costs,
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
  };
  const auto n = requests.size();
  std::vector<Session> sessions(n);
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
  std::set<Pending> new_q;
  for (const auto& req : requests) {
    new_q.insert(Pending{req.arrival_us, req.id, 1});
  }
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

  const auto step_of = [&](int id) -> const SessionStep& {
    const auto& plan = plans[static_cast<std::size_t>(id)];
    return plan.steps[static_cast<std::size_t>(
        sessions[static_cast<std::size_t>(id)].next_step)];
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
        const Pending& head = *new_q.begin();
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
        use_new ? *new_q.begin() : *pinned_q[instance].begin();
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
        new_q.erase(new_q.begin());
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
    const SessionStep& head_step = step_of(head.id);
    batch.assign(1, head);
    int free_slots = slots_used[instance] < slot_cap
                         ? slot_cap - slots_used[instance]
                         : 0;
    if (use_new) free_slots -= 1;  // the head claims its slot on success
    auto pit = pinned_q[instance].begin();
    auto nit = new_q.begin();
    while (static_cast<int>(batch.size()) < cap) {
      while (pit != pinned_q[instance].end() && pit->id == head.id) ++pit;
      while (nit != new_q.end() && nit->id == head.id) ++nit;
      const bool p_ok =
          pit != pinned_q[instance].end() && pit->ready_us <= start;
      const bool n_ok =
          free_slots > 0 && nit != new_q.end() && nit->ready_us <= start;
      if (!p_ok && !n_ok) break;
      ++scan_visits;
      const bool take_pinned = p_ok && (!n_ok || *pit < *nit);
      const Pending cand = take_pinned ? *pit : *nit;
      if (take_pinned) {
        ++pit;
      } else {
        ++nit;
      }
      const SessionStep& cstep = step_of(cand.id);
      if (cstep.shape.function != head_step.shape.function ||
          cstep.shape.breakpoints != head_step.shape.breakpoints ||
          cstep.phase() != head_step.phase()) {
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
          step_costs[ms][static_cast<std::size_t>(sessions[ms].next_step)];
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
          report.stats.sample("serve.backoff_us", backoff_us);
          report.stats.bump("serve.retries");
          const Pending retry{*failed_at + backoff_us, member.id,
                              member.attempt + 1};
          if (sess.instance >= 0) {
            pinned_q[instance].insert(retry);
          } else {
            new_q.insert(retry);
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
          step_costs[ms].size()) {  // session complete
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

  // The step decomposition of every request: one chunk + its decode chain
  // under whole-request dispatch, chunked under continuous batching.
  std::vector<SessionPlan> plans;
  plans.reserve(requests.size());
  for (const auto& req : requests) {
    plans.push_back(
        build_session_plan(req, config_.continuous, config_.chunk_tokens));
  }

  // Phase 1: price every session step (exact, surrogate, or hybrid mode).
  std::vector<std::vector<StepCost>> step_costs;
  price_requests(requests, plans, report.outcomes, step_costs,
                 report.surrogate);

  // Phase 2: serial deterministic dispatch.
  auto& latency_hist = report.stats.histogram("serve.latency_us");
  const double last_finish = dispatch(requests, plans, step_costs, report);

  // Aggregates, in request order for determinism. Latency and service
  // samples cover served requests only (shed/failed outcomes never
  // finished -- recording their zeros would drag every percentile down);
  // unserved outcomes have their service-side fields zeroed to enforce the
  // RequestOutcome unserved contract.
  sim::Histogram* ttft_hist =
      config_.continuous ? &report.stats.histogram("serve.ttft_us") : nullptr;
  std::uint64_t served = 0;
  for (auto& outcome : report.outcomes) {
    if (outcome.served()) {
      ++served;
      latency_hist.record(outcome.latency_us());
      report.stats.sample("serve.service_us", outcome.service_us);
      report.stats.sample("serve.queue_us", outcome.queue_us());
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
    report.stats.sample("serve.attempts",
                        static_cast<double>(outcome.attempts));
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
