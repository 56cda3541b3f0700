// Tests for continuous batching: the session-plan builder (prefill
// chunking, kv-growing decode chains) and the step-clocked dispatch loop
// (determinism across threads and pricing modes, whole-dispatch
// equivalence on single-step streams, TTFT, and step-granular preemption
// resume under fault windows).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/overlay.hpp"
#include "serve/faults.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"

namespace nova::serve {
namespace {

ServeConfig small_pool(int instances, int threads) {
  ServeConfig config;
  config.nova = core::make_overlay(hw::AcceleratorKind::kTpuV4).nova;
  config.instances = instances;
  config.threads = threads;
  config.seed = 7;
  // Keep the cycle-accurate pricing slice small so the suite stays fast.
  config.sim_elements_cap = 512;
  return config;
}

InferenceRequest prefill_request(int id, double arrival, int seq_len,
                                 int gen_steps) {
  InferenceRequest req;
  req.id = id;
  req.arrival_us = arrival;
  req.seq_len = seq_len;
  req.gen_steps = gen_steps;
  return req;
}

/// Bitwise comparison of two reports' per-request outcomes and scalar
/// aggregates (EXPECT_DOUBLE_EQ is exact equality, not a tolerance).
void expect_identical_outcomes(const ServeReport& a, const ServeReport& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& x = a.outcomes[i];
    const auto& y = b.outcomes[i];
    EXPECT_EQ(x.status, y.status) << "request " << i;
    EXPECT_EQ(x.attempts, y.attempts) << "request " << i;
    EXPECT_EQ(x.instance, y.instance) << "request " << i;
    EXPECT_EQ(x.batch_id, y.batch_id) << "request " << i;
    EXPECT_EQ(x.batch_size, y.batch_size) << "request " << i;
    EXPECT_EQ(x.service_cycles, y.service_cycles) << "request " << i;
    EXPECT_EQ(x.session_steps, y.session_steps) << "request " << i;
    EXPECT_EQ(x.prefill_chunks, y.prefill_chunks) << "request " << i;
    EXPECT_DOUBLE_EQ(x.service_us, y.service_us) << "request " << i;
    EXPECT_DOUBLE_EQ(x.start_us, y.start_us) << "request " << i;
    EXPECT_DOUBLE_EQ(x.finish_us, y.finish_us) << "request " << i;
    EXPECT_DOUBLE_EQ(x.first_finish_us, y.first_finish_us)
        << "request " << i;
  }
  EXPECT_DOUBLE_EQ(a.makespan_us, b.makespan_us);
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_DOUBLE_EQ(a.goodput_rps, b.goodput_rps);
}

TEST(SessionPlan, WholeModePrefillIsOneFullShareChunk) {
  const auto req = prefill_request(0, 0.0, 128, 0);
  const auto plan = build_session_plan(req, /*continuous=*/false,
                                       /*chunk_tokens=*/64);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.prefill_chunks, 1);
  EXPECT_EQ(plan.decode_steps, 0);
  // share is seq_len/seq_len: exactly 1.0, so unchunked plans price
  // bit-identically to the pre-session scheduler.
  EXPECT_EQ(plan.steps[0].share, 1.0);
  EXPECT_EQ(plan.steps[0].shape.seq_len, 128);
  EXPECT_EQ(plan.steps[0].phase(), pipeline::Phase::kPrefill);
}

TEST(SessionPlan, ChunksCoverThePromptProportionally) {
  // 100 prompt tokens in 64-token chunks: 64 + 36, shares 0.64 and 0.36.
  const auto req = prefill_request(0, 0.0, 100, 0);
  const auto plan = build_session_plan(req, /*continuous=*/true,
                                       /*chunk_tokens=*/64);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.prefill_chunks, 2);
  EXPECT_DOUBLE_EQ(plan.steps[0].share, 64.0 / 100.0);
  EXPECT_DOUBLE_EQ(plan.steps[1].share, 36.0 / 100.0);
  double total = 0.0;
  for (const auto& step : plan.steps) {
    // Every chunk carries the FULL prefill shape (one priced cost, scaled
    // by share), not a shorter sequence.
    EXPECT_EQ(step.shape.seq_len, 100);
    EXPECT_EQ(step.phase(), pipeline::Phase::kPrefill);
    total += step.share;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(SessionPlan, PrefillSessionChainsDecodeStepsFromTheScheduledPrompt) {
  const auto req = prefill_request(0, 0.0, 128, 3);
  const auto plan = build_session_plan(req, /*continuous=*/true,
                                       /*chunk_tokens=*/64);
  ASSERT_EQ(plan.steps.size(), 5u);  // 2 chunks + 3 decode steps
  EXPECT_EQ(plan.prefill_chunks, 2);
  EXPECT_EQ(plan.decode_steps, 3);
  for (int s = 0; s < 3; ++s) {
    const auto& step = plan.steps[static_cast<std::size_t>(2 + s)];
    EXPECT_EQ(step.phase(), pipeline::Phase::kDecode);
    EXPECT_EQ(step.shape.seq_len, 1);
    // The KV cache starts at the prefilled prompt and grows per token.
    EXPECT_EQ(step.shape.kv_len, 128 + s);
    EXPECT_EQ(step.share, 1.0);
  }
}

TEST(SessionPlan, DecodeSessionGrowsItsKvCache) {
  InferenceRequest req;
  req.id = 0;
  req.phase = pipeline::Phase::kDecode;
  req.seq_len = 1;
  req.kv_len = 512;
  req.gen_steps = 2;  // two MORE tokens after the request's own step
  const auto plan = build_session_plan(req, /*continuous=*/true,
                                       /*chunk_tokens=*/64);
  ASSERT_EQ(plan.steps.size(), 3u);
  EXPECT_EQ(plan.prefill_chunks, 0);
  EXPECT_EQ(plan.decode_steps, 3);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(plan.steps[static_cast<std::size_t>(s)].shape.kv_len, 512 + s);
  }
}

TEST(ContinuousScheduler, ChunkingPreservesTheSessionPrice) {
  // A chunked prefill sums its per-chunk shares back to the whole-graph
  // price: splitting the prompt must not change what the session costs.
  std::vector<InferenceRequest> requests(1);
  requests[0] = prefill_request(0, 0.0, 128, 2);

  auto whole = small_pool(1, 1);
  auto chunked = small_pool(1, 1);
  chunked.continuous = true;
  chunked.chunk_tokens = 32;
  const auto a = BatchScheduler(whole).run(requests);
  const auto b = BatchScheduler(chunked).run(requests);

  EXPECT_EQ(a.outcomes[0].session_steps, 3);   // 1 chunk + 2 decode steps
  EXPECT_EQ(b.outcomes[0].session_steps, 6);   // 4 chunks + 2 decode steps
  EXPECT_EQ(b.outcomes[0].prefill_chunks, 4);
  EXPECT_NEAR(b.outcomes[0].service_us, a.outcomes[0].service_us,
              1e-9 * a.outcomes[0].service_us);
  EXPECT_EQ(b.stats.counter("serve.steps"), 6u);
}

TEST(ContinuousScheduler, SingleStepStreamMatchesWholeDispatch) {
  // On a uniform single-step stream (one phase, one PWL table, no
  // generation chains) iteration-level scheduling degenerates to the
  // whole-request loop: no session ever holds a slot across dispatches and
  // the fusion scan skips nothing, so the two reports are bit-identical.
  TrafficProfile profile;
  profile.rate_rps = 1e6;
  profile.decode_fraction = 1.0;
  profile.functions = {approx::NonLinearFn::kGelu};
  const auto requests = generate_poisson(96, profile, 11);

  auto whole = small_pool(2, 2);
  auto continuous = whole;
  continuous.continuous = true;
  const auto a = BatchScheduler(whole).run(requests);
  const auto b = BatchScheduler(continuous).run(requests);
  expect_identical_outcomes(a, b);
}

TEST(ContinuousScheduler, DeterministicAcrossThreadsAndPricingModes) {
  // The standing serve invariant extends to sessions: byte-identical
  // reports for any worker-thread count, in every pricing mode.
  TrafficProfile profile;
  profile.rate_rps = 1e6;
  profile.max_steps = 4;
  const auto requests = generate_poisson(96, profile, 11);

  for (const auto pricing : {PricingMode::kExact, PricingMode::kSurrogate,
                             PricingMode::kHybrid}) {
    auto config = small_pool(3, 1);
    config.continuous = true;
    config.chunk_tokens = 48;
    config.pricing = pricing;
    const auto one = BatchScheduler(config).run(requests);
    config.threads = 4;
    const auto four = BatchScheduler(config).run(requests);
    config.threads = 8;
    const auto eight = BatchScheduler(config).run(requests);
    expect_identical_outcomes(one, four);
    expect_identical_outcomes(one, eight);
    EXPECT_EQ(one.stats.counter("serve.steps"),
              eight.stats.counter("serve.steps"));
  }
}

TEST(ContinuousScheduler, FirstTokenLandsBeforeTheSessionFinishes) {
  // TTFT is the point of chunked prefill: the first step of a multi-step
  // session completes well before the generation chain does, while a
  // whole-request dispatch holds its result until the single dispatch
  // finishes.
  std::vector<InferenceRequest> requests(1);
  requests[0] = prefill_request(0, 0.0, 256, 8);

  auto config = small_pool(1, 1);
  config.continuous = true;
  const auto report = BatchScheduler(config).run(requests);
  const auto& outcome = report.outcomes[0];
  EXPECT_GT(outcome.first_finish_us, 0.0);
  EXPECT_LT(outcome.first_finish_us, outcome.finish_us);

  const auto whole = BatchScheduler(small_pool(1, 1)).run(requests);
  EXPECT_DOUBLE_EQ(whole.outcomes[0].first_finish_us,
                   whole.outcomes[0].finish_us);
}

TEST(ContinuousScheduler, ShortRequestOvertakesALongSessionInFlight) {
  // Iteration-level scheduling interleaves: a short request arriving just
  // after a long session starts slots in between the session's steps and
  // finishes before it, instead of waiting out the whole generation.
  std::vector<InferenceRequest> requests(2);
  requests[0] = prefill_request(0, 0.0, 512, 16);
  requests[1] = prefill_request(1, 1.0, 64, 0);

  auto config = small_pool(1, 1);
  config.continuous = true;
  const auto report = BatchScheduler(config).run(requests);
  EXPECT_LT(report.outcomes[1].finish_us, report.outcomes[0].finish_us);

  const auto whole = BatchScheduler(small_pool(1, 1)).run(requests);
  EXPECT_GT(whole.outcomes[1].finish_us, whole.outcomes[0].finish_us);
}

TEST(ContinuousScheduler, PreemptedSessionResumesInsteadOfRestarting) {
  // An outage that kills a step mid-session must cost only that step: the
  // session keeps its completed work (the KV cache survives on the pinned
  // instance) and retries the killed step after the window, not the whole
  // session from scratch.
  std::vector<InferenceRequest> requests(1);
  requests[0] = prefill_request(0, 0.0, 256, 8);

  auto config = small_pool(1, 1);
  config.continuous = true;
  // A near-zero deterministic backoff keeps the retry delay out of the
  // resumed-tail measurement below, which compares work re-run, not waits.
  config.policy.backoff_base_us = 1.0;
  config.policy.backoff_cap_us = 1.0;
  config.policy.backoff_jitter = 0.0;
  const auto clean = BatchScheduler(config).run(requests);
  const double clean_finish = clean.outcomes[0].finish_us;
  const double service = clean.outcomes[0].service_us;
  ASSERT_GT(clean_finish, 0.0);

  // Drop an outage over the last quarter of the clean schedule: most of
  // the session has completed by then, so a restart-from-scratch engine
  // would re-run nearly everything after the window.
  FaultWindow window;
  window.start_us = 0.75 * clean_finish;
  window.end_us = 0.80 * clean_finish;
  auto faulted = config;
  faulted.faults = FaultPlan::make({{window}});
  const auto report = BatchScheduler(faulted).run(requests);
  const auto& outcome = report.outcomes[0];

  EXPECT_EQ(outcome.status, RequestStatus::kRetried);
  EXPECT_GE(outcome.attempts, 2);
  EXPECT_GE(report.stats.counter("serve.preempted_steps"), 1u);
  // The session waited out the window...
  EXPECT_GE(outcome.finish_us, window.end_us);
  // ...and then needed only the work still pending at the preemption plus
  // the retry backoff -- far less than re-running the full session, which
  // would land past end + service.
  const double resumed_tail = outcome.finish_us - window.end_us;
  EXPECT_LT(resumed_tail, 0.5 * service);
  // Completed steps kept their prices: the outcome's standalone service
  // cost is a plan property and must not change under retries.
  EXPECT_DOUBLE_EQ(outcome.service_us, service);
}

TEST(ContinuousScheduler, WholeModeServesAGenerationAsOneUnit) {
  // Whole-request mode runs the same loop over one-unit sessions: a
  // prefill plus its decode chain is dispatched once, at the summed price
  // of the steps continuous batching would dispatch one by one, and the
  // step counters stay out of the report.
  std::vector<InferenceRequest> requests(1);
  requests[0] = prefill_request(0, 0.0, 128, 3);

  const auto whole = BatchScheduler(small_pool(1, 1)).run(requests);
  auto config = small_pool(1, 1);
  config.continuous = true;
  config.chunk_tokens = 128;  // one prefill chunk: 4 steps in all
  const auto steps = BatchScheduler(config).run(requests);

  const auto& w = whole.outcomes[0];
  const auto& c = steps.outcomes[0];
  EXPECT_EQ(whole.stats.counter("serve.batches"), 1u);
  EXPECT_EQ(steps.stats.counter("serve.batches"), 4u);
  EXPECT_EQ(steps.stats.counter("serve.steps"), 4u);
  // Alone on an idle instance the continuous steps run back to back, so
  // their span is the sum of their step costs.
  const double step_sum_us = c.finish_us - c.start_us;
  EXPECT_NEAR(w.finish_us - w.start_us, step_sum_us, 1e-9 * step_sum_us);
  const double freq = config.nova.accel_freq_mhz;
  EXPECT_NEAR(static_cast<double>(w.service_cycles), step_sum_us * freq,
              0.5 + 1e-9 * step_sum_us * freq);
  EXPECT_EQ(w.first_finish_us, w.finish_us);
  EXPECT_LT(c.first_finish_us, c.finish_us);

  // An outage kills the whole-mode unit, not a step: the request retries
  // from scratch and the report still has no step rows, while the
  // continuous run reports its preempted step.
  FaultWindow window;
  window.start_us = 0.5 * w.finish_us;
  window.end_us = 0.6 * w.finish_us;
  auto faulted = small_pool(1, 1);
  faulted.faults = FaultPlan::make({{window}});
  const auto whole_faulted = BatchScheduler(faulted).run(requests);
  EXPECT_EQ(whole_faulted.outcomes[0].status, RequestStatus::kRetried);
  EXPECT_EQ(whole_faulted.instances[0].failed_batches, 1);
  EXPECT_GE(whole_faulted.outcomes[0].start_us, window.end_us);
  faulted.continuous = true;
  faulted.chunk_tokens = 128;
  const auto steps_faulted = BatchScheduler(faulted).run(requests);
  EXPECT_EQ(steps_faulted.stats.counter("serve.preempted_steps"), 1u);

  for (const auto* report : {&whole, &whole_faulted}) {
    const std::string table = report->stats.to_table().to_ascii();
    EXPECT_EQ(table.find("serve.steps"), std::string::npos) << table;
    EXPECT_EQ(table.find("serve.preempted_steps"), std::string::npos)
        << table;
  }
  EXPECT_NE(steps_faulted.stats.to_table().to_ascii().find(
                "serve.preempted_steps"),
            std::string::npos);
}

TEST(ContinuousScheduler, DispatchScanWorkStaysFlatAsTheBacklogGrows) {
  // Offered well past what the pool serves, the not-yet-started backlog
  // grows with the stream. The fusion scan stops reading it once the
  // instance's session slots are gone, so the candidates examined per
  // dispatch stay bounded by the slot cap instead of tracking the backlog:
  // doubling the stream must not move the per-dispatch cost.
  const auto scan_per_dispatch = [](int count) {
    TrafficProfile profile;
    profile.rate_rps = 40000.0;
    profile.max_steps = 16;
    const auto requests = generate_poisson(count, profile, 5);
    auto config = small_pool(4, 2);
    config.continuous = true;
    config.pricing = PricingMode::kSurrogate;
    FaultProfile faults;
    faults.mtbf_us = 20000.0;
    faults.mttr_us = 2000.0;
    config.faults = draw_fault_plan(faults, config.instances,
                                    2.0 * requests.back().arrival_us, 5);
    const auto report = BatchScheduler(config).run(requests);
    std::uint64_t dispatches = report.stats.counter("serve.batches");
    for (const auto& inst : report.instances) {
      dispatches += static_cast<std::uint64_t>(inst.failed_batches);
    }
    EXPECT_GT(report.stats.counter("serve.preempted_steps"), 0u);
    return static_cast<double>(report.dispatch_scan_visits) /
           static_cast<double>(dispatches);
  };
  const double at_n = scan_per_dispatch(1500);
  const double at_2n = scan_per_dispatch(3000);
  EXPECT_LE(at_2n, 1.1 * at_n) << "n: " << at_n << ", 2n: " << at_2n;
  EXPECT_LE(at_2n, 2.0 * small_pool(1, 1).max_batch) << "2n: " << at_2n;
}

TEST(ContinuousSchedulerDeathTest, RejectsNegativeGenSteps) {
  std::vector<InferenceRequest> requests(1);
  requests[0].id = 0;
  requests[0].gen_steps = -1;
  const BatchScheduler scheduler(small_pool(1, 1));
  EXPECT_DEATH((void)scheduler.run(requests), "gen_steps");
}

}  // namespace
}  // namespace nova::serve
