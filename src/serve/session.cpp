#include "serve/session.hpp"

#include "common/assert.hpp"

namespace nova::serve {

SessionCounts session_counts(const InferenceRequest& req, bool continuous,
                             int chunk_tokens) {
  NOVA_EXPECTS(chunk_tokens >= 1);
  NOVA_EXPECTS(req.gen_steps >= 0);
  SessionCounts counts;
  if (req.phase == pipeline::Phase::kPrefill) {
    const int chunk = continuous ? chunk_tokens : req.seq_len;
    counts.prefill_chunks = (req.seq_len + chunk - 1) / chunk;
    counts.decode_steps = req.gen_steps;
  } else {
    counts.decode_steps = req.gen_steps + 1;
  }
  return counts;
}

SessionPlan build_session_plan(const InferenceRequest& req, bool continuous,
                               int chunk_tokens) {
  SessionPlan plan;
  plan.steps.reserve(static_cast<std::size_t>(
      session_counts(req, continuous, chunk_tokens).total_steps()));
  const SessionCounts counts = for_each_session_step(
      req, continuous, chunk_tokens, [&](const StepShape& step) {
        plan.steps.push_back(SessionStep{
            ShapeKey{req.workload, step.seq_len, req.function,
                     req.breakpoints, step.phase, step.kv_len},
            step.share});
      });
  plan.prefill_chunks = counts.prefill_chunks;
  plan.decode_steps = counts.decode_steps;
  return plan;
}

}  // namespace nova::serve
