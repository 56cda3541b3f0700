// Session plans: the step decomposition of one inference request under
// iteration-level (continuous-batching) scheduling.
//
// A generation is a SESSION -- a chain of scheduler-visible steps. A
// prefill request becomes ceil(seq_len / chunk_tokens) prefill CHUNKS
// (Sarathi-style: each chunk carries a proportional share of the full
// prefill's priced service, so the chunk sum reproduces the whole-request
// cost exactly) followed by gen_steps autoregressive decode steps whose
// kv_len grows by one token per step, starting at seq_len (the cache holds
// the prefilled prompt). A decode request runs its own step at kv_len plus
// gen_steps more at kv_len+1, kv_len+2, ... Each step carries its own
// ShapeKey, so the existing pricing machinery (exact / surrogate / hybrid)
// prices sessions with no changes: decode steps are ordinary
// per-kv_len shapes of the request's pricing class.
//
// With continuous batching off the plan collapses to one prefill chunk
// (share 1.0 -- bit-equal to the unchunked cost) plus the decode chain,
// and the scheduler dispatches the whole plan as a single unit; a
// gen_steps == 0 request in either phase is exactly the classic
// single-step request.
//
// The decomposition rule lives in one place, for_each_session_step.
// build_session_plan materializes it as a SessionPlan for callers that
// want the steps as values. The scheduler does NOT materialize plans: it
// walks the same routine once per request into a flat table of interned
// shape ids and shares (see scheduler.cpp), so a run holds no per-request
// step vectors and no per-step ShapeKey strings.
#pragma once

#include <algorithm>
#include <vector>

#include "serve/request.hpp"
#include "serve/surrogate.hpp"

namespace nova::serve {

/// One scheduler-visible step of a generation session.
struct SessionStep {
  /// Pricing identity of this step's work. Every chunk of a prefill
  /// carries the FULL prefill shape (a chunk is a time slice of the same
  /// wave train, not a shorter sequence); decode steps carry the
  /// single-token decode shape at their kv_len.
  ShapeKey shape;
  /// Fraction of shape's priced service this step carries: chunk tokens /
  /// seq_len for prefill chunks (sums to exactly 1 across a prefill's
  /// chunks), 1.0 for decode steps.
  double share = 1.0;

  /// The phase the dispatcher batches this step under (chunks fuse with
  /// chunks, decode steps with decode steps -- never across).
  [[nodiscard]] pipeline::Phase phase() const { return shape.phase; }
};

/// The full step plan of one request's session, in execution order.
struct SessionPlan {
  std::vector<SessionStep> steps;
  /// Chunks the prefill split into (0 for decode-phase requests).
  int prefill_chunks = 0;
  /// Decode steps in the plan (the request's generation length).
  int decode_steps = 0;

  [[nodiscard]] int total_steps() const {
    return static_cast<int>(steps.size());
  }
};

/// Priced cost of one session step: the step's share of its shape's priced
/// cost, clock-converted. Computed once in the pricing phase; the dispatch
/// loop only reads these.
struct StepCost {
  double service_cycles = 0.0;
  int wave_latency_cycles = 0;
  double service_us = 0.0;
};

/// The per-step fields of one session step's shape. The rest of its
/// ShapeKey -- workload, function, breakpoints -- is always the request's.
struct StepShape {
  int seq_len = 0;
  pipeline::Phase phase = pipeline::Phase::kPrefill;
  int kv_len = 0;
  /// See SessionStep::share.
  double share = 1.0;
};

/// How many steps of each kind a session plan has.
struct SessionCounts {
  /// Chunks the prefill split into (0 for decode-phase requests).
  int prefill_chunks = 0;
  /// Decode steps in the plan (the request's generation length).
  int decode_steps = 0;

  [[nodiscard]] int total_steps() const {
    return prefill_chunks + decode_steps;
  }
};

/// The step counts of `req`'s plan, without walking its steps.
/// `continuous` controls prefill chunking (off = one chunk);
/// `chunk_tokens` >= 1 is the chunk size in prompt tokens.
[[nodiscard]] SessionCounts session_counts(const InferenceRequest& req,
                                           bool continuous,
                                           int chunk_tokens);

/// THE step decomposition of `req`: calls `visit(const StepShape&)` once
/// per step, in execution order, and returns the plan's counts. Prefill
/// chunks carry the full prefill shape at share (chunk extent) / seq_len
/// -- a single chunk is seq_len/seq_len == 1.0 exactly, so an unchunked
/// plan prices bit-equal to the pre-session scheduler. Decode steps carry
/// the single-token decode shape (seq_len 1 after a prefill; the
/// request's own seq_len for a decode request) at a kv_len that grows by
/// one per step, from seq_len after a prefill or from the request's
/// kv_len.
template <typename Visit>
SessionCounts for_each_session_step(const InferenceRequest& req,
                                    bool continuous, int chunk_tokens,
                                    const Visit& visit) {
  const SessionCounts counts = session_counts(req, continuous, chunk_tokens);
  if (req.phase == pipeline::Phase::kPrefill) {
    const int chunk = continuous ? chunk_tokens : req.seq_len;
    for (int c = 0; c < counts.prefill_chunks; ++c) {
      const int begin = c * chunk;
      const int end = std::min(req.seq_len, begin + chunk);
      visit(StepShape{req.seq_len, req.phase, req.kv_len,
                      static_cast<double>(end - begin) /
                          static_cast<double>(req.seq_len)});
    }
    // Generated tokens decode against the prefilled prompt: the cache
    // starts at seq_len entries and grows one per emitted token.
    for (int s = 0; s < counts.decode_steps; ++s) {
      visit(StepShape{1, pipeline::Phase::kDecode, req.seq_len + s, 1.0});
    }
  } else {
    for (int s = 0; s < counts.decode_steps; ++s) {
      visit(StepShape{req.seq_len, pipeline::Phase::kDecode, req.kv_len + s,
                      1.0});
    }
  }
  return counts;
}

/// Builds the step plan of `req` (for_each_session_step, materialized).
/// Pure and cheap -- no pricing happens here.
[[nodiscard]] SessionPlan build_session_plan(const InferenceRequest& req,
                                             bool continuous,
                                             int chunk_tokens);

}  // namespace nova::serve
