// Fusion rewrite passes over the OpGraph IR, plus the pricing-driven
// auto-tuner that searches the rewrite space.
//
// The builders in op_graph.hpp emit the canonical unfused encoder chain;
// the passes here rewrite it the way an attention compiler would
// (Zen-Attention-style dynamic folding): pattern-match a fusable
// sub-chain, replace it with one fused node carrying the union of the
// constituents' volumes, then RE-VERIFY the whole graph through
// analysis::run_passes -- the conservation pass's node-order-agnostic
// per-kind totals are exactly the invariant that makes every rewrite
// machine-checked for volume preservation instead of hand-audited.
//
// Three passes exist, one per fused OpKind:
//   * fuse-attention      -- GEMM(QK^T) -> softmax -> GEMM(AV) becomes one
//     kFusedAttention node (flash-attention: score tiles stay resident in
//     the fabric/vector seam instead of round-tripping).
//   * fuse-gemm-gelu      -- GEMM -> GELU becomes kFusedGemmGelu (the GELU
//     runs as a GEMM epilogue, skipping the cross-resource handoff).
//   * fuse-gemm-layernorm -- GEMM -> layernorm becomes kFusedGemmLayerNorm.
//
// A FusionSet bitmask selects which passes run; the 8 masks span the whole
// rewrite space, which is what tune_fusion enumerates. Each pass only fires
// when the sub-chain is exclusive (producer feeds only the consumer, the
// consumer reads only the producer) and the declared volumes cohere, so a
// pass is idempotent by construction: its own output contains no matching
// pattern. A pass is one forward scan: fan-out is counted once, every
// match is collected in index order (a node an earlier match took never
// heads another), and the node list is compacted once at the end.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "pipeline/executor.hpp"
#include "pipeline/op_graph.hpp"

namespace nova::pipeline {

/// Bitmask over the individual rewrite passes. The 8 possible masks are the
/// auto-tuner's whole search space.
using FusionSet = unsigned;
inline constexpr FusionSet kFuseNone = 0u;
inline constexpr FusionSet kFuseAttention = 1u << 0;
inline constexpr FusionSet kFuseGemmGelu = 1u << 1;
inline constexpr FusionSet kFuseGemmLayerNorm = 1u << 2;
inline constexpr FusionSet kFuseAll =
    kFuseAttention | kFuseGemmGelu | kFuseGemmLayerNorm;

/// Compact human-readable mask rendering: "none", "attn", "attn+gelu-ep",
/// "attn+gelu-ep+ln-ep", ... (stable, used by reports and bench JSON).
[[nodiscard]] std::string to_string_fusion_set(FusionSet set);

/// How the serving/CLI layers drive fusion. kOff prices the builder graph
/// untouched (byte-identical to pre-fusion binaries); kOn applies every
/// pass unconditionally; kAuto runs the tuner and prices whichever mask
/// the host executes fastest.
enum class FusionMode { kOff, kOn, kAuto };

[[nodiscard]] const char* to_string(FusionMode mode);

/// Resolves "off" / "on" / "auto"; nullopt for anything else (CLI flags
/// funnel through this so accepted spellings cannot drift).
[[nodiscard]] std::optional<FusionMode> fusion_mode_from_string(
    const std::string& name);

/// One rewrite pass of the catalog.
struct FusionPass {
  const char* name = "";   ///< kebab-case pass name ("fuse-attention")
  FusionSet bit = 0;       ///< the FusionSet bit that enables it
  /// Applies the pass in place; returns how many rewrites fired. Running a
  /// pass on its own output is a no-op (returns 0).
  int (*apply)(OpGraph& graph);
};

/// The rewrite-pass catalog, in application order.
[[nodiscard]] const std::vector<FusionPass>& fusion_pass_catalog();

/// Runs every catalog pass selected by `set` over `graph`, re-verifying
/// through analysis::run_passes after each pass that rewrote anything (a
/// non-conservative rewrite aborts here rather than mispricing silently).
/// Returns the total number of rewrites performed.
int apply_fusion(OpGraph& graph, FusionSet set);

/// Copying convenience: returns a rewritten deep copy, input untouched.
[[nodiscard]] OpGraph fused(const OpGraph& graph, FusionSet set);

/// One tuner candidate: a mask, the rewritten graph, and its priced span.
struct FusionCandidate {
  FusionSet set = kFuseNone;
  sim::Cycle span_cycles = 0;
  int rewrites = 0;
};

/// The auto-tuner's verdict for one (executor, graph) pair -- i.e. one
/// (host x shape x phase x kv_len) point, since the executor carries the
/// host model and the graph carries the shape.
struct FusionTuning {
  /// Winning mask. kFuseNone when no rewrite beats the unfused baseline:
  /// the winner must be STRICTLY faster to displace a lower mask, so the
  /// tuner can never pick a slower rewrite and ties resolve to the
  /// smallest (least rewritten) mask deterministically.
  FusionSet best = kFuseNone;
  sim::Cycle best_span = 0;
  sim::Cycle baseline_span = 0;  ///< mask kFuseNone (unfused) span
  std::vector<FusionCandidate> candidates;  ///< all 8 masks, mask order

  [[nodiscard]] double speedup() const {
    return best_span > 0 ? static_cast<double>(baseline_span) /
                               static_cast<double>(best_span)
                         : 1.0;
  }
};

/// Prices all 8 fusion masks of `graph` under `executor` and returns the
/// argmin span (strict-< replacement from mask 0 upward: never slower than
/// the unfused baseline, deterministic lowest-mask tie-break).
///
/// Candidates are built in lattice order: mask m's graph is a copy of the
/// graph of m minus its highest bit, with the highest bit's pass run on
/// top. Catalog order is bit order, so each candidate is exactly
/// fused(graph, m), built with 7 pass runs in all instead of 12. Each
/// distinct candidate is verified once through analysis::expect_valid,
/// when the pass that produced it rewrote something (a pass that fired
/// nothing leaves its parent's already verified graph).
[[nodiscard]] FusionTuning tune_fusion(const PipelineExecutor& executor,
                                       const OpGraph& graph);

}  // namespace nova::pipeline
