#include "pipeline/fusion.hpp"

#include <array>
#include <bit>
#include <cstddef>
#include <initializer_list>
#include <utility>

#include "analysis/verifier.hpp"
#include "common/assert.hpp"

namespace nova::pipeline {

std::string to_string_fusion_set(FusionSet set) {
  if (set == kFuseNone) return "none";
  std::string text;
  const auto part = [&text](const char* name) {
    if (!text.empty()) text += '+';
    text += name;
  };
  if (set & kFuseAttention) part("attn");
  if (set & kFuseGemmGelu) part("gelu-ep");
  if (set & kFuseGemmLayerNorm) part("ln-ep");
  return text;
}

const char* to_string(FusionMode mode) {
  switch (mode) {
    case FusionMode::kOff: return "off";
    case FusionMode::kOn: return "on";
    case FusionMode::kAuto: return "auto";
  }
  return "?";
}

std::optional<FusionMode> fusion_mode_from_string(const std::string& name) {
  if (name == "off") return FusionMode::kOff;
  if (name == "on") return FusionMode::kOn;
  if (name == "auto") return FusionMode::kAuto;
  return std::nullopt;
}

namespace {

/// Effective phase of a node under the graph's tag (mirrors the verifier's
/// phase pass): fusing across a phase boundary would hide a cross-phase
/// edge from it, so the matchers refuse.
Phase effective_phase(const OpGraph& graph, const OpNode& node) {
  return node.phase.value_or(graph.phase);
}

/// One pass's rewrite of a graph in a single forward scan. Fan-out (the
/// consumer count, and the consumer when there is only one) is counted once
/// up front; the matcher walks heads in index order, fuse() puts each
/// match's fused node in its head's slot and marks the other members
/// absorbed, and finish() compacts the node list once, remapping deps.
///
/// This finds the same matches as rescanning from node 0 after every
/// splice: a fused node matches nothing, a splice changes no other node's
/// kind, volumes or consumer count, and a member's only producer is the
/// previous member, so no later head can reach a member already taken.
class ChainRewriter {
 public:
  explicit ChainRewriter(OpGraph& graph)
      : graph_(graph), links_(graph.nodes.size()) {
    for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
      for (const int dep : graph.nodes[i].deps) {
        Links& producer = links_[static_cast<std::size_t>(dep)];
        ++producer.consumers;
        producer.sole_consumer = static_cast<int>(i);
      }
    }
  }

  [[nodiscard]] int size() const { return static_cast<int>(links_.size()); }

  /// True once an earlier match absorbed node `i` into its fused node.
  [[nodiscard]] bool absorbed(int i) const {
    return links_[static_cast<std::size_t>(i)].absorbed_into >= 0;
  }

  /// The only node reading `i`, or -1 when `i` has no or several readers.
  [[nodiscard]] int sole_consumer(int i) const {
    const Links& links = links_[static_cast<std::size_t>(i)];
    return links.consumers == 1 ? links.sole_consumer : -1;
  }

  /// Replaces the matched chain (strictly increasing indices; each member
  /// the sole consumer of the previous) with `fused`: the head's slot takes
  /// the fused node and the head's producers, the rest are absorbed.
  void fuse(std::initializer_list<int> chain, OpNode fused) {
    const int head = *chain.begin();
    OpNode& slot = graph_.nodes[static_cast<std::size_t>(head)];
    fused.deps = std::move(slot.deps);
    slot = std::move(fused);
    for (const int member : chain) {
      if (member != head) {
        links_[static_cast<std::size_t>(member)].absorbed_into = head;
      }
    }
    ++rewrites_;
  }

  /// Drops the absorbed nodes, remaps every dep, and returns the rewrite
  /// count.
  int finish() {
    if (rewrites_ == 0) return 0;
    auto& nodes = graph_.nodes;
    std::size_t next = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      Links& links = links_[i];
      if (links.absorbed_into >= 0) {
        // Edges into an absorbed member read its (earlier) head.
        links.new_index =
            links_[static_cast<std::size_t>(links.absorbed_into)].new_index;
        continue;
      }
      links.new_index = static_cast<int>(next);
      if (next != i) nodes[next] = std::move(nodes[i]);
      for (int& dep : nodes[next].deps) {
        dep = links_[static_cast<std::size_t>(dep)].new_index;
      }
      ++next;
    }
    nodes.erase(nodes.begin() + static_cast<std::ptrdiff_t>(next),
                nodes.end());
    return rewrites_;
  }

 private:
  struct Links {
    int consumers = 0;
    int sole_consumer = -1;  ///< the last consumer seen; the only one if
                             ///< consumers == 1
    int absorbed_into = -1;  ///< head of the match that took this node
    int new_index = -1;      ///< index after finish() compacts the list
  };

  OpGraph& graph_;
  std::vector<Links> links_;
  int rewrites_ = 0;
};

/// GEMM(QK^T) -> softmax -> GEMM(AV), exclusive and shape-coherent,
/// becomes one kFusedAttention node. The context GEMM must be the score
/// GEMM's (m, n, k) permutation -- anything else is not an attention block
/// and the pattern refuses.
int fuse_attention_pass(OpGraph& graph) {
  ChainRewriter rewriter(graph);
  for (int i = 0; i < rewriter.size(); ++i) {
    if (rewriter.absorbed(i)) continue;
    const OpNode& scores = graph.nodes[static_cast<std::size_t>(i)];
    if (scores.kind != OpKind::kGemm) continue;
    const int j = rewriter.sole_consumer(i);
    if (j < 0) continue;
    const OpNode& softmax = graph.nodes[static_cast<std::size_t>(j)];
    if (softmax.kind != OpKind::kSoftmax || softmax.deps.size() != 1) {
      continue;
    }
    const int l = rewriter.sole_consumer(j);
    if (l < 0) continue;
    const OpNode& context = graph.nodes[static_cast<std::size_t>(l)];
    if (context.kind != OpKind::kGemm || context.deps.size() != 1) continue;
    // Shape coherence: softmax rows cover every (head, query) row of the
    // score output, its row length is the attend length, and the context
    // GEMM consumes exactly the softmaxed scores.
    if (softmax.rows != scores.repeat * scores.m ||
        softmax.row_len != scores.n) {
      continue;
    }
    if (context.m != scores.m || context.k != scores.n ||
        context.n != scores.k || context.repeat != scores.repeat) {
      continue;
    }
    if (effective_phase(graph, scores) != effective_phase(graph, softmax) ||
        effective_phase(graph, softmax) != effective_phase(graph, context)) {
      continue;
    }
    OpNode node;
    node.kind = OpKind::kFusedAttention;
    node.label = "fused-attention";
    node.m = scores.m;
    node.k = scores.k;
    node.n = scores.n;
    node.repeat = scores.repeat;
    node.rows = softmax.rows;
    node.row_len = softmax.row_len;
    node.phase = scores.phase;
    rewriter.fuse({i, j, l}, std::move(node));
  }
  return rewriter.finish();
}

/// Shared matcher for the two GEMM-epilogue fusions: GEMM -> (vector op of
/// `tail_kind`), exclusive, with `coherent(gemm, tail)` guarding that the
/// epilogue's volume is exactly the GEMM's output.
template <typename Coherent, typename Build>
int fuse_epilogue(OpGraph& graph, OpKind tail_kind, Coherent coherent,
                  Build build) {
  ChainRewriter rewriter(graph);
  for (int i = 0; i < rewriter.size(); ++i) {
    if (rewriter.absorbed(i)) continue;
    const OpNode& gemm = graph.nodes[static_cast<std::size_t>(i)];
    if (gemm.kind != OpKind::kGemm) continue;
    const int j = rewriter.sole_consumer(i);
    if (j < 0) continue;
    const OpNode& tail = graph.nodes[static_cast<std::size_t>(j)];
    if (tail.kind != tail_kind || tail.deps.size() != 1) continue;
    if (!coherent(gemm, tail)) continue;
    if (effective_phase(graph, gemm) != effective_phase(graph, tail)) {
      continue;
    }
    OpNode node = build(gemm, tail);
    node.phase = gemm.phase;
    rewriter.fuse({i, j}, std::move(node));
  }
  return rewriter.finish();
}

int fuse_gemm_gelu_pass(OpGraph& graph) {
  return fuse_epilogue(
      graph, OpKind::kGelu,
      [](const OpNode& gemm, const OpNode& gelu) {
        return gelu.elements == gemm.m * gemm.n * gemm.repeat;
      },
      [](const OpNode& gemm, const OpNode& gelu) {
        OpNode node;
        node.kind = OpKind::kFusedGemmGelu;
        node.label = gemm.label + "+gelu";
        node.m = gemm.m;
        node.k = gemm.k;
        node.n = gemm.n;
        node.repeat = gemm.repeat;
        node.elements = gelu.elements;
        return node;
      });
}

int fuse_gemm_layernorm_pass(OpGraph& graph) {
  return fuse_epilogue(
      graph, OpKind::kLayerNormScale,
      [](const OpNode& gemm, const OpNode& ln) {
        return ln.rows == gemm.m;
      },
      [](const OpNode& gemm, const OpNode& ln) {
        OpNode node;
        node.kind = OpKind::kFusedGemmLayerNorm;
        node.label = gemm.label + "+layernorm";
        node.m = gemm.m;
        node.k = gemm.k;
        node.n = gemm.n;
        node.repeat = gemm.repeat;
        node.rows = ln.rows;
        return node;
      });
}

/// Runs one catalog pass and machine-checks its output: conservation
/// (per-kind volume totals vs config closed forms) and the fused-aware
/// shape/structure passes must all hold, or the rewrite mispriced
/// something -- abort loudly. A pass that rewrote nothing left the graph
/// as it was, so there is nothing new to verify.
int run_pass(const FusionPass& pass, OpGraph& graph) {
  const int rewrites = pass.apply(graph);
  if (rewrites > 0) analysis::expect_valid(graph);
  return rewrites;
}

}  // namespace

const std::vector<FusionPass>& fusion_pass_catalog() {
  static const std::vector<FusionPass> catalog = {
      {"fuse-attention", kFuseAttention, &fuse_attention_pass},
      {"fuse-gemm-gelu", kFuseGemmGelu, &fuse_gemm_gelu_pass},
      {"fuse-gemm-layernorm", kFuseGemmLayerNorm, &fuse_gemm_layernorm_pass},
  };
  return catalog;
}

int apply_fusion(OpGraph& graph, FusionSet set) {
  NOVA_EXPECTS((set & ~kFuseAll) == 0);
  int total = 0;
  for (const auto& pass : fusion_pass_catalog()) {
    if ((set & pass.bit) != 0) total += run_pass(pass, graph);
  }
  return total;
}

OpGraph fused(const OpGraph& graph, FusionSet set) {
  OpGraph copy = graph;
  apply_fusion(copy, set);
  return copy;
}

FusionTuning tune_fusion(const PipelineExecutor& executor,
                         const OpGraph& graph) {
  const auto& catalog = fusion_pass_catalog();
  // Lattice order: mask m's graph is the graph of m minus its highest bit
  // with the highest bit's pass run on top. Catalog order is bit order, so
  // that is exactly apply_fusion(copy, m), built from 7 pass runs instead
  // of 12 -- and each distinct candidate is verified once, by the pass
  // that produced it. Mask 0 is the input graph itself.
  // The candidates are per-thread buffers (see the header): each is
  // overwritten before it is read, so only capacity carries over.
  thread_local std::array<OpGraph, kFuseAll + 1> rewritten;
  FusionTuning tuning;
  tuning.candidates.reserve(rewritten.size());
  for (FusionSet mask = kFuseNone; mask <= kFuseAll; ++mask) {
    const OpGraph* candidate = &graph;
    int rewrites = 0;
    if (mask != kFuseNone) {
      const FusionSet top = std::bit_floor(mask);
      const FusionSet parent = mask & ~top;
      const FusionPass& pass =
          catalog[static_cast<std::size_t>(std::countr_zero(top))];
      NOVA_ASSERT(pass.bit == top);
      rewritten[mask] = parent == kFuseNone ? graph : rewritten[parent];
      rewrites = tuning.candidates[parent].rewrites +
                 run_pass(pass, rewritten[mask]);
      candidate = &rewritten[mask];
    }
    const auto timeline = executor.execute(*candidate);
    tuning.candidates.push_back({mask, timeline.span_cycles, rewrites});
    if (mask == kFuseNone) {
      tuning.best = kFuseNone;
      tuning.best_span = timeline.span_cycles;
      tuning.baseline_span = timeline.span_cycles;
    } else if (timeline.span_cycles < tuning.best_span) {
      // Strict < keeps the tuner from ever picking a slower (or merely
      // equal, higher-mask) rewrite; ties resolve to the lowest mask.
      tuning.best = mask;
      tuning.best_span = timeline.span_cycles;
    }
  }
  return tuning;
}

}  // namespace nova::pipeline
