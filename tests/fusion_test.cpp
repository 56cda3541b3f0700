// Fusion rewrite passes + auto-tuner: the machine-checked contracts.
//
//   * OpGraph value semantics: deep copy and field-wise equality (the
//     rewrite passes and the tuner both lean on cheap graph copies).
//   * Pass idempotence: fusing a fused graph is a no-op, byte for byte.
//   * Verifier teeth: a seeded NON-conservative rewrite is rejected with
//     the exact conserve.* check id, and a fused node with broken internal
//     coherence trips structure.fused-shape -- the negative tests that
//     prove apply_fusion's re-verification would catch a bad pass.
//   * Tuner soundness: the winner is the argmin over all 8 masks and is
//     never slower than the unfused baseline.
//   * Executor conservation: fusion moves work between nodes but never
//     creates or destroys it -- fabric/vector busy totals and flattened
//     MAC/approx-op totals are identical across every mask.
//   * Pass oracle: every catalog pass rewrites exactly as a plain
//     rescan-after-every-splice reference does, on the zoo and on
//     hand-built graphs with shared, overlapping and cross-phase chains.
//   * Tuner equivalence: each tuner candidate carries the rewrite count and
//     span of an independent apply_fusion walk of its own mask.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "accel/accelerator.hpp"
#include "analysis/verifier.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/fusion.hpp"
#include "pipeline/op_graph.hpp"
#include "workload/bert.hpp"

namespace {

using namespace nova;
using pipeline::OpGraph;
using pipeline::OpKind;

workload::BertConfig tiny() {
  const auto config = workload::by_name("bert-tiny", 64);
  EXPECT_TRUE(config.has_value());
  return *config;
}

pipeline::PipelineExecutor overlap_executor(hw::AcceleratorKind host) {
  pipeline::ExecutorConfig config;
  config.choice = accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16};
  config.overlap = true;
  return pipeline::PipelineExecutor(accel::make_accelerator(host), config);
}

TEST(OpGraphValue, DeepCopyAndEquality) {
  const auto graph = pipeline::build_graph(tiny());
  OpGraph copy = graph;
  EXPECT_TRUE(copy == graph);

  // The copy is deep: mutating it leaves the original untouched and the
  // two graphs unequal.
  copy.nodes[2].label += "-mutated";
  EXPECT_FALSE(copy == graph);
  EXPECT_NE(graph.nodes[2].label.back(), 'd');

  copy = graph;
  EXPECT_TRUE(copy == graph);
  copy.nodes[4].deps.push_back(0);
  EXPECT_FALSE(copy == graph);
}

TEST(FusionPass, RewritesEveryPatternOnce) {
  const auto graph = pipeline::build_graph(tiny());
  auto rewritten = graph;
  const int rewrites = pipeline::apply_fusion(rewritten, pipeline::kFuseAll);
  // One attention triple, one GEMM+GELU, two GEMM+layernorm per layer
  // pattern set (attn-proj+layernorm-attn, ffn-down+layernorm-ffn).
  EXPECT_EQ(rewrites, 4);
  EXPECT_TRUE(rewritten.has_fused_nodes());
  EXPECT_EQ(rewritten.nodes.size(), graph.nodes.size() - 2 - 1 - 2);

  int fused_attn = 0, fused_gelu = 0, fused_ln = 0;
  for (const auto& node : rewritten.nodes) {
    fused_attn += node.kind == OpKind::kFusedAttention;
    fused_gelu += node.kind == OpKind::kFusedGemmGelu;
    fused_ln += node.kind == OpKind::kFusedGemmLayerNorm;
  }
  EXPECT_EQ(fused_attn, 1);
  EXPECT_EQ(fused_gelu, 1);
  EXPECT_EQ(fused_ln, 2);
}

TEST(FusionPass, IdempotentOnItsOwnOutput) {
  for (pipeline::FusionSet set = pipeline::kFuseNone;
       set <= pipeline::kFuseAll; ++set) {
    const auto once = pipeline::fused(pipeline::build_graph(tiny()), set);
    auto twice = once;
    EXPECT_EQ(pipeline::apply_fusion(twice, set), 0)
        << "mask " << pipeline::to_string_fusion_set(set)
        << " re-fired on its own output";
    EXPECT_TRUE(twice == once);
  }
}

TEST(FusionPass, DecodeGraphFusesAndVerifies) {
  const auto graph = pipeline::build_decode_graph(tiny(), 96);
  const auto rewritten = pipeline::fused(graph, pipeline::kFuseAll);
  EXPECT_TRUE(rewritten.has_fused_nodes());
  EXPECT_TRUE(analysis::run_passes(rewritten).ok())
      << analysis::run_passes(rewritten).to_string();
  EXPECT_EQ(rewritten.total_macs(), graph.total_macs());
  EXPECT_EQ(rewritten.total_approx_ops(), graph.total_approx_ops());
}

TEST(FusionVerifier, EveryMaskPassesTheFullSuite) {
  for (pipeline::FusionSet set = pipeline::kFuseNone;
       set <= pipeline::kFuseAll; ++set) {
    const auto graph = pipeline::fused(pipeline::build_graph(tiny()), set);
    const auto report = analysis::run_passes(graph);
    EXPECT_TRUE(report.ok()) << "mask "
                             << pipeline::to_string_fusion_set(set) << ":\n"
                             << report.to_string();
  }
}

TEST(FusionVerifier, NonConservativeRewriteIsRejected) {
  // Seed a deliberately volume-losing rewrite: shrink the fused attention
  // node's repeat (head count) while keeping its internal coherence
  // (rows == repeat * m) intact, so ONLY the conservation ledger can see
  // the theft. This is exactly the bug class apply_fusion's re-verify
  // exists to catch.
  auto graph = pipeline::fused(pipeline::build_graph(tiny()),
                               pipeline::kFuseAttention);
  const auto it = std::find_if(
      graph.nodes.begin(), graph.nodes.end(), [](const pipeline::OpNode& n) {
        return n.kind == OpKind::kFusedAttention;
      });
  ASSERT_NE(it, graph.nodes.end());
  ASSERT_GT(it->repeat, 1);
  it->repeat -= 1;
  it->rows = it->repeat * it->m;  // keep structure.fused-shape coherent

  const auto report = analysis::run_passes(graph);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(analysis::CheckId::kConserveMacs));
  EXPECT_TRUE(report.has(analysis::CheckId::kConserveSoftmaxRows));
  EXPECT_TRUE(report.has(analysis::CheckId::kConserveApproxOps));
}

TEST(FusionVerifier, BrokenFusedCoherenceTripsStructurePass) {
  auto graph = pipeline::fused(pipeline::build_graph(tiny()),
                               pipeline::kFuseAttention);
  for (auto& node : graph.nodes) {
    if (node.kind == OpKind::kFusedAttention) node.rows += 1;
  }
  const auto report = analysis::run_passes(graph);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(analysis::CheckId::kStructFusedShape));
}

TEST(FusionFlatten, FusedGraphFlattensToTheSameTotals) {
  const auto graph = pipeline::build_graph(tiny());
  const auto flat = pipeline::flatten(graph);
  for (pipeline::FusionSet set = pipeline::kFuseNone;
       set <= pipeline::kFuseAll; ++set) {
    const auto fused_flat =
        pipeline::flatten(pipeline::fused(graph, set));
    EXPECT_EQ(fused_flat.total_macs(), flat.total_macs());
    EXPECT_EQ(fused_flat.nonlinear.total_approx_ops(),
              flat.nonlinear.total_approx_ops());
    EXPECT_EQ(fused_flat.nonlinear.softmax_rows, flat.nonlinear.softmax_rows);
    EXPECT_EQ(fused_flat.nonlinear.gelu_elements,
              flat.nonlinear.gelu_elements);
  }
}

TEST(FusionExecutor, BusyTotalsConservedAcrossEveryMask) {
  for (const auto host :
       {hw::AcceleratorKind::kReact, hw::AcceleratorKind::kTpuV4}) {
    const auto executor = overlap_executor(host);
    const auto graph = pipeline::build_graph(tiny());
    const auto baseline = executor.execute(graph);
    for (pipeline::FusionSet set = pipeline::kFuseNone + 1;
         set <= pipeline::kFuseAll; ++set) {
      const auto timeline = executor.execute(pipeline::fused(graph, set));
      // Fusion repartitions the timeline but never creates or destroys
      // busy cycles on either resource.
      EXPECT_EQ(timeline.fabric_cycles, baseline.fabric_cycles)
          << "mask " << pipeline::to_string_fusion_set(set);
      EXPECT_EQ(timeline.vector_cycles, baseline.vector_cycles)
          << "mask " << pipeline::to_string_fusion_set(set);
    }
  }
}

TEST(FusionTuner, WinnerIsArgminAndNeverSlower) {
  for (const auto host :
       {hw::AcceleratorKind::kReact, hw::AcceleratorKind::kTpuV3,
        hw::AcceleratorKind::kTpuV4, hw::AcceleratorKind::kJetsonNvdla}) {
    const auto executor = overlap_executor(host);
    for (const auto* phase : {"prefill", "decode"}) {
      const auto graph = std::string(phase) == "prefill"
                             ? pipeline::build_graph(tiny())
                             : pipeline::build_decode_graph(tiny(), 64);
      const auto tuning = pipeline::tune_fusion(executor, graph);
      ASSERT_EQ(tuning.candidates.size(), 8u);
      EXPECT_EQ(tuning.candidates.front().set, pipeline::kFuseNone);
      EXPECT_EQ(tuning.candidates.front().span_cycles, tuning.baseline_span);
      for (const auto& candidate : tuning.candidates) {
        EXPECT_LE(tuning.best_span, candidate.span_cycles)
            << "tuner missed mask "
            << pipeline::to_string_fusion_set(candidate.set);
      }
      EXPECT_LE(tuning.best_span, tuning.baseline_span);
      EXPECT_GE(tuning.speedup(), 1.0);
      // The winner's recorded span is the winner's actual span.
      for (const auto& candidate : tuning.candidates) {
        if (candidate.set == tuning.best) {
          EXPECT_EQ(candidate.span_cycles, tuning.best_span);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Reference passes: the straightforward formulation of the three rewrites.
// Each pass recomputes the consumer lists, takes the FIRST match from node 0,
// splices it into a freshly built node list, and rescans from the start
// until nothing matches. Slow, but obviously the specification.
// ---------------------------------------------------------------------------
namespace reference {

using pipeline::OpNode;
using pipeline::Phase;

std::vector<std::vector<int>> consumers_of(const OpGraph& graph) {
  std::vector<std::vector<int>> consumers(graph.nodes.size());
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    for (const int dep : graph.nodes[i].deps) {
      consumers[static_cast<std::size_t>(dep)].push_back(
          static_cast<int>(i));
    }
  }
  return consumers;
}

Phase effective_phase(const OpGraph& graph, const OpNode& node) {
  return node.phase.value_or(graph.phase);
}

void splice_chain(OpGraph& graph, const std::vector<int>& chain,
                  OpNode fused) {
  const int head = chain.front();
  const int count = static_cast<int>(graph.nodes.size());
  std::vector<char> erased(graph.nodes.size(), 0);
  for (std::size_t c = 1; c < chain.size(); ++c) {
    erased[static_cast<std::size_t>(chain[c])] = 1;
  }
  std::vector<int> remap(graph.nodes.size(), -1);
  int next = 0;
  for (int i = 0; i < count; ++i) {
    if (erased[static_cast<std::size_t>(i)]) continue;
    remap[static_cast<std::size_t>(i)] = next++;
  }
  for (const int member : chain) {
    remap[static_cast<std::size_t>(member)] =
        remap[static_cast<std::size_t>(head)];
  }
  fused.deps = graph.nodes[static_cast<std::size_t>(head)].deps;
  std::vector<OpNode> nodes;
  for (int i = 0; i < count; ++i) {
    if (erased[static_cast<std::size_t>(i)]) continue;
    OpNode node = i == head ? std::move(fused)
                            : std::move(graph.nodes[static_cast<std::size_t>(i)]);
    for (int& dep : node.deps) dep = remap[static_cast<std::size_t>(dep)];
    nodes.push_back(std::move(node));
  }
  graph.nodes = std::move(nodes);
}

int fuse_attention(OpGraph& graph) {
  int rewrites = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const auto consumers = consumers_of(graph);
    for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
      const OpNode& scores = graph.nodes[i];
      if (scores.kind != OpKind::kGemm || consumers[i].size() != 1) continue;
      const int j = consumers[i][0];
      const OpNode& softmax = graph.nodes[static_cast<std::size_t>(j)];
      if (softmax.kind != OpKind::kSoftmax || softmax.deps.size() != 1 ||
          consumers[static_cast<std::size_t>(j)].size() != 1) {
        continue;
      }
      const int l = consumers[static_cast<std::size_t>(j)][0];
      const OpNode& context = graph.nodes[static_cast<std::size_t>(l)];
      if (context.kind != OpKind::kGemm || context.deps.size() != 1) continue;
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
      splice_chain(graph, {static_cast<int>(i), j, l}, std::move(node));
      ++rewrites;
      changed = true;
      break;
    }
  }
  return rewrites;
}

template <typename Coherent, typename Build>
int fuse_epilogue(OpGraph& graph, OpKind tail_kind, Coherent coherent,
                  Build build) {
  int rewrites = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const auto consumers = consumers_of(graph);
    for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
      const OpNode& gemm = graph.nodes[i];
      if (gemm.kind != OpKind::kGemm || consumers[i].size() != 1) continue;
      const int j = consumers[i][0];
      const OpNode& tail = graph.nodes[static_cast<std::size_t>(j)];
      if (tail.kind != tail_kind || tail.deps.size() != 1) continue;
      if (!coherent(gemm, tail)) continue;
      if (effective_phase(graph, gemm) != effective_phase(graph, tail)) {
        continue;
      }
      OpNode node = build(gemm, tail);
      node.phase = gemm.phase;
      splice_chain(graph, {static_cast<int>(i), j}, std::move(node));
      ++rewrites;
      changed = true;
      break;
    }
  }
  return rewrites;
}

int fuse_gemm_gelu(OpGraph& graph) {
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

int fuse_gemm_layernorm(OpGraph& graph) {
  return fuse_epilogue(
      graph, OpKind::kLayerNormScale,
      [](const OpNode& gemm, const OpNode& ln) { return ln.rows == gemm.m; },
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

/// Reference pass for one catalog bit.
int apply(pipeline::FusionSet bit, OpGraph& graph) {
  switch (bit) {
    case pipeline::kFuseAttention: return fuse_attention(graph);
    case pipeline::kFuseGemmGelu: return fuse_gemm_gelu(graph);
    case pipeline::kFuseGemmLayerNorm: return fuse_gemm_layernorm(graph);
    default: break;
  }
  ADD_FAILURE() << "no reference pass for bit " << bit;
  return 0;
}

}  // namespace reference

/// Runs every mask's catalog passes in order over `graph`, both through the
/// catalog and through the reference, and checks each pass's rewrite count
/// and rewritten graph agree. Catches a pass that diverges on any
/// intermediate graph, not just on the final one.
void expect_passes_match_reference(const OpGraph& graph,
                                   const std::string& what) {
  for (pipeline::FusionSet mask = pipeline::kFuseNone + 1;
       mask <= pipeline::kFuseAll; ++mask) {
    OpGraph got = graph;
    OpGraph want = graph;
    for (const auto& pass : pipeline::fusion_pass_catalog()) {
      if ((mask & pass.bit) == 0) continue;
      const int got_rewrites = pass.apply(got);
      const int want_rewrites = reference::apply(pass.bit, want);
      EXPECT_EQ(got_rewrites, want_rewrites)
          << what << ", mask " << pipeline::to_string_fusion_set(mask)
          << ", pass " << pass.name;
      EXPECT_TRUE(got == want)
          << what << ", mask " << pipeline::to_string_fusion_set(mask)
          << ", pass " << pass.name << " rewrote differently";
    }
  }
}

pipeline::OpNode gemm_node(std::int64_t m, std::int64_t k, std::int64_t n,
                           std::int64_t repeat, std::vector<int> deps) {
  pipeline::OpNode node;
  node.kind = OpKind::kGemm;
  node.label = "gemm";
  node.m = m;
  node.k = k;
  node.n = n;
  node.repeat = repeat;
  node.deps = std::move(deps);
  return node;
}

pipeline::OpNode softmax_node(std::int64_t rows, std::int64_t row_len,
                              std::vector<int> deps) {
  pipeline::OpNode node;
  node.kind = OpKind::kSoftmax;
  node.label = "softmax";
  node.rows = rows;
  node.row_len = row_len;
  node.deps = std::move(deps);
  return node;
}

pipeline::OpNode gelu_node(std::int64_t elements, std::vector<int> deps) {
  pipeline::OpNode node;
  node.kind = OpKind::kGelu;
  node.label = "gelu";
  node.elements = elements;
  node.deps = std::move(deps);
  return node;
}

pipeline::OpNode layernorm_node(std::int64_t rows, std::vector<int> deps) {
  pipeline::OpNode node;
  node.kind = OpKind::kLayerNormScale;
  node.label = "layernorm";
  node.rows = rows;
  node.deps = std::move(deps);
  return node;
}

/// Appends a coherent attention triple (scores GEMM -> softmax -> context
/// GEMM) reading `dep`; returns the context GEMM's index.
int push_attention(OpGraph& graph, int dep, std::int64_t q, std::int64_t d,
                   std::int64_t a, std::int64_t heads) {
  auto& nodes = graph.nodes;
  const auto at = [&nodes] { return static_cast<int>(nodes.size()); };
  const std::vector<int> in =
      dep >= 0 ? std::vector<int>{dep} : std::vector<int>{};
  nodes.push_back(gemm_node(q, d, a, heads, in));
  nodes.push_back(softmax_node(heads * q, a, {at() - 1}));
  nodes.push_back(gemm_node(q, a, d, heads, {at() - 1}));
  return at() - 1;
}

TEST(FusionPass, MatchesRescanReference) {
  // Every zoo benchmark, prefill and decode, short to long.
  for (const auto& entry : workload::benchmark_catalog()) {
    for (const int seq : {1, 64, 512}) {
      expect_passes_match_reference(
          pipeline::build_graph(entry.make(seq)),
          std::string(entry.name) + " prefill seq " + std::to_string(seq));
    }
    for (const std::int64_t kv : {1, 128, 16384}) {
      expect_passes_match_reference(
          pipeline::build_decode_graph(entry.make(128), kv),
          std::string(entry.name) + " decode kv " + std::to_string(kv));
    }
  }

  // Two attention blocks in one graph, each followed by a GEMM epilogue
  // pair, all on one chain.
  {
    OpGraph graph;
    const int first = push_attention(graph, -1, 8, 16, 8, 4);
    graph.nodes.push_back(gemm_node(8, 64, 32, 1, {first}));
    graph.nodes.push_back(gelu_node(8 * 32, {first + 1}));
    const int second = push_attention(graph, first + 2, 8, 16, 8, 4);
    graph.nodes.push_back(gemm_node(8, 64, 64, 1, {second}));
    graph.nodes.push_back(layernorm_node(8, {second + 1}));
    expect_passes_match_reference(graph, "two attention blocks");
    OpGraph fused_graph = graph;
    EXPECT_EQ(pipeline::fusion_pass_catalog()[0].apply(fused_graph), 2);
  }

  // GEMM -> softmax -> GEMM -> softmax -> GEMM where both triples are
  // coherent: the middle GEMM is the first block's context and the second
  // block's scores, so it may fuse only once (into the first block).
  {
    OpGraph graph;
    graph.nodes.push_back(gemm_node(4, 16, 32, 2, {}));
    graph.nodes.push_back(softmax_node(2 * 4, 32, {0}));
    graph.nodes.push_back(gemm_node(4, 32, 16, 2, {1}));
    graph.nodes.push_back(softmax_node(2 * 4, 16, {2}));
    graph.nodes.push_back(gemm_node(4, 16, 32, 2, {3}));
    expect_passes_match_reference(graph, "shared middle GEMM");
    OpGraph fused_graph = graph;
    EXPECT_EQ(pipeline::fusion_pass_catalog()[0].apply(fused_graph), 1);
    ASSERT_EQ(fused_graph.nodes.size(), 3u);
    EXPECT_EQ(fused_graph.nodes[0].kind, OpKind::kFusedAttention);
    EXPECT_EQ(fused_graph.nodes[1].deps, std::vector<int>{0});

    // Same chain with the first triple incoherent: now the middle GEMM
    // heads the second block instead.
    graph.nodes[1].row_len = 31;
    expect_passes_match_reference(graph, "shared middle GEMM, first broken");
  }

  // A GEMM with two consumers fuses with neither; its consumers' own
  // chains still do.
  {
    OpGraph graph;
    graph.nodes.push_back(gemm_node(8, 32, 32, 1, {}));
    graph.nodes.push_back(gelu_node(8 * 32, {0}));
    graph.nodes.push_back(gemm_node(8, 32, 32, 1, {0}));
    graph.nodes.push_back(layernorm_node(8, {2}));
    graph.nodes.push_back(gemm_node(8, 32, 32, 1, {1, 3}));
    graph.nodes.push_back(gelu_node(8 * 32, {4}));
    expect_passes_match_reference(graph, "two-consumer GEMM");
    OpGraph fused_graph = graph;
    EXPECT_EQ(pipeline::fusion_pass_catalog()[1].apply(fused_graph), 1);
    EXPECT_EQ(pipeline::fusion_pass_catalog()[2].apply(fused_graph), 1);
  }

  // A phase override on one end of an edge makes it cross-phase: it must
  // not fuse. The same override on both ends fuses and keeps the tag.
  {
    OpGraph graph;
    graph.nodes.push_back(gemm_node(8, 32, 32, 1, {}));
    graph.nodes.push_back(gelu_node(8 * 32, {0}));
    graph.nodes.push_back(gemm_node(8, 32, 32, 1, {1}));
    graph.nodes.push_back(gelu_node(8 * 32, {2}));
    graph.nodes[1].phase = pipeline::Phase::kDecode;
    graph.nodes[2].phase = pipeline::Phase::kDecode;
    graph.nodes[3].phase = pipeline::Phase::kDecode;
    expect_passes_match_reference(graph, "phase-override edge");
    OpGraph fused_graph = graph;
    EXPECT_EQ(pipeline::fusion_pass_catalog()[1].apply(fused_graph), 1);
    ASSERT_EQ(fused_graph.nodes.size(), 3u);
    EXPECT_EQ(fused_graph.nodes[0].kind, OpKind::kGemm);
    EXPECT_EQ(fused_graph.nodes[2].kind, OpKind::kFusedGemmGelu);
    EXPECT_EQ(fused_graph.nodes[2].phase, pipeline::Phase::kDecode);
  }
}

TEST(FusionTuner, CandidatesMatchPerMaskWalks) {
  for (const auto host :
       {hw::AcceleratorKind::kReact, hw::AcceleratorKind::kTpuV3,
        hw::AcceleratorKind::kTpuV4, hw::AcceleratorKind::kJetsonNvdla}) {
    const auto executor = overlap_executor(host);
    for (const auto& entry : workload::benchmark_catalog()) {
      for (const bool decode : {false, true}) {
        const auto graph =
            decode ? pipeline::build_decode_graph(entry.make(64), 128)
                   : pipeline::build_graph(entry.make(64));
        const std::string what = std::string(entry.name) +
                                 (decode ? " decode" : " prefill");
        const auto tuning = pipeline::tune_fusion(executor, graph);
        ASSERT_EQ(tuning.candidates.size(), 8u) << what;
        for (pipeline::FusionSet mask = pipeline::kFuseNone;
             mask <= pipeline::kFuseAll; ++mask) {
          const auto& candidate = tuning.candidates[mask];
          EXPECT_EQ(candidate.set, mask) << what;
          OpGraph copy = graph;
          EXPECT_EQ(candidate.rewrites, pipeline::apply_fusion(copy, mask))
              << what << ", mask " << pipeline::to_string_fusion_set(mask);
          EXPECT_EQ(candidate.span_cycles,
                    executor.execute(pipeline::fused(graph, mask)).span_cycles)
              << what << ", mask " << pipeline::to_string_fusion_set(mask);
        }
      }
    }
  }
}

TEST(FusionModes, StringRoundTrips) {
  using pipeline::FusionMode;
  for (const auto mode :
       {FusionMode::kOff, FusionMode::kOn, FusionMode::kAuto}) {
    const auto parsed =
        pipeline::fusion_mode_from_string(pipeline::to_string(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(pipeline::fusion_mode_from_string("bogus").has_value());
  EXPECT_EQ(pipeline::to_string_fusion_set(pipeline::kFuseNone), "none");
  EXPECT_EQ(pipeline::to_string_fusion_set(pipeline::kFuseAll),
            "attn+gelu-ep+ln-ep");
}

}  // namespace
