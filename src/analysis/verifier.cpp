#include "analysis/verifier.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdio>
#include <string>

#include "common/assert.hpp"
#include "pipeline/executor.hpp"
#include "workload/bert.hpp"

namespace nova::analysis {

namespace {

using pipeline::GraphOrigin;
using pipeline::OpGraph;
using pipeline::OpKind;
using pipeline::OpNode;
using pipeline::Phase;

std::string i64(std::int64_t value) { return std::to_string(value); }

// ---------------------------------------------------------------------------
// structure: DAG/topology, dangling edges, unreachable nodes, resource-class
// field hygiene, strictly positive per-kind volumes.
// ---------------------------------------------------------------------------

void structure_pass(const OpGraph& graph, DiagnosticReport& report) {
  if (graph.layer_repeat < 1) {
    report.add(Severity::kError, CheckId::kStructLayerRepeat,
               "layer_repeat must be >= 1, got " + i64(graph.layer_repeat));
  }

  const int count = static_cast<int>(graph.nodes.size());
  std::vector<char> has_consumer(graph.nodes.size(), 0);

  for (int i = 0; i < count; ++i) {
    const OpNode& node = graph.nodes[static_cast<std::size_t>(i)];

    // Per-kind volumes must be strictly positive (a zero-volume node is a
    // construction bug, not a no-op), and fields belonging to another
    // kind's resource class must be zero: the executor silently ignores
    // them, so a builder that set them believed something false about the
    // node (e.g. that a softmax scales with `repeat` -- it does not).
    switch (node.kind) {
      case OpKind::kGemm:
        if (node.m < 1 || node.k < 1 || node.n < 1 || node.repeat < 1) {
          report.add(Severity::kError, CheckId::kStructVolume, graph, i,
                     "gemm dimensions must be positive, got (" + i64(node.m) +
                         " x " + i64(node.k) + " x " + i64(node.n) + ") x " +
                         i64(node.repeat));
        }
        if (node.rows != 0 || node.row_len != 0 || node.elements != 0) {
          report.add(Severity::kError, CheckId::kStructResourceClass, graph,
                     i,
                     "gemm node carries vector-class volume fields "
                     "(rows/row_len/elements must be 0)");
        }
        break;
      case OpKind::kSoftmax:
        if (node.rows < 1 || node.row_len < 1) {
          report.add(Severity::kError, CheckId::kStructVolume, graph, i,
                     "softmax must have rows >= 1 and row_len >= 1, got " +
                         i64(node.rows) + " x " + i64(node.row_len));
        }
        if (node.m != 0 || node.k != 0 || node.n != 0 || node.repeat != 1 ||
            node.elements != 0) {
          report.add(Severity::kError, CheckId::kStructResourceClass, graph,
                     i,
                     "softmax node carries fabric-class fields (m/k/n must "
                     "be 0, repeat 1, elements 0)");
        }
        break;
      case OpKind::kGelu:
        if (node.elements < 1) {
          report.add(Severity::kError, CheckId::kStructVolume, graph, i,
                     "gelu must have elements >= 1, got " +
                         i64(node.elements));
        }
        if (node.m != 0 || node.k != 0 || node.n != 0 || node.repeat != 1 ||
            node.rows != 0 || node.row_len != 0) {
          report.add(Severity::kError, CheckId::kStructResourceClass, graph,
                     i,
                     "gelu node carries fabric-class fields (m/k/n must be "
                     "0, repeat 1, rows/row_len 0)");
        }
        break;
      case OpKind::kLayerNormScale:
        if (node.rows < 1) {
          report.add(Severity::kError, CheckId::kStructVolume, graph, i,
                     "layernorm must have rows >= 1, got " + i64(node.rows));
        }
        if (node.m != 0 || node.k != 0 || node.n != 0 || node.repeat != 1 ||
            node.row_len != 0 || node.elements != 0) {
          report.add(Severity::kError, CheckId::kStructResourceClass, graph,
                     i,
                     "layernorm node carries fabric-class fields (m/k/n "
                     "must be 0, repeat 1, row_len/elements 0)");
        }
        break;
      // Fused nodes carry both resource classes; the internal coherence
      // invariants below are what make one node an honest stand-in for the
      // sub-chain it replaced (anything else is a rewrite bug, caught here
      // without needing a config to re-derive from).
      case OpKind::kFusedAttention:
        if (node.m < 1 || node.k < 1 || node.n < 1 || node.repeat < 1 ||
            node.rows < 1 || node.row_len < 1) {
          report.add(Severity::kError, CheckId::kStructVolume, graph, i,
                     "fused attention volumes must be positive, got (" +
                         i64(node.m) + " x " + i64(node.k) + " x " +
                         i64(node.n) + ") x " + i64(node.repeat) + ", " +
                         i64(node.rows) + " x " + i64(node.row_len));
        }
        if (node.elements != 0) {
          report.add(Severity::kError, CheckId::kStructResourceClass, graph,
                     i,
                     "fused attention node carries GELU elements (must be "
                     "0)");
        }
        if (node.rows != node.repeat * node.m || node.row_len != node.n) {
          report.add(Severity::kError, CheckId::kStructFusedShape, graph, i,
                     "fused attention incoherent: softmax must cover every "
                     "(head, query) score row -- want rows == repeat * m (" +
                         i64(node.repeat * node.m) + ") and row_len == n (" +
                         i64(node.n) + "), got " + i64(node.rows) + " x " +
                         i64(node.row_len));
        }
        break;
      case OpKind::kFusedGemmGelu:
        if (node.m < 1 || node.k < 1 || node.n < 1 || node.repeat < 1 ||
            node.elements < 1) {
          report.add(Severity::kError, CheckId::kStructVolume, graph, i,
                     "fused gemm+gelu volumes must be positive, got (" +
                         i64(node.m) + " x " + i64(node.k) + " x " +
                         i64(node.n) + ") x " + i64(node.repeat) + ", " +
                         i64(node.elements) + " elements");
        }
        if (node.rows != 0 || node.row_len != 0) {
          report.add(Severity::kError, CheckId::kStructResourceClass, graph,
                     i,
                     "fused gemm+gelu node carries softmax/layernorm rows "
                     "(must be 0)");
        }
        if (node.elements != node.m * node.n * node.repeat) {
          report.add(Severity::kError, CheckId::kStructFusedShape, graph, i,
                     "fused gemm+gelu incoherent: epilogue must activate "
                     "exactly the GEMM output -- want elements == m * n * "
                     "repeat (" + i64(node.m * node.n * node.repeat) +
                         "), got " + i64(node.elements));
        }
        break;
      case OpKind::kFusedGemmLayerNorm:
        if (node.m < 1 || node.k < 1 || node.n < 1 || node.repeat < 1 ||
            node.rows < 1) {
          report.add(Severity::kError, CheckId::kStructVolume, graph, i,
                     "fused gemm+layernorm volumes must be positive, got (" +
                         i64(node.m) + " x " + i64(node.k) + " x " +
                         i64(node.n) + ") x " + i64(node.repeat) + ", " +
                         i64(node.rows) + " rows");
        }
        if (node.row_len != 0 || node.elements != 0) {
          report.add(Severity::kError, CheckId::kStructResourceClass, graph,
                     i,
                     "fused gemm+layernorm node carries softmax row_len / "
                     "GELU elements (must be 0)");
        }
        if (node.rows != node.m) {
          report.add(Severity::kError, CheckId::kStructFusedShape, graph, i,
                     "fused gemm+layernorm incoherent: epilogue must "
                     "normalize exactly the GEMM output rows -- want rows "
                     "== m (" + i64(node.m) + "), got " + i64(node.rows));
        }
        break;
    }

    // Edges: in range (a dangling edge indexes a node that does not
    // exist), strictly back-pointing (nodes are stored in topological
    // order, so a forward or self edge is how a cycle would have to be
    // encoded), and not duplicated.
    for (std::size_t d = 0; d < node.deps.size(); ++d) {
      const int dep = node.deps[d];
      if (dep < 0 || dep >= count) {
        report.add(Severity::kError, CheckId::kStructDepRange, graph, i,
                   "dangling edge: dep " + i64(dep) + " outside [0, " +
                       i64(count) + ")");
        continue;
      }
      if (dep >= i) {
        report.add(Severity::kError, CheckId::kStructTopoOrder, graph, i,
                   "dep " + i64(dep) +
                       " is not a strict predecessor (topological order "
                       "forbids forward/self edges -- the encoding a cycle "
                       "would need)");
        continue;
      }
      has_consumer[static_cast<std::size_t>(dep)] = 1;
      for (std::size_t e = 0; e < d; ++e) {
        if (node.deps[e] == dep) {
          report.add(Severity::kError, CheckId::kStructDepDuplicate, graph,
                     i, "producer " + i64(dep) + " listed twice");
          break;
        }
      }
    }
  }

  // Unreachable nodes: in a multi-node graph, a node with neither
  // producers nor consumers is disconnected from the computation -- its
  // volume would still be priced, silently inflating every total.
  if (count > 1) {
    for (int i = 0; i < count; ++i) {
      const OpNode& node = graph.nodes[static_cast<std::size_t>(i)];
      if (node.deps.empty() && !has_consumer[static_cast<std::size_t>(i)]) {
        report.add(Severity::kError, CheckId::kStructUnreachable, graph, i,
                   "node has no producers and no consumers (disconnected "
                   "from the graph)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// phase: kv_len legality for the graph's phase tag, no cross-phase edges.
// ---------------------------------------------------------------------------

void phase_pass(const OpGraph& graph, DiagnosticReport& report) {
  if (graph.phase == Phase::kDecode && graph.kv_len < 1) {
    report.add(Severity::kError, CheckId::kPhaseKvLen,
               "decode graph must carry kv_len >= 1, got " +
                   i64(graph.kv_len));
  }
  if (graph.phase == Phase::kPrefill && graph.kv_len != 0) {
    report.add(Severity::kError, CheckId::kPhaseKvLen,
               "prefill graph must keep kv_len == 0, got " +
                   i64(graph.kv_len));
  }

  const int count = static_cast<int>(graph.nodes.size());
  const auto effective = [&graph](const OpNode& node) {
    return node.phase.value_or(graph.phase);
  };
  for (int i = 0; i < count; ++i) {
    const OpNode& node = graph.nodes[static_cast<std::size_t>(i)];
    for (const int dep : node.deps) {
      if (dep < 0 || dep >= count) continue;  // structure.dep-range owns it
      const OpNode& producer = graph.nodes[static_cast<std::size_t>(dep)];
      if (effective(producer) != effective(node)) {
        report.add(Severity::kError, CheckId::kPhaseCrossEdge, graph, i,
                   std::string("cross-phase edge: producer ") + i64(dep) +
                       " is " + pipeline::to_string(effective(producer)) +
                       ", consumer is " +
                       pipeline::to_string(effective(node)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// shape dataflow: re-derive every node of a config expansion from
// (BertConfig, phase, kv_len) and cross-check the declared volumes.
// ---------------------------------------------------------------------------

/// What one node of the canonical encoder chain must look like. The
/// expansion rules are spelled out here independently of build_graph /
/// build_decode_graph: everything "per token" scales with the query length
/// q, everything "per attended position" with the attend length a
/// (prefill: q == a == seq_len; decode: q == 1, a == kv_len).
struct ExpectedNode {
  OpKind kind = OpKind::kGemm;
  const char* label = "";
  std::int64_t m = 0, k = 0, n = 0, repeat = 1;  // gemm
  std::int64_t rows = 0, row_len = 0;            // softmax / layernorm
  std::int64_t elements = 0;                     // gelu
};

/// The canonical chain, in a fixed-capacity buffer: at most the ten encoder
/// ops plus the two bottleneck GEMMs. Derived once per run_passes and read
/// by both the shape and the conservation pass.
class ExpectedChain {
 public:
  static constexpr std::size_t kCapacity = 12;

  void push_back(const ExpectedNode& node) {
    NOVA_ASSERT(size_ < kCapacity);
    nodes_[size_++] = node;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const ExpectedNode& operator[](std::size_t i) const {
    return nodes_[i];
  }
  [[nodiscard]] const ExpectedNode* begin() const { return nodes_.data(); }
  [[nodiscard]] const ExpectedNode* end() const {
    return nodes_.data() + size_;
  }

 private:
  std::array<ExpectedNode, kCapacity> nodes_{};
  std::size_t size_ = 0;
};

ExpectedChain expected_chain(const workload::BertConfig& config,
                             std::int64_t q, std::int64_t a) {
  const std::int64_t h = config.hidden;
  const std::int64_t heads = config.heads;
  const std::int64_t head_dim = h / heads;
  const std::int64_t ffn = config.ffn;
  const std::int64_t stacks = config.ffn_stacks;

  ExpectedChain chain;
  const auto gemm = [&chain](const char* label, std::int64_t m,
                             std::int64_t k, std::int64_t n,
                             std::int64_t repeat) {
    ExpectedNode node;
    node.kind = OpKind::kGemm;
    node.label = label;
    node.m = m;
    node.k = k;
    node.n = n;
    node.repeat = repeat;
    chain.push_back(node);
  };

  if (config.bottleneck > 0) gemm("bottleneck-in", q, config.bottleneck, h, 1);
  gemm("attn-qkv", q, h, h, 3);
  gemm("attn-scores QK^T", q, head_dim, a, heads);
  {
    ExpectedNode softmax;
    softmax.kind = OpKind::kSoftmax;
    softmax.label = "attn-softmax";
    softmax.rows = heads * q;
    softmax.row_len = a;
    chain.push_back(softmax);
  }
  gemm("attn-context AV", q, a, head_dim, heads);
  gemm("attn-proj", q, h, h, 1);
  {
    ExpectedNode ln;
    ln.kind = OpKind::kLayerNormScale;
    ln.label = "layernorm-attn";
    ln.rows = q;
    chain.push_back(ln);
  }
  gemm("ffn-up", q, h, ffn, stacks);
  {
    ExpectedNode gelu;
    gelu.kind = OpKind::kGelu;
    gelu.label = "ffn-gelu";
    gelu.elements = stacks * q * ffn;
    chain.push_back(gelu);
  }
  gemm("ffn-down", q, ffn, h, stacks);
  {
    ExpectedNode ln;
    ln.kind = OpKind::kLayerNormScale;
    ln.label = "layernorm-ffn";
    ln.rows = q;
    chain.push_back(ln);
  }
  if (config.bottleneck > 0) gemm("bottleneck-out", q, h, config.bottleneck, 1);
  return chain;
}

/// Checks the embedded config can drive a re-derivation at all. Returns
/// false (after reporting) when it cannot.
bool check_config(const OpGraph& graph, DiagnosticReport& report) {
  const auto& config = graph.config;
  const auto bad = [&report](const std::string& what) {
    report.add(Severity::kError, CheckId::kShapeConfig,
               "config incoherent: " + what);
    return false;
  };
  if (config.layers < 1) return bad("layers must be >= 1");
  if (config.heads < 1) return bad("heads must be >= 1");
  if (config.hidden < 1) return bad("hidden must be >= 1");
  if (config.hidden % config.heads != 0) {
    return bad("hidden " + i64(config.hidden) +
               " not divisible by heads " + i64(config.heads));
  }
  if (config.ffn < 1) return bad("ffn must be >= 1");
  if (config.ffn_stacks < 1) return bad("ffn_stacks must be >= 1");
  if (config.bottleneck < 0) return bad("bottleneck must be >= 0");
  if (graph.phase == Phase::kPrefill && config.seq_len < 1) {
    return bad("prefill expansion needs seq_len >= 1");
  }
  // Decode kv_len legality is phase.kv-len's finding; just bail here so
  // the derivation below has a usable attend length.
  if (graph.phase == Phase::kDecode && graph.kv_len < 1) return false;
  return true;
}

/// Shape dataflow against the canonical chain. Runs only on config
/// expansions whose config passed check_config.
void shape_pass(const OpGraph& graph, const ExpectedChain& expected,
                DiagnosticReport& report) {
  if (graph.layer_repeat != graph.config.layers) {
    report.add(Severity::kError, CheckId::kShapeChain,
               "layer_repeat " + i64(graph.layer_repeat) +
                   " != config.layers " + i64(graph.config.layers));
  }

  // The canonical chain is derived UNFUSED; a fused node consumes the
  // expected entries of every constituent it replaced (attention: score
  // GEMM + softmax + context GEMM; epilogues: GEMM + vector op). The walk
  // is a cursor over the expected chain, so fused and unfused graphs are
  // both pinned to the same independently derived ground truth.
  const auto consumed = [](OpKind kind) -> std::size_t {
    switch (kind) {
      case OpKind::kFusedAttention: return 3;
      case OpKind::kFusedGemmGelu:
      case OpKind::kFusedGemmLayerNorm: return 2;
      default: return 1;
    }
  };
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    const OpNode& node = graph.nodes[i];
    const int idx = static_cast<int>(i);
    const std::size_t need = consumed(node.kind);
    if (cursor + need > expected.size()) {
      report.add(Severity::kError, CheckId::kShapeChain, graph, idx,
                 "graph extends past the canonical encoder chain (" +
                     i64(static_cast<std::int64_t>(expected.size())) +
                     " constituent ops)");
      return;
    }
    const ExpectedNode& want = expected[cursor];
    if (node.is_fused()) {
      // The constituents a fused node stands in for must line up with the
      // canonical chain kinds at the cursor; otherwise the rewrite fused
      // something that is not there.
      const bool aligned =
          node.kind == OpKind::kFusedAttention
              ? (want.kind == OpKind::kGemm &&
                 expected[cursor + 1].kind == OpKind::kSoftmax &&
                 expected[cursor + 2].kind == OpKind::kGemm)
              : (want.kind == OpKind::kGemm &&
                 expected[cursor + 1].kind ==
                     (node.kind == OpKind::kFusedGemmGelu
                          ? OpKind::kGelu
                          : OpKind::kLayerNormScale));
      if (!aligned) {
        report.add(Severity::kError, CheckId::kShapeChain, graph, idx,
                   std::string("fused node does not align with the "
                               "canonical chain at '") +
                       want.label + "'");
        return;
      }
      // GEMM half vs the canonical head GEMM.
      if (node.m != want.m || node.k != want.k || node.n != want.n ||
          node.repeat != want.repeat) {
        report.add(Severity::kError, CheckId::kShapeFused, graph, idx,
                   "derived GEMM (" + i64(want.m) + " x " + i64(want.k) +
                       " x " + i64(want.n) + ") x " + i64(want.repeat) +
                       ", declared (" + i64(node.m) + " x " + i64(node.k) +
                       " x " + i64(node.n) + ") x " + i64(node.repeat));
      }
      // Vector half vs the canonical epilogue / softmax.
      switch (node.kind) {
        case OpKind::kFusedAttention: {
          const ExpectedNode& softmax = expected[cursor + 1];
          const ExpectedNode& context = expected[cursor + 2];
          if (node.rows != softmax.rows || node.row_len != softmax.row_len) {
            report.add(Severity::kError, CheckId::kShapeFused, graph, idx,
                       "derived softmax " + i64(softmax.rows) + " rows of " +
                           i64(softmax.row_len) + " logits, declared " +
                           i64(node.rows) + " x " + i64(node.row_len));
          }
          if (context.m != want.m || context.k != want.n ||
              context.n != want.k || context.repeat != want.repeat) {
            report.add(Severity::kError, CheckId::kShapeFused, graph, idx,
                       "canonical context GEMM ('" +
                           std::string(context.label) +
                           "') is not the score GEMM's (m, n, k) "
                           "permutation -- this chain is not fusable "
                           "attention");
          }
          break;
        }
        case OpKind::kFusedGemmGelu:
          if (node.elements != expected[cursor + 1].elements) {
            report.add(Severity::kError, CheckId::kShapeFused, graph, idx,
                       "derived " + i64(expected[cursor + 1].elements) +
                           " activation elements, declared " +
                           i64(node.elements));
          }
          break;
        default:  // kFusedGemmLayerNorm
          if (node.rows != expected[cursor + 1].rows) {
            report.add(Severity::kError, CheckId::kShapeFused, graph, idx,
                       "derived " + i64(expected[cursor + 1].rows) +
                           " rsqrt rows, declared " + i64(node.rows));
          }
          break;
      }
      cursor += need;
      continue;
    }
    if (node.kind != want.kind) {
      report.add(Severity::kError, CheckId::kShapeChain, graph, idx,
                 std::string("expected a ") + pipeline::to_string(want.kind) +
                     " ('" + want.label + "') at this position");
      ++cursor;
      continue;
    }
    if (node.label != want.label) {
      report.add(Severity::kWarning, CheckId::kShapeChain, graph, idx,
                 std::string("label differs from canonical '") + want.label +
                     "'");
    }
    switch (node.kind) {
      case OpKind::kGemm:
        if (node.m != want.m || node.k != want.k || node.n != want.n ||
            node.repeat != want.repeat) {
          report.add(Severity::kError, CheckId::kShapeGemm, graph, idx,
                     "derived (" + i64(want.m) + " x " + i64(want.k) +
                         " x " + i64(want.n) + ") x " + i64(want.repeat) +
                         ", declared (" + i64(node.m) + " x " + i64(node.k) +
                         " x " + i64(node.n) + ") x " + i64(node.repeat));
        }
        break;
      case OpKind::kSoftmax:
        if (node.rows != want.rows || node.row_len != want.row_len) {
          report.add(Severity::kError, CheckId::kShapeSoftmax, graph, idx,
                     "derived " + i64(want.rows) + " rows of " +
                         i64(want.row_len) + " logits, declared " +
                         i64(node.rows) + " rows of " + i64(node.row_len));
        }
        break;
      case OpKind::kGelu:
        if (node.elements != want.elements) {
          report.add(Severity::kError, CheckId::kShapeGelu, graph, idx,
                     "derived " + i64(want.elements) +
                         " activation elements, declared " +
                         i64(node.elements));
        }
        break;
      default:  // kLayerNormScale (fused kinds handled above)
        if (node.rows != want.rows) {
          report.add(Severity::kError, CheckId::kShapeLayernorm, graph, idx,
                     "derived " + i64(want.rows) + " rsqrt rows, declared " +
                         i64(node.rows));
        }
        break;
    }
    ++cursor;
  }
  if (cursor != expected.size()) {
    report.add(Severity::kError, CheckId::kShapeChain,
               "canonical chain has " +
                   i64(static_cast<std::int64_t>(expected.size())) +
                   " constituent ops, graph covers " +
                   i64(static_cast<std::int64_t>(cursor)));
  }
}

// ---------------------------------------------------------------------------
// conservation: per-kind volume totals reconcile against the closed-form
// totals the config implies. Node-order agnostic, so volume-preserving
// rewrites (fusion) keep passing while any lost/inflated volume is caught.
// ---------------------------------------------------------------------------

/// Volume conservation against the canonical chain. Runs only on config
/// expansions whose config passed check_config: an incoherent config cannot
/// drive the closed forms either.
void conservation_pass(const OpGraph& graph, const ExpectedChain& expected,
                       DiagnosticReport& report) {
  const auto& config = graph.config;
  const std::int64_t layers = config.layers;
  const std::int64_t q = graph.phase == Phase::kPrefill ? config.seq_len : 1;
  const std::int64_t a =
      graph.phase == Phase::kPrefill ? config.seq_len : graph.kv_len;
  const std::int64_t heads = config.heads;
  const std::int64_t stacks = config.ffn_stacks;

  // Expected totals, straight from the config (never via a builder).
  const std::int64_t want_softmax_rows = layers * heads * q;
  const std::int64_t want_gelu = layers * stacks * q * config.ffn;
  const std::int64_t want_layernorm = layers * 2 * q;
  std::int64_t want_macs = 0;
  for (const auto& node : expected) {
    if (node.kind == OpKind::kGemm) {
      want_macs += node.m * node.k * node.n * node.repeat;
    }
  }
  want_macs *= layers;
  // Total vector-unit ops: for decode, tie the expectation literally to
  // the accel reference the cycle reconciliations use.
  const std::int64_t want_ops =
      graph.phase == Phase::kDecode
          ? static_cast<std::int64_t>(
                accel::closed_form_decode_ops(config, graph.kv_len))
          : want_softmax_rows * (2 * a + 1) + want_gelu + want_layernorm;

  // Actual totals, summed over the graph as it stands.
  std::int64_t got_softmax_rows = 0, got_gelu = 0, got_layernorm = 0;
  for (const auto& node : graph.nodes) {
    switch (node.kind) {
      case OpKind::kGemm: break;
      case OpKind::kSoftmax: got_softmax_rows += node.rows; break;
      case OpKind::kGelu: got_gelu += node.elements; break;
      case OpKind::kLayerNormScale: got_layernorm += node.rows; break;
      // Fused nodes carry their constituent vector op's volume, so the
      // per-kind totals survive fusion rewrites unchanged (MACs are
      // covered via macs_per_layer in total_macs below).
      case OpKind::kFusedAttention: got_softmax_rows += node.rows; break;
      case OpKind::kFusedGemmGelu: got_gelu += node.elements; break;
      case OpKind::kFusedGemmLayerNorm: got_layernorm += node.rows; break;
    }
  }
  got_softmax_rows *= graph.layer_repeat;
  got_gelu *= graph.layer_repeat;
  got_layernorm *= graph.layer_repeat;

  const auto check = [&report](CheckId id, const char* what,
                               std::int64_t want, std::int64_t got) {
    if (want != got) {
      report.add(Severity::kError, id,
                 std::string(what) + " do not conserve: closed form says " +
                     i64(want) + ", graph totals " + i64(got));
    }
  };
  check(CheckId::kConserveMacs, "GEMM MACs", want_macs, graph.total_macs());
  check(CheckId::kConserveApproxOps, "vector-unit element ops", want_ops,
        graph.total_approx_ops());
  check(CheckId::kConserveSoftmaxRows, "softmax rows", want_softmax_rows,
        got_softmax_rows);
  check(CheckId::kConserveGeluElements, "GELU elements", want_gelu,
        got_gelu);
  check(CheckId::kConserveLayernormRows, "layernorm rows", want_layernorm,
        got_layernorm);
}

}  // namespace

const std::vector<PassInfo>& pass_catalog() {
  static const std::vector<PassInfo> catalog = {
      {"structure",
       "DAG/topology: dep range + topological order (cycles), duplicate "
       "edges, unreachable nodes, resource-class field hygiene, positive "
       "per-kind volumes, fused-node internal coherence "
       "(structure.fused-shape)"},
      {"phase",
       "prefill/decode coherence: kv_len legality per phase tag, no "
       "cross-phase edges"},
      {"shape",
       "shape dataflow: re-derive every node of a config expansion from "
       "(BertConfig, phase, kv_len) and cross-check declared GEMM dims, "
       "softmax rows, GELU/layernorm volumes; fused nodes consume their "
       "constituents' canonical-chain entries (shape.fused)"},
      {"conservation",
       "closed-form volume lints: per-kind totals (MACs, approx ops, "
       "softmax rows, GELU elements, layernorm rows) reconcile against "
       "config-derived totals; survives volume-preserving rewrites"},
      {"reconcile-cycles",
       "host-specific cross-layer lint: serial executor timeline totals "
       "reconcile against accel::closed_form_cycles / "
       "closed_form_decode_cycles (reconcile_cycles, run by nova_lint per "
       "host)"},
  };
  return catalog;
}

DiagnosticReport run_structural_passes(const pipeline::OpGraph& graph) {
  DiagnosticReport report;
  structure_pass(graph, report);
  phase_pass(graph, report);
  return report;
}

DiagnosticReport run_passes(const pipeline::OpGraph& graph) {
  DiagnosticReport report = run_structural_passes(graph);
  // Only config expansions carry the ground truth the shape and
  // conservation passes re-derive; an incoherent config is shape.config's
  // finding and leaves nothing to derive from.
  if (graph.origin != GraphOrigin::kConfigExpansion) return report;
  if (!check_config(graph, report)) return report;
  const std::int64_t q =
      graph.phase == Phase::kPrefill ? graph.config.seq_len : 1;
  const std::int64_t a =
      graph.phase == Phase::kPrefill ? graph.config.seq_len : graph.kv_len;
  const ExpectedChain expected = expected_chain(graph.config, q, a);
  shape_pass(graph, expected, report);
  conservation_pass(graph, expected, report);
  return report;
}

DiagnosticReport reconcile_cycles(const pipeline::OpGraph& graph,
                                  const accel::AcceleratorModel& accel,
                                  const accel::ApproximatorChoice& choice) {
  // A graph the verifier rejects must not reach the executor (whose entry
  // guard would abort the process); hand its findings back instead.
  DiagnosticReport report = run_passes(graph);
  if (!report.ok()) return report;

  pipeline::ExecutorConfig exec;
  exec.choice = choice;
  exec.overlap = false;
  const auto timeline =
      pipeline::PipelineExecutor(accel, exec).execute(graph);

  // Decode reconciles against the fully independent config-arithmetic
  // closed form; prefill/adapted against the flat-view closed form over
  // flatten(graph) (for config expansions run_passes already pinned the
  // graph to the config, so this equals model_workload(config)).
  const accel::ClosedFormCycles closed =
      graph.phase == Phase::kDecode
          ? accel::closed_form_decode_cycles(accel, graph.config,
                                             graph.kv_len, choice)
          : accel::closed_form_cycles(accel, pipeline::flatten(graph),
                                      choice);

  const auto check = [&report, &accel](const char* what, std::uint64_t got,
                                       std::uint64_t want) {
    if (got != want) {
      report.add(Severity::kError, CheckId::kConserveCycles,
                 std::string(what) + " on " + accel.name +
                     ": serial executor timeline says " +
                     std::to_string(got) + ", closed form says " +
                     std::to_string(want));
    }
  };
  check("fabric cycles", timeline.fabric_cycles, closed.compute_cycles);
  check("vector cycles", timeline.vector_cycles, closed.approx_cycles);
  if (graph.has_fused_nodes()) {
    // Fusion conserves the per-resource busy totals (checked exactly
    // above) but shrinks the span: a fused node runs its fabric and
    // vector shares concurrently, so the serial span lands between the
    // busier resource alone and the full serial sum.
    const std::uint64_t lo =
        std::max(closed.compute_cycles, closed.approx_cycles);
    const std::uint64_t hi = closed.total();
    if (timeline.span_cycles < lo || timeline.span_cycles > hi) {
      report.add(Severity::kError, CheckId::kConserveCycles,
                 std::string("span cycles on ") + accel.name +
                     ": fused serial timeline says " +
                     std::to_string(timeline.span_cycles) +
                     ", outside the closed-form bound [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
  } else {
    check("span cycles", timeline.span_cycles, closed.total());
  }
  return report;
}

namespace {

void expect_ok(const DiagnosticReport& report, const char* what) {
  if (report.ok()) return;
  std::fprintf(stderr, "nova: op-graph %s failed:\n%s", what,
               report.to_string().c_str());
  NOVA_EXPECTS(report.ok());
}

}  // namespace

void expect_valid(const pipeline::OpGraph& graph) {
  expect_ok(run_passes(graph), "verification");
}

void expect_structurally_valid(const pipeline::OpGraph& graph) {
  expect_ok(run_structural_passes(graph), "structural verification");
}

}  // namespace nova::analysis
