// Fusion rewrite-space bench: for each Table II host, each of the five
// paper benchmarks, and both phases (full-sequence prefill, single-step
// decode against a KV cache), runs the fusion auto-tuner over all 8
// rewrite masks under the double-buffered overlap executor and reports
// the winning mask, its span, and the speedup over the unfused baseline.
// Emits BENCH_fusion.json for cross-PR tracking.
//
// Three acceptance gates, all hard failures:
//   1. Tuner soundness: on EVERY (host x benchmark x phase) point the
//      winning span is <= the span of every candidate mask and <= the
//      unfused baseline -- the tuner can never pick a slower rewrite.
//   2. Measured improvement: on at least one point the winner is STRICTLY
//      faster than the unfused baseline (integer cycle counts, fully
//      deterministic -- no noise floor to hide behind).
//   3. Verified rewrites: the fully fused graph of every point passes the
//      complete analysis::run_passes suite (structure, phase, shape,
//      conservation) with zero errors.
//
// `--smoke` shrinks the sequence/KV lengths so CI can run the binary in
// seconds; the JSON then carries "smoke": true so readers never compare
// smoke numbers against full runs.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "analysis/verifier.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/fusion.hpp"
#include "pipeline/op_graph.hpp"

int main(int argc, char** argv) {
  using namespace nova;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::printf("Fusion rewrite-space tuning%s: all 8 masks per host x "
              "benchmark x phase\n\n",
              smoke ? " (smoke mode)" : "");

  std::vector<hw::AcceleratorKind> hosts;
  for (const auto& entry : accel::host_catalog()) hosts.push_back(entry.kind);

  bool tuner_sound = true;
  bool all_verified = true;
  int improved_points = 0;
  int total_points = 0;
  std::vector<json::Object> rows;

  for (const auto host : hosts) {
    const auto accel = accel::make_accelerator(host);
    // Same sequence protocol as bench_pipeline: seq 1024 everywhere except
    // REACT (128, edge-representative); decode runs one step against a KV
    // cache of the same length. Smoke shrinks both.
    const int seq = smoke ? (host == hw::AcceleratorKind::kReact ? 32 : 128)
                          : (host == hw::AcceleratorKind::kReact ? 128 : 1024);
    const int kv = seq;

    pipeline::ExecutorConfig exec_config;
    exec_config.choice = accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16};
    exec_config.overlap = true;
    const pipeline::PipelineExecutor executor(accel, exec_config);

    Table table(std::string("Fusion / ") + accel.name + " (seq_len " +
                std::to_string(seq) + ", kv_len " + std::to_string(kv) + ")");
    table.set_header({"benchmark", "phase", "baseline cyc", "best cyc",
                      "best mask", "rewrites", "speedup", "verified"});
    for (const auto& config : workload::paper_benchmarks(seq)) {
      const auto bench_point = [&](const char* phase,
                                   const pipeline::OpGraph& graph) {
        ++total_points;
        const auto tuning = pipeline::tune_fusion(executor, graph);

        // Gate 1: the winner is the argmin over all 8 masks and never
        // slower than the unfused baseline (candidate 0).
        for (const auto& candidate : tuning.candidates) {
          if (tuning.best_span > candidate.span_cycles) tuner_sound = false;
        }
        if (tuning.best_span > tuning.baseline_span) tuner_sound = false;
        if (tuning.best_span < tuning.baseline_span) ++improved_points;

        // Gate 3: the fully rewritten graph survives the complete verifier
        // suite -- every rewrite is machine-checked, not hand-audited.
        const auto full = pipeline::fused(graph, pipeline::kFuseAll);
        const auto report = analysis::run_passes(full);
        const bool verified = report.ok();
        if (!verified) {
          all_verified = false;
          std::fputs(report.to_string().c_str(), stderr);
        }

        int rewrites = 0;
        for (const auto& candidate : tuning.candidates) {
          if (candidate.set == tuning.best) rewrites = candidate.rewrites;
        }
        table.add_row({config.name, phase,
                       std::to_string(tuning.baseline_span),
                       std::to_string(tuning.best_span),
                       pipeline::to_string_fusion_set(tuning.best),
                       std::to_string(rewrites),
                       Table::num(tuning.speedup(), 4),
                       verified ? "ok" : "FAIL"});

        rows.push_back(
            json::Object()
                .string("host", accel.name)
                .string("benchmark", config.name)
                .string("phase", phase)
                .integer("seq_len", seq)
                .integer("kv_len", kv)
                .integer("baseline_cycles", tuning.baseline_span)
                .integer("best_cycles", tuning.best_span)
                .string("best_mask",
                        pipeline::to_string_fusion_set(tuning.best))
                .number("speedup", tuning.speedup(), 6)
                .boolean("verified", verified));
      };
      bench_point("prefill", pipeline::build_graph(config));
      bench_point("decode", pipeline::build_decode_graph(config, kv));
    }
    table.print();
    std::puts("");
  }
  json::Document doc;
  doc.boolean("smoke", smoke);
  doc.rows("fusion", rows);
  doc.integer("improved_points", improved_points);
  doc.integer("total_points", total_points);
  std::puts(doc.write("BENCH_fusion.json")
                ? "wrote BENCH_fusion.json"
                : "warning: could not write BENCH_fusion.json");

  std::printf("tuner improved %d of %d host x benchmark x phase points\n",
              improved_points, total_points);
  if (!tuner_sound) {
    std::puts("FAILED: the tuner picked a mask slower than another "
              "candidate (soundness gate)");
    return 1;
  }
  if (!all_verified) {
    std::puts("FAILED: a fused graph did not pass the verifier suite");
    return 1;
  }
  // Gate 2: fusion must win somewhere. Spans are integer cycle counts and
  // the whole sweep is deterministic, so a strict improvement on >= 1
  // point is a stable, noise-free bar.
  if (improved_points < 1) {
    std::puts("FAILED: no host x benchmark x phase point improved under "
              "fusion (speedup gate)");
    return 1;
  }
  return 0;
}
