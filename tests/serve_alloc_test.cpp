// Allocation gates. Whole-request serving: BatchScheduler::run must not
// heap-allocate per request. The binary links alloc_counter.cpp, which
// counts every global operator new call, and serves the same fixed
// 96-shape mix at N and at 2N requests (fault-free whole mode, exact
// pricing, one pricing thread, so the count is deterministic). Pricing
// allocates per distinct shape and is the same at both sizes; what grows
// with N may only be the containers sized by the request count, each of
// which reallocates O(log N) times -- so doubling N adds a small constant,
// not a count proportional to N. The fusion tuner: its allocations per
// call on one thread must not grow back past the figure reached by keeping
// its candidate graphs in per-thread buffers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "alloc_counter.hpp"
#include "core/overlay.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/fusion.hpp"
#include "pipeline/op_graph.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "workload/bert.hpp"

namespace nova::serve {
namespace {

/// Request i of a stream cycling through 96 shapes: 3 workloads x 4
/// functions x (4 prefill lengths + 4 decode KV lengths), one arrival
/// every 5 us (200k req/s).
std::vector<InferenceRequest> mixed_stream(int count) {
  const std::vector<std::string> workloads = {"bert-tiny", "bert-mini",
                                              "mobilebert-tiny"};
  const approx::NonLinearFn functions[] = {
      approx::NonLinearFn::kGelu, approx::NonLinearFn::kExp,
      approx::NonLinearFn::kTanh, approx::NonLinearFn::kSigmoid};
  const int lengths[] = {32, 64, 128, 256};
  std::vector<InferenceRequest> requests(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto& req = requests[static_cast<std::size_t>(i)];
    req.id = i;
    req.arrival_us = 5.0 * i;
    req.workload = workloads[static_cast<std::size_t>(i % 3)];
    req.function = functions[(i / 3) % 4];
    const int length = lengths[(i / 12) % 4];
    if ((i / 48) % 2 == 0) {
      req.phase = pipeline::Phase::kPrefill;
      req.seq_len = length;
    } else {
      req.phase = pipeline::Phase::kDecode;
      req.seq_len = 1;
      req.kv_len = 4 * length;
    }
  }
  return requests;
}

ServeConfig whole_mode_config() {
  ServeConfig config;
  config.nova = core::make_overlay(hw::AcceleratorKind::kTpuV4).nova;
  config.instances = 8;
  config.threads = 1;
  config.seed = 7;
  config.sim_elements_cap = 512;
  config.pricing = PricingMode::kExact;
  return config;
}

/// Global allocations made by one BatchScheduler::run over `requests`,
/// including building and destroying its report.
std::uint64_t allocations_in_run(const std::vector<InferenceRequest>& requests) {
  const BatchScheduler scheduler(whole_mode_config());
  const std::uint64_t before = testing::allocation_count();
  {
    const ServeReport report = scheduler.run(requests);
    EXPECT_EQ(report.outcomes.size(), requests.size());
    EXPECT_EQ(report.surrogate.distinct_shapes, 96u);
    EXPECT_EQ(report.status_count(RequestStatus::kOk), requests.size());
  }
  return testing::allocation_count() - before;
}

TEST(ServeAllocations, WholeModeRunAllocatesNothingPerRequest) {
  constexpr int kRequests = 20000;
  // Warm-up: the process-wide PWL library and any lazily built statics
  // fill on the first run, not in the measured ones.
  (void)allocations_in_run(mixed_stream(96));
  const auto at_n = allocations_in_run(mixed_stream(kRequests));
  const auto at_2n = allocations_in_run(mixed_stream(2 * kRequests));
  std::printf("allocations in run(): %llu at %d requests, %llu at %d\n",
              static_cast<unsigned long long>(at_n), kRequests,
              static_cast<unsigned long long>(at_2n), 2 * kRequests);
  ASSERT_GE(at_2n, at_n);
  // One reallocation per request-sized container per doubling is a few
  // dozen at most; a single allocation per request would be 20000.
  EXPECT_LE(at_2n - at_n, 32u) << "run() allocates per request: " << at_n
                               << " allocations at " << kRequests
                               << " requests, " << at_2n << " at "
                               << 2 * kRequests;
}

/// Global allocations made by tune_fusion over the first `count` graphs.
std::uint64_t allocations_in_tuning(
    const pipeline::PipelineExecutor& executor,
    const std::vector<pipeline::OpGraph>& graphs, std::size_t count) {
  const std::uint64_t before = testing::allocation_count();
  for (std::size_t i = 0; i < count; ++i) {
    const auto tuning = pipeline::tune_fusion(executor, graphs[i]);
    EXPECT_EQ(tuning.candidates.size(), 8u);
  }
  return testing::allocation_count() - before;
}

TEST(ServeAllocations, FusionTunerAllocationsPerCall) {
  // The fusion tuner on one thread over K and 2K distinct decode graphs
  // of one config, under a pricing-style calibrated executor. Every call
  // builds the same 8 candidates (same node count and labels), so the
  // allocations per added call are a fixed figure of the tuner itself.
  //
  // When the tuner deep-copied 7 fresh candidate graphs per call it made
  // 105 allocations per call (113 in a build without NDEBUG, where every
  // execute also runs the full verifier). With the candidates kept in
  // per-thread buffers and copy-assigned, it makes 51 (59): what is left
  // is the tail nodes a pass compacted away and the copy rebuilds, each
  // pass's link table, the verifier runs on every rewritten candidate and
  // every execute, and the 8 timelines.
  constexpr std::size_t kCalls = 256;
  const auto model = workload::by_name("bert-mini", 1);
  ASSERT_TRUE(model.has_value());
  std::vector<pipeline::OpGraph> graphs;
  graphs.reserve(2 * kCalls);
  for (std::size_t i = 0; i < 2 * kCalls; ++i) {
    graphs.push_back(pipeline::build_decode_graph(
        *model, static_cast<std::int64_t>(1 + 32 * i)));
  }
  pipeline::ExecutorConfig exec_config;
  exec_config.choice =
      accel::ApproximatorChoice{hw::UnitKind::kNovaNoc, 16};
  exec_config.overlap = true;
  exec_config.vector_elems_per_cycle = 97.25;
  exec_config.vector_fill_cycles = 6;
  const pipeline::PipelineExecutor executor(
      accel::make_accelerator(hw::AcceleratorKind::kTpuV4), exec_config);

  // Warm-up: lazily built statics fill on the first call.
  (void)allocations_in_tuning(executor, graphs, 1);
  const auto at_k = allocations_in_tuning(executor, graphs, kCalls);
  const auto at_2k = allocations_in_tuning(executor, graphs, 2 * kCalls);
  ASSERT_GE(at_2k, at_k);
  const std::uint64_t per_call = (at_2k - at_k) / kCalls;
  std::printf("allocations in tune_fusion(): %llu over %zu calls, %llu "
              "over %zu (%llu per added call)\n",
              static_cast<unsigned long long>(at_k), kCalls,
              static_cast<unsigned long long>(at_2k), 2 * kCalls,
              static_cast<unsigned long long>(per_call));
#ifdef NDEBUG
  constexpr std::uint64_t kMaxPerCall = 51;
#else
  constexpr std::uint64_t kMaxPerCall = 59;
#endif
  EXPECT_EQ((at_2k - at_k) % kCalls, 0u);
  EXPECT_LE(per_call, kMaxPerCall)
      << "tune_fusion allocates more per call than with reused candidate "
         "buffers";
}

}  // namespace
}  // namespace nova::serve
