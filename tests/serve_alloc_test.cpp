// Allocation gate for whole-request serving: BatchScheduler::run must not
// heap-allocate per request. The binary links alloc_counter.cpp, which
// counts every global operator new call, and serves the same fixed
// 96-shape mix at N and at 2N requests (fault-free whole mode, exact
// pricing, one pricing thread, so the count is deterministic). Pricing
// allocates per distinct shape and is the same at both sizes; what grows
// with N may only be the containers sized by the request count, each of
// which reallocates O(log N) times -- so doubling N adds a small constant,
// not a count proportional to N.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "core/overlay.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"

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

}  // namespace
}  // namespace nova::serve
