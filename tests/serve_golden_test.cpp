// Golden digests of BatchScheduler::run over a small serving sweep.
//
// Each config of the sweep (dispatch mode x generation length x fault /
// deadline scenario x batch cap x traffic seed) is served once and folded
// into one FNV-1a digest covering every RequestOutcome field, every
// InstanceStats field, the rendered stats table, and the report
// aggregates (makespan, throughput, goodput, status counts). Any change
// to what the scheduler decides -- an instance choice, a fused member, a
// retry time, a stats row -- changes a digest, so a refactor of the
// dispatch code must leave every digest alone.
//
// On a mismatch the test prints the config's recomputed table line, so a
// deliberate behaviour change can be re-captured by pasting the printed
// lines over the table -- and the diff shows exactly which configs moved.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/overlay.hpp"
#include "fnv1a.hpp"
#include "serve/faults.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"

namespace nova::serve {
namespace {

using golden::Fnv1a;

std::uint64_t digest(const ServeReport& report) {
  Fnv1a h;
  h.u64(report.outcomes.size());
  for (const auto& o : report.outcomes) {
    const auto& r = o.request;
    h.i64(r.id);
    h.f64(r.arrival_us);
    h.str(r.workload);
    h.i64(r.seq_len);
    h.i64(static_cast<std::int64_t>(r.function));
    h.i64(r.breakpoints);
    h.i64(static_cast<std::int64_t>(r.phase));
    h.i64(r.kv_len);
    h.f64(r.deadline_us);
    h.i64(r.gen_steps);
    h.i64(static_cast<std::int64_t>(o.status));
    h.i64(o.attempts);
    h.i64(o.instance);
    h.i64(o.batch_id);
    h.i64(o.batch_size);
    h.i64(o.approx_ops);
    h.i64(static_cast<std::int64_t>(o.service_cycles));
    h.i64(o.wave_latency_cycles);
    h.f64(o.service_us);
    h.f64(o.start_us);
    h.f64(o.finish_us);
    h.i64(o.session_steps);
    h.i64(o.prefill_chunks);
    h.f64(o.first_finish_us);
  }
  h.u64(report.instances.size());
  for (const auto& inst : report.instances) {
    h.i64(inst.requests);
    h.i64(inst.batches);
    h.f64(inst.busy_us);
    h.i64(inst.failed_batches);
    h.f64(inst.down_us);
    h.f64(inst.availability);
  }
  h.str(report.stats.to_table().to_ascii());
  h.f64(report.makespan_us);
  h.f64(report.throughput_rps);
  h.f64(report.goodput_rps);
  for (const auto count : report.status_counts) h.u64(count);
  return h.value();
}

/// Fault/deadline scenario of one sweep config.
enum class Scenario {
  kPlain,     ///< no faults, no deadlines
  kFaults,    ///< outages + slowdowns, tight retry budget
  kOverload,  ///< faults + deadlines + overload shedding past the pool
};

const char* to_string(Scenario s) {
  switch (s) {
    case Scenario::kPlain:
      return "plain";
    case Scenario::kFaults:
      return "faults";
    case Scenario::kOverload:
      return "overload";
  }
  return "?";
}

struct SweepPoint {
  bool continuous = false;
  int max_steps = 0;
  Scenario scenario = Scenario::kPlain;
  int max_batch = 8;
  std::uint64_t seed = 1;

  [[nodiscard]] std::string name() const {
    return std::string(continuous ? "continuous" : "whole") + "/steps" +
           std::to_string(max_steps) + "/" + to_string(scenario) + "/b" +
           std::to_string(max_batch) + "/s" + std::to_string(seed);
  }
};

constexpr int kInstances = 4;
constexpr int kRequests = 1200;

std::vector<SweepPoint> sweep() {
  std::vector<SweepPoint> points;
  for (const bool continuous : {false, true}) {
    for (const int max_steps : {0, 6}) {
      for (const auto scenario :
           {Scenario::kPlain, Scenario::kFaults, Scenario::kOverload}) {
        for (const int max_batch : {1, 4, 8}) {
          for (const std::uint64_t seed : {1, 2}) {
            points.push_back(
                {continuous, max_steps, scenario, max_batch, seed});
          }
        }
      }
    }
  }
  return points;
}

std::vector<InferenceRequest> traffic(const SweepPoint& p) {
  TrafficProfile profile;
  profile.max_steps = p.max_steps;
  // Overload arrives far faster than four instances drain, so the queue
  // grows past the shedding threshold; the other scenarios keep up.
  profile.rate_rps = p.scenario == Scenario::kOverload ? 1.5e6 : 3e5;
  // Two PWL tables instead of four, so whole-request FIFO runs grow long
  // enough for the batch cap to bind.
  profile.functions = {approx::NonLinearFn::kGelu, approx::NonLinearFn::kExp};
  if (p.scenario == Scenario::kOverload) profile.deadline_us = 3000.0;
  return generate_poisson(kRequests, profile, p.seed);
}

ServeConfig config_for(const SweepPoint& p) {
  ServeConfig config;
  config.nova = core::make_overlay(hw::AcceleratorKind::kTpuV4).nova;
  config.instances = kInstances;
  config.threads = 2;
  config.seed = p.seed;
  config.max_batch = p.max_batch;
  config.sim_elements_cap = 512;
  config.pricing = PricingMode::kSurrogate;
  config.continuous = p.continuous;
  if (p.scenario != Scenario::kPlain) {
    FaultProfile faults;
    faults.mtbf_us = 400.0;
    faults.mttr_us = 80.0;
    faults.slowdown_fraction = 0.3;
    faults.slowdown_factor = 3.0;
    config.faults = draw_fault_plan(faults, kInstances, 1e6, p.seed);
    config.policy.max_retries = 2;
  }
  if (p.scenario == Scenario::kOverload) {
    config.policy.overload_queue_us = 400.0;
  }
  return config;
}

struct Golden {
  const char* name;
  std::uint64_t digest;
};

// clang-format off
constexpr Golden kGoldens[] = {
    {"whole/steps0/plain/b1/s1", 0x60bcb0ab67e48686ULL},
    {"whole/steps0/plain/b1/s2", 0x140e3722349eff88ULL},
    {"whole/steps0/plain/b4/s1", 0x9d55c149f38fb348ULL},
    {"whole/steps0/plain/b4/s2", 0xafb62e085e5a7325ULL},
    {"whole/steps0/plain/b8/s1", 0x6820d6e80f14c175ULL},
    {"whole/steps0/plain/b8/s2", 0x6308fe876fefc514ULL},
    {"whole/steps0/faults/b1/s1", 0x0b4ac5a57fe16e51ULL},
    {"whole/steps0/faults/b1/s2", 0x9752adf554e5130dULL},
    {"whole/steps0/faults/b4/s1", 0x9427975cddb55eadULL},
    {"whole/steps0/faults/b4/s2", 0x4bde4c2880575746ULL},
    {"whole/steps0/faults/b8/s1", 0x0366bfe475d2d829ULL},
    {"whole/steps0/faults/b8/s2", 0x9ebb4f74a8ed8fd1ULL},
    {"whole/steps0/overload/b1/s1", 0xb5a75a27b796090bULL},
    {"whole/steps0/overload/b1/s2", 0x428bfee6d23728a0ULL},
    {"whole/steps0/overload/b4/s1", 0x0ee19b0225bb0377ULL},
    {"whole/steps0/overload/b4/s2", 0xba87c24977b7db33ULL},
    {"whole/steps0/overload/b8/s1", 0xd284026f9ba798cbULL},
    {"whole/steps0/overload/b8/s2", 0x4ec3ce756f7111b6ULL},
    {"whole/steps6/plain/b1/s1", 0xaf1eff85c5cd95fcULL},
    {"whole/steps6/plain/b1/s2", 0x06f5f112e71471eeULL},
    {"whole/steps6/plain/b4/s1", 0x54e56b9780945a57ULL},
    {"whole/steps6/plain/b4/s2", 0xfa8dc90406b42121ULL},
    {"whole/steps6/plain/b8/s1", 0xef871ac3ff2b497eULL},
    {"whole/steps6/plain/b8/s2", 0x23e9f300bb74ade1ULL},
    {"whole/steps6/faults/b1/s1", 0x401ba1ffce8095ccULL},
    {"whole/steps6/faults/b1/s2", 0xf7fb0ca7362e39b8ULL},
    {"whole/steps6/faults/b4/s1", 0x7bd244bb72a3bbf5ULL},
    {"whole/steps6/faults/b4/s2", 0xecbf7706e7512936ULL},
    {"whole/steps6/faults/b8/s1", 0xad48a5d009893531ULL},
    {"whole/steps6/faults/b8/s2", 0x44ec42cfbbfbbb11ULL},
    {"whole/steps6/overload/b1/s1", 0xdf828b0a08637160ULL},
    {"whole/steps6/overload/b1/s2", 0x3ba000f39502fe45ULL},
    {"whole/steps6/overload/b4/s1", 0x280084cbe51fa974ULL},
    {"whole/steps6/overload/b4/s2", 0x81b89bfb665773d1ULL},
    {"whole/steps6/overload/b8/s1", 0xa19520ad4ea85e9fULL},
    {"whole/steps6/overload/b8/s2", 0xf1dd1366f9758d69ULL},
    {"continuous/steps0/plain/b1/s1", 0xd67dcec3813fc842ULL},
    {"continuous/steps0/plain/b1/s2", 0x7d933b4bc46e5b59ULL},
    {"continuous/steps0/plain/b4/s1", 0x9b53868c24736df7ULL},
    {"continuous/steps0/plain/b4/s2", 0x622b7d887caa56d6ULL},
    {"continuous/steps0/plain/b8/s1", 0x3936f4f3218649fbULL},
    {"continuous/steps0/plain/b8/s2", 0x176aa4bc99cd7409ULL},
    {"continuous/steps0/faults/b1/s1", 0xd7c2b29f62fc0c12ULL},
    {"continuous/steps0/faults/b1/s2", 0x9bc060408225fab6ULL},
    {"continuous/steps0/faults/b4/s1", 0x217c9983e395234bULL},
    {"continuous/steps0/faults/b4/s2", 0xb72e5b2293918759ULL},
    {"continuous/steps0/faults/b8/s1", 0x80b4b0f02865a437ULL},
    {"continuous/steps0/faults/b8/s2", 0xfc89f790a6475215ULL},
    {"continuous/steps0/overload/b1/s1", 0xea5d01b77f30694dULL},
    {"continuous/steps0/overload/b1/s2", 0x9204a380aaac379fULL},
    {"continuous/steps0/overload/b4/s1", 0xcbcb93b1b942d8b7ULL},
    {"continuous/steps0/overload/b4/s2", 0x4caf22d70b140b89ULL},
    {"continuous/steps0/overload/b8/s1", 0x533aad3f384cde93ULL},
    {"continuous/steps0/overload/b8/s2", 0x5cdfe9a5f557d46cULL},
    {"continuous/steps6/plain/b1/s1", 0xa31023279e4daf9aULL},
    {"continuous/steps6/plain/b1/s2", 0xcf13763c25adfb50ULL},
    {"continuous/steps6/plain/b4/s1", 0xe78234963884eeb3ULL},
    {"continuous/steps6/plain/b4/s2", 0x54855e0ef8d4b07cULL},
    {"continuous/steps6/plain/b8/s1", 0xd98b8365c959542dULL},
    {"continuous/steps6/plain/b8/s2", 0x68c3176688caaf80ULL},
    {"continuous/steps6/faults/b1/s1", 0xfca5ea9a006f28f7ULL},
    {"continuous/steps6/faults/b1/s2", 0xb7f3f46e98d4f011ULL},
    {"continuous/steps6/faults/b4/s1", 0xf8f0f2b6897a01d2ULL},
    {"continuous/steps6/faults/b4/s2", 0xcbc10c4a16e74657ULL},
    {"continuous/steps6/faults/b8/s1", 0xa4965ea8c494e2e8ULL},
    {"continuous/steps6/faults/b8/s2", 0xae9c830692b97896ULL},
    {"continuous/steps6/overload/b1/s1", 0x6df610a53914df40ULL},
    {"continuous/steps6/overload/b1/s2", 0x8e8393714acda2aeULL},
    {"continuous/steps6/overload/b4/s1", 0x2b904798cc48b4d0ULL},
    {"continuous/steps6/overload/b4/s2", 0x207202bd209202f2ULL},
    {"continuous/steps6/overload/b8/s1", 0x4b4a3a6f8a6015f0ULL},
    {"continuous/steps6/overload/b8/s2", 0xf372ba0d6617c6a7ULL},
};
// clang-format on

TEST(ServeGolden, EveryConfigMatchesItsCommittedDigest) {
  std::map<std::string, std::uint64_t> want;
  for (const auto& g : kGoldens) want.emplace(g.name, g.digest);

  const auto points = sweep();
  EXPECT_EQ(want.size(), points.size()) << "golden table out of date";
  // The sweep must reach every dispatch branch the digests guard.
  std::array<std::uint64_t, kRequestStatusCount> totals{};
  std::uint64_t retries = 0;
  for (const auto& p : points) {
    const auto report = BatchScheduler(config_for(p)).run(traffic(p));
    for (int s = 0; s < kRequestStatusCount; ++s) {
      totals[static_cast<std::size_t>(s)] +=
          report.status_counts[static_cast<std::size_t>(s)];
    }
    retries += report.stats.counter("serve.retries");
    const std::uint64_t got = digest(report);
    const auto it = want.find(p.name());
    if (it == want.end() || it->second != got) {
      char line[128];
      std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxULL},",
                    p.name().c_str(), static_cast<unsigned long long>(got));
      ADD_FAILURE() << "digest mismatch for " << p.name() << "\n" << line;
    }
  }
  EXPECT_GT(retries, 0u);
  for (const auto status :
       {RequestStatus::kOk, RequestStatus::kRetried, RequestStatus::kShed,
        RequestStatus::kDeadlineMiss, RequestStatus::kFailed}) {
    EXPECT_GT(totals[static_cast<std::size_t>(status)], 0u)
        << "no config reached status " << to_string(status);
  }
}

}  // namespace
}  // namespace nova::serve
