#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.hpp"
#include "core/overlay.hpp"
#include "serve/faults.hpp"

namespace e2e {

namespace serve = nova::serve;
using nova::approx::NonLinearFn;
using nova::pipeline::Phase;

namespace {

constexpr int kInstances = 8;

int scaled(int full, double scale) {
  return std::max(1, static_cast<int>(std::lround(full * scale)));
}

serve::ServeConfig base_config(std::uint64_t seed) {
  serve::ServeConfig config;
  config.nova = nova::core::make_overlay(nova::hw::AcceleratorKind::kTpuV4).nova;
  config.host = nova::hw::AcceleratorKind::kTpuV4;
  config.instances = kInstances;
  config.seed = seed;
  return config;
}

/// Seeded MTBF 20 ms / MTTR 2 ms outages over the stream's horizon, drawn
/// the way `nova_sim --faults` draws them.
serve::FaultPlan draw_faults(const std::vector<serve::InferenceRequest>& stream,
                             std::uint64_t seed) {
  serve::FaultProfile profile;
  profile.mtbf_us = 20000.0;
  profile.mttr_us = 2000.0;
  const double last_arrival = stream.empty() ? 0.0 : stream.back().arrival_us;
  const double horizon_us =
      2.0 * last_arrival + 4.0 * (profile.mtbf_us + profile.mttr_us);
  return serve::draw_fault_plan(profile, kInstances, horizon_us, seed);
}

/// The default Poisson mix (three BERT-family models x four functions,
/// half decode) at 200k req/s, whole-request dispatch, exact pricing,
/// outages on and a 2 ms deadline.
Workload whole_poisson(std::uint64_t seed, double scale) {
  Workload w;
  w.replicas = 32;
  serve::TrafficProfile profile;
  profile.rate_rps = 200000.0;
  profile.deadline_us = 2000.0;
  w.requests = serve::generate_poisson(scaled(300000, scale), profile, seed);
  w.config = base_config(seed);
  w.config.pricing = serve::PricingMode::kExact;
  w.config.faults = draw_faults(w.requests, seed);
  return w;
}

/// The same mix as generation sessions of up to 16 steps, dispatched step
/// by step (continuous batching, 64-token prefill chunks) with surrogate
/// pricing, offered faster than the pool serves so a backlog builds.
/// Outages as above; a 50 ms session deadline sheds the backlog's tail.
Workload continuous_backlog(std::uint64_t seed, double scale) {
  Workload w;
  w.replicas = 25;
  serve::TrafficProfile profile;
  profile.rate_rps = 40000.0;
  profile.max_steps = 16;
  profile.deadline_us = 50000.0;
  w.requests = serve::generate_poisson(scaled(6000, scale), profile, seed);
  w.config = base_config(seed);
  w.config.pricing = serve::PricingMode::kSurrogate;
  w.config.continuous = true;
  w.config.chunk_tokens = 64;
  w.config.faults = draw_faults(w.requests, seed);
  return w;
}

/// One decode request per KV length in [1, 16384] plus prefills at five
/// sequence lengths, each dealt a (model, function) by the seed, arriving
/// in seeded order as a Poisson stream at 62.5k req/s (a 16 us mean gap,
/// enough load that requests queue) with a 500 us deadline. Hybrid pricing
/// with the fusion auto-tuner: nearly every request is a distinct shape.
Workload pricing_sweep(std::uint64_t seed, double scale) {
  static const std::vector<std::string> kModels = {"bert-tiny", "bert-mini",
                                                   "mobilebert-tiny"};
  static const std::vector<NonLinearFn> kFunctions = {
      NonLinearFn::kGelu, NonLinearFn::kExp, NonLinearFn::kTanh,
      NonLinearFn::kSigmoid};
  constexpr int kPrefillSeqs[] = {32, 64, 128, 256, 512};
  constexpr double kMeanGapUs = 16.0;

  nova::Rng rng(seed);
  const auto deal = [&](serve::InferenceRequest& req) {
    req.workload = kModels[rng.next_below(kModels.size())];
    req.function = kFunctions[rng.next_below(kFunctions.size())];
  };
  std::vector<serve::InferenceRequest> stream;
  const int max_kv = scaled(16384, scale);
  for (int kv = 1; kv <= max_kv; ++kv) {
    serve::InferenceRequest req;
    req.phase = Phase::kDecode;
    req.seq_len = 1;
    req.kv_len = kv;
    deal(req);
    stream.push_back(std::move(req));
  }
  for (const int seq : kPrefillSeqs) {
    serve::InferenceRequest req;
    req.seq_len = seq;
    deal(req);
    stream.push_back(std::move(req));
  }
  // Seeded arrival order (Fisher-Yates), then exponential gaps.
  for (std::size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.next_below(i)]);
  }
  double clock_us = 0.0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    clock_us += -std::log(1.0 - rng.next_double()) * kMeanGapUs;
    stream[i].id = static_cast<int>(i);
    stream[i].arrival_us = clock_us;
    stream[i].deadline_us = 500.0;
  }

  Workload w;
  w.replicas = 8;
  w.requests = std::move(stream);
  w.config = base_config(seed);
  w.config.pricing = serve::PricingMode::kHybrid;
  w.config.fusion = nova::pipeline::FusionMode::kAuto;
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "whole_poisson", "continuous_backlog", "pricing_sweep"};
  return kNames;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, double scale) {
  if (name == "whole_poisson") return whole_poisson(seed, scale);
  if (name == "continuous_backlog") return continuous_backlog(seed, scale);
  if (name == "pricing_sweep") return pricing_sweep(seed, scale);
  return std::nullopt;
}

}  // namespace e2e
