#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>

#include "accel/accelerator.hpp"
#include "analysis/verifier.hpp"
#include "approx/interp.hpp"
#include "approx/mlp_fitter.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/fusion.hpp"
#include "pipeline/op_graph.hpp"
#include "serve/session.hpp"
#include "serve/surrogate.hpp"
#include "workload/bert.hpp"

namespace e2e {

namespace serve = nova::serve;
namespace pipeline = nova::pipeline;
using Scope = Tracer::Scope;

namespace {

/// The hybrid audit's sample: k shapes spread evenly over the sorted
/// distinct set, as BatchScheduler picks them.
std::vector<serve::ShapeKey> audit_sample(
    const std::vector<serve::ShapeKey>& distinct, int samples) {
  const std::size_t k =
      std::min<std::size_t>(static_cast<std::size_t>(samples), distinct.size());
  std::vector<std::size_t> picks;
  for (std::size_t s = 0; s < k; ++s) {
    picks.push_back(k == 1 ? 0 : s * (distinct.size() - 1) / (k - 1));
  }
  picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
  std::vector<serve::ShapeKey> sampled;
  for (const auto index : picks) sampled.push_back(distinct[index]);
  return sampled;
}

serve::ShapeKey anchor_shape(const serve::PricingSurrogate::ClassKey& key,
                             int length) {
  serve::ShapeKey shape;
  shape.workload = key.workload;
  shape.function = key.function;
  shape.breakpoints = key.breakpoints;
  shape.phase = key.phase;
  if (key.phase == pipeline::Phase::kDecode) {
    shape.seq_len = 1;
    shape.kv_len = length;
  } else {
    shape.seq_len = length;
  }
  return shape;
}

/// Re-runs each layer inside the pricing calls on its own, one span per
/// layer call, and returns the service cycles the probes price for each
/// distinct shape.
std::vector<double> probe_layers(const serve::ServeConfig& config,
                                 const serve::ExactPricer& pricer,
                                 const std::vector<serve::ShapeKey>& distinct,
                                 const serve::PricingSurrogate* surrogate,
                                 Tracer& tracer, PricingReplay& replay) {
  Scope probe_scope(tracer, "trace.probe");

  // core: every cycle-accurate calibration pricing runs.
  std::vector<serve::ShapeKey> calibrated;
  if (surrogate == nullptr) {
    calibrated = distinct;
  } else {
    for (const auto& curve : surrogate->classes()) {
      for (const auto& anchor : curve.anchors) {
        calibrated.push_back(anchor_shape(curve.key, anchor.length));
      }
    }
    if (config.pricing == serve::PricingMode::kHybrid) {
      const auto sampled = audit_sample(distinct, config.hybrid_samples);
      calibrated.insert(calibrated.end(), sampled.begin(), sampled.end());
    }
  }
  std::map<serve::ShapeKey, serve::Calibration> measured;
  for (const auto& shape : calibrated) {
    Scope scope(tracer, "core.calibrate");
    measured[shape] = pricer.calibrate(shape);
  }

  // serve: the surrogate's curve fits over its anchors (none under exact
  // pricing).
  {
    Scope scope(tracer, "serve.surrogate_fit");
    if (surrogate != nullptr) {
      for (const auto& curve : surrogate->classes()) {
        std::vector<double> xs, elems, waves;
        for (const auto& anchor : curve.anchors) {
          xs.push_back(static_cast<double>(anchor.length));
          elems.push_back(anchor.calibration.elems_per_cycle);
          waves.push_back(
              static_cast<double>(anchor.calibration.wave_latency_cycles));
        }
        (void)nova::approx::InterpCurve::fit(xs, std::move(elems));
        (void)nova::approx::InterpCurve::fit(std::move(xs), std::move(waves));
      }
    }
  }

  const auto accel = nova::accel::make_accelerator(config.host);
  std::vector<double> cycles;
  cycles.reserve(distinct.size());
  for (const auto& shape : distinct) {
    // serve: the calibration the walk runs with -- interpolated on the
    // class curves, or the measured one under exact pricing.
    serve::Calibration calibration;
    {
      Scope scope(tracer, "serve.predict");
      if (surrogate == nullptr) {
        calibration = measured.at(shape);
      } else {
        const auto& classes = surrogate->classes();
        const serve::PricingSurrogate::ClassKey key{
            shape.workload, shape.function, shape.breakpoints, shape.phase};
        const auto it = std::lower_bound(
            classes.begin(), classes.end(), key,
            [](const auto& curve, const auto& k) { return curve.key < k; });
        const auto x = static_cast<double>(shape.length());
        calibration.elems_per_cycle = it->elems_per_cycle.eval(x);
        calibration.wave_latency_cycles =
            static_cast<int>(std::llround(it->wave_latency.eval(x)));
      }
    }
    std::optional<pipeline::OpGraph> graph;
    {
      Scope scope(tracer, "pipeline.graph_build");
      const auto model = nova::workload::by_name(shape.workload, shape.seq_len);
      graph = shape.phase == pipeline::Phase::kDecode
                  ? pipeline::build_decode_graph(*model, shape.kv_len)
                  : pipeline::build_graph(*model);
    }
    {
      Scope scope(tracer, "analysis.verify");
      if (!nova::analysis::run_passes(*graph).ok()) std::abort();
      ++replay.graphs_verified;
    }
    std::optional<pipeline::PipelineExecutor> executor;
    {
      Scope scope(tracer, "pipeline.walk");
      pipeline::ExecutorConfig exec_config;
      exec_config.choice = nova::accel::ApproximatorChoice{
          nova::hw::UnitKind::kNovaNoc, shape.breakpoints};
      exec_config.overlap = true;
      exec_config.vector_elems_per_cycle = calibration.elems_per_cycle;
      exec_config.vector_fill_cycles = static_cast<nova::sim::Cycle>(
          std::max(1, calibration.wave_latency_cycles - 1));
      executor.emplace(accel, exec_config);
    }
    // pipeline: the fusion stage -- the 8-mask tuner under auto, every
    // rewrite pass under on, nothing under off.
    double span = 0.0;
    {
      Scope scope(tracer, "pipeline.tune");
      switch (config.fusion) {
        case pipeline::FusionMode::kOff:
          break;
        case pipeline::FusionMode::kOn:
          (void)pipeline::apply_fusion(*graph, pipeline::kFuseAll);
          break;
        case pipeline::FusionMode::kAuto: {
          const auto tuning = pipeline::tune_fusion(*executor, *graph);
          span = static_cast<double>(tuning.best_span);
          replay.graphs_walked += tuning.candidates.size();
          break;
        }
      }
    }
    if (config.fusion != pipeline::FusionMode::kAuto) {
      Scope scope(tracer, "pipeline.walk");
      span = static_cast<double>(executor->execute(*graph).span_cycles);
      ++replay.graphs_walked;
    }
    cycles.push_back(span);
  }
  return cycles;
}

}  // namespace

PricingReplay replay_pricing(
    const serve::ServeConfig& config,
    const std::vector<serve::InferenceRequest>& requests, Tracer& tracer,
    bool probe) {
  PricingReplay replay;

  std::vector<serve::SessionPlan> plans;
  std::map<serve::ShapeKey, std::size_t> shape_slot;
  std::vector<serve::ShapeKey> distinct;
  {
    Scope scope(tracer, "serve.plan");
    plans.reserve(requests.size());
    for (const auto& req : requests) {
      plans.push_back(serve::build_session_plan(req, config.continuous,
                                                config.chunk_tokens));
      replay.steps += plans.back().steps.size();
    }
    for (const auto& plan : plans) {
      for (const auto& step : plan.steps) shape_slot.emplace(step.shape, 0);
    }
    for (auto& entry : shape_slot) {
      entry.second = distinct.size();
      distinct.push_back(entry.first);
    }
    auto& library = nova::approx::PwlLibrary::instance();
    for (const auto& shape : distinct) {
      (void)library.get(shape.function, shape.breakpoints);
    }
  }
  replay.distinct_shapes = distinct.size();

  serve::PricerConfig pricer_config{config.nova, config.host, config.seed,
                                    config.sim_elements_cap};
  pricer_config.fusion = config.fusion;
  const serve::ExactPricer pricer(pricer_config);
  std::unique_ptr<serve::PricingSurrogate> surrogate;
  std::vector<serve::ShapeCost> costs;
  {
    Scope scope(tracer, "serve.pricing");
    if (config.pricing == serve::PricingMode::kExact) {
      costs = serve::price_shapes(pricer, distinct, 1);
      replay.calibrations = distinct.size();
    } else {
      surrogate = std::make_unique<serve::PricingSurrogate>(
          pricer, distinct, config.surrogate_anchors, 1);
      replay.calibrations = surrogate->anchors_priced();
      costs.reserve(distinct.size());
      for (const auto& shape : distinct) {
        costs.push_back(surrogate->predict(shape));
      }
      if (config.pricing == serve::PricingMode::kHybrid) {
        const auto sampled = audit_sample(distinct, config.hybrid_samples);
        replay.calibrations += sampled.size();
        (void)serve::price_shapes(pricer, sampled, 1);
      }
    }
    // The fold into per-step dispatch costs.
    const double freq = config.nova.accel_freq_mhz;
    std::vector<std::vector<serve::StepCost>> step_costs(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      for (const auto& step : plans[i].steps) {
        const auto& cost = costs[shape_slot.find(step.shape)->second];
        serve::StepCost sc;
        sc.service_cycles = step.share * cost.service_cycles;
        sc.wave_latency_cycles = cost.wave_latency_cycles;
        sc.service_us = sc.service_cycles / freq;
        step_costs[i].push_back(sc);
      }
    }
  }

  if (probe) {
    const auto cycles = probe_layers(config, pricer, distinct,
                                     surrogate.get(), tracer, replay);
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      if (cycles[i] != costs[i].service_cycles) ++replay.probe_mismatches;
    }
  }
  return replay;
}

}  // namespace e2e
