// nova_e2e_bench: end-to-end benchmark of the NOVA serving stack.
//
//   nova_e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--scale X] [--trace-out FILE]
//
// Untraced (--trace 0), one run sets the workload up seven times (cold PWL
// table fits plus stream construction), calls BatchScheduler::run back to
// back for S seconds on replica streams drawn from the seed, times a
// host-speed probe after each set-up and each call, and prints the
// end-to-end metrics. Traced (--trace 1), it serves replica 0
// once under spans, replays the pricing half layer by layer, and prints
// the per-layer metrics; --trace-out writes the spans as a Chrome trace.
// Either way the outputs are checked, a digest of the modeled outcomes is
// printed, and the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when a correctness check fails.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "approx/mlp_fitter.hpp"
#include "host_probe.hpp"
#include "layers.hpp"
#include "serve/scheduler.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

namespace serve = nova::serve;
using e2e::Tracer;
using e2e::Workload;
using Clock = std::chrono::steady_clock;

/// Set-ups measured per untraced run; setup_s is their median.
constexpr std::size_t kSetups = 7;
/// Pricing worker threads of every timed run.
constexpr int kThreads = 2;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile (the sim::Histogram convention); 0 when empty.
double percentile(std::vector<float>& values, double p) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Independent replica streams of one run: replica k of seed s is built
/// from its own derived seed (SplitMix64 of s and k).
std::uint64_t replica_seed(std::uint64_t seed, int replica) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (replica + 1ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Outcome fingerprint, digest and checks

class Fnv {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

const char* const kCounters[] = {"serve.batches", "serve.requests",
                                 "serve.retries", "serve.steps",
                                 "serve.preempted_steps"};

/// Hash of every RequestOutcome field, the serve.* counters and the
/// pricing audit: equal fingerprints mean identical modeled outcomes.
std::uint64_t fingerprint(const serve::ServeReport& report) {
  Fnv h;
  for (const auto& o : report.outcomes) {
    h.add(o.request.id);
    h.add(o.request.arrival_us);
    h.add(static_cast<int>(o.status));
    h.add(o.attempts);
    h.add(o.instance);
    h.add(o.batch_id);
    h.add(o.batch_size);
    h.add(o.approx_ops);
    h.add(o.service_cycles);
    h.add(o.wave_latency_cycles);
    h.add(o.service_us);
    h.add(o.start_us);
    h.add(o.finish_us);
    h.add(o.session_steps);
    h.add(o.prefill_chunks);
    h.add(o.first_finish_us);
  }
  for (const char* name : kCounters) h.add(report.stats.counter(name));
  h.add(report.makespan_us);
  h.add(report.surrogate.distinct_shapes);
  h.add(report.surrogate.anchors_priced);
  h.add(report.surrogate.max_rel_error);
  return h.value();
}

/// Empty when `report` is a correct serving of `requests`, else why not.
std::string check_report(const Workload& w, const serve::ServeReport& report) {
  const auto n = static_cast<std::uint64_t>(w.requests.size());
  std::uint64_t total = 0;
  for (const auto count : report.status_counts) total += count;
  if (total != n || report.outcomes.size() != w.requests.size()) {
    return "status counts sum to " + std::to_string(total) + ", not " +
           std::to_string(n);
  }
  for (const auto& o : report.outcomes) {
    if (!o.served()) continue;
    if (!(o.request.arrival_us <= o.start_us &&
          o.start_us <= o.first_finish_us && o.first_finish_us <= o.finish_us)) {
      return "request " + std::to_string(o.request.id) +
             " breaks arrival <= start <= first_finish <= finish";
    }
  }
  if (w.config.pricing == serve::PricingMode::kHybrid &&
      !report.surrogate.within_tolerance) {
    return "hybrid audit drifted past tolerance (max rel error " +
           std::to_string(report.surrogate.max_rel_error) + ")";
  }
  return {};
}

/// Modeled outcomes pooled over replicas, plus the printed digest.
struct Pool {
  int replicas = 0;
  std::uint64_t requests = 0;
  std::array<std::uint64_t, serve::kRequestStatusCount> status{};
  std::vector<float> latency_us;  ///< served requests
  /// Served requests' time to first step; kept only under continuous
  /// batching (whole-request dispatch finishes in one step, so it equals
  /// latency_us there).
  std::vector<float> ttft_us;
  double makespan_us = 0.0;
  Fnv outcomes;
  // Field sums over every outcome, for the digest.
  std::uint64_t attempts = 0, batch_size = 0, session_steps = 0,
                prefill_chunks = 0, approx_ops = 0, service_cycles = 0,
                wave_latency_cycles = 0;
  std::int64_t instance = 0, batch_id = 0;
  double service_us = 0.0, start_us = 0.0, finish_us = 0.0,
         first_finish_us = 0.0;
  std::array<std::uint64_t, std::size(kCounters)> counters{};
  std::size_t distinct_shapes = 0, anchors_priced = 0, fused_shapes = 0;
  double max_rel_error = 0.0, max_fusion_speedup = 1.0;

  void add(const serve::ServeReport& report, bool continuous) {
    ++replicas;
    requests += report.outcomes.size();
    for (std::size_t s = 0; s < status.size(); ++s) {
      status[s] += report.status_counts[s];
    }
    makespan_us += report.makespan_us;
    outcomes.add(fingerprint(report));
    for (const auto& o : report.outcomes) {
      if (o.served()) {
        latency_us.push_back(static_cast<float>(o.latency_us()));
        if (continuous) {
          ttft_us.push_back(
              static_cast<float>(o.first_finish_us - o.request.arrival_us));
        }
      }
      attempts += static_cast<std::uint64_t>(o.attempts);
      batch_size += static_cast<std::uint64_t>(o.batch_size);
      session_steps += static_cast<std::uint64_t>(o.session_steps);
      prefill_chunks += static_cast<std::uint64_t>(o.prefill_chunks);
      approx_ops += static_cast<std::uint64_t>(o.approx_ops);
      service_cycles += static_cast<std::uint64_t>(o.service_cycles);
      wave_latency_cycles += static_cast<std::uint64_t>(o.wave_latency_cycles);
      instance += o.instance;
      batch_id += o.batch_id;
      service_us += o.service_us;
      start_us += o.start_us;
      finish_us += o.finish_us;
      first_finish_us += o.first_finish_us;
    }
    for (std::size_t c = 0; c < counters.size(); ++c) {
      counters[c] += report.stats.counter(kCounters[c]);
    }
    distinct_shapes += report.surrogate.distinct_shapes;
    anchors_priced += report.surrogate.anchors_priced;
    fused_shapes += report.surrogate.fused_shapes;
    max_rel_error = std::max(max_rel_error, report.surrogate.max_rel_error);
    max_fusion_speedup =
        std::max(max_fusion_speedup, report.surrogate.max_fusion_speedup);
  }

  [[nodiscard]] std::uint64_t count(serve::RequestStatus s) const {
    return status[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t on_time() const {
    return count(serve::RequestStatus::kOk) +
           count(serve::RequestStatus::kRetried);
  }

  void print_digest(const std::string& name) const {
    std::printf("digest %s: %d replica(s), %llu requests, outcome hash "
                "%016llx\n",
                name.c_str(), replicas,
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(outcomes.value()));
    std::printf("digest %s: status", name.c_str());
    for (std::size_t s = 0; s < status.size(); ++s) {
      std::printf(" %s=%llu",
                  serve::to_string(static_cast<serve::RequestStatus>(s)),
                  static_cast<unsigned long long>(status[s]));
    }
    std::printf("\n");
    std::printf(
        "digest %s: sums attempts=%llu instance=%lld batch_id=%lld "
        "batch_size=%llu approx_ops=%llu service_cycles=%llu "
        "wave_latency_cycles=%llu session_steps=%llu prefill_chunks=%llu "
        "service_us=%.6f start_us=%.6f finish_us=%.6f first_finish_us=%.6f\n",
        name.c_str(), static_cast<unsigned long long>(attempts),
        static_cast<long long>(instance), static_cast<long long>(batch_id),
        static_cast<unsigned long long>(batch_size),
        static_cast<unsigned long long>(approx_ops),
        static_cast<unsigned long long>(service_cycles),
        static_cast<unsigned long long>(wave_latency_cycles),
        static_cast<unsigned long long>(session_steps),
        static_cast<unsigned long long>(prefill_chunks), service_us, start_us,
        finish_us, first_finish_us);
    std::printf("digest %s: counters", name.c_str());
    for (std::size_t c = 0; c < counters.size(); ++c) {
      std::printf(" %s=%llu", kCounters[c],
                  static_cast<unsigned long long>(counters[c]));
    }
    std::printf(" makespan_us=%.6f\n", makespan_us);
    std::printf("digest %s: pricing distinct_shapes=%zu anchors_priced=%zu "
                "fused_shapes=%zu max_rel_error=%.9g max_fusion_speedup=%.9g\n",
                name.c_str(), distinct_shapes, anchors_priced, fused_shapes,
                max_rel_error, max_fusion_speedup);
  }
};

// ---------------------------------------------------------------------------
// Metrics and the result line

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// "host" wall clock/memory, "host-scaled" wall clock divided by the
  /// adjacent host probe's slowdown, or "model" (simulated)
  const char* clock;
};

void print_metrics(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("metric %-28s %16.6f %-7s [%s]\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock);
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// The distinct PWL tables `requests` price against.
std::set<std::pair<nova::approx::NonLinearFn, int>> tables_of(
    const std::vector<serve::InferenceRequest>& requests) {
  std::set<std::pair<nova::approx::NonLinearFn, int>> tables;
  for (const auto& req : requests) tables.emplace(req.function, req.breakpoints);
  return tables;
}

Workload build(const std::string& name, std::uint64_t seed, int replica,
               double scale) {
  auto w = *e2e::make_workload(name, replica_seed(seed, replica), scale);
  w.config.threads = kThreads;
  return w;
}

serve::ServeReport serve_with(const Workload& w, int threads) {
  auto config = w.config;
  config.threads = threads;
  return serve::BatchScheduler(config).run(w.requests);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  double scale = 1.0;
  std::string trace_out;
};

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics

int run_untraced(const Options& opt) {
  const std::string& name = opt.workload;

  // Set-up: build the stream and fit the PWL tables it needs from cold.
  // The first set-up fills the process-wide library the scheduler uses.
  // The others fit a private library, to time the same work again; they
  // run between timed calls, spread evenly over the run, so that their
  // median samples the machine at several moments. Each set-up, and each
  // timed call below, is followed by a host-speed probe (host_probe.hpp);
  // the scaled metrics divide each time by its probe's slowdown.
  std::vector<double> setup_times;
  std::vector<double> setup_scaled;
  std::vector<double> probe_times;
  std::string error;
  std::optional<std::uint64_t> probe_checksum;
  const auto probe = [&] {
    const auto result = e2e::run_host_probe();
    if (!probe_checksum) probe_checksum = result.checksum;
    if (error.empty() && result.checksum != *probe_checksum) {
      error = "host probe gave different results on the same input";
    }
    probe_times.push_back(result.seconds);
    return e2e::slowdown(result);
  };
  const auto set_up = [&](nova::approx::PwlLibrary& library) {
    const auto start = Clock::now();
    auto w = build(name, opt.seed, 0, opt.scale);
    for (const auto& [fn, breakpoints] : tables_of(w.requests)) {
      (void)library.get(fn, breakpoints);
    }
    setup_times.push_back(since(start));
    setup_scaled.push_back(setup_times.back() / probe());
    return w;
  };
  const auto set_up_again = [&] {
    nova::approx::PwlLibrary library;
    (void)set_up(library);
  };
  Workload first = set_up(nova::approx::PwlLibrary::instance());
  const int replicas = first.replicas;

  // Timed loop: one BatchScheduler::run per replica stream, then repeats
  // of the same replicas until the time is up. Each call prices
  // anew; only the PWL tables persist between calls.
  Pool pool;
  std::vector<std::uint64_t> prints(static_cast<std::size_t>(replicas));
  std::vector<double> rps;
  std::vector<double> rps_scaled;
  std::uint64_t attempted = 0;
  const auto loop_start = Clock::now();
  for (int k = 0; k < replicas || since(loop_start) < opt.seconds; ++k) {
    const auto due = static_cast<double>(setup_times.size()) / kSetups;
    if (setup_times.size() < kSetups && since(loop_start) >= due * opt.seconds) {
      set_up_again();
    }
    const int replica = k % replicas;
    Workload w = k == 0 ? std::move(first)
                        : build(name, opt.seed, replica, opt.scale);
    const serve::BatchScheduler scheduler(w.config);
    const auto start = Clock::now();
    const auto report = scheduler.run(w.requests);
    const double wall = since(start);
    rps.push_back(static_cast<double>(w.requests.size()) / wall);
    rps_scaled.push_back(rps.back() * probe());
    attempted += w.requests.size();

    const auto print = fingerprint(report);
    if (k < replicas) {
      prints[static_cast<std::size_t>(k)] = print;
      pool.add(report, w.config.continuous);
      if (error.empty()) error = check_report(w, report);
    } else if (error.empty() &&
               print != prints[static_cast<std::size_t>(replica)]) {
      error = "replica " + std::to_string(replica) +
              " served twice gave different outcomes";
    }
  }
  const double loop_seconds = since(loop_start);
  while (setup_times.size() < kSetups) set_up_again();

  // Untimed re-run of replica 0 on one pricing thread: the outcomes must
  // not depend on the thread count.
  if (error.empty() &&
      fingerprint(serve_with(build(name, opt.seed, 0, opt.scale), 1)) !=
          prints[0]) {
    error = "threads=1 re-run of replica 0 differs from the timed run";
  }

  const double requests = static_cast<double>(pool.requests);
  auto& ttft_us = pool.ttft_us.empty() ? pool.latency_us : pool.ttft_us;
  const std::uint64_t missed = pool.requests - pool.on_time();
  std::vector<Metric> metrics = {
      {"setup_s", median(setup_scaled), "s", "host-scaled"},
      {"sim_rps", median(rps_scaled), "req/s", "host-scaled"},
      {"peak_rss_mb", peak_rss_mib(), "MiB", "host"},
      {"model_p50_latency_us", percentile(pool.latency_us, 50), "us", "model"},
      {"model_p99_latency_us", percentile(pool.latency_us, 99), "us", "model"},
      {"model_ttft_p50_us", percentile(ttft_us, 50), "us", "model"},
      {"model_ttft_p99_us", percentile(ttft_us, 99), "us", "model"},
      {"model_goodput_rps",
       pool.makespan_us > 0.0
           ? static_cast<double>(pool.on_time()) * 1e6 / pool.makespan_us
           : 0.0,
       "req/s", "model"},
      {"model_slo_miss_frac", static_cast<double>(missed) / requests, "ratio",
       "model"},
  };

  std::printf("workload %s seed %llu scale %g: %d replica stream(s) of %zu "
              "requests, %zu timed runs in a %.2f s loop (%d pricing "
              "threads)\n",
              name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.scale, replicas, pool.requests / replicas, rps.size(),
              loop_seconds, kThreads);
  std::printf("requests attempted %llu, succeeded %llu, failed %llu "
              "(benchmark operations: run() calls whose outputs checked out)\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(error.empty() ? attempted : 0),
              static_cast<unsigned long long>(error.empty() ? 0 : attempted));
  std::printf("modeled outcomes over %llu pooled requests: on time %llu, "
              "SLO missed %llu (shed %llu, failed %llu, deadline-miss %llu); "
              "latency samples %zu\n",
              static_cast<unsigned long long>(pool.requests),
              static_cast<unsigned long long>(pool.on_time()),
              static_cast<unsigned long long>(missed),
              static_cast<unsigned long long>(
                  pool.count(serve::RequestStatus::kShed)),
              static_cast<unsigned long long>(
                  pool.count(serve::RequestStatus::kFailed)),
              static_cast<unsigned long long>(
                  pool.count(serve::RequestStatus::kDeadlineMiss)),
              pool.latency_us.size());
  std::printf("unscaled setup runs (s):");
  for (const double t : setup_times) std::printf(" %.4f", t);
  const auto [lo, hi] = std::minmax_element(rps.begin(), rps.end());
  std::printf(" (median %.4f)\n", median(setup_times));
  std::printf("timed runs: unscaled sim_rps min %.0f median %.0f max %.0f\n",
              *lo, median(rps), *hi);
  std::printf("host probe: %zu runs, median %.4f s against %.4f s on the "
              "reference host (slowdown %.3f)\n",
              probe_times.size(), median(probe_times), e2e::kProbeReferenceS,
              median(probe_times) / e2e::kProbeReferenceS);
  print_metrics(metrics);
  pool.print_digest(name);
  if (!error.empty()) std::printf("check FAILED: %s\n", error.c_str());
  else std::printf("check ok: every replica's outputs are correct\n");
  print_result(error.empty(), attempted, error.empty() ? 0 : attempted,
               metrics);
  return error.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics

/// Dispatch remainder of one traced serve: run time minus the replayed
/// plan and pricing.
struct DispatchSplit {
  double run_s = 0.0;
  double plan_s = 0.0;
  double pricing_s = 0.0;
  e2e::PricingReplay replay;
  [[nodiscard]] double dispatch_s() const { return run_s - plan_s - pricing_s; }
  [[nodiscard]] double us_per_step() const {
    return replay.steps > 0 ? dispatch_s() * 1e6 /
                                  static_cast<double>(replay.steps)
                            : 0.0;
  }
};

DispatchSplit traced_serve(const Workload& w, Tracer& tracer, bool probe,
                           serve::ServeReport* report_out) {
  DispatchSplit split;
  {
    const int id = tracer.open("serve.run");
    auto report = serve_with(w, 1);
    tracer.close(id);
    split.run_s = tracer.seconds(id);
    if (report_out != nullptr) *report_out = std::move(report);
  }
  {
    const int id = tracer.open("serve.replay");
    split.replay = e2e::replay_pricing(w.config, w.requests, tracer, probe);
    tracer.close(id);
  }
  split.plan_s = tracer.total_seconds("serve.plan");
  split.pricing_s = tracer.total_seconds("serve.pricing");
  return split;
}

int run_traced(const Options& opt) {
  const std::string& name = opt.workload;
  Tracer tracer;
  const int root = tracer.open("trace");

  Workload w;
  std::size_t tables = 0;
  {
    Tracer::Scope setup(tracer, "setup");
    {
      Tracer::Scope scope(tracer, "serve.generate");
      w = build(name, opt.seed, 0, opt.scale);
    }
    Tracer::Scope scope(tracer, "approx.pwl_fit");
    for (const auto& [fn, breakpoints] : tables_of(w.requests)) {
      (void)nova::approx::PwlLibrary::instance().get(fn, breakpoints);
      ++tables;
    }
  }
  serve::ServeReport report;
  const DispatchSplit full = traced_serve(w, tracer, true, &report);

  // The same stream cut to its first half, traced on a tracer of its own:
  // dispatch cost per step at half size, for the growth ratio.
  DispatchSplit half;
  {
    Tracer::Scope scope(tracer, "serve.half_size");
    Workload first_half = w;
    first_half.requests.resize(std::max<std::size_t>(1, w.requests.size() / 2));
    Tracer half_tracer;
    half = traced_serve(first_half, half_tracer, false, nullptr);
  }
  tracer.close(root);
  const double wall = tracer.seconds(root);

  // Untraced checks: the outputs, and thread-count independence.
  std::string error = check_report(w, report);
  if (error.empty() &&
      fingerprint(serve_with(w, kThreads)) != fingerprint(report)) {
    error = "threads=1 traced run differs from a threads=2 run";
  }
  if (const auto trace_error = tracer.check(1e-6); !trace_error.empty()) {
    error = "trace accounting: " + trace_error;
  }

  const auto self = tracer.self_seconds_by_name();
  const auto self_of = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto& replay = full.replay;
  const double calibrations = static_cast<double>(replay.calibrations);
  const double distinct = static_cast<double>(replay.distinct_shapes);

  std::vector<float> queue_us;
  double queue_sum_us = 0.0, busy_us = 0.0, availability = 0.0;
  for (const auto& o : report.outcomes) {
    if (!o.served()) continue;
    queue_us.push_back(static_cast<float>(o.queue_us()));
    queue_sum_us += o.queue_us();
  }
  for (const auto& inst : report.instances) {
    busy_us += inst.busy_us;
    availability += inst.availability;
  }
  const double instances = static_cast<double>(report.instances.size());
  const auto* batch_sizes = report.stats.find_histogram("serve.batch_size");
  const double untraced = tracer.total_seconds("serve.generate") +
                          tracer.total_seconds("approx.pwl_fit") + full.run_s;

  const std::vector<Metric> metrics = {
      {"approx.pwl_fit_s", self_of("approx.pwl_fit"), "s", "host"},
      {"approx.tables_trained", static_cast<double>(tables), "count", "host"},
      {"core.calibrate_s", self_of("core.calibrate"), "s", "host"},
      {"core.calibrations", calibrations, "count", "host"},
      {"core.calibrate_ms_per_shape",
       calibrations > 0 ? self_of("core.calibrate") * 1e3 / calibrations : 0.0,
       "ms", "host"},
      {"pipeline.graph_build_s", self_of("pipeline.graph_build"), "s", "host"},
      {"pipeline.walk_s", self_of("pipeline.walk"), "s", "host"},
      {"pipeline.tune_s", self_of("pipeline.tune"), "s", "host"},
      {"pipeline.graphs_walked", static_cast<double>(replay.graphs_walked),
       "count", "host"},
      {"analysis.verify_s", self_of("analysis.verify"), "s", "host"},
      {"analysis.graphs_verified",
       static_cast<double>(replay.graphs_verified), "count", "host"},
      {"serve.surrogate_fit_s", self_of("serve.surrogate_fit"), "s", "host"},
      {"serve.predict_s", self_of("serve.predict"), "s", "host"},
      {"serve.distinct_shapes", distinct, "count", "host"},
      {"serve.anchor_ratio", distinct > 0 ? calibrations / distinct : 0.0,
       "ratio", "host"},
      {"serve.plan_s", full.plan_s, "s", "host"},
      {"serve.steps", static_cast<double>(replay.steps), "count", "host"},
      {"serve.pricing_s", full.pricing_s, "s", "host"},
      {"serve.run_s", full.run_s, "s", "host"},
      {"serve.dispatch_s", full.dispatch_s(), "s", "host"},
      {"serve.dispatch_us_per_step", full.us_per_step(), "us", "host"},
      {"serve.dispatch_growth",
       full.us_per_step() > 0.0 && half.us_per_step() > 0.0
           ? full.us_per_step() / half.us_per_step()
           : 0.0,
       "ratio", "host"},
      {"serve.batches",
       static_cast<double>(report.stats.counter("serve.batches")), "count",
       "model"},
      {"serve.mean_batch_size", batch_sizes ? batch_sizes->mean() : 0.0,
       "count", "model"},
      {"serve.retries",
       static_cast<double>(report.stats.counter("serve.retries")), "count",
       "model"},
      {"serve.preempted_steps",
       static_cast<double>(report.stats.counter("serve.preempted_steps")),
       "count", "model"},
      {"model.queue_mean_us",
       queue_us.empty() ? 0.0
                        : queue_sum_us / static_cast<double>(queue_us.size()),
       "us", "model"},
      {"model.queue_p99_us", percentile(queue_us, 99), "us", "model"},
      {"model.utilization",
       report.makespan_us > 0.0 ? busy_us / (instances * report.makespan_us)
                                : 0.0,
       "ratio", "model"},
      {"model.availability", availability / instances, "ratio", "model"},
      {"model.service_mean_us", report.stats.mean("serve.service_us"), "us",
       "model"},
      {"model.fused_shapes",
       static_cast<double>(report.surrogate.fused_shapes), "count", "model"},
      {"model.max_fusion_speedup", report.surrogate.max_fusion_speedup,
       "ratio", "model"},
      {"trace.overhead_s", wall - untraced, "s", "host"},
  };

  std::printf("workload %s seed %llu scale %g: traced run of replica 0, %zu "
              "requests, %zu spans, wall %.3f s\n",
              name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.scale, w.requests.size(), tracer.spans().size(), wall);
  std::printf("requests attempted %zu, succeeded %zu, failed %zu\n",
              w.requests.size(), error.empty() ? w.requests.size() : 0,
              error.empty() ? 0 : w.requests.size());
  print_metrics(metrics);

  // Layer accounting: self time per span name; with the root's own self
  // time (bookkeeping between spans) they add up to the wall time.
  std::printf("layer accounting (self time per span, host clock):\n");
  const auto counts = tracer.count_by_name();
  double total = 0.0;
  for (const auto& [span, seconds] : self) {
    std::printf("  %-22s %10.6f s  %8zu span(s)\n", span.c_str(), seconds,
                counts.at(span));
    total += seconds;
  }
  std::printf("  %-22s %10.6f s  (wall %.6f s)\n", "sum", total, wall);
  std::printf("  serve.dispatch_s = serve.run_s - serve.plan_s - "
              "serve.pricing_s (remainder): %.6f s\n",
              full.dispatch_s());
  std::printf("  probes reproduce pricing on %zu of %zu distinct shapes\n",
              replay.distinct_shapes - replay.probe_mismatches,
              replay.distinct_shapes);

  Pool pool;
  pool.add(report, w.config.continuous);
  pool.print_digest(name);
  if (!opt.trace_out.empty()) {
    if (tracer.write_chrome(opt.trace_out)) {
      std::printf("trace written to %s\n", opt.trace_out.c_str());
    } else if (error.empty()) {
      error = "cannot write " + opt.trace_out;
    }
  }
  if (!error.empty()) std::printf("check FAILED: %s\n", error.c_str());
  else std::printf("check ok: outputs correct, trace accounting adds up\n");
  const auto n = static_cast<std::uint64_t>(w.requests.size());
  print_result(error.empty(), n, error.empty() ? 0 : n, metrics);
  return error.empty() ? 0 : 1;
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "nova_e2e_bench: %s\nusage: nova_e2e_bench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--scale X] "
               "[--trace-out FILE]\nworkloads:",
               message);
  for (const auto& name : e2e::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
      if (!opt.trace && std::strcmp(value, "0") != 0) usage("--trace is 0 or 1");
    } else if (flag == "--scale") {
      opt.scale = std::strtod(value, &end);
      if (!(opt.scale > 0.0 && opt.scale <= 1.0)) usage("--scale is in (0, 1]");
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  const auto& names = e2e::workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    usage("unknown or missing --workload");
  }
  return opt.trace ? run_traced(opt) : run_untraced(opt);
}
