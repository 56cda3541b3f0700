// Reproduces the Section V.A scalability analysis: "a maximum of 10 routers
// with clockless repeaters placed 1 mm apart can be traversed at 1.5 GHz
// clock"; beyond that the broadcast takes multiple cycles. Sweeps clock
// frequency and line length through the repeater timing model.
//
// Also benchmarks the sim::Engine dispatch path -- the bucketed/fast-forward
// scheduler against a reference reimplementation of the pre-refactor dense
// modulo-skipped dispatch -- and emits every series as machine-readable
// BENCH_scalability.json so the perf trajectory is tracked across PRs.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/table.hpp"
#include "hwmodel/timing.hpp"
#include "sim/engine.hpp"

namespace {

using nova::sim::Cycle;

/// Reference implementation of the pre-refactor engine dispatch: a single
/// dense slot list scanned on every fast tick, with the fastest multiplier
/// recomputed per tick. Kept here (not in the library) purely as the bench
/// baseline.
class DenseEngine {
 public:
  int add_domain(int multiplier) {
    multipliers_.push_back(multiplier);
    return static_cast<int>(multipliers_.size()) - 1;
  }
  void add_component(int domain_id, nova::sim::Ticked& component) {
    slots_.push_back({domain_id, &component});
  }
  void run_base_cycles(Cycle base_cycles) {
    const Cycle ticks = base_cycles * static_cast<Cycle>(fastest());
    for (Cycle i = 0; i < ticks; ++i) step();
  }

 private:
  int fastest() const {
    int fastest = 1;
    for (const int m : multipliers_) fastest = std::max(fastest, m);
    return fastest;
  }
  void step() {
    const int fastest_mult = fastest();
    for (auto& slot : slots_) {
      const Cycle ratio = static_cast<Cycle>(
          fastest_mult / multipliers_[static_cast<std::size_t>(slot.domain)]);
      if (ticks_ % ratio != 0) continue;
      slot.component->tick(ticks_ / ratio);
    }
    ++ticks_;
  }

  struct Slot {
    int domain;
    nova::sim::Ticked* component;
  };
  std::vector<int> multipliers_;
  std::vector<Slot> slots_;
  Cycle ticks_ = 0;
};

/// Busy for the first `busy_ticks` own-domain ticks, then quiescent.
class Component final : public nova::sim::Ticked {
 public:
  explicit Component(long long busy_ticks) : remaining_(busy_ticks) {}
  void tick(Cycle) override {
    ++ticked;
    if (remaining_ > 0) --remaining_;
  }
  [[nodiscard]] bool idle() const override { return remaining_ == 0; }
  long long ticked = 0;

 private:
  long long remaining_ = 0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct EngineResult {
  double dense_mticks_per_sec = 0.0;
  double bucketed_mticks_per_sec = 0.0;
  double speedup = 0.0;
};

/// Runs `base_cycles` of a 2-domain (1x + 8x) configuration with
/// `components` slow-domain components, each busy for `busy_fraction` of
/// the span, on both engines. The dense engine pays O(components) on every
/// fast tick regardless of phase or quiescence; the bucketed engine visits
/// only due buckets and fast-forwards drained spans.
EngineResult bench_engines(int components, Cycle base_cycles,
                           double busy_fraction) {
  const long long busy_ticks =
      static_cast<long long>(busy_fraction * static_cast<double>(base_cycles));
  const double total_fast_ticks = static_cast<double>(base_cycles) * 8.0;
  EngineResult result;

  {
    std::vector<Component> parts(
        static_cast<std::size_t>(components),
        Component(busy_ticks == 0 ? 1 : busy_ticks));
    Component fast_part(busy_ticks == 0 ? 1 : busy_ticks * 8);
    DenseEngine engine;
    const int slow = engine.add_domain(1);
    const int fast = engine.add_domain(8);
    for (auto& part : parts) engine.add_component(slow, part);
    engine.add_component(fast, fast_part);
    const auto start = std::chrono::steady_clock::now();
    engine.run_base_cycles(base_cycles);
    result.dense_mticks_per_sec =
        total_fast_ticks / seconds_since(start) / 1e6;
  }
  {
    std::vector<Component> parts(
        static_cast<std::size_t>(components),
        Component(busy_ticks == 0 ? 1 : busy_ticks));
    Component fast_part(busy_ticks == 0 ? 1 : busy_ticks * 8);
    nova::sim::Engine engine;
    const int slow = engine.add_domain("accel", 1);
    const int fast = engine.add_domain("noc", 8);
    for (auto& part : parts) engine.add_component(slow, part);
    engine.add_component(fast, fast_part);
    const auto start = std::chrono::steady_clock::now();
    engine.run_base_cycles(base_cycles);
    result.bucketed_mticks_per_sec =
        total_fast_ticks / seconds_since(start) / 1e6;
  }
  result.speedup =
      result.bucketed_mticks_per_sec / result.dense_mticks_per_sec;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nova;
  using namespace nova::hw;

  // --smoke: shrink the engine-timing span so CI can run this in seconds;
  // the timing-model tables are cheap and unchanged.
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const Cycle engine_base_cycles = smoke ? 20000 : 200000;

  std::puts("Section V.A scalability reproduction: clockless-repeater line "
            "timing (1 mm router spacing)\n");

  json::Document doc;
  doc.boolean("smoke", smoke);
  std::vector<json::Object> hops_rows;
  Table hops("Max single-cycle hops vs clock");
  hops.set_header({"clock (MHz)", "hops/cycle", "10-router line single "
                   "cycle?"});
  const std::vector<double> clocks = {240.0, 480.0, 700.0, 1000.0, 1400.0,
                                      1500.0, 2000.0, 2800.0};
  for (const double mhz : clocks) {
    const int reach = max_hops_per_cycle(tech22(), mhz, 1.0);
    const LineNocLayout ten{10, 1.0};
    const bool single = broadcast_latency_cycles(tech22(), mhz, ten) == 1;
    hops.add_row({Table::num(mhz, 0), std::to_string(reach),
                  single ? "yes" : "no"});
    hops_rows.push_back(json::Object()
                            .number("clock_mhz", mhz, 0)
                            .integer("hops_per_cycle", reach)
                            .boolean("ten_router_single_cycle", single));
  }
  hops.print();
  doc.rows("hops_vs_clock", hops_rows);

  std::puts("");
  Table lines("Broadcast latency vs line length @1.5 GHz");
  lines.set_header({"routers", "latency (cycles)",
                    "max single-cycle clock (MHz)"});
  std::vector<json::Object> line_rows;
  for (const int routers : {2, 4, 8, 10, 11, 16, 20, 32}) {
    const LineNocLayout layout{routers, 1.0};
    const int latency = broadcast_latency_cycles(tech22(), 1500.0, layout);
    const double max_clock = max_single_cycle_freq_mhz(tech22(), layout);
    lines.add_row({std::to_string(routers), std::to_string(latency),
                   Table::num(max_clock, 0)});
    line_rows.push_back(json::Object()
                            .integer("routers", routers)
                            .integer("latency_cycles", latency)
                            .number("max_single_cycle_mhz", max_clock, 0));
  }
  lines.print();
  doc.rows("broadcast_vs_routers", line_rows);

  std::printf("\nKey anchor: at 1500 MHz the model reaches %d hops per "
              "cycle, so a 10-router line (10 segments including "
              "injection) is the largest single-cycle deployment (paper: "
              "10); an 11-router line needs %d cycles.\n",
              max_hops_per_cycle(tech22(), 1500.0, 1.0),
              broadcast_latency_cycles(tech22(), 1500.0,
                                       LineNocLayout{11, 1.0}));

  std::puts("\nEngine dispatch throughput: bucketed + idle fast-forward vs "
            "the pre-refactor dense per-tick scan (64 slow-domain "
            "components, 1x + 8x clock domains)\n");
  Table engine_table("Engine dispatch (fast ticks/sec, higher is better)");
  engine_table.set_header({"busy fraction", "dense Mticks/s",
                           "bucketed Mticks/s", "speedup"});
  struct Case {
    const char* label;
    double busy_fraction;
  };
  const std::vector<Case> cases = {
      {"1.00 (fully busy)", 1.0},
      {"0.50", 0.5},
      {"0.05 (idle-heavy)", 0.05},
  };
  std::vector<json::Object> engine_rows;
  for (const auto& c : cases) {
    const auto r = bench_engines(64, engine_base_cycles, c.busy_fraction);
    engine_table.add_row({c.label, Table::num(r.dense_mticks_per_sec, 1),
                          Table::num(r.bucketed_mticks_per_sec, 1),
                          Table::num(r.speedup, 2)});
    engine_rows.push_back(
        json::Object()
            .number("busy_fraction", c.busy_fraction, 2)
            .number("dense_mticks_per_sec", r.dense_mticks_per_sec, 1)
            .number("bucketed_mticks_per_sec", r.bucketed_mticks_per_sec, 1)
            .number("speedup", r.speedup, 2));
  }
  engine_table.print();
  doc.rows("engine", engine_rows);
  std::puts(doc.write("BENCH_scalability.json")
                ? "\nwrote BENCH_scalability.json"
                : "\nwarning: could not write BENCH_scalability.json");
  return 0;
}
