#include "core/sim_session.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "common/assert.hpp"
#include "common/fixed_point.hpp"

namespace nova::core {

namespace {

// The Word16 raw range, as the comparator pass's 16-bit lanes hold it.
constexpr std::int32_t kRawMin = std::numeric_limits<std::int16_t>::min();
constexpr std::int32_t kRawMax = std::numeric_limits<std::int16_t>::max();
static_assert(std::is_same_v<Word16::storage_type, std::int16_t>);

/// The comparator bank over one router's slice of a wave, in 16-bit
/// lanes: address[i] becomes the count of boundaries <= x[i], and
/// pending[t] gains the number of entries whose address has tag t
/// (address mod m). Boundaries run in the outer loop so the compares
/// vectorize across neurons. Summing the same compares per boundary counts
/// the entries at or past it, and the drop from one boundary's count to
/// the next is the number of entries at that address. A boundary above
/// every word matches none; one below every word matches all.
void comparator_bank(const std::vector<std::int32_t>& bounds,
                     const Word16* x, std::size_t take, std::size_t m,
                     std::int16_t* address, int* pending) {
  std::fill_n(address, take, std::int16_t{0});
  int at_or_past = static_cast<int>(take);
  for (std::size_t k = 0; k < bounds.size(); ++k) {
    std::int16_t past = 0;
    if (bounds[k] <= kRawMax) {
      const auto b = static_cast<std::int16_t>(std::max(bounds[k], kRawMin));
      for (std::size_t i = 0; i < take; ++i) {
        const std::int16_t hit = b <= x[i].raw() ? 1 : 0;
        address[i] += hit;
        past += hit;
      }
    }
    pending[k % m] += at_or_past - past;
    at_or_past = past;
  }
  pending[bounds.size() % m] += at_or_past;
}

int derive_hops_per_noc_cycle(const NovaConfig& config) {
  // Physical SMART bypass depth, judged at the accelerator (lookup) clock:
  // the repeated line is wave-pipelined, so consecutive flits of the train
  // are in flight simultaneously and each must clear the line within the
  // lookup (accelerator) cycle -- the criterion behind the paper's
  // "10 routers at 1.5 GHz" bound and its 2-cycle latency for every
  // Table II deployment. The m-times-faster NoC clock sequences launches;
  // it does not shorten the combinational reach budget.
  if (config.max_hops_per_cycle > 0) return config.max_hops_per_cycle;
  return std::max(1, hw::max_hops_per_cycle(hw::tech22(),
                                            config.accel_freq_mhz,
                                            config.spacing_mm));
}

}  // namespace

SimSession::Wave::Wave(std::size_t routers, std::size_t neurons_per_router,
                       std::size_t tags)
    : inputs(routers * neurons_per_router),
      addresses(routers * neurons_per_router),
      taken(routers, 0),
      pending(routers * tags, 0) {}

SimSession::SimSession(const NovaConfig& config,
                       const approx::PwlTable& table,
                       const std::vector<std::vector<double>>& inputs)
    : config_(config),
      table_(table),
      inputs_(inputs),
      schedule_(make_schedule(table, config.pairs_per_flit)),
      hops_per_noc_cycle_(derive_hops_per_noc_cycle(config)),
      accel_domain_(engine_.add_domain("accel", 1)),
      noc_domain_(engine_.add_domain("noc", schedule_.noc_clock_multiplier)),
      id_pair_captures_(result_.stats.counter_id("unit.pair_captures")),
      id_mac_ops_(result_.stats.counter_id("unit.mac_ops")),
      id_comparator_ops_(result_.stats.counter_id("unit.comparator_ops")),
      id_waves_(result_.stats.counter_id("unit.waves")),
      line_(noc::LineNocConfig{config.routers, hops_per_noc_cycle_},
            &result_.stats),
      cursor_(inputs.size(), 0),
      lookup_wave_(inputs.size(),
                   static_cast<std::size_t>(config.neurons_per_router),
                   static_cast<std::size_t>(schedule_.noc_clock_multiplier)),
      mac_wave_(lookup_wave_) {
  NOVA_EXPECTS(static_cast<int>(inputs.size()) == config_.routers);
  // The comparator pass counts addresses and per-router hits in 16-bit
  // lanes.
  NOVA_EXPECTS(config_.neurons_per_router <= kRawMax);
  NOVA_EXPECTS(table.breakpoints() <= kRawMax + 1);

  pairs_.reserve(static_cast<std::size_t>(table.breakpoints()));
  for (int a = 0; a < table.breakpoints(); ++a) {
    pairs_.push_back(schedule_.flits[static_cast<std::size_t>(
                                         schedule_.tag_of(a))]
                         .pair(schedule_.slot_of(a)));
  }

  result_.outputs.resize(inputs_.size());
  for (std::size_t r = 0; r < inputs_.size(); ++r) {
    result_.outputs[r].reserve(inputs_[r].size());
  }

  line_.set_sink(this);
  // The wave-issue callback advertises quiescence once the pipeline stages
  // are empty and the streams are consumed, so the engine can fast-forward
  // a drained session.
  engine_.add_callback(
      accel_domain_, [this](sim::Cycle now) { accel_tick(now); },
      [this] { return pipeline_idle(); });
  engine_.add_component(noc_domain_, line_);
}

bool SimSession::all_inputs_consumed() const {
  for (std::size_t r = 0; r < inputs_.size(); ++r) {
    if (cursor_[r] < inputs_[r].size()) return false;
  }
  return true;
}

bool SimSession::pipeline_idle() const {
  return !lookup_wave_.active && !mac_wave_.active && all_inputs_consumed();
}

bool SimSession::drained() const { return pipeline_idle() && line_.idle(); }

void SimSession::on_observation(int router, const noc::Flit& flit,
                                sim::Cycle /*noc_now*/) {
  if (!lookup_wave_.active) return;
  const int m = schedule_.noc_clock_multiplier;
#ifndef NDEBUG
  // The MAC reads pairs_, not the flit: check that they agree on every
  // address this flit carries.
  for (int slot = 0; slot < flit.pair_count(); ++slot) {
    const int address = slot * m + flit.tag();
    if (address >= table_.breakpoints()) break;
    const auto& want = pairs_[static_cast<std::size_t>(address)];
    NOVA_ASSERT(flit.pair(slot).slope == want.slope &&
                flit.pair(slot).bias == want.bias);
  }
#endif
  // A tag's entries are credited whole on its first observation: every one
  // selects its pair from this flit, and later observations find zero left.
  // (Flit trains repeat identical pairs each wave, so a leftover in-flight
  // flit from the previous train delivers the same data the current train
  // would.)
  int& pending =
      lookup_wave_.pending[static_cast<std::size_t>(router * m + flit.tag())];
  lookup_wave_.outstanding -= static_cast<std::size_t>(pending);
  pending = 0;
}

// Accelerator-clock phase: MAC drain, capture->MAC move, wave issue.
void SimSession::accel_tick(sim::Cycle now) {
  const auto npr = static_cast<std::size_t>(config_.neurons_per_router);
  // (a) A wave whose pairs are all captured enters the MAC stage.
  if (!mac_wave_.active && lookup_wave_.active &&
      lookup_wave_.outstanding == 0) {
    std::swap(lookup_wave_, mac_wave_);
  }
  // (b) The MAC stage executes: y = slope * x + bias per neuron.
  if (mac_wave_.active) {
    std::uint64_t macs = 0;
    for (std::size_t r = 0; r < inputs_.size(); ++r) {
      const std::size_t take = mac_wave_.taken[r];
      const Word16* x = mac_wave_.inputs.data() + r * npr;
      const std::int16_t* address = mac_wave_.addresses.data() + r * npr;
      auto& out = result_.outputs[r];
      const std::size_t done = out.size();
      out.resize(done + take);
      double* y = out.data() + done;
      for (std::size_t i = 0; i < take; ++i) {
        const auto& pair = pairs_[static_cast<std::size_t>(address[i])];
        y[i] = Word16::mac(pair.slope, x[i], pair.bias).to_double();
      }
      macs += take;
    }
    // The wave's pairs were all captured by the time it entered this stage;
    // flush both per-wave aggregates with one bump each.
    result_.stats.bump(id_mac_ops_, macs);
    result_.stats.bump(id_pair_captures_, macs);
    result_.wave_latency_cycles =
        static_cast<int>(now - mac_wave_.issued_at) + 1;
    last_mac_cycle_ = now;
    any_mac_done_ = true;
    mac_wave_.active = false;
  }
  // (c) Issue the next wave: comparators fire and the mapper launches the
  // flit train (one flit per NoC cycle).
  if (!lookup_wave_.active && !all_inputs_consumed()) {
    const auto m = static_cast<std::size_t>(schedule_.noc_clock_multiplier);
    const auto& bounds = table_.quant_boundaries();
    Wave& wave = lookup_wave_;
    wave.active = true;
    wave.issued_at = now;
    wave.outstanding = 0;
    std::fill(wave.pending.begin(), wave.pending.end(), 0);
    std::uint64_t comparator_ops = 0;
    for (std::size_t r = 0; r < inputs_.size(); ++r) {
      const std::size_t take = std::min(inputs_[r].size() - cursor_[r], npr);
      const double* in = inputs_[r].data() + cursor_[r];
      Word16* x = wave.inputs.data() + r * npr;
      for (std::size_t i = 0; i < take; ++i) {
        x[i] = Word16::from_double(in[i]);
      }
      comparator_bank(bounds, x, take, m, wave.addresses.data() + r * npr,
                      wave.pending.data() + r * m);
      wave.taken[r] = take;
      wave.outstanding += take;
      cursor_[r] += take;
      comparator_ops += take;
    }
    for (const auto& flit : schedule_.flits) line_.inject(flit);
    result_.stats.bump(id_comparator_ops_, comparator_ops);
    result_.stats.bump(id_waves_);
  }
}

ApproxResult SimSession::run() {
  NOVA_EXPECTS(!ran_);
  ran_ = true;

  // Run until the pipeline drains. Guard bound: every wave needs at most
  // (broadcast latency + 2) accelerator cycles even fully serialized.
  std::size_t total_elems = 0;
  for (const auto& stream : inputs_) total_elems += stream.size();
  const int m = schedule_.noc_clock_multiplier;
  const sim::Cycle guard =
      16 + 4 * (static_cast<sim::Cycle>(total_elems) /
                    std::max<std::size_t>(1, static_cast<std::size_t>(
                                                 config_.neurons_per_router)) +
                2) *
               static_cast<sim::Cycle>(
                   m + config_.routers / std::max(1, hops_per_noc_cycle_) + 2);
  while (!drained()) {
    NOVA_ASSERT(engine_.cycles(accel_domain_) < guard);
    engine_.run_base_cycles(1);
  }
  result_.accel_cycles = any_mac_done_ ? last_mac_cycle_ + 1 : 0;
  result_.noc_cycles = engine_.cycles(noc_domain_);
  return std::move(result_);
}

}  // namespace nova::core
