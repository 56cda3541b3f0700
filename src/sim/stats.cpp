#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace nova::sim {

void Histogram::record(double value) {
  samples_.push_back(value);
  sum_ += value;
  sorted_ = samples_.size() <= 1;
}

double Histogram::mean() const {
  if (samples_.empty()) return 0.0;
  return sum_ / static_cast<double>(samples_.size());
}

double Histogram::min() const {
  if (samples_.empty()) return 0.0;
  if (sorted_) return samples_.front();
  return *std::min_element(samples_.begin(), samples_.end());
}

double Histogram::max() const {
  if (samples_.empty()) return 0.0;
  if (sorted_) return samples_.back();
  return *std::max_element(samples_.begin(), samples_.end());
}

double Histogram::percentile(double p) const {
  NOVA_EXPECTS(p >= 0.0 && p <= 100.0);
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  // Nearest-rank: the smallest sample with at least p% of the mass at or
  // below it.
  const auto n = samples_.size();
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples_[std::min(index, n - 1)];
}

StatId StatRegistry::counter_id(const std::string& name) {
  const auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return StatId(it->second);
  const auto index = static_cast<std::uint32_t>(counter_values_.size());
  counter_index_.emplace(name, index);
  counter_values_.push_back(0);
  return StatId(index);
}

SampleId StatRegistry::sample_id(const std::string& name) {
  const auto it = accumulator_index_.find(name);
  if (it != accumulator_index_.end()) return SampleId(it->second);
  const auto index = static_cast<std::uint32_t>(accumulator_values_.size());
  accumulator_index_.emplace(name, index);
  accumulator_values_.emplace_back();
  return SampleId(index);
}

Histogram& StatRegistry::histogram(const std::string& name) {
  return histograms_[name];
}

const Histogram* StatRegistry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::uint64_t StatRegistry::counter(const std::string& name) const {
  const auto it = counter_index_.find(name);
  return it == counter_index_.end() ? 0 : counter_values_[it->second];
}

double StatRegistry::sum(const std::string& name) const {
  const auto it = accumulator_index_.find(name);
  return it == accumulator_index_.end() ? 0.0
                                        : accumulator_values_[it->second].sum;
}

std::uint64_t StatRegistry::sample_count(const std::string& name) const {
  const auto it = accumulator_index_.find(name);
  return it == accumulator_index_.end() ? 0
                                        : accumulator_values_[it->second].n;
}

double StatRegistry::mean(const std::string& name) const {
  const auto it = accumulator_index_.find(name);
  if (it == accumulator_index_.end()) return 0.0;
  const Acc& acc = accumulator_values_[it->second];
  if (acc.n == 0) return 0.0;
  return acc.sum / static_cast<double>(acc.n);
}

Table StatRegistry::to_table(const std::string& title) const {
  Table t(title);
  t.set_header({"stat", "value", "samples"});
  for (const auto& [name, index] : counter_index_) {
    // Interning alone (counter_id with no bump) adds no row.
    if (counter_values_[index] == 0) continue;
    t.add_row({name, std::to_string(counter_values_[index]), "-"});
  }
  for (const auto& [name, index] : accumulator_index_) {
    // Like counters: interning alone (sample_id with no sample) adds no
    // row.
    const Acc& acc = accumulator_values_[index];
    if (acc.n == 0) continue;
    t.add_row({name + " (mean)",
               Table::num(acc.sum / static_cast<double>(acc.n), 4),
               std::to_string(acc.n)});
  }
  for (const auto& [name, hist] : histograms_) {
    const std::string n = std::to_string(hist.count());
    t.add_row({name + " (p50)", Table::num(hist.percentile(50.0), 4), n});
    t.add_row({name + " (p95)", Table::num(hist.percentile(95.0), 4), n});
    t.add_row({name + " (p99)", Table::num(hist.percentile(99.0), 4), n});
    t.add_row({name + " (max)", Table::num(hist.max(), 4), n});
  }
  return t;
}

}  // namespace nova::sim
