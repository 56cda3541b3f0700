// Named statistic counters shared by the simulators; renders to a Table.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/table.hpp"

namespace nova::sim {

/// A sample distribution with percentile queries: the latency-recording
/// primitive of the serving layer. Stores raw samples (the populations
/// here -- request latencies, batch sizes -- are bounded by request count,
/// so exact percentiles are affordable and reproducible).
///
/// Empty-histogram contract: count() == 0 and sum() == 0.0, and the three
/// order statistics -- min(), max(), percentile(p) -- all return 0.0 (there
/// is no sample to report; callers that need to distinguish "no samples"
/// from "samples at zero" must check count() first). The contract is
/// deliberately a documented return, not an assertion: to_table() renders
/// registered-but-never-recorded histograms.
class Histogram {
 public:
  void record(double value);

  [[nodiscard]] std::uint64_t count() const {
    return static_cast<std::uint64_t>(samples_.size());
  }
  [[nodiscard]] double sum() const { return sum_; }
  /// Mean of the samples; 0.0 when empty.
  [[nodiscard]] double mean() const;
  /// Smallest sample; 0.0 when empty (see the empty-histogram contract).
  [[nodiscard]] double min() const;
  /// Largest sample; 0.0 when empty (see the empty-histogram contract).
  [[nodiscard]] double max() const;

  /// Nearest-rank percentile, `p` in [0, 100]; 0.0 when empty (see the
  /// empty-histogram contract).
  [[nodiscard]] double percentile(double p) const;

 private:
  /// Kept sorted lazily: percentile() sorts on demand and record() marks
  /// the order dirty.
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0.0;
};

/// Pre-resolved handle to a StatRegistry counter: a dense index interned
/// once on a cold path (typically a constructor), then bumped with a single
/// vector add on hot paths -- no string hashing or map walk per event.
/// Valid only for the registry that issued it.
class StatId {
 public:
  StatId() = default;

  [[nodiscard]] constexpr bool operator==(const StatId&) const = default;

 private:
  friend class StatRegistry;
  explicit constexpr StatId(std::uint32_t index) : index_(index) {}
  std::uint32_t index_ = 0;
};

/// Pre-resolved handle to a StatRegistry accumulator: StatId's
/// counterpart for sample(), with the same validity rules.
class SampleId {
 public:
  SampleId() = default;

  [[nodiscard]] constexpr bool operator==(const SampleId&) const = default;

 private:
  friend class StatRegistry;
  explicit constexpr SampleId(std::uint32_t index) : index_(index) {}
  std::uint32_t index_ = 0;
};

/// A registry of named counters (monotonic), accumulators (sum + count,
/// for means), and histograms (distributions with percentiles). Interning
/// and histogram() create a name on first use.
///
/// Counters and accumulators are written through interned ids only:
/// counter_id/sample_id resolve a name once to an index into a dense value
/// vector, then bump(StatId) / sample(SampleId) is one add with no string
/// construction or map walk. Reads go by id or, on cold reporting paths,
/// by name.
class StatRegistry {
 public:
  /// Interns `name` and returns its dense handle; idempotent (the same name
  /// always maps to the same id). Cold path: call once, keep the id.
  [[nodiscard]] StatId counter_id(const std::string& name);

  /// Increments the interned counter by `delta`. The hot-path bump: one
  /// bounds check and one add.
  void bump(StatId id, std::uint64_t delta = 1) {
    NOVA_EXPECTS(id.index_ < counter_values_.size());
    counter_values_[id.index_] += delta;
  }

  /// Reads the interned counter.
  [[nodiscard]] std::uint64_t counter(StatId id) const {
    NOVA_EXPECTS(id.index_ < counter_values_.size());
    return counter_values_[id.index_];
  }

  /// Interns accumulator `name` and returns its dense handle; idempotent.
  /// An accumulator that was interned but never sampled adds no row.
  [[nodiscard]] SampleId sample_id(const std::string& name);

  /// Adds a sample to the interned accumulator.
  void sample(SampleId id, double value) {
    NOVA_EXPECTS(id.index_ < accumulator_values_.size());
    auto& acc = accumulator_values_[id.index_];
    acc.sum += value;
    acc.n += 1;
  }

  /// Returns histogram `name`, creating it on first use.
  Histogram& histogram(const std::string& name);
  /// Read-only lookup; null when no such histogram was recorded.
  [[nodiscard]] const Histogram* find_histogram(
      const std::string& name) const;

  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  [[nodiscard]] double mean(const std::string& name) const;
  [[nodiscard]] double sum(const std::string& name) const;
  [[nodiscard]] std::uint64_t sample_count(const std::string& name) const;

  /// Renders all statistics as a two/three-column table; histograms expand
  /// into p50/p95/p99/max rows. Counters appear once nonzero, so a name
  /// that was interned but never bumped adds no row.
  [[nodiscard]] Table to_table(const std::string& title = "statistics") const;

 private:
  struct Acc {
    double sum = 0.0;
    std::uint64_t n = 0;
  };
  /// Name -> dense index; iteration order (sorted by name) fixes the
  /// to_table row order.
  std::map<std::string, std::uint32_t> counter_index_;
  std::vector<std::uint64_t> counter_values_;
  /// The same scheme for accumulators.
  std::map<std::string, std::uint32_t> accumulator_index_;
  std::vector<Acc> accumulator_values_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace nova::sim
