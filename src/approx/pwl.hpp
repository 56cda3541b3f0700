// Piecewise-linear approximation tables: the data structure NOVA broadcasts
// over its NoC and NN-LUT stores in LUTs.
//
// Terminology follows the paper: a table with N "breakpoints" has N
// (slope, bias) pairs -- i.e. N linear segments separated by N-1 interior
// boundaries. The lookup address of an input x is the index of the segment
// containing x (what the comparator bank at each PE computes).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "approx/functions.hpp"
#include "common/fixed_point.hpp"

namespace nova::approx {

/// A scalar function to approximate; the library's NonLinearFn enum covers
/// the paper's operators, while user-defined callables allow mapping any
/// custom activation onto the same hardware.
using ScalarFn = std::function<double(double)>;

/// A piecewise-linear function y = slope[i] * x + bias[i] for x in segment i.
class PwlTable {
 public:
  PwlTable() = default;

  /// Constructs from N-1 sorted interior boundaries and N (slope, bias)
  /// pairs. `fn` and `domain` are carried for reporting.
  PwlTable(NonLinearFn fn, Domain domain, std::vector<double> boundaries,
           std::vector<double> slopes, std::vector<double> biases);

  /// Same, for a user-defined function (kept for error reporting; `label`
  /// names the function in tables/logs).
  PwlTable(ScalarFn exact, std::string label, Domain domain,
           std::vector<double> boundaries, std::vector<double> slopes,
           std::vector<double> biases);

  /// Number of segments == number of (slope, bias) pairs == the paper's
  /// "breakpoints".
  [[nodiscard]] int breakpoints() const {
    return static_cast<int>(slopes_.size());
  }

  /// Lookup address for input x: index of the containing segment, in
  /// [0, breakpoints). This is the comparator-bank output.
  [[nodiscard]] int lookup_address(double x) const;

  /// Quantized-domain lookup: the address of a link word, bit-identical to
  /// lookup_address(x.to_double()) but comparing the raw integer against
  /// boundaries pre-scaled at construction -- no per-element fixed-point ->
  /// double round trip. Counts the boundaries <= x, as the comparator bank
  /// does, instead of a binary search whose branches mispredict on random
  /// inputs.
  [[nodiscard]] int lookup_address(Word16 x) const {
    const std::int32_t raw = x.raw();
    int address = 0;
    for (const std::int32_t b : quant_boundaries_) address += b <= raw ? 1 : 0;
    return address;
  }

  /// Approximated evaluation in double precision.
  [[nodiscard]] double eval(double x) const;

  /// Hardware-faithful evaluation: x quantized to the 16-bit link word,
  /// slope/bias fetched as quantized words, result from the saturating MAC.
  [[nodiscard]] double eval_fixed(double x) const;

  /// Maximum absolute error vs the exact function over `samples` evenly
  /// spaced points of the fit domain.
  [[nodiscard]] double max_abs_error(int samples = 4096) const;
  [[nodiscard]] double mean_abs_error(int samples = 4096) const;

  [[nodiscard]] NonLinearFn fn() const { return fn_; }
  /// Human-readable name of the approximated function.
  [[nodiscard]] const std::string& label() const { return label_; }
  /// The exact reference the table was fit against.
  [[nodiscard]] double exact(double x) const { return exact_(x); }
  [[nodiscard]] Domain domain() const { return domain_; }
  [[nodiscard]] const std::vector<double>& boundaries() const {
    return boundaries_;
  }
  [[nodiscard]] const std::vector<double>& slopes() const { return slopes_; }
  /// boundaries() on the Word16 raw grid: boundary i is <= word x exactly
  /// when quant_boundaries()[i] <= x.raw(). Sorted.
  [[nodiscard]] const std::vector<std::int32_t>& quant_boundaries() const {
    return quant_boundaries_;
  }
  [[nodiscard]] const std::vector<double>& biases() const { return biases_; }

  /// The quantized (slope, bias) pair for segment `i`, as carried on the
  /// NOVA link / stored in LUT banks.
  struct QuantPair {
    Word16 slope;
    Word16 bias;
  };
  [[nodiscard]] QuantPair quantized_pair(int i) const;

 private:
  void init_quant_boundaries();

  NonLinearFn fn_ = NonLinearFn::kGelu;
  ScalarFn exact_;
  std::string label_;
  Domain domain_;
  std::vector<double> boundaries_;  // N-1 sorted interior segment bounds
  std::vector<double> slopes_;      // N
  std::vector<double> biases_;      // N
  /// boundaries_ pre-scaled to the Word16 raw grid (ceil(b * 2^frac)):
  /// b <= raw/2^frac iff quant_boundary <= raw, so the quantized lookup is
  /// one integer upper_bound. int32 so out-of-range boundaries keep their
  /// ordering instead of saturating onto representable words.
  std::vector<std::int32_t> quant_boundaries_;
};

}  // namespace nova::approx
