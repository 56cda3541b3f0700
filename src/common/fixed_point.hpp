// Saturating signed fixed-point arithmetic used by the NOVA datapath model.
//
// The paper's NOVA link carries 16-bit words (8 slope/bias pairs per 257-bit
// flit); the comparators and MACs operate on the same 16-bit representation.
// `Fixed<I, F>` models a signed fixed-point number with I integer bits
// (including sign) and F fractional bits, stored in the smallest integer that
// fits. Arithmetic saturates instead of wrapping, matching the RTL datapath
// convention for activation approximators (overflow clamps to the
// representable extreme rather than aliasing).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "common/assert.hpp"

namespace nova {

namespace detail {

template <int Bits>
using storage_t = std::conditional_t<
    (Bits <= 8), std::int8_t,
    std::conditional_t<(Bits <= 16), std::int16_t,
                       std::conditional_t<(Bits <= 32), std::int32_t,
                                          std::int64_t>>>;

}  // namespace detail

/// Signed saturating fixed-point value with `IntBits` integer bits (sign
/// included) and `FracBits` fractional bits.
template <int IntBits, int FracBits>
class Fixed {
  static_assert(IntBits >= 1, "need at least a sign bit");
  static_assert(FracBits >= 0, "fractional bits must be non-negative");
  static_assert(IntBits + FracBits <= 32, "storage capped at 32 bits");

 public:
  static constexpr int kTotalBits = IntBits + FracBits;
  static constexpr int kFracBits = FracBits;
  using storage_type = detail::storage_t<kTotalBits>;

  constexpr Fixed() = default;

  /// Quantizes a real value (round half away from zero, saturate on
  /// overflow).
  static constexpr Fixed from_double(double v) {
    const double scaled = v * static_cast<double>(1LL << FracBits);
    // 0.5 carrying scaled's sign bit: a constexpr copysign, so rounding
    // takes no branch on the sign (random-signed inputs mispredict one).
    const double half = std::bit_cast<double>(
        std::bit_cast<std::uint64_t>(0.5) |
        (std::bit_cast<std::uint64_t>(scaled) & (std::uint64_t{1} << 63)));
    // Saturating before the truncation gives the same word as truncating
    // and then saturating, and keeps the conversion in range.
    const double rounded =
        std::clamp(scaled + half, static_cast<double>(raw_min()),
                   static_cast<double>(raw_max()));
    return Fixed(static_cast<storage_type>(rounded));
  }

  /// Reinterprets a raw two's-complement bit pattern (must be in range).
  static constexpr Fixed from_raw(std::int64_t raw) {
    NOVA_EXPECTS(raw >= raw_min() && raw <= raw_max());
    return Fixed(static_cast<storage_type>(raw));
  }

  [[nodiscard]] constexpr double to_double() const {
    return static_cast<double>(raw_) / static_cast<double>(1LL << FracBits);
  }
  [[nodiscard]] constexpr storage_type raw() const { return raw_; }

  [[nodiscard]] static constexpr double max_value() {
    return static_cast<double>(raw_max()) / (1LL << FracBits);
  }
  [[nodiscard]] static constexpr double min_value() {
    return static_cast<double>(raw_min()) / (1LL << FracBits);
  }
  /// Smallest representable increment.
  [[nodiscard]] static constexpr double resolution() {
    return 1.0 / static_cast<double>(1LL << FracBits);
  }

  constexpr Fixed operator+(Fixed rhs) const {
    return Fixed(saturate(static_cast<std::int64_t>(raw_) + rhs.raw_));
  }
  constexpr Fixed operator-(Fixed rhs) const {
    return Fixed(saturate(static_cast<std::int64_t>(raw_) - rhs.raw_));
  }
  constexpr Fixed operator-() const {
    return Fixed(saturate(-static_cast<std::int64_t>(raw_)));
  }
  /// Full-precision multiply followed by a single rounding shift, as a
  /// hardware MAC would perform it.
  constexpr Fixed operator*(Fixed rhs) const {
    const std::int64_t prod = static_cast<std::int64_t>(raw_) * rhs.raw_;
    const std::int64_t half = FracBits > 0 ? (1LL << (FracBits - 1)) : 0;
    const std::int64_t shifted =
        prod >= 0 ? (prod + half) >> FracBits : -((-prod + half) >> FracBits);
    return Fixed(saturate(shifted));
  }

  /// Fused multiply-add `a*x + b`: the exact operation performed by the NOVA
  /// router MAC on (slope, input, bias). One rounding at the end.
  [[nodiscard]] static constexpr Fixed mac(Fixed a, Fixed x, Fixed b) {
    const std::int64_t prod = static_cast<std::int64_t>(a.raw_) * x.raw_;
    const std::int64_t bias = static_cast<std::int64_t>(b.raw_) << FracBits;
    const std::int64_t sum = prod + bias;
    const std::int64_t half = FracBits > 0 ? (1LL << (FracBits - 1)) : 0;
    // Round half away from zero on |sum|, with the sign as a mask (all ones
    // when negative): (v ^ sign) - sign negates v exactly when the mask is
    // set, so there is no branch on the sign. The negation cannot overflow:
    // for Q6.10 operands |a*x| <= 2^30 and |b << 10| <= 2^25, so
    // |sum| < 2^31.
    const std::int64_t sign = sum >> 63;
    const std::int64_t magnitude = (((sum ^ sign) - sign) + half) >> FracBits;
    return Fixed(saturate((magnitude ^ sign) - sign));
  }

  constexpr auto operator<=>(const Fixed&) const = default;

 private:
  static constexpr std::int64_t raw_max() {
    return (1LL << (kTotalBits - 1)) - 1;
  }
  static constexpr std::int64_t raw_min() {
    return -(1LL << (kTotalBits - 1));
  }
  static constexpr storage_type saturate(std::int64_t v) {
    return static_cast<storage_type>(std::clamp(v, raw_min(), raw_max()));
  }

  constexpr explicit Fixed(storage_type raw) : raw_(raw) {}

  storage_type raw_ = 0;
};

/// The 16-bit word format carried on the 257-bit NOVA link: Q6.10 covers the
/// activation ranges of softmax/GeLU inputs seen in BERT-family models while
/// leaving 10 bits of fraction for slope precision.
using Word16 = Fixed<6, 10>;

}  // namespace nova
