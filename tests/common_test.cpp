// Unit tests for the common substrate: fixed-point arithmetic, RNG
// determinism, and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace nova {
namespace {

TEST(FixedPoint, RoundTripsValuesWithinResolution) {
  for (double v = -30.0; v <= 30.0; v += 0.37) {
    const auto q = Word16::from_double(v);
    EXPECT_NEAR(q.to_double(), v, Word16::resolution() / 2.0 + 1e-12);
  }
}

TEST(FixedPoint, SaturatesInsteadOfWrapping) {
  const auto big = Word16::from_double(1.0e9);
  EXPECT_DOUBLE_EQ(big.to_double(), Word16::max_value());
  const auto small = Word16::from_double(-1.0e9);
  EXPECT_DOUBLE_EQ(small.to_double(), Word16::min_value());
  // Adding at the rail stays at the rail.
  EXPECT_DOUBLE_EQ((big + big).to_double(), Word16::max_value());
}

TEST(FixedPoint, MacMatchesDoubleWithinQuantization) {
  const auto a = Word16::from_double(0.731);
  const auto x = Word16::from_double(-2.5);
  const auto b = Word16::from_double(1.125);
  const double expect = a.to_double() * x.to_double() + b.to_double();
  EXPECT_NEAR(Word16::mac(a, x, b).to_double(), expect, Word16::resolution());
}

TEST(FixedPoint, MultiplicationRoundsToNearest) {
  const auto half = Word16::from_double(0.5);
  const auto quarter = Word16::from_double(0.25);
  EXPECT_DOUBLE_EQ((half * quarter).to_double(), 0.125);
}

TEST(FixedPoint, NegationIsExactInsideRange) {
  const auto v = Word16::from_double(3.75);
  EXPECT_DOUBLE_EQ((-v).to_double(), -3.75);
}

// Bit-exact references for the two primitives the datapath runs per
// element. Each spells out the original branch-on-sign formula, so any
// change to rounding or saturation shows here; the tests above compare
// within a tolerance and cannot see one.
std::int64_t reference_from_double(double v) {
  const double scaled = v * 1024.0;
  const double rounded = scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5;
  return std::clamp<std::int64_t>(static_cast<std::int64_t>(rounded), -32768,
                                  32767);
}

std::int64_t reference_mac(std::int64_t a, std::int64_t x, std::int64_t b) {
  const std::int64_t sum = a * x + b * 1024;
  const std::int64_t shifted =
      sum >= 0 ? (sum + 512) >> 10 : -((-sum + 512) >> 10);
  return std::clamp<std::int64_t>(shifted, -32768, 32767);
}

// Both primitives stay usable in constant expressions, where negative
// ties round away from zero too.
static_assert(Word16::from_double(-1.5 / 1024.0).raw() == -2);
static_assert(Word16::from_double(1e9).raw() == 32767);
static_assert(Word16::mac(Word16::from_raw(-1), Word16::from_raw(512),
                          Word16::from_raw(0))
                  .raw() == -1);

TEST(FixedPoint, FromDoubleMatchesReference) {
  std::vector<double> inputs = {0.0, -0.0, 1e9, -1e9};
  // Every rounding tie across the Word16 range plus a margin past both
  // rails, with its immediate neighbours.
  for (int k = -32768 - 2048; k <= 32767 + 2048; ++k) {
    const double tie = (k + 0.5) / 1024.0;
    inputs.push_back(tie);
    inputs.push_back(std::nextafter(tie, -1e300));
    inputs.push_back(std::nextafter(tie, 1e300));
  }
  Rng rng(0xF1DE);
  for (int i = 0; i < 1000000; ++i) {
    switch (i % 4) {
      case 0:  // the activation ranges the datapath sees
        inputs.push_back(rng.uniform(-40.0, 40.0));
        break;
      case 1:  // small magnitudes around zero
        inputs.push_back(rng.normal(0.0, 0.01));
        break;
      case 2:  // far past the rails
        inputs.push_back(rng.uniform(-1e6, 1e6));
        break;
      default:  // a few ulps from a tie
        inputs.push_back(std::nextafter(
            (static_cast<double>(rng.next_below(70000)) - 35000.5) / 1024.0,
            rng.next_below(2) == 0 ? -1e300 : 1e300));
        break;
    }
  }
  std::size_t mismatches = 0;
  for (const double v : inputs) {
    if (Word16::from_double(v).raw() != reference_from_double(v)) {
      if (mismatches++ == 0) {
        ADD_FAILURE() << "first mismatch at " << std::hexfloat << v;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << inputs.size() << " inputs";
}

TEST(FixedPoint, MacMatchesReference) {
  struct Triple {
    std::int64_t a, x, b;
  };
  std::vector<Triple> triples;
  // Every sign combination, with zero, ones, and both rails.
  const std::int64_t edges[] = {-32768, -32767, -1024, -1, 0,
                                1,      1024,   32766,  32767};
  for (const auto a : edges) {
    for (const auto x : edges) {
      for (const auto b : edges) triples.push_back({a, x, b});
    }
  }
  // Every rounding tie shape: a * x == odd * 512, so sum mod 1024 == +-512
  // for any bias; biases around zero move the tie across the sign.
  for (int p = 0; p <= 9; ++p) {
    for (std::int64_t odd = 1; (odd << (9 - p)) <= 32767; odd += 2) {
      const std::int64_t a = std::int64_t{1} << p;
      const std::int64_t x = odd << (9 - p);
      const std::int64_t biases[] = {-32768, -odd - 1, -odd, -1, 0, 1,
                                     odd,    32767};
      for (const std::int64_t b : biases) {
        for (const std::int64_t sa : {-1, 1}) {
          for (const std::int64_t sx : {-1, 1}) {
            triples.push_back({sa * a, sx * x, b});
          }
        }
      }
    }
  }
  Rng rng(0x3AC);
  for (int i = 0; i < 1000000; ++i) {
    const auto raw = [&rng] {
      return static_cast<std::int64_t>(rng.next_below(65536)) - 32768;
    };
    const std::int64_t a = raw();
    const std::int64_t x = raw();
    triples.push_back({a, x, raw()});
  }
  std::size_t mismatches = 0;
  std::size_t ties = 0;
  std::size_t rails = 0;
  for (const auto& t : triples) {
    const std::int64_t sum = t.a * t.x + t.b * 1024;
    ties += (sum % 1024 == 512 || sum % 1024 == -512) ? 1 : 0;
    const std::int64_t want = reference_mac(t.a, t.x, t.b);
    rails += (want == -32768 || want == 32767) ? 1 : 0;
    const auto got = Word16::mac(Word16::from_raw(t.a), Word16::from_raw(t.x),
                                 Word16::from_raw(t.b))
                         .raw();
    if (got != want) {
      if (mismatches++ == 0) {
        ADD_FAILURE() << "first mismatch at a=" << t.a << " x=" << t.x
                      << " b=" << t.b << ": got " << got << ", want " << want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << triples.size() << " triples";
  EXPECT_GT(ties, 10000u);
  EXPECT_GT(rails, 1000u);
}

TEST(Rng, IsDeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DiffersAcrossSeeds) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NormalHasRoughlyUnitMoments) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Table, RendersAlignedAsciiWithHeader) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"bb", "22"});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("demo"), std::string::npos);
  EXPECT_NE(ascii.find("alpha"), std::string::npos);
  EXPECT_NE(ascii.find("22"), std::string::npos);
}

TEST(Table, CsvHasOneLinePerRowPlusHeader) {
  Table t;
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  const std::string csv = t.to_csv();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(Table, NumFormatsWithRequestedPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

}  // namespace
}  // namespace nova
