// Tests for the approximation substrate: exact functions, PWL tables,
// fitters (uniform / adaptive / MLP), fixed-point evaluation, and the
// NN-LUT-style softmax/GeLU vector operators.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "approx/fit.hpp"
#include "approx/functions.hpp"
#include "approx/interp.hpp"
#include "approx/mlp_fitter.hpp"
#include "approx/softmax.hpp"
#include "common/rng.hpp"

namespace nova::approx {
namespace {

TEST(Functions, ExactValuesMatchClosedForms) {
  EXPECT_NEAR(eval_exact(NonLinearFn::kExp, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(eval_exact(NonLinearFn::kSigmoid, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(eval_exact(NonLinearFn::kTanh, 100.0), 1.0, 1e-9);
  EXPECT_NEAR(eval_exact(NonLinearFn::kGelu, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(eval_exact(NonLinearFn::kGelu, 10.0), 10.0, 1e-6);
  EXPECT_NEAR(eval_exact(NonLinearFn::kReciprocal, 4.0), 0.25, 1e-12);
  EXPECT_NEAR(eval_exact(NonLinearFn::kRsqrt, 4.0), 0.5, 1e-12);
  EXPECT_NEAR(eval_exact(NonLinearFn::kSilu, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(eval_exact(NonLinearFn::kSoftplus, 0.0), std::log(2.0), 1e-12);
  EXPECT_NEAR(eval_exact(NonLinearFn::kErf, 0.0), 0.0, 1e-12);
}

TEST(Functions, DomainsAreNonEmptyAndOrdered) {
  for (const auto fn :
       {NonLinearFn::kExp, NonLinearFn::kReciprocal, NonLinearFn::kGelu,
        NonLinearFn::kTanh, NonLinearFn::kSigmoid, NonLinearFn::kErf,
        NonLinearFn::kSilu, NonLinearFn::kSoftplus, NonLinearFn::kRsqrt}) {
    const Domain d = default_domain(fn);
    EXPECT_LT(d.lo, d.hi) << to_string(fn);
  }
}

TEST(PwlTable, LookupAddressPartitionsTheDomain) {
  const PwlTable table = fit_uniform(NonLinearFn::kTanh, 8);
  const Domain d = table.domain();
  int prev = -1;
  for (int k = 0; k <= 200; ++k) {
    const double x = d.lo + d.width() * k / 200.0;
    const int addr = table.lookup_address(x);
    EXPECT_GE(addr, 0);
    EXPECT_LT(addr, table.breakpoints());
    EXPECT_GE(addr, prev);  // addresses are monotone in x
    prev = addr;
  }
}

TEST(PwlTable, AddressesSaturateOutsideDomain) {
  const PwlTable table = fit_uniform(NonLinearFn::kSigmoid, 16);
  EXPECT_EQ(table.lookup_address(-1e9), 0);
  EXPECT_EQ(table.lookup_address(1e9), 15);
}

TEST(PwlTable, QuantizedLookupMatchesDoubleDomainLookup) {
  // The Word16 overload (pre-scaled integer boundaries, no fixed-point ->
  // double round trip) must agree with the double path on the quantized
  // value for every representable input -- including values landing exactly
  // on and either side of each boundary, and the saturated extremes.
  for (const auto fn :
       {NonLinearFn::kGelu, NonLinearFn::kExp, NonLinearFn::kTanh,
        NonLinearFn::kRsqrt}) {
    for (const int breakpoints : {8, 16, 32}) {
      const PwlTable table = fit_uniform(fn, breakpoints);
      const Domain d = table.domain();
      Rng rng(77);
      std::vector<double> probes;
      for (int k = 0; k < 2000; ++k) {
        probes.push_back(rng.uniform(d.lo - 1.0, d.hi + 1.0));
      }
      for (const double b : table.boundaries()) {
        probes.push_back(b);
        probes.push_back(b - Word16::resolution());
        probes.push_back(b + Word16::resolution());
      }
      probes.push_back(Word16::min_value());
      probes.push_back(Word16::max_value());
      probes.push_back(-1e9);
      probes.push_back(1e9);
      for (const double x : probes) {
        const Word16 xq = Word16::from_double(x);
        EXPECT_EQ(table.lookup_address(xq), table.lookup_address(xq.to_double()))
            << to_string(fn) << " bp=" << breakpoints << " x=" << x;
      }
    }
  }
}

TEST(PwlTable, EvalIsContinuousEnoughAtBoundaries) {
  // Least-squares pieces are discontinuous at boundaries, but for smooth
  // functions with 16 segments the jump must be small.
  const PwlTable table = fit_uniform(NonLinearFn::kGelu, 16);
  for (const double b : table.boundaries()) {
    const double left = table.eval(b - 1e-9);
    const double right = table.eval(b + 1e-9);
    EXPECT_NEAR(left, right, 0.08);
  }
}

struct FitCase {
  NonLinearFn fn;
  int breakpoints;
  double tolerance;  // max-abs-error bound for the MLP fit
};

class MlpFitQuality : public ::testing::TestWithParam<FitCase> {};

TEST_P(MlpFitQuality, MaxErrorWithinTolerance) {
  const auto [fn, breakpoints, tolerance] = GetParam();
  const PwlTable table = fit_mlp(fn, breakpoints);
  EXPECT_EQ(table.breakpoints(), breakpoints);
  EXPECT_LT(table.max_abs_error(), tolerance) << to_string(fn);
}

INSTANTIATE_TEST_SUITE_P(
    PaperFunctions, MlpFitQuality,
    ::testing::Values(FitCase{NonLinearFn::kExp, 16, 0.03},
                      FitCase{NonLinearFn::kGelu, 16, 0.03},
                      FitCase{NonLinearFn::kTanh, 16, 0.03},
                      FitCase{NonLinearFn::kSigmoid, 16, 0.02},
                      FitCase{NonLinearFn::kReciprocal, 16, 0.03},
                      FitCase{NonLinearFn::kErf, 16, 0.03},
                      FitCase{NonLinearFn::kSilu, 16, 0.05},
                      FitCase{NonLinearFn::kExp, 8, 0.08},
                      FitCase{NonLinearFn::kGelu, 8, 0.08}));

class FitterComparison : public ::testing::TestWithParam<NonLinearFn> {};

TEST_P(FitterComparison, AdaptiveBeatsOrMatchesUniform) {
  const NonLinearFn fn = GetParam();
  const double uniform_err = fit_uniform(fn, 16).max_abs_error();
  const double adaptive_err = fit_adaptive(fn, 16).max_abs_error();
  EXPECT_LE(adaptive_err, uniform_err * 1.10) << to_string(fn);
}

TEST_P(FitterComparison, MoreBreakpointsNeverHurt) {
  const NonLinearFn fn = GetParam();
  const double err8 = fit_uniform(fn, 8).max_abs_error();
  const double err32 = fit_uniform(fn, 32).max_abs_error();
  EXPECT_LE(err32, err8);
}

INSTANTIATE_TEST_SUITE_P(AcrossFunctions, FitterComparison,
                         ::testing::Values(NonLinearFn::kExp,
                                           NonLinearFn::kGelu,
                                           NonLinearFn::kTanh,
                                           NonLinearFn::kSigmoid,
                                           NonLinearFn::kErf));

TEST(MlpFitter, TrainingIsDeterministicForFixedSeed) {
  const PwlTable a = fit_mlp(NonLinearFn::kTanh, 8);
  const PwlTable b = fit_mlp(NonLinearFn::kTanh, 8);
  ASSERT_EQ(a.breakpoints(), b.breakpoints());
  for (int i = 0; i < a.breakpoints(); ++i) {
    EXPECT_DOUBLE_EQ(a.slopes()[static_cast<std::size_t>(i)],
                     b.slopes()[static_cast<std::size_t>(i)]);
  }
}

TEST(PwlLibrary, MemoizesTables) {
  auto& lib = PwlLibrary::instance();
  const PwlTable& first = lib.get(NonLinearFn::kSigmoid, 16);
  const PwlTable& second = lib.get(NonLinearFn::kSigmoid, 16);
  EXPECT_EQ(&first, &second);
}

// A fresh library serves every baked key without training (trained() == 0):
// PwlBake.BakedTablesMatchRetrainedTables in pwl_golden_test checks that.
TEST(PwlLibrary, TrainsAKeyThatIsNotBakedOnceAcrossThreads) {
  PwlLibrary lib;
  std::vector<const PwlTable*> got(4, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back(
        [&, t] { got[t] = &lib.get(NonLinearFn::kGelu, 12); });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(lib.trained(), 1u);
  for (const PwlTable* table : got) EXPECT_EQ(table, got.front());
  EXPECT_EQ(got.front()->breakpoints(), 12);
}

// Unbaked keys train outside the library mutex: four threads asking for
// four different keys each train their own, and the tables are the serial
// trainer's bit for bit.
TEST(PwlLibrary, TrainsDistinctUnbakedKeysConcurrently) {
  PwlLibrary lib;
  const int breakpoints[] = {12, 13, 14, 15};
  std::vector<const PwlTable*> got(4, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    ASSERT_FALSE(PwlLibrary::baked(NonLinearFn::kGelu, breakpoints[t]));
    threads.emplace_back([&, t] {
      got[t] = &lib.get(NonLinearFn::kGelu, breakpoints[t]);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(lib.trained(), 4u);
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  for (std::size_t t = 0; t < got.size(); ++t) {
    const PwlTable serial = fit_mlp(NonLinearFn::kGelu, breakpoints[t]);
    EXPECT_TRUE(same_bits(got[t]->boundaries(), serial.boundaries()));
    EXPECT_TRUE(same_bits(got[t]->slopes(), serial.slopes()));
    EXPECT_TRUE(same_bits(got[t]->biases(), serial.biases()));
  }
}

TEST(FixedEval, TracksDoubleEvalWithinQuantization) {
  const PwlTable& table = PwlLibrary::instance().get(NonLinearFn::kGelu, 16);
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-8.0, 8.0);
    // Quantization of x, slope, and bias each contribute ~1 LSB (2^-10).
    EXPECT_NEAR(table.eval_fixed(x), table.eval(x), 0.02);
  }
}

TEST(Softmax, ExactSumsToOne) {
  std::vector<float> in{0.5f, -1.0f, 2.0f, 0.0f};
  std::vector<float> out(in.size());
  softmax_exact(in, out);
  const double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(Softmax, PwlCloseToExactForTypicalLogits) {
  const double worst = softmax_worst_error(/*n=*/64, /*breakpoints=*/16,
                                           /*trials=*/50);
  EXPECT_LT(worst, 0.02);
}

TEST(Softmax, PwlSumStaysNearOne) {
  Rng rng(17);
  std::vector<float> in(128), out(128);
  for (auto& v : in) v = static_cast<float>(rng.normal(0.0, 2.0));
  softmax_pwl(in, out, 16);
  const double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 0.05);
}

TEST(Softmax, LongSequencesExerciseRangeReduction) {
  // Sum of 1024 exp values far exceeds the reciprocal domain; the halving
  // range reduction must keep the result sane.
  Rng rng(23);
  std::vector<float> in(1024), out(1024);
  for (auto& v : in) v = static_cast<float>(rng.normal(0.0, 1.0));
  softmax_pwl(in, out, 16);
  const double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 0.08);
  for (const auto v : out) EXPECT_GE(v, -1e-3f);
}

TEST(Softmax, ArgmaxPreservedOnSeparatedLogits) {
  // The property Table I rests on: when one logit clearly dominates, the
  // approximate softmax must agree on the winner.
  Rng rng(29);
  auto& lib = PwlLibrary::instance();
  const PwlTable& exp_t = lib.get(NonLinearFn::kExp, 16);
  const PwlTable& rec_t = lib.get(NonLinearFn::kReciprocal, 16);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<float> in(10), exact(10), approx(10);
    for (auto& v : in) v = static_cast<float>(rng.normal(0.0, 1.0));
    const std::size_t winner = rng.next_below(10);
    in[winner] += 2.0f;  // separation margin
    softmax_exact(in, exact);
    softmax_pwl(in, approx, exp_t, rec_t);
    const auto exact_arg =
        std::max_element(exact.begin(), exact.end()) - exact.begin();
    const auto approx_arg =
        std::max_element(approx.begin(), approx.end()) - approx.begin();
    EXPECT_EQ(exact_arg, approx_arg);
  }
}

TEST(Gelu, PwlCloseToExact) {
  Rng rng(31);
  std::vector<float> in(256), exact(256), approx(256);
  for (auto& v : in) v = static_cast<float>(rng.normal(0.0, 2.0));
  gelu_exact(in, exact);
  gelu_pwl(in, approx, 16);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(approx[i], exact[i], 0.05);
  }
}

TEST(Softmax, OpCountFormula) {
  EXPECT_EQ(softmax_approx_ops(128), 257u);  // n exp + 1 recip + n mul
}

TEST(Functions, FromStringRoundTripsEveryFunction) {
  ASSERT_FALSE(all_functions().empty());
  for (const auto fn : all_functions()) {
    const auto parsed = from_string(to_string(fn));
    ASSERT_TRUE(parsed.has_value()) << to_string(fn);
    EXPECT_EQ(*parsed, fn);
  }
  EXPECT_FALSE(from_string("no-such-fn").has_value());
  EXPECT_FALSE(from_string("").has_value());
  EXPECT_FALSE(from_string("GELU").has_value());  // names are lower-case
}

TEST(InterpCurve, ReproducesAnchorsExactlyAndChordsBetween) {
  const auto curve =
      InterpCurve::fit({1.0, 10.0, 100.0}, {5.0, 50.0, 70.0});
  // Nodal evaluation is bit-exact -- the surrogate's anchored-exactly
  // guarantee rests on this, not on "close enough".
  EXPECT_DOUBLE_EQ(curve.eval(1.0), 5.0);
  EXPECT_DOUBLE_EQ(curve.eval(10.0), 50.0);
  EXPECT_DOUBLE_EQ(curve.eval(100.0), 70.0);
  // Chord interpolation between anchors.
  EXPECT_DOUBLE_EQ(curve.eval(5.5), 27.5);
  EXPECT_DOUBLE_EQ(curve.eval(55.0), 60.0);
  EXPECT_EQ(curve.anchors(), 3);
}

TEST(InterpCurve, ClampsOutsideTheMeasuredRange) {
  const auto curve = InterpCurve::fit({8.0, 64.0}, {3.0, 11.0});
  EXPECT_DOUBLE_EQ(curve.eval(1.0), 3.0);
  EXPECT_DOUBLE_EQ(curve.eval(1e9), 11.0);
}

TEST(InterpCurve, MonotoneFitClampsNoiseButPlainFitDoesNot) {
  // A small downward wobble in measured ys: fit_monotone irons it flat,
  // fit preserves it (calibration rates carry no monotonicity contract).
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> ys = {10.0, 9.5, 12.0};
  const auto monotone = InterpCurve::fit_monotone(xs, ys);
  EXPECT_DOUBLE_EQ(monotone.eval(2.0), 10.0);
  for (double x = 1.0; x <= 3.0; x += 0.125) {
    EXPECT_GE(monotone.eval(x + 0.125), monotone.eval(x));
  }
  const auto plain = InterpCurve::fit(xs, ys);
  EXPECT_DOUBLE_EQ(plain.eval(2.0), 9.5);
}

TEST(InterpCurve, SingleAnchorYieldsAConstantCurve) {
  const auto curve = InterpCurve::fit({42.0}, {7.0});
  EXPECT_DOUBLE_EQ(curve.eval(0.0), 7.0);
  EXPECT_DOUBLE_EQ(curve.eval(42.0), 7.0);
  EXPECT_DOUBLE_EQ(curve.eval(1e6), 7.0);
}

TEST(InterpCurveDeathTest, RejectsUnsortedOrMismatchedAnchors) {
  EXPECT_DEATH((void)InterpCurve::fit({2.0, 1.0}, {0.0, 1.0}),
               "precondition");
  EXPECT_DEATH((void)InterpCurve::fit({1.0, 1.0}, {0.0, 1.0}),
               "precondition");
  EXPECT_DEATH((void)InterpCurve::fit({1.0}, {0.0, 1.0}), "precondition");
  EXPECT_DEATH((void)InterpCurve::fit({}, {}), "precondition");
}

}  // namespace
}  // namespace nova::approx
