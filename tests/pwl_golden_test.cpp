// Golden digests of the default MLP-fit PWL tables.
//
// The default tables are every function in approx::all_functions() at
// {4, 8, 16, 32, 64} breakpoints, trained by fit_mlp with MlpFitOptions{}.
// Each table folds into one FNV-1a digest over its segment count and the
// bit pattern of every boundary, slope and bias, so a change to how the
// trainer seeds, steps, snapshots or extracts pieces -- down to the order
// of one floating-point sum -- changes a digest.
//
// On a mismatch the test prints the table's recomputed line, so a
// deliberate change to the trainer can be re-captured by pasting it over
// the table.
//
// The same tables are the reference for the bake check: the build trains
// them once more (nova_pwl_bake) and PwlLibrary serves that copy, which
// must equal fit_mlp bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "approx/mlp_fitter.hpp"
#include "fnv1a.hpp"

namespace nova::approx {
namespace {

using golden::Fnv1a;

struct DefaultKey {
  NonLinearFn fn;
  int breakpoints;

  [[nodiscard]] std::string name() const {
    return std::string(to_string(fn)) + "/bp" + std::to_string(breakpoints);
  }
};

std::vector<DefaultKey> default_keys() {
  std::vector<DefaultKey> keys;
  for (const NonLinearFn fn : all_functions()) {
    for (const int bp : {4, 8, 16, 32, 64}) keys.push_back({fn, bp});
  }
  return keys;
}

/// fit_mlp of every default key, trained once per process; the keys are
/// independent, so they train on up to hardware_concurrency() threads.
const std::vector<PwlTable>& trained_defaults() {
  static const std::vector<PwlTable> tables = [] {
    const std::vector<DefaultKey> keys = default_keys();
    std::vector<PwlTable> out(keys.size());
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      for (std::size_t i = next++; i < keys.size(); i = next++) {
        out[i] = fit_mlp(keys[i].fn, keys[i].breakpoints);
      }
    };
    const std::size_t threads = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, keys.size());
    std::vector<std::thread> pool;
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
    worker();
    for (auto& thread : pool) thread.join();
    return out;
  }();
  return tables;
}

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

std::uint64_t digest(const PwlTable& table) {
  Fnv1a h;
  h.i64(table.breakpoints());
  for (const double b : table.boundaries()) h.f64(b);
  for (const double s : table.slopes()) h.f64(s);
  for (const double c : table.biases()) h.f64(c);
  return h.value();
}

struct Golden {
  const char* name;
  std::uint64_t digest;
};

// Captured from the serial trainer before it was vectorized; never
// re-captured since.
constexpr Golden kGoldens[] = {
    {"exp/bp4", 0xce4cb087dbd25590ULL},
    {"exp/bp8", 0xf016075011cd4fcaULL},
    {"exp/bp16", 0x89ffd09c577d3431ULL},
    {"exp/bp32", 0xddd45665361ade0eULL},
    {"exp/bp64", 0x2c7a28491aa48563ULL},
    {"reciprocal/bp4", 0x40ed261612dce4e3ULL},
    {"reciprocal/bp8", 0x1d59e9d0c10087d7ULL},
    {"reciprocal/bp16", 0x32eb3110396cac63ULL},
    {"reciprocal/bp32", 0x9a7ab222a4ece232ULL},
    {"reciprocal/bp64", 0x2fe330335eeb31b9ULL},
    {"gelu/bp4", 0x7ca12968c0bcf6cdULL},
    {"gelu/bp8", 0x8ab29b5c64caa655ULL},
    {"gelu/bp16", 0x29054f4602d8d9b5ULL},
    {"gelu/bp32", 0xcffa06ed2a6acf4aULL},
    {"gelu/bp64", 0xd0def9fa0d6fa4aeULL},
    {"tanh/bp4", 0xf7f71a4b2124f9edULL},
    {"tanh/bp8", 0x1028461b2b097a33ULL},
    {"tanh/bp16", 0x8e9e4bff282c15abULL},
    {"tanh/bp32", 0x87d9e3f8ca25a9c1ULL},
    {"tanh/bp64", 0x84e516867ce67ea5ULL},
    {"sigmoid/bp4", 0x098ae51b6ee418ffULL},
    {"sigmoid/bp8", 0x46a6ab8e54970ee7ULL},
    {"sigmoid/bp16", 0x9e526d318fb9f9d7ULL},
    {"sigmoid/bp32", 0x364a3c6af63dca54ULL},
    {"sigmoid/bp64", 0x77875f712c97cc8eULL},
    {"erf/bp4", 0xfc053a3f15c9f48dULL},
    {"erf/bp8", 0x3e20e4e6abe012e0ULL},
    {"erf/bp16", 0x6b56dd235670b96cULL},
    {"erf/bp32", 0xe3020e905620b00aULL},
    {"erf/bp64", 0xf00f2792ff78851eULL},
    {"silu/bp4", 0x39934f6d339652d3ULL},
    {"silu/bp8", 0xdc02233133ad9165ULL},
    {"silu/bp16", 0x27d2fe16988e7029ULL},
    {"silu/bp32", 0xbd5a0acdcb394e83ULL},
    {"silu/bp64", 0x76ba71dae0a8bcabULL},
    {"softplus/bp4", 0xde5637b6a4029dc0ULL},
    {"softplus/bp8", 0x38c8b4b8a6d68b82ULL},
    {"softplus/bp16", 0x6708029c60088574ULL},
    {"softplus/bp32", 0xf0a161ba7feffa1fULL},
    {"softplus/bp64", 0x9810901c7fc6749cULL},
    {"rsqrt/bp4", 0xe328bf4c58ecab3dULL},
    {"rsqrt/bp8", 0xbcb457446ec888dcULL},
    {"rsqrt/bp16", 0xb8a499967e88321aULL},
    {"rsqrt/bp32", 0x7f376a2175e3e4edULL},
    {"rsqrt/bp64", 0x6a4907cbdf74ab09ULL},
};

TEST(PwlGolden, DefaultTablesMatchCommittedDigests) {
  const std::vector<DefaultKey> keys = default_keys();
  const std::vector<PwlTable>& tables = trained_defaults();
  ASSERT_EQ(keys.size(), std::size(kGoldens));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(kGoldens[i].name, keys[i].name());
    EXPECT_EQ(tables[i].breakpoints(), keys[i].breakpoints);
    const std::uint64_t got = digest(tables[i]);
    if (got != kGoldens[i].digest) {
      char line[96];
      std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxULL},",
                    keys[i].name().c_str(),
                    static_cast<unsigned long long>(got));
      ADD_FAILURE() << "digest mismatch for " << keys[i].name() << "\n"
                    << line;
    }
  }
}

// The bake check: a fresh library serves every baked key without training,
// and each table is bit for bit what fit_mlp trains now.
TEST(PwlBake, BakedTablesMatchRetrainedTables) {
  std::vector<DefaultKey> baked;
  for (const NonLinearFn fn : all_functions()) {
    for (const int bp : kBakedBreakpoints) baked.push_back({fn, bp});
  }
  const std::vector<DefaultKey> keys = default_keys();
  ASSERT_EQ(baked.size(), keys.size());
  const std::vector<PwlTable>& trained = trained_defaults();
  PwlLibrary library;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(baked[i].name(), keys[i].name());
    const PwlTable& served = library.get(keys[i].fn, keys[i].breakpoints);
    const PwlTable& want = trained[i];
    EXPECT_EQ(served.fn(), want.fn()) << keys[i].name();
    EXPECT_EQ(served.label(), want.label()) << keys[i].name();
    EXPECT_EQ(served.domain().lo, want.domain().lo) << keys[i].name();
    EXPECT_EQ(served.domain().hi, want.domain().hi) << keys[i].name();
    EXPECT_EQ(bits(served.boundaries()), bits(want.boundaries()))
        << keys[i].name();
    EXPECT_EQ(bits(served.slopes()), bits(want.slopes())) << keys[i].name();
    EXPECT_EQ(bits(served.biases()), bits(want.biases())) << keys[i].name();
  }
  EXPECT_EQ(library.trained(), 0u);
}

}  // namespace
}  // namespace nova::approx
