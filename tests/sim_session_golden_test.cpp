// Golden digests of core::SimSession over a datapath sweep.
//
// Each config (function x breakpoints x host deployment) runs one session
// over uneven, multi-wave per-router streams that include inputs outside
// the fit domain and past the Word16 rails, and folds the result into one
// FNV-1a digest: every output bit, accel_cycles, noc_cycles,
// wave_latency_cycles and the rendered stats table (every counter). The
// breakpoints {8, 16, 32, 64} at 8 pairs per flit give NoC clock
// multipliers 1, 2, 4 and 8, so the sweep covers one- to eight-flit
// trains. A change to how the session quantizes, looks up, captures or
// multiplies -- or to when a wave completes -- changes a digest.
//
// A second test checks every output against a reference built directly
// from table.boundaries() and quantized_pair(), not through the table's
// quantized lookup or eval_fixed.
//
// On a mismatch the digest test prints the config's recomputed table line,
// so a deliberate behaviour change can be re-captured by pasting it over
// the table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "approx/mlp_fitter.hpp"
#include "common/rng.hpp"
#include "core/mapper.hpp"
#include "core/overlay.hpp"
#include "core/sim_session.hpp"
#include "fnv1a.hpp"

namespace nova::core {
namespace {

using approx::NonLinearFn;
using golden::Fnv1a;

struct SweepPoint {
  NonLinearFn fn = NonLinearFn::kGelu;
  int breakpoints = 16;
  hw::AcceleratorKind host = hw::AcceleratorKind::kTpuV4;

  [[nodiscard]] std::string name() const {
    return std::string(approx::to_string(fn)) + "/bp" +
           std::to_string(breakpoints) + "/" +
           (host == hw::AcceleratorKind::kTpuV4 ? "tpuv4" : "nvdla");
  }
};

std::vector<SweepPoint> sweep() {
  std::vector<SweepPoint> points;
  for (const auto fn : {NonLinearFn::kGelu, NonLinearFn::kExp,
                        NonLinearFn::kTanh, NonLinearFn::kSigmoid}) {
    for (const int bp : {8, 16, 32, 64}) {
      for (const auto host :
           {hw::AcceleratorKind::kTpuV4, hw::AcceleratorKind::kJetsonNvdla}) {
        points.push_back({fn, bp, host});
      }
    }
  }
  return points;
}

/// Uneven per-router streams: router r gets 2-4 full waves plus a partial
/// one, and the last router less than one wave. Most inputs fall in the
/// fit domain; the rest sit just outside it, far past the Word16 rails,
/// or exactly on a segment boundary.
std::vector<std::vector<double>> streams(const NovaConfig& config,
                                         const approx::PwlTable& table,
                                         std::uint64_t seed) {
  const auto npr = static_cast<std::size_t>(config.neurons_per_router);
  const auto routers = static_cast<std::size_t>(config.routers);
  const auto domain = table.domain();
  const auto& bounds = table.boundaries();
  Rng rng(seed);
  std::vector<std::vector<double>> inputs(routers);
  for (std::size_t r = 0; r < routers; ++r) {
    const std::size_t len = r + 1 == routers
                                ? npr / 2 + 1
                                : (2 + r % 3) * npr + (r * 37 + 11) % npr;
    auto& stream = inputs[r];
    stream.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t kind = rng.next_below(20);
      if (kind < 15) {
        stream.push_back(rng.uniform(domain.lo, domain.hi));
      } else if (kind < 17) {
        stream.push_back(rng.uniform(domain.lo - domain.width(),
                                     domain.hi + domain.width()));
      } else if (kind < 18) {
        stream.push_back(rng.uniform(-1e4, 1e4));
      } else if (!bounds.empty()) {
        stream.push_back(bounds[rng.next_below(bounds.size())]);
      } else {
        stream.push_back(domain.lo);
      }
    }
  }
  return inputs;
}

struct Run {
  std::vector<std::vector<double>> inputs;
  ApproxResult result;
  int noc_clock_multiplier = 0;
};

Run run(const SweepPoint& p) {
  const auto config = make_overlay(p.host).nova;
  const auto& table = approx::PwlLibrary::instance().get(p.fn, p.breakpoints);
  Run out;
  out.inputs = streams(config, table,
                       static_cast<std::uint64_t>(p.fn) * 100 +
                           static_cast<std::uint64_t>(p.breakpoints));
  out.noc_clock_multiplier =
      make_schedule(table, config.pairs_per_flit).noc_clock_multiplier;
  SimSession session(config, table, out.inputs);
  out.result = session.run();
  return out;
}

std::uint64_t digest(const ApproxResult& result) {
  Fnv1a h;
  h.u64(result.outputs.size());
  for (const auto& stream : result.outputs) {
    h.u64(stream.size());
    for (const double y : stream) h.f64(y);
  }
  h.i64(static_cast<std::int64_t>(result.accel_cycles));
  h.i64(static_cast<std::int64_t>(result.noc_cycles));
  h.i64(result.wave_latency_cycles);
  h.str(result.stats.to_table().to_ascii());
  return h.value();
}

struct Golden {
  const char* name;
  std::uint64_t digest;
};

// clang-format off
constexpr Golden kGoldens[] = {
    {"gelu/bp8/tpuv4", 0x6b7d9a1917335ea2ULL},
    {"gelu/bp8/nvdla", 0x6072f1bc2afb723bULL},
    {"gelu/bp16/tpuv4", 0x648c76df701b4411ULL},
    {"gelu/bp16/nvdla", 0x31386919e48ab6d3ULL},
    {"gelu/bp32/tpuv4", 0x5f5126ef32da7533ULL},
    {"gelu/bp32/nvdla", 0x1f7bf802e084139bULL},
    {"gelu/bp64/tpuv4", 0x36c80fd732d67be0ULL},
    {"gelu/bp64/nvdla", 0x47f3e4961a89ee5dULL},
    {"exp/bp8/tpuv4", 0x57fa982387a2c067ULL},
    {"exp/bp8/nvdla", 0xedfabf5833c1669bULL},
    {"exp/bp16/tpuv4", 0x32166f760ddc0644ULL},
    {"exp/bp16/nvdla", 0x4851e0a46917fb25ULL},
    {"exp/bp32/tpuv4", 0xbb67e98511a55d33ULL},
    {"exp/bp32/nvdla", 0x6f226181e3916629ULL},
    {"exp/bp64/tpuv4", 0x75afa3e6544b1c9fULL},
    {"exp/bp64/nvdla", 0x02ab2876b9253297ULL},
    {"tanh/bp8/tpuv4", 0xc7437ac2be41ce59ULL},
    {"tanh/bp8/nvdla", 0x1434486bc7cefb2aULL},
    {"tanh/bp16/tpuv4", 0xe750caf7bcd655c1ULL},
    {"tanh/bp16/nvdla", 0x5fa757bd4393f239ULL},
    {"tanh/bp32/tpuv4", 0x36f0c99d547a4e3cULL},
    {"tanh/bp32/nvdla", 0x246890b1971522eeULL},
    {"tanh/bp64/tpuv4", 0x291733d028cec20eULL},
    {"tanh/bp64/nvdla", 0xce1ded8fb565fbf8ULL},
    {"sigmoid/bp8/tpuv4", 0xfda89984802b3351ULL},
    {"sigmoid/bp8/nvdla", 0x6604902d2896fc32ULL},
    {"sigmoid/bp16/tpuv4", 0x325b448d956a517fULL},
    {"sigmoid/bp16/nvdla", 0x24b84a2202a98ab6ULL},
    {"sigmoid/bp32/tpuv4", 0xd4bfd54408b013d2ULL},
    {"sigmoid/bp32/nvdla", 0x0225a733a018680bULL},
    {"sigmoid/bp64/tpuv4", 0x58cfe0616763f79fULL},
    {"sigmoid/bp64/nvdla", 0x8b5f356ca9d05268ULL},
};
// clang-format on

TEST(SimSessionGolden, EveryConfigMatchesItsCommittedDigest) {
  std::map<std::string, std::uint64_t> want;
  for (const auto& g : kGoldens) want.emplace(g.name, g.digest);

  const auto points = sweep();
  EXPECT_EQ(want.size(), points.size()) << "golden table out of date";
  std::set<int> multipliers;
  for (const auto& p : points) {
    const auto r = run(p);
    multipliers.insert(r.noc_clock_multiplier);
    const std::uint64_t got = digest(r.result);
    const auto it = want.find(p.name());
    if (it == want.end() || it->second != got) {
      char line[128];
      std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxULL},",
                    p.name().c_str(), static_cast<unsigned long long>(got));
      ADD_FAILURE() << "digest mismatch for " << p.name() << "\n" << line;
    }
  }
  EXPECT_EQ(multipliers, (std::set<int>{1, 2, 4, 8}));
}

TEST(SimSessionGolden, OutputsMatchTheBoundaryReference) {
  for (const auto& p : sweep()) {
    const auto r = run(p);
    const auto& table =
        approx::PwlLibrary::instance().get(p.fn, p.breakpoints);
    const auto& bounds = table.boundaries();
    ASSERT_EQ(r.result.outputs.size(), r.inputs.size()) << p.name();
    std::size_t mismatches = 0;
    for (std::size_t s = 0; s < r.inputs.size(); ++s) {
      ASSERT_EQ(r.result.outputs[s].size(), r.inputs[s].size()) << p.name();
      for (std::size_t i = 0; i < r.inputs[s].size(); ++i) {
        const Word16 xq = Word16::from_double(r.inputs[s][i]);
        const auto addr = std::upper_bound(bounds.begin(), bounds.end(),
                                           xq.to_double()) -
                          bounds.begin();
        const auto pair = table.quantized_pair(static_cast<int>(addr));
        const double want = Word16::mac(pair.slope, xq, pair.bias).to_double();
        if (r.result.outputs[s][i] != want && mismatches++ == 0) {
          ADD_FAILURE() << p.name() << ": router " << s << " element " << i
                        << " (x = " << r.inputs[s][i] << ") gave "
                        << r.result.outputs[s][i] << ", want " << want;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << p.name();
  }
}

}  // namespace
}  // namespace nova::core
