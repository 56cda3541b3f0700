// nova_pwl_bake: trains the default PWL tables at build time.
//
//   nova_pwl_bake OUT.hpp
//
// Trains fit_mlp(fn, breakpoints) for every fn in all_functions() at each
// of kBakedBreakpoints and writes the tables' boundaries, slopes and
// biases to OUT.hpp as hex-float constexpr arrays, which PwlLibrary serves
// instead of training. Hex floats round-trip every bit. The keys are
// independent, so they train on up to hardware_concurrency() threads; the
// output does not depend on the thread count.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <thread>
#include <vector>

#include "approx/mlp_fitter.hpp"

namespace {

using nova::approx::NonLinearFn;
using nova::approx::PwlTable;

struct Key {
  NonLinearFn fn;
  int breakpoints;
};

/// Writes `inline constexpr double <name><id>[] = {...};` in hex floats.
/// Returns false when a value is not finite (no literal spells it).
bool write_array(std::ostream& out, const char* name, std::size_t id,
                 const std::vector<double>& values) {
  out << "inline constexpr double " << name << id << "[] = {";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) return false;
    out << (i % 3 == 0 ? "\n    " : " ") << values[i] << ',';
  }
  out << "\n};\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: nova_pwl_bake OUT.hpp\n";
    return 2;
  }
  // Largest tables first, so the last ones to finish are short.
  const auto& breakpoints = nova::approx::kBakedBreakpoints;
  std::vector<Key> keys;
  for (auto bp = std::rbegin(breakpoints); bp != std::rend(breakpoints); ++bp) {
    for (const NonLinearFn fn : nova::approx::all_functions()) {
      keys.push_back({fn, *bp});
    }
  }

  std::vector<PwlTable> tables(keys.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < keys.size(); i = next++) {
      tables[i] = nova::approx::fit_mlp(keys[i].fn, keys[i].breakpoints);
    }
  };
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, keys.size());
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& thread : pool) thread.join();

  std::ostringstream out;
  out << std::hexfloat
      << "// Generated by nova_pwl_bake (src/approx/bake_tables.cpp): the\n"
         "// fit_mlp tables of every baked key. Do not edit.\n"
         "#pragma once\n\n"
         "#include \"approx/mlp_fitter.hpp\"\n\n"
         "namespace nova::approx::baked {\n";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out << "\n// " << tables[i].label() << ", " << keys[i].breakpoints
        << " breakpoints\n";
    if (!write_array(out, "kBoundaries", i, tables[i].boundaries()) ||
        !write_array(out, "kSlopes", i, tables[i].slopes()) ||
        !write_array(out, "kBiases", i, tables[i].biases())) {
      std::cerr << "nova_pwl_bake: " << tables[i].label() << " at "
                << keys[i].breakpoints << " breakpoints is not finite\n";
      return 1;
    }
  }
  out << "\ninline constexpr BakedPwlTable kTables[] = {\n";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out << "    {static_cast<NonLinearFn>(" << static_cast<int>(keys[i].fn)
        << "), " << keys[i].breakpoints << ", kBoundaries" << i
        << ", kSlopes" << i << ", kBiases" << i << "},\n";
  }
  out << "};\n\n}  // namespace nova::approx::baked\n";

  std::ofstream file(argv[1], std::ios::binary | std::ios::trunc);
  file << out.str();
  if (!file.flush()) {
    std::cerr << "nova_pwl_bake: cannot write " << argv[1] << "\n";
    return 1;
  }
  return 0;
}
