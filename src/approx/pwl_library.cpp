#include <optional>
#include <utility>

#include "approx/baked_pwl_tables.hpp"  // generated by nova_pwl_bake
#include "approx/mlp_fitter.hpp"

namespace nova::approx {

namespace {

/// The table baked for (fn, breakpoints) at build time, or nullopt when
/// the key is not baked.
std::optional<PwlTable> baked_table(NonLinearFn fn, int breakpoints) {
  for (const BakedPwlTable& t : baked::kTables) {
    if (t.fn != fn || t.breakpoints != breakpoints) continue;
    const auto n = static_cast<std::size_t>(breakpoints);
    return PwlTable(fn, default_domain(fn),
                    {t.boundaries, t.boundaries + n - 1},
                    {t.slopes, t.slopes + n}, {t.biases, t.biases + n});
  }
  return std::nullopt;
}

}  // namespace

const PwlTable& PwlLibrary::get(NonLinearFn fn, int breakpoints) {
  const Key key{fn, breakpoints};
  // std::map references are stable across inserts, so handing the table
  // out by reference after unlocking is safe.
  const std::scoped_lock lock(mutex_);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    std::optional<PwlTable> table = baked_table(fn, breakpoints);
    if (!table) {
      table = fit_mlp(fn, breakpoints);
      ++trained_;
    }
    it = tables_.emplace(key, std::move(*table)).first;
  }
  return it->second;
}

std::size_t PwlLibrary::trained() const {
  const std::scoped_lock lock(mutex_);
  return trained_;
}

PwlLibrary& PwlLibrary::instance() {
  static PwlLibrary library;
  return library;
}

}  // namespace nova::approx
