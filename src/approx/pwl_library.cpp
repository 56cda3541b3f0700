#include <utility>
#include <vector>

#include "approx/baked_pwl_tables.hpp"  // generated by nova_pwl_bake
#include "approx/mlp_fitter.hpp"

namespace nova::approx {

namespace {

/// The build-time arrays of (fn, breakpoints), or null when the key is not
/// baked.
const BakedPwlTable* find_baked(NonLinearFn fn, int breakpoints) {
  for (const BakedPwlTable& t : baked::kTables) {
    if (t.fn == fn && t.breakpoints == breakpoints) return &t;
  }
  return nullptr;
}

}  // namespace

bool PwlLibrary::baked(NonLinearFn fn, int breakpoints) {
  return find_baked(fn, breakpoints) != nullptr;
}

const PwlTable& PwlLibrary::get(NonLinearFn fn, int breakpoints) {
  const Key key{fn, breakpoints};
  // std::map references are stable across inserts, and a published entry
  // is never written again, so handing the table out by reference after
  // unlocking is safe.
  std::unique_lock lock(mutex_);
  const auto [it, claimed] = tables_.try_emplace(key);
  std::optional<PwlTable>& entry = it->second;
  if (!claimed) {
    published_.wait(lock, [&] { return entry.has_value(); });
    return *entry;
  }
  if (const BakedPwlTable* t = find_baked(fn, breakpoints)) {
    const auto n = static_cast<std::size_t>(breakpoints);
    entry.emplace(fn, default_domain(fn),
                  std::vector<double>(t->boundaries, t->boundaries + n - 1),
                  std::vector<double>(t->slopes, t->slopes + n),
                  std::vector<double>(t->biases, t->biases + n));
    return *entry;
  }
  // Train unlocked: other keys are served (and trained) meanwhile, and
  // callers of this key wait on `published_` above.
  lock.unlock();
  PwlTable table = fit_mlp(fn, breakpoints);
  lock.lock();
  entry.emplace(std::move(table));
  ++trained_;
  published_.notify_all();
  return *entry;
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
