// NN-LUT-style breakpoint learning (paper Section IV): a 2-layer MLP with
// ReLU hidden units is trained offline to regress the non-linear function;
// since a 1-D ReLU MLP *is* a piecewise-linear function, the trained
// network is converted exactly into a PwlTable. The number of hidden nodes
// sets the number of breakpoints ("the number of nodes in the hidden layer
// represent the number of breakpoints").
//
// Offline means at build time for the default tables: the nova_pwl_bake
// generator trains every function in all_functions() at each of
// kBakedBreakpoints with MlpFitOptions{}, and PwlLibrary serves those keys
// from the generated arrays without training. fit_mlp itself always
// trains; it is the reference the baked tables are checked against.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>

#include "approx/pwl.hpp"

namespace nova::approx {

/// Training hyper-parameters for the offline fit.
struct MlpFitOptions {
  int iterations = 4000;
  int samples = 512;          ///< training points over the fit domain
  double learning_rate = 2e-3;
  std::uint64_t seed = 7;
  /// Keep hidden-unit kinks ordered and inside the domain by re-projecting
  /// every `reproject_every` steps (stabilizes training; 0 disables).
  int reproject_every = 200;
};

/// Trains the MLP and converts it to a PWL table with exactly `breakpoints`
/// segments (hidden width = breakpoints - 1 kinks).
[[nodiscard]] PwlTable fit_mlp(NonLinearFn fn, int breakpoints, Domain domain,
                               const MlpFitOptions& options = {});
[[nodiscard]] PwlTable fit_mlp(NonLinearFn fn, int breakpoints);
/// Same for a user-defined function: maps any custom activation onto the
/// NOVA/NN-LUT hardware.
[[nodiscard]] PwlTable fit_mlp(const ScalarFn& fn, std::string label,
                               int breakpoints, Domain domain,
                               const MlpFitOptions& options = {});

/// Breakpoint counts whose fit_mlp(fn, breakpoints) tables are trained at
/// build time, for every fn in all_functions(): 45 baked keys.
inline constexpr int kBakedBreakpoints[] = {4, 8, 16, 32, 64};

/// One baked table as the build-time generator emits it: the arrays of a
/// PwlTable over default_domain(fn), bit for bit.
struct BakedPwlTable {
  NonLinearFn fn;
  int breakpoints;
  const double* boundaries;  ///< breakpoints - 1
  const double* slopes;      ///< breakpoints
  const double* biases;      ///< breakpoints
};

/// A memoizing PWL provider, reused across benches/examples/the mapper.
/// get() is thread-safe (the serving layer's worker pool shares the
/// process-wide instance); returned references stay valid for the
/// library's lifetime.
class PwlLibrary {
 public:
  /// Returns the MLP-fit table for (fn, breakpoints). Every instance
  /// serves the baked keys from the build-time arrays; any other key is
  /// trained by fit_mlp on first use. The first caller claims the key and
  /// trains it outside the library mutex, so different keys train in
  /// parallel; a caller asking for a key that is still training waits for
  /// it instead of training it again.
  const PwlTable& get(NonLinearFn fn, int breakpoints);

  /// True when (fn, breakpoints) is served from the build-time arrays.
  [[nodiscard]] static bool baked(NonLinearFn fn, int breakpoints);

  /// Number of tables this instance has trained (baked keys never count).
  [[nodiscard]] std::size_t trained() const;

  /// Process-wide shared library instance.
  static PwlLibrary& instance();

 private:
  struct Key {
    NonLinearFn fn;
    int breakpoints;
    bool operator<(const Key& o) const {
      if (fn != o.fn) return fn < o.fn;
      return breakpoints < o.breakpoints;
    }
  };
  mutable std::mutex mutex_;
  /// Signalled whenever a trained table is published.
  std::condition_variable published_;
  /// An empty entry is a key claimed by a caller that is training it.
  std::map<Key, std::optional<PwlTable>> tables_;
  std::size_t trained_ = 0;
};

}  // namespace nova::approx
