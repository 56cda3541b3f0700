// A deterministic index-parallel loop over a short-lived worker pool.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/assert.hpp"

namespace nova {

/// Calls body(i) once for every i in [0, count) on up to `threads` workers,
/// or on the calling thread alone when one worker suffices. Workers claim
/// indices off a shared counter, so the outcome is independent of the
/// interleaving as long as body(i) only writes what index i owns (its own
/// pre-sized result slot, say).
template <typename Body>
void parallel_for(std::size_t count, int threads, const Body& body) {
  NOVA_EXPECTS(threads >= 1);
  const auto workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < count;
           i = next.fetch_add(1)) {
        body(i);
      }
    });
  }
  for (auto& worker : pool) worker.join();
}

}  // namespace nova
