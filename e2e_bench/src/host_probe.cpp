#include "host_probe.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace e2e {

ProbeResult run_host_probe() {
  constexpr int kRounds = 4;
  constexpr std::size_t kValues = 100000;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t state = 88172645463325252ULL;  // xorshift64, fixed seed
  std::uint64_t checksum = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::uint64_t> values(kValues);
    for (auto& v : values) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      v = state;
    }
    std::sort(values.begin(), values.end());
    std::unordered_map<std::uint64_t, std::vector<int>> buckets;
    for (std::size_t i = 0; i < values.size(); ++i) {
      buckets[values[i] % 5003].push_back(static_cast<int>(i));
    }
    std::map<std::uint64_t, std::string> tree;
    for (std::size_t i = 0; i < values.size(); i += 8) {
      tree.emplace(values[i] >> 3, std::to_string(i));
    }
    checksum = checksum * 31 + buckets.size() + tree.size() + values[kValues / 2];
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return {elapsed.count(), checksum};
}

}  // namespace e2e
