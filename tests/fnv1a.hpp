// 64-bit FNV-1a digest shared by the golden tests: they fold every output
// bit of a run into one value and compare it with a committed table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace nova::golden {

/// 64-bit FNV-1a over the exact bytes of what it is fed.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  /// Doubles hash by bit pattern: "identical" means bit-identical.
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

}  // namespace nova::golden
