// Pinned-digest helpers shared by the digest tests: an FNV-1a hash over
// 64-bit words and a comparison against a table of pinned cell digests.
#pragma once

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace wcds::testing {

// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(const std::string& text) {
    add(text.size());
    for (const char c : text) add(static_cast<std::uint64_t>(c));
  }
  template <typename T>
  void add_all(const std::vector<T>& values) {
    add(values.size());
    for (const T& v : values) add(static_cast<std::uint64_t>(v));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

using Cells = std::map<std::string, std::uint64_t>;

// Compare computed digests against the pinned table; a mismatch or a
// missing entry prints the computed line in table syntax.
inline void expect_pinned(const Cells& computed, const Cells& pinned) {
  for (const auto& [name, digest] : computed) {
    const auto it = pinned.find(name);
    std::ostringstream line;
    line << "{\"" << name << "\", 0x" << std::hex << digest << "ULL},";
    if (it == pinned.end()) {
      ADD_FAILURE() << "unpinned cell " << line.str();
    } else {
      EXPECT_EQ(it->second, digest) << "cell " << line.str();
    }
  }
  EXPECT_EQ(computed.size(), pinned.size());
}

}  // namespace wcds::testing
