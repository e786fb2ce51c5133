// Seeded Bloom filters for clusterhead-side service advertisement.
//
// Each clusterhead summarizes the service names its domain members advertise
// as a Bloom filter (the DS-SCN supernode scheme): m bits, k probe positions
// per key derived by seeded double hashing
//
//     position_i = (h1 + i * h2) mod m,   i = 0 .. k-1,   h2 forced odd,
//
// where h1/h2 come from two SplitMix64 finalizer passes over (key, seed).
// An odd h2 is coprime with the power-of-two-free modulus walk, so the k
// positions never collapse onto one bit.  With n inserted keys the false-
// positive probability is the classical  p = (1 - e^(-k n / m))^k ; the
// filter exposes that prediction so benchmarks can compare measured vs.
// theoretical FP rates (bench_a7, B-sweep).
//
// A false positive never causes misdelivery: the serving engine confirms
// candidates against the exact per-domain registry at the candidate
// clusterhead, so an FP only costs the probe trip (docs/SERVING.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace wcds::service {

struct BloomParams {
  // Bits reserved per expected entry (m = bits_per_entry * expected).
  std::uint32_t bits_per_entry = 10;

  // Probe positions per key; 0 selects the optimum round(bits_per_entry *
  // ln 2), which minimizes the false-positive rate for the chosen density.
  std::uint32_t hashes = 0;

  // Hash-family seed.  All filters of one deployment share it, so a key
  // probes the same positions in every domain's filter.
  std::uint64_t seed = 0x5eedB100F117e2ULL;

  friend bool operator==(const BloomParams&, const BloomParams&) = default;
};

class BloomFilter {
 public:
  // An empty filter sized for `expected_entries` keys (at least one word).
  BloomFilter(const BloomParams& params, std::size_t expected_entries);

  void insert(std::uint64_t key);
  [[nodiscard]] bool may_contain(std::uint64_t key) const;

  // The hash_count() bit positions `key` probes, written to the front of
  // `out` (which must hold that many).  They depend only on the key, the
  // bit count, the hash count and the seed, so a key tested against many
  // filters alike in those is hashed once.  has_bits takes such positions
  // (all hash_count() of them, from a filter of this bit count) and answers
  // exactly what may_contain(key) does.
  void probe_bits(std::uint64_t key, std::span<std::uint64_t> out) const;
  [[nodiscard]] bool has_bits(std::span<const std::uint64_t> bits) const;

  [[nodiscard]] std::size_t bit_count() const { return bit_count_; }
  [[nodiscard]] std::uint32_t hash_count() const { return hashes_; }
  [[nodiscard]] std::size_t entry_count() const { return entries_; }

  // Classical FP prediction (1 - e^(-k n / m))^k for the current n.
  [[nodiscard]] double predicted_fp_rate() const;

  // FNV-1a 64-bit digest of a service name: the canonical Bloom key.
  [[nodiscard]] static std::uint64_t key_of(std::string_view name);

 private:
  template <typename Visit>
  bool walk_probes(std::uint64_t key, Visit visit) const;

  std::vector<std::uint64_t> words_;
  std::size_t bit_count_ = 0;
  std::uint32_t hashes_ = 1;
  std::uint64_t seed_ = 0;
  std::size_t entries_ = 0;
};

}  // namespace wcds::service
