#include "service/bloom.h"

#include <algorithm>
#include <cmath>

#include "check/check.h"
#include "geom/rng.h"

namespace wcds::service {

namespace {

constexpr double kLn2 = 0.6931471805599453;

// SplitMix64 finalizer over (key, seed): one next() of a generator seeded
// with their xor-fold gives a well-mixed 64-bit digest.
std::uint64_t mix(std::uint64_t key, std::uint64_t seed) {
  return geom::SplitMix64(key ^ (seed * 0x9E3779B97F4A7C15ULL)).next();
}

}  // namespace

BloomFilter::BloomFilter(const BloomParams& params,
                         std::size_t expected_entries)
    : seed_(params.seed) {
  WCDS_REQUIRE(params.bits_per_entry > 0,
               "BloomFilter: bits_per_entry must be positive");
  std::size_t bits = params.bits_per_entry * std::max<std::size_t>(
                                                 expected_entries, 1);
  bits = (bits + 63) / 64 * 64;  // whole words
  bit_count_ = bits;
  words_.assign(bits / 64, 0);
  if (params.hashes != 0) {
    hashes_ = params.hashes;
  } else {
    const double optimum = static_cast<double>(params.bits_per_entry) * kLn2;
    hashes_ = static_cast<std::uint32_t>(std::lround(optimum));
    if (hashes_ == 0) hashes_ = 1;
  }
}

// Enhanced double hashing (Dillinger-Manolios): the quadratic drift keeps
// the k probes from collapsing onto a short cycle in the small per-domain
// filters, where plain (h1 + i*h2) visibly floors the FP rate.  Calls
// visit(bit) per probe position until one call returns false; returns
// whether none did.
template <typename Visit>
bool BloomFilter::walk_probes(std::uint64_t key, Visit visit) const {
  std::uint64_t h1 = mix(key, seed_);
  std::uint64_t h2 = mix(key, seed_ + 1) | 1ULL;  // odd: k distinct walks
  for (std::uint32_t i = 0; i < hashes_; ++i) {
    if (!visit(h1 % bit_count_)) return false;
    h1 += h2;
    h2 += i;
  }
  return true;
}

void BloomFilter::insert(std::uint64_t key) {
  walk_probes(key, [this](std::uint64_t bit) {
    words_[bit / 64] |= 1ULL << (bit % 64);
    return true;
  });
  ++entries_;
}

bool BloomFilter::may_contain(std::uint64_t key) const {
  return walk_probes(key, [this](std::uint64_t bit) {
    return (words_[bit / 64] & (1ULL << (bit % 64))) != 0;
  });
}

void BloomFilter::probe_bits(std::uint64_t key,
                             std::span<std::uint64_t> out) const {
  WCDS_REQUIRE(out.size() >= hashes_,
               "BloomFilter::probe_bits: room for " << out.size()
                   << " positions, " << hashes_ << " needed");
  std::size_t i = 0;
  walk_probes(key, [&](std::uint64_t bit) {
    out[i++] = bit;
    return true;
  });
}

bool BloomFilter::has_bits(std::span<const std::uint64_t> bits) const {
  // Every position is read: a scan over many filters tests mostly absent
  // keys, and an early exit would mispredict on about every other filter.
  WCDS_DCHECK_EQ(bits.size(), hashes_, "BloomFilter::has_bits: probe count");
  std::uint64_t all = 1;
  for (const std::uint64_t bit : bits) all &= words_[bit / 64] >> (bit % 64);
  return (all & 1) != 0;
}

double BloomFilter::predicted_fp_rate() const {
  if (entries_ == 0) return 0.0;
  const double k = static_cast<double>(hashes_);
  const double n = static_cast<double>(entries_);
  const double m = static_cast<double>(bit_count_);
  return std::pow(1.0 - std::exp(-k * n / m), k);
}

std::uint64_t BloomFilter::key_of(std::string_view name) {
  // FNV-1a 64-bit offset basis and prime.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace wcds::service
