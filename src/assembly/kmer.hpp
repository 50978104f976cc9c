// Fixed-k k-mer value type.
//
// A k-mer (k ≤ 32) packs into one 64-bit word at 2 bits/base using the
// paper's T/G/A/C encoding, base 0 in the least-significant pair — the same
// bit image the mapping layer writes into DRAM rows. The paper evaluates
// k ∈ {16, 22, 26, 32}, all of which fit.
#pragma once

#include <cstdint>
#include <functional>

#include "dna/sequence.hpp"

namespace pima::assembly {

/// Packed k-mer plus its length. Value type; equality includes k.
class Kmer {
 public:
  static constexpr std::size_t kMaxK = 32;

  Kmer() = default;
  Kmer(std::uint64_t packed, std::size_t k) : bits_(packed), k_(k) {
    PIMA_CHECK(k >= 1 && k <= kMaxK, "k out of range");
    if (k < kMaxK) PIMA_CHECK(packed >> (2 * k) == 0, "stray high bits");
  }

  /// Extracts the k-mer starting at `pos` from a sequence.
  static Kmer from_sequence(const dna::Sequence& seq, std::size_t pos,
                            std::size_t k);

  std::uint64_t packed() const { return bits_; }
  std::size_t k() const { return k_; }

  dna::Base base(std::size_t i) const {
    PIMA_CHECK(i < k_, "base index out of k-mer");
    return dna::from_code(
        static_cast<std::uint8_t>((bits_ >> (2 * i)) & 0b11u));
  }

  /// Drops the first base and appends `b` (rolling window update).
  Kmer rolled(dna::Base b) const {
    const std::uint64_t mask =
        k_ == kMaxK ? ~std::uint64_t{0} : (std::uint64_t{1} << (2 * k_)) - 1;
    const std::uint64_t next =
        ((bits_ >> 2) | (static_cast<std::uint64_t>(dna::to_code(b))
                         << (2 * (k_ - 1)))) &
        mask;
    return Kmer(next, k_);
  }

  /// Prefix (k-1)-mer — the source node of this k-mer's de Bruijn edge.
  Kmer prefix() const {
    PIMA_CHECK(k_ >= 2, "prefix of a 1-mer");
    const std::uint64_t mask = (std::uint64_t{1} << (2 * (k_ - 1))) - 1;
    return Kmer(bits_ & mask, k_ - 1);
  }

  /// Suffix (k-1)-mer — the target node.
  Kmer suffix() const {
    PIMA_CHECK(k_ >= 2, "suffix of a 1-mer");
    return Kmer(bits_ >> 2, k_ - 1);
  }

  dna::Sequence to_sequence() const {
    dna::Sequence s;
    for (std::size_t i = 0; i < k_; ++i) s.push_back(base(i));
    return s;
  }

  std::string to_string() const { return to_sequence().to_string(); }

  bool operator==(const Kmer&) const = default;
  /// Ordering: by k then packed value (deterministic iteration).
  auto operator<=>(const Kmer&) const = default;

  /// Strong 64-bit mix of the packed value (splitmix64 finalizer) — the
  /// hash both the software table and the PIM shard router use.
  std::uint64_t hash() const {
    std::uint64_t z = bits_ + 0x9e3779b97f4a7c15ull + k_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t bits_ = 0;
  std::size_t k_ = 1;
};

inline Kmer Kmer::from_sequence(const dna::Sequence& seq, std::size_t pos,
                                std::size_t k) {
  PIMA_CHECK(k >= 1 && k <= kMaxK, "k out of range");
  PIMA_CHECK(pos + k <= seq.size(), "k-mer window exceeds sequence");
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < k; ++i)
    bits |= static_cast<std::uint64_t>(dna::to_code(seq.at(pos + i)))
            << (2 * i);
  return Kmer(bits, k);
}

}  // namespace pima::assembly

template <>
struct std::hash<pima::assembly::Kmer> {
  std::size_t operator()(const pima::assembly::Kmer& k) const noexcept {
    return static_cast<std::size_t>(k.hash());
  }
};
