// 2-bit packed DNA sequence container.
//
// Sequences are immutable-length after construction-by-append; bases are
// packed 4 per byte using the paper's T/G/A/C encoding (see base.hpp). The
// packed words are what the mapping layer writes into simulated DRAM rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitvector.hpp"
#include "dna/base.hpp"

namespace pima::dna {

/// Growable 2-bit packed DNA sequence.
class Sequence {
 public:
  Sequence() = default;

  /// Parses an ACGT string (throws on other characters).
  static Sequence from_string(std::string_view s);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Base at(std::size_t i) const {
    PIMA_CHECK(i < size_, "sequence index out of range");
    const auto word = packed_[i / kBasesPerWord];
    const auto shift = 2 * (i % kBasesPerWord);
    return from_code(static_cast<std::uint8_t>((word >> shift) & 0b11u));
  }

  void push_back(Base b);

  /// Subsequence [pos, pos+len).
  Sequence subseq(std::size_t pos, std::size_t len) const;

  /// Reverse complement of the whole sequence.
  Sequence reverse_complement() const;

  std::string to_string() const;

  /// Packs bases [pos, pos+len) into a BitVector of 2*len bits, base i at
  /// bit offset 2*i (LSB-first) — the exact row image used by the DRAM
  /// mapping layer (128 bp fill a 256-bit row).
  BitVector to_bits(std::size_t pos, std::size_t len) const;

  bool operator==(const Sequence& o) const;

 private:
  static constexpr std::size_t kBasesPerWord = 32;  // 64-bit words, 2b/base

  std::size_t size_ = 0;
  std::vector<std::uint64_t> packed_;
};

}  // namespace pima::dna
