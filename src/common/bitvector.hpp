// Packed bit vector used throughout the DRAM model as row storage and by the
// bulk bit-wise kernels. Bits are stored LSB-first in 64-bit words; the
// vector has a fixed size chosen at construction (DRAM rows never resize).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace pima {

/// Fixed-size packed bit vector with word-parallel logic operations.
///
/// This is the fundamental data type of the functional DRAM model: one
/// BitVector of width `cols` represents the charge state of one sub-array
/// row. All bulk in-memory operations (two-row XNOR, triple-row majority,
/// RowClone copy) are expressed as word-parallel operations over rows.
class BitVector {
 public:
  BitVector() = default;

  /// Creates a vector of `size` bits, all zero.
  explicit BitVector(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  /// Creates a vector from a 0/1 string, e.g. "1011" (index 0 = first char).
  static BitVector from_string(const std::string& bits);

  /// Number of bits.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const {
    PIMA_CHECK(i < size_, "bit index out of range");
    return (words_[i / 64] >> (i % 64)) & 1u;
  }

  void set(std::size_t i, bool v) {
    PIMA_CHECK(i < size_, "bit index out of range");
    const std::uint64_t mask = std::uint64_t{1} << (i % 64);
    if (v)
      words_[i / 64] |= mask;
    else
      words_[i / 64] &= ~mask;
  }

  /// Sets all bits to `v`.
  void fill(bool v);

  /// True if bits [0, width) are all 1 (width 0 => true). Scans the words
  /// in place — the DPU AND-reduce and the hash-probe match test.
  bool all_ones_prefix(std::size_t width) const;
  /// Number of set bits in [lo, lo+len), counted in place.
  std::size_t popcount_range(std::size_t lo, std::size_t len) const;

  /// Word-level access for the kernels. `word_count()` words; bits beyond
  /// `size()` in the last word are kept zero (class invariant).
  std::size_t word_count() const { return words_.size(); }
  std::uint64_t word(std::size_t w) const { return words_[w]; }
  void set_word(std::size_t w, std::uint64_t v);

  /// *this = src for an equal-sized src: a word copy into the existing
  /// storage (never reallocates).
  void assign(const BitVector& src) {
    check_same_size(*this, src);
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] = src.words_[w];
  }

  /// Writes a bit range [lo, lo+src.size()) from `src` (src must fit).
  void copy_range_from(const BitVector& src, std::size_t lo);

  /// "1011..." rendering (index 0 first). For diagnostics/tests.
  std::string to_string() const;

  bool operator==(const BitVector& o) const = default;

  // -- Word-parallel bulk logic; all operands must have equal size. --

  /// r = a XNOR b  (the PIM-Assembler single-cycle primitive).
  static BitVector bit_xnor(const BitVector& a, const BitVector& b);
  /// r = a XOR b.
  static BitVector bit_xor(const BitVector& a, const BitVector& b);
  /// r = MAJ(a,b,c) — Ambit triple-row-activation semantics.
  static BitVector bit_maj3(const BitVector& a, const BitVector& b,
                            const BitVector& c);

  // -- In-place forms of the bulk logic: *this = op(operands), with no
  //    allocation. *this may alias any operand (each word is read before it
  //    is written); all operands must have the size of *this. Defined here
  //    because they are the per-command hot path of the sub-array model. --

  void assign_xnor(const BitVector& a, const BitVector& b) {
    check_same_size(*this, a);
    check_same_size(a, b);
    for (std::size_t w = 0; w < words_.size(); ++w)
      words_[w] = ~(a.words_[w] ^ b.words_[w]);
    clear_tail();
  }
  void assign_xor(const BitVector& a, const BitVector& b) {
    check_same_size(*this, a);
    check_same_size(a, b);
    for (std::size_t w = 0; w < words_.size(); ++w)
      words_[w] = a.words_[w] ^ b.words_[w];
  }
  /// *this = a XOR b XOR c (the sum-cycle / carry-save sum bit).
  void assign_xor3(const BitVector& a, const BitVector& b,
                   const BitVector& c) {
    check_same_size(*this, a);
    check_same_size(a, b);
    check_same_size(b, c);
    for (std::size_t w = 0; w < words_.size(); ++w)
      words_[w] = a.words_[w] ^ b.words_[w] ^ c.words_[w];
  }
  void assign_maj3(const BitVector& a, const BitVector& b,
                   const BitVector& c) {
    check_same_size(*this, a);
    check_same_size(a, b);
    check_same_size(b, c);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const auto x = a.words_[w], y = b.words_[w], z = c.words_[w];
      words_[w] = (x & y) | (y & z) | (x & z);
    }
  }
  /// The carry-save 3:2 step in one pass over the words: the same result
  /// as `sum.assign_xor3(a, b, c); carry.assign_maj3(a, b, c);`, so an
  /// operand that aliases `sum` enters the majority as the new sum. Any
  /// argument may alias any other.
  static void assign_carry_save(BitVector& sum, BitVector& carry,
                                const BitVector& a, const BitVector& b,
                                const BitVector& c) {
    check_same_size(sum, carry);
    check_same_size(carry, a);
    check_same_size(a, b);
    check_same_size(b, c);
    const bool a_is_sum = &a == &sum, b_is_sum = &b == &sum,
               c_is_sum = &c == &sum;
    for (std::size_t w = 0; w < sum.words_.size(); ++w) {
      auto x = a.words_[w], y = b.words_[w], z = c.words_[w];
      const auto s = x ^ y ^ z;
      sum.words_[w] = s;
      if (a_is_sum) x = s;
      if (b_is_sum) y = s;
      if (c_is_sum) z = s;
      carry.words_[w] = (x & y) | (y & z) | (x & z);
    }
  }

 private:
  void clear_tail() {
    const std::size_t rem = size_ % 64;
    if (rem != 0 && !words_.empty())
      words_.back() &= (std::uint64_t{1} << rem) - 1;
  }
  static void check_same_size(const BitVector& a, const BitVector& b) {
    PIMA_CHECK(a.size() == b.size(), "bulk logic operands differ in size");
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace pima
