#include "common/bitvector.hpp"

#include <algorithm>
#include <bit>

namespace pima {

BitVector BitVector::from_string(const std::string& bits) {
  BitVector v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    PIMA_CHECK(bits[i] == '0' || bits[i] == '1', "expected 0/1 string");
    v.set(i, bits[i] == '1');
  }
  return v;
}

void BitVector::fill(bool v) {
  const std::uint64_t pattern = v ? ~std::uint64_t{0} : 0;
  for (auto& w : words_) w = pattern;
  clear_tail();
}

bool BitVector::all_ones_prefix(std::size_t width) const {
  PIMA_CHECK(width <= size_, "prefix out of range");
  const std::size_t full = width / 64;
  for (std::size_t w = 0; w < full; ++w)
    if (words_[w] != ~std::uint64_t{0}) return false;
  const std::size_t rem = width % 64;
  if (rem == 0) return true;
  const std::uint64_t mask = (std::uint64_t{1} << rem) - 1;
  return (words_[full] & mask) == mask;
}

std::size_t BitVector::popcount_range(std::size_t lo, std::size_t len) const {
  PIMA_CHECK(lo + len <= size_, "popcount range out of range");
  if (len == 0) return 0;
  const std::size_t hi = lo + len;  // exclusive
  const std::size_t first = lo / 64, last = (hi - 1) / 64;
  // Mask the partial first and last words; whole words in between count
  // as they are.
  const std::uint64_t lo_mask = ~std::uint64_t{0} << (lo % 64);
  const std::uint64_t hi_mask =
      hi % 64 == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << (hi % 64)) - 1;
  if (first == last)
    return static_cast<std::size_t>(
        std::popcount(words_[first] & lo_mask & hi_mask));
  std::size_t n = static_cast<std::size_t>(std::popcount(words_[first] & lo_mask));
  for (std::size_t w = first + 1; w < last; ++w)
    n += static_cast<std::size_t>(std::popcount(words_[w]));
  return n + static_cast<std::size_t>(std::popcount(words_[last] & hi_mask));
}

void BitVector::set_word(std::size_t w, std::uint64_t v) {
  PIMA_CHECK(w < words_.size(), "word index out of range");
  words_[w] = v;
  if (w + 1 == words_.size()) clear_tail();
}

void BitVector::copy_range_from(const BitVector& src, std::size_t lo) {
  PIMA_CHECK(lo + src.size() <= size_, "range copy overflows destination");
  const std::size_t shift = lo % 64;
  std::size_t done = 0;  // bits of src written so far
  for (std::size_t sw = 0; done < src.size(); ++sw) {
    // Word sw of src covers bits [done, done+n) and lands at bit lo+done,
    // which straddles at most two destination words.
    const std::size_t n = std::min<std::size_t>(64, src.size() - done);
    const std::uint64_t mask =
        n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    const std::uint64_t bits = src.words_[sw] & mask;
    const std::size_t dw = (lo + done) / 64;
    words_[dw] = (words_[dw] & ~(mask << shift)) | (bits << shift);
    if (shift != 0 && shift + n > 64) {
      const std::size_t up = 64 - shift;
      words_[dw + 1] = (words_[dw + 1] & ~(mask >> up)) | (bits >> up);
    }
    done += n;
  }
}

std::string BitVector::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i)
    if (get(i)) s[i] = '1';
  return s;
}

BitVector BitVector::bit_xnor(const BitVector& a, const BitVector& b) {
  check_same_size(a, b);
  BitVector r(a.size());
  for (std::size_t w = 0; w < r.words_.size(); ++w)
    r.words_[w] = ~(a.words_[w] ^ b.words_[w]);
  r.clear_tail();
  return r;
}

BitVector BitVector::bit_xor(const BitVector& a, const BitVector& b) {
  check_same_size(a, b);
  BitVector r(a.size());
  for (std::size_t w = 0; w < r.words_.size(); ++w)
    r.words_[w] = a.words_[w] ^ b.words_[w];
  return r;
}

BitVector BitVector::bit_maj3(const BitVector& a, const BitVector& b,
                              const BitVector& c) {
  check_same_size(a, b);
  check_same_size(b, c);
  BitVector r(a.size());
  for (std::size_t w = 0; w < r.words_.size(); ++w) {
    const auto x = a.words_[w], y = b.words_[w], z = c.words_[w];
    r.words_[w] = (x & y) | (y & z) | (x & z);
  }
  return r;
}

}  // namespace pima
