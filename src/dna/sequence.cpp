#include "dna/sequence.hpp"

namespace pima::dna {

Sequence Sequence::from_string(std::string_view s) {
  Sequence seq;
  seq.packed_.reserve((s.size() + kBasesPerWord - 1) / kBasesPerWord);
  for (const char c : s) seq.push_back(from_char(c));
  return seq;
}

void Sequence::push_back(Base b) {
  const std::size_t word = size_ / kBasesPerWord;
  const std::size_t shift = 2 * (size_ % kBasesPerWord);
  if (word == packed_.size()) packed_.push_back(0);
  packed_[word] |= static_cast<std::uint64_t>(to_code(b)) << shift;
  ++size_;
}

Sequence Sequence::subseq(std::size_t pos, std::size_t len) const {
  PIMA_CHECK(pos + len <= size_, "subseq out of range");
  Sequence out;
  out.packed_.reserve((len + kBasesPerWord - 1) / kBasesPerWord);
  for (std::size_t i = 0; i < len; ++i) out.push_back(at(pos + i));
  return out;
}

Sequence Sequence::reverse_complement() const {
  Sequence out;
  out.packed_.reserve(packed_.size());
  for (std::size_t i = size_; i > 0; --i) out.push_back(complement(at(i - 1)));
  return out;
}

std::string Sequence::to_string() const {
  std::string s(size_, '?');
  for (std::size_t i = 0; i < size_; ++i) s[i] = to_char(at(i));
  return s;
}

BitVector Sequence::to_bits(std::size_t pos, std::size_t len) const {
  PIMA_CHECK(pos + len <= size_, "to_bits range out of sequence");
  BitVector bits(2 * len);
  for (std::size_t i = 0; i < len; ++i) {
    const auto code = to_code(at(pos + i));
    bits.set(2 * i, (code & 0b01u) != 0);
    bits.set(2 * i + 1, (code & 0b10u) != 0);
  }
  return bits;
}

bool Sequence::operator==(const Sequence& o) const {
  if (size_ != o.size_) return false;
  for (std::size_t i = 0; i < size_; ++i)
    if (at(i) != o.at(i)) return false;
  return true;
}

}  // namespace pima::dna
