#include <gtest/gtest.h>

#include "dna/base.hpp"
#include "dna/sequence.hpp"

namespace pima::dna {
namespace {

TEST(Base, PaperEncodingFig7) {
  // Paper Fig. 7: T=00, G=01, A=10, C=11.
  EXPECT_EQ(to_code(Base::T), 0b00);
  EXPECT_EQ(to_code(Base::G), 0b01);
  EXPECT_EQ(to_code(Base::A), 0b10);
  EXPECT_EQ(to_code(Base::C), 0b11);
}

TEST(Base, CodeRoundTrip) {
  for (std::uint8_t c = 0; c < 4; ++c) EXPECT_EQ(to_code(from_code(c)), c);
}

TEST(Base, CharRoundTripBothCases) {
  for (const char c : {'A', 'C', 'G', 'T'})
    EXPECT_EQ(to_char(from_char(c)), c);
  EXPECT_EQ(from_char('a'), Base::A);
  EXPECT_EQ(from_char('t'), Base::T);
  EXPECT_THROW(from_char('N'), PreconditionError);
  EXPECT_THROW(from_char('x'), PreconditionError);
}

TEST(Base, ComplementPairs) {
  EXPECT_EQ(complement(Base::A), Base::T);
  EXPECT_EQ(complement(Base::T), Base::A);
  EXPECT_EQ(complement(Base::C), Base::G);
  EXPECT_EQ(complement(Base::G), Base::C);
}

TEST(Base, ComplementIsInvolution) {
  for (std::uint8_t c = 0; c < 4; ++c) {
    const Base b = from_code(c);
    EXPECT_EQ(complement(complement(b)), b);
  }
}

TEST(Base, ValidChar) {
  EXPECT_TRUE(is_valid_char('A'));
  EXPECT_TRUE(is_valid_char('g'));
  EXPECT_FALSE(is_valid_char('N'));
  EXPECT_FALSE(is_valid_char('-'));
}

TEST(Sequence, FromToString) {
  const auto s = Sequence::from_string("ACGTACGT");
  EXPECT_EQ(s.size(), 8u);
  EXPECT_EQ(s.to_string(), "ACGTACGT");
  EXPECT_EQ(s.at(0), Base::A);
  EXPECT_EQ(s.at(3), Base::T);
}

TEST(Sequence, EmptyAndErrors) {
  Sequence s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.at(0), PreconditionError);
  EXPECT_THROW(Sequence::from_string("ACGN"), PreconditionError);
}

TEST(Sequence, PushBackAcrossWordBoundary) {
  Sequence s;
  std::string expect;
  for (int i = 0; i < 70; ++i) {
    const Base b = from_code(static_cast<std::uint8_t>(i % 4));
    s.push_back(b);
    expect += to_char(b);
  }
  EXPECT_EQ(s.to_string(), expect);
}

TEST(Sequence, Subseq) {
  const auto s = Sequence::from_string("AACCGGTT");
  EXPECT_EQ(s.subseq(2, 4).to_string(), "CCGG");
  EXPECT_EQ(s.subseq(0, 0).size(), 0u);
  EXPECT_THROW(s.subseq(6, 4), PreconditionError);
}

TEST(Sequence, ReverseComplement) {
  EXPECT_EQ(Sequence::from_string("AACG").reverse_complement().to_string(),
            "CGTT");
  // Involution.
  const auto s = Sequence::from_string("ACGTGCTTAGG");
  EXPECT_EQ(s.reverse_complement().reverse_complement(), s);
}

TEST(Sequence, Equality) {
  EXPECT_EQ(Sequence::from_string("ACGT"), Sequence::from_string("ACGT"));
  EXPECT_FALSE(Sequence::from_string("ACGT") == Sequence::from_string("ACGA"));
  EXPECT_FALSE(Sequence::from_string("ACG") == Sequence::from_string("ACGT"));
}

TEST(Sequence, ToBitsMatchesPaperEncoding) {
  // "TGAC" → codes 00, 01, 10, 11 → LSB-first bit stream 00 10 01 11.
  const auto s = Sequence::from_string("TGAC");
  const auto bits = s.to_bits(0, 4);
  EXPECT_EQ(bits.size(), 8u);
  EXPECT_EQ(bits.to_string(), "00100111");
}

// Decodes a to_bits image back into bases: base i from bits 2i, 2i+1.
Sequence decode_bits(const BitVector& bits) {
  Sequence seq;
  for (std::size_t i = 0; 2 * i < bits.size(); ++i)
    seq.push_back(from_code(static_cast<std::uint8_t>(
        (bits.get(2 * i) ? 1 : 0) | (bits.get(2 * i + 1) ? 2 : 0))));
  return seq;
}

TEST(Sequence, BitsRoundTrip) {
  const auto s = Sequence::from_string("CGTGCGTGCTTACGGATTAG");
  const auto bits = s.to_bits(0, s.size());
  EXPECT_EQ(decode_bits(bits), s);
}

TEST(Sequence, BitsSubrangeRoundTrip) {
  const auto s = Sequence::from_string("CGTGCGTGCTT");
  const auto bits = s.to_bits(3, 5);  // "GCGTG"
  EXPECT_EQ(decode_bits(bits).to_string(), "GCGTG");
}

TEST(Sequence, ToBitsRangeChecked) {
  const auto s = Sequence::from_string("ACGT");
  EXPECT_THROW(s.to_bits(2, 3), PreconditionError);
  EXPECT_THROW(s.to_bits(4, 1), PreconditionError);
}

}  // namespace
}  // namespace pima::dna
