#include "common/bitvector.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace pima {
namespace {

TEST(BitVector, DefaultIsEmpty) {
  BitVector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.none());
  EXPECT_TRUE(v.all());  // vacuously
}

TEST(BitVector, ConstructedZeroed) {
  BitVector v(200);
  EXPECT_EQ(v.size(), 200u);
  EXPECT_EQ(v.popcount(), 0u);
  for (std::size_t i = 0; i < 200; ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVector, SetGetRoundTrip) {
  BitVector v(130);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_EQ(v.popcount(), 4u);
  v.set(63, false);
  EXPECT_FALSE(v.get(63));
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVector, OutOfRangeThrows) {
  BitVector v(10);
  EXPECT_THROW(v.get(10), PreconditionError);
  EXPECT_THROW(v.set(10, true), PreconditionError);
}

TEST(BitVector, FromStringAndToString) {
  const auto v = BitVector::from_string("10110");
  EXPECT_EQ(v.size(), 5u);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.to_string(), "10110");
  EXPECT_THROW(BitVector::from_string("10x"), PreconditionError);
}

TEST(BitVector, FillKeepsTailClear) {
  BitVector v(70);
  v.fill(true);
  EXPECT_EQ(v.popcount(), 70u);
  EXPECT_TRUE(v.all());
  // Tail bits beyond size must stay zero so popcount over words is exact.
  EXPECT_EQ(v.word(1) >> 6, 0u);
  v.fill(false);
  EXPECT_TRUE(v.none());
}

TEST(BitVector, SetWordClearsTail) {
  BitVector v(68);
  v.set_word(1, ~std::uint64_t{0});
  EXPECT_EQ(v.popcount(), 4u);  // only 4 valid bits in the last word
}

TEST(BitVector, EqualityIsValueBased) {
  BitVector a(100), b(100);
  a.set(42, true);
  EXPECT_NE(a, b);
  b.set(42, true);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, BitVector(101));
}

TEST(BitVector, XnorTruthTable) {
  const auto a = BitVector::from_string("0011");
  const auto b = BitVector::from_string("0101");
  EXPECT_EQ(BitVector::bit_xnor(a, b).to_string(), "1001");
}

TEST(BitVector, XorTruthTable) {
  const auto a = BitVector::from_string("0011");
  const auto b = BitVector::from_string("0101");
  EXPECT_EQ(BitVector::bit_xor(a, b).to_string(), "0110");
}

TEST(BitVector, AndOrNotTruthTables) {
  const auto a = BitVector::from_string("0011");
  const auto b = BitVector::from_string("0101");
  EXPECT_EQ(BitVector::bit_and(a, b).to_string(), "0001");
  EXPECT_EQ(BitVector::bit_or(a, b).to_string(), "0111");
  EXPECT_EQ(BitVector::bit_not(a).to_string(), "1100");
}

TEST(BitVector, Maj3TruthTable) {
  const auto a = BitVector::from_string("00001111");
  const auto b = BitVector::from_string("00110011");
  const auto c = BitVector::from_string("01010101");
  EXPECT_EQ(BitVector::bit_maj3(a, b, c).to_string(), "00010111");
}

TEST(BitVector, MismatchedSizesThrow) {
  BitVector a(10), b(11);
  EXPECT_THROW(BitVector::bit_xnor(a, b), PreconditionError);
  EXPECT_THROW(BitVector::bit_maj3(a, a, b), PreconditionError);
}

TEST(BitVector, NotKeepsTailClear) {
  BitVector a(70);
  const auto r = BitVector::bit_not(a);
  EXPECT_EQ(r.popcount(), 70u);
}

TEST(BitVector, XnorKeepsTailClear) {
  BitVector a(70), b(70);
  const auto r = BitVector::bit_xnor(a, b);  // ~(0^0) = all ones
  EXPECT_EQ(r.popcount(), 70u);
  EXPECT_TRUE(r.all());
}

TEST(BitVector, CopyRangeAndSlice) {
  BitVector dst(32);
  const auto src = BitVector::from_string("1101");
  dst.copy_range_from(src, 10);
  EXPECT_EQ(dst.slice(10, 4), src);
  EXPECT_EQ(dst.popcount(), 3u);
  EXPECT_THROW(dst.copy_range_from(src, 30), PreconditionError);
  EXPECT_THROW(dst.slice(30, 4), PreconditionError);
}

BitVector random_bits(Rng& rng, std::size_t n) {
  BitVector v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

TEST(BitVector, AssignFormsMatchAllocatingForms) {
  Rng rng(77);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 130u, 256u}) {
    const auto a = random_bits(rng, n), b = random_bits(rng, n),
               c = random_bits(rng, n);
    BitVector r(n);
    r.assign_xnor(a, b);
    EXPECT_EQ(r, BitVector::bit_xnor(a, b)) << n;
    r.assign_xor(a, b);
    EXPECT_EQ(r, BitVector::bit_xor(a, b)) << n;
    r.assign_xor3(a, b, c);
    EXPECT_EQ(r, BitVector::bit_xor(BitVector::bit_xor(a, b), c)) << n;
    r.assign_maj3(a, b, c);
    EXPECT_EQ(r, BitVector::bit_maj3(a, b, c)) << n;
  }
}

TEST(BitVector, AssignFormsAllowDestinationAliasing) {
  Rng rng(78);
  const std::size_t n = 150;
  const auto a = random_bits(rng, n), b = random_bits(rng, n),
             c = random_bits(rng, n);
  BitVector r = a;
  r.assign_xnor(r, b);
  EXPECT_EQ(r, BitVector::bit_xnor(a, b));
  r = b;
  r.assign_xor(a, r);
  EXPECT_EQ(r, BitVector::bit_xor(a, b));
  r = c;
  r.assign_xor3(a, b, r);
  EXPECT_EQ(r, BitVector::bit_xor(BitVector::bit_xor(a, b), c));
  r = a;
  r.assign_maj3(r, b, c);
  EXPECT_EQ(r, BitVector::bit_maj3(a, b, c));
  // Every operand the destination itself.
  r = a;
  r.assign_maj3(r, r, r);
  EXPECT_EQ(r, a);
  r.assign_xor3(r, r, r);
  EXPECT_EQ(r, a);
  r.assign_xnor(r, r);
  EXPECT_TRUE(r.all());
  r.assign_xor(r, r);
  EXPECT_TRUE(r.none());
}

TEST(BitVector, AssignFormsKeepTailClear) {
  for (const std::size_t n : {1u, 70u, 129u}) {
    BitVector zero(n), ones(n);
    ones.fill(true);
    BitVector r(n);
    // popcount covers whole words, so popcount == n means a clear tail.
    r.assign_xnor(zero, zero);  // ~(0^0): all ones
    EXPECT_EQ(r.popcount(), n);
    r.assign_xor(ones, zero);
    EXPECT_EQ(r.popcount(), n);
    r.assign_xor3(ones, zero, zero);
    EXPECT_EQ(r.popcount(), n);
    r.assign_maj3(ones, ones, zero);
    EXPECT_EQ(r.popcount(), n);
    EXPECT_TRUE(r.all());
  }
}

TEST(BitVector, AssignFormsRejectSizeMismatch) {
  BitVector a(64), b(65), r(64);
  EXPECT_THROW(r.assign_xnor(a, b), PreconditionError);
  EXPECT_THROW(r.assign_xor(b, a), PreconditionError);
  EXPECT_THROW(r.assign_xor3(a, a, b), PreconditionError);
  EXPECT_THROW(r.assign_maj3(b, a, a), PreconditionError);
  // The destination must match too.
  EXPECT_THROW(r.assign_xor(b, b), PreconditionError);
  EXPECT_THROW(b.assign_maj3(a, a, a), PreconditionError);
}

// Property: the word-wise slice/copy_range_from agree with a bit-by-bit
// reference on unaligned offsets and lengths, and never touch bits outside
// the addressed range.
TEST(BitVector, SliceAndCopyRangeMatchBitLoopReference) {
  Rng rng(4242);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.uniform(300);
    const auto src = random_bits(rng, n);
    const std::size_t lo = rng.uniform(n + 1);
    const std::size_t len = rng.uniform(n - lo + 1);

    BitVector want(len);
    for (std::size_t i = 0; i < len; ++i) want.set(i, src.get(lo + i));
    const auto got = src.slice(lo, len);
    ASSERT_EQ(got, want) << "slice n=" << n << " lo=" << lo << " len=" << len;

    const auto piece = random_bits(rng, len);
    auto dst = random_bits(rng, n);
    auto ref = dst;
    for (std::size_t i = 0; i < len; ++i) ref.set(lo + i, piece.get(i));
    dst.copy_range_from(piece, lo);
    ASSERT_EQ(dst, ref) << "copy n=" << n << " lo=" << lo << " len=" << len;
    ASSERT_EQ(dst.popcount(), ref.popcount());  // tail still clear
  }
}

// Property: XNOR is an involution partner of XOR, MAJ3 is symmetric, and
// De Morgan identities hold on random vectors.
class BitVectorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitVectorProperty, AlgebraicIdentities) {
  Rng rng(GetParam());
  const std::size_t n = 64 + rng.uniform(200);
  BitVector a(n), b(n), c(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.set(i, rng.bernoulli(0.5));
    b.set(i, rng.bernoulli(0.5));
    c.set(i, rng.bernoulli(0.5));
  }
  EXPECT_EQ(BitVector::bit_xnor(a, b),
            BitVector::bit_not(BitVector::bit_xor(a, b)));
  EXPECT_EQ(BitVector::bit_maj3(a, b, c), BitVector::bit_maj3(c, a, b));
  EXPECT_EQ(BitVector::bit_xor(a, a), BitVector(n));
  EXPECT_EQ(BitVector::bit_xnor(a, a).popcount(), n);
  // MAJ(a,b,c) = (a&b) | (b&c) | (a&c).
  const auto maj = BitVector::bit_or(
      BitVector::bit_or(BitVector::bit_and(a, b), BitVector::bit_and(b, c)),
      BitVector::bit_and(a, c));
  EXPECT_EQ(BitVector::bit_maj3(a, b, c), maj);
  // Popcount consistency under NOT.
  EXPECT_EQ(a.popcount() + BitVector::bit_not(a).popcount(), n);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, BitVectorProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace pima
