#include "common/bitvector.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace pima {
namespace {

std::size_t ones(const BitVector& v) { return v.popcount_range(0, v.size()); }

// Bits beyond size() in the last word must stay zero: equality compares
// whole words.
bool tail_clear(const BitVector& v) {
  const std::size_t rem = v.size() % 64;
  return rem == 0 || (v.word(v.word_count() - 1) >> rem) == 0;
}

TEST(BitVector, DefaultIsEmpty) {
  BitVector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(ones(v), 0u);
  EXPECT_TRUE(v.all_ones_prefix(0));  // vacuously
}

TEST(BitVector, ConstructedZeroed) {
  BitVector v(200);
  EXPECT_EQ(v.size(), 200u);
  EXPECT_EQ(ones(v), 0u);
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
  EXPECT_EQ(ones(v), 4u);
  v.set(63, false);
  EXPECT_FALSE(v.get(63));
  EXPECT_EQ(ones(v), 3u);
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
  EXPECT_EQ(ones(v), 70u);
  EXPECT_TRUE(v.all_ones_prefix(70));
  EXPECT_TRUE(tail_clear(v));
  v.fill(false);
  EXPECT_EQ(ones(v), 0u);
}

TEST(BitVector, SetWordClearsTail) {
  BitVector v(68);
  v.set_word(1, ~std::uint64_t{0});
  EXPECT_EQ(v.word(1), 0xFu);  // only 4 valid bits in the last word
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

TEST(BitVector, XnorKeepsTailClear) {
  BitVector a(70), b(70);
  const auto r = BitVector::bit_xnor(a, b);  // ~(0^0) = all ones
  EXPECT_EQ(ones(r), 70u);
  EXPECT_TRUE(r.all_ones_prefix(70));
  EXPECT_TRUE(tail_clear(r));
}

TEST(BitVector, CopyRange) {
  BitVector dst(32);
  const auto src = BitVector::from_string("1101");
  dst.copy_range_from(src, 10);
  EXPECT_EQ(dst.to_string().substr(10, 4), "1101");
  EXPECT_EQ(ones(dst), 3u);
  EXPECT_THROW(dst.copy_range_from(src, 30), PreconditionError);
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
  EXPECT_TRUE(r.all_ones_prefix(n));
  r.assign_xor(r, r);
  EXPECT_EQ(ones(r), 0u);
}

// The one-pass carry-save step equals its two-step definition for every
// way its five arguments can alias a pool of four vectors.
TEST(BitVector, CarrySaveMatchesTwoStepFormUnderAnyAliasing) {
  Rng rng(79);
  std::vector<BitVector> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(random_bits(rng, 130));
  for (std::size_t code = 0; code < 4 * 4 * 4 * 4 * 4; ++code) {
    const std::size_t s = code % 4, k = code / 4 % 4, a = code / 16 % 4,
                      b = code / 64 % 4, c = code / 256;
    auto fused = pool, stepped = pool;
    BitVector::assign_carry_save(fused[s], fused[k], fused[a], fused[b],
                                 fused[c]);
    stepped[s].assign_xor3(stepped[a], stepped[b], stepped[c]);
    stepped[k].assign_maj3(stepped[a], stepped[b], stepped[c]);
    ASSERT_EQ(fused, stepped) << "sum " << s << " carry " << k << " a " << a
                              << " b " << b << " c " << c;
  }
}

TEST(BitVector, AssignFormsKeepTailClear) {
  for (const std::size_t n : {1u, 70u, 129u}) {
    BitVector zero(n), all(n);
    all.fill(true);
    BitVector r(n);
    r.assign_xnor(zero, zero);  // ~(0^0): all ones
    EXPECT_TRUE(r.all_ones_prefix(n) && tail_clear(r));
    r.assign_xor(all, zero);
    EXPECT_TRUE(r.all_ones_prefix(n) && tail_clear(r));
    r.assign_xor3(all, zero, zero);
    EXPECT_TRUE(r.all_ones_prefix(n) && tail_clear(r));
    r.assign_maj3(all, all, zero);
    EXPECT_TRUE(r.all_ones_prefix(n) && tail_clear(r));
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

// Property: the word-wise copy_range_from agrees with a bit-by-bit
// reference on unaligned offsets and lengths, and never touches bits
// outside the addressed range.
TEST(BitVector, CopyRangeMatchesBitLoopReference) {
  Rng rng(4242);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.uniform(300);
    const std::size_t lo = rng.uniform(n + 1);
    const std::size_t len = rng.uniform(n - lo + 1);

    const auto piece = random_bits(rng, len);
    auto dst = random_bits(rng, n);
    auto ref = dst;
    for (std::size_t i = 0; i < len; ++i) ref.set(lo + i, piece.get(i));
    dst.copy_range_from(piece, lo);
    ASSERT_EQ(dst, ref) << "copy n=" << n << " lo=" << lo << " len=" << len;
    ASSERT_TRUE(tail_clear(dst));
  }
}

// Property: the in-place range reductions agree with a bit-by-bit
// reference on unaligned ranges, including ones that end on or straddle a
// word boundary, and on rows dense enough that all-ones prefixes occur.
TEST(BitVector, RangeReductionsMatchBitLoopReference) {
  Rng rng(977);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.uniform(300);
    BitVector v(n);
    const double density = trial % 2 == 0 ? 0.5 : 0.98;
    for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(density));
    const std::size_t lo = rng.uniform(n + 1);
    const std::size_t len = rng.uniform(n - lo + 1);
    std::size_t count = 0;
    for (std::size_t i = lo; i < lo + len; ++i)
      if (v.get(i)) ++count;
    ASSERT_EQ(v.popcount_range(lo, len), count)
        << "n=" << n << " lo=" << lo << " len=" << len;
    bool all = true;
    for (std::size_t i = 0; i < len; ++i) all = all && v.get(i);
    ASSERT_EQ(v.all_ones_prefix(len), all) << "n=" << n << " width=" << len;
  }
  BitVector v(130);
  v.fill(true);
  EXPECT_TRUE(v.all_ones_prefix(130));
  EXPECT_EQ(v.popcount_range(60, 8), 8u);
  EXPECT_EQ(v.popcount_range(64, 64), 64u);
  EXPECT_EQ(v.popcount_range(0, 0), 0u);
  v.set(64, false);
  EXPECT_TRUE(v.all_ones_prefix(64));
  EXPECT_FALSE(v.all_ones_prefix(65));
  EXPECT_EQ(v.popcount_range(60, 8), 7u);
  EXPECT_THROW((void)v.all_ones_prefix(131), PreconditionError);
  EXPECT_THROW((void)v.popcount_range(100, 31), PreconditionError);
}

// Property: XNOR is the complement of XOR, MAJ3 is symmetric and matches
// its bitwise definition on random vectors.
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
  const BitVector zero(n);
  // XNOR with zero is NOT, so XNOR(a,b) = NOT XOR(a,b).
  EXPECT_EQ(BitVector::bit_xnor(a, b),
            BitVector::bit_xnor(BitVector::bit_xor(a, b), zero));
  EXPECT_EQ(BitVector::bit_maj3(a, b, c), BitVector::bit_maj3(c, a, b));
  EXPECT_EQ(BitVector::bit_xor(a, a), zero);
  EXPECT_EQ(ones(BitVector::bit_xnor(a, a)), n);
  // MAJ(a,b,c) = (a&b) | (b&c) | (a&c), bit by bit.
  BitVector maj(n);
  for (std::size_t i = 0; i < n; ++i)
    maj.set(i, (a.get(i) && b.get(i)) || (b.get(i) && c.get(i)) ||
                   (a.get(i) && c.get(i)));
  EXPECT_EQ(BitVector::bit_maj3(a, b, c), maj);
  // Popcount consistency under NOT.
  EXPECT_EQ(ones(a) + ones(BitVector::bit_xnor(a, zero)), n);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, BitVectorProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace pima
