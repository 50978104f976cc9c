#include "dram/isa.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace pima::dram {
namespace {

bool all_set(const BitVector& v) { return v.all_ones_prefix(v.size()); }
bool none_set(const BitVector& v) { return v.popcount_range(0, v.size()) == 0; }

Geometry tiny() {
  Geometry g;
  g.rows = 64;
  g.compute_rows = 8;
  g.columns = 32;
  return g;
}

Instruction copy_inst(std::size_t sa, RowAddr src, RowAddr dst,
                      std::size_t size = 1) {
  Instruction i;
  i.op = Opcode::kAapCopy;
  i.subarray = sa;
  i.src1 = src;
  i.dst = dst;
  i.size = size;
  return i;
}

TEST(Isa, TextRoundTripEveryOpcode) {
  std::vector<Instruction> insts;
  for (const auto op :
       {Opcode::kAapCopy, Opcode::kAapXnor, Opcode::kAapXor, Opcode::kAapTra,
        Opcode::kSum, Opcode::kResetLatch, Opcode::kRowRead, Opcode::kDpuAnd,
        Opcode::kDpuOr, Opcode::kDpuPopcount}) {
    Instruction i;
    i.op = op;
    i.subarray = 3;
    i.src1 = 10;
    i.src2 = 11;
    i.src3 = 12;
    i.dst = 20;
    i.size = 1;
    i.width = 16;
    insts.push_back(i);
  }
  for (const auto& i : insts) {
    const auto parsed = parse_instruction(to_text(i));
    ASSERT_TRUE(parsed.has_value()) << to_text(i);
    EXPECT_EQ(parsed->op, i.op) << to_text(i);
    EXPECT_EQ(parsed->subarray, i.subarray);
  }
}

TEST(Isa, RowWriteCarriesPayload) {
  Instruction i;
  i.op = Opcode::kRowWrite;
  i.subarray = 1;
  i.src1 = 5;
  i.payload = BitVector::from_string("10110011");
  const auto parsed = parse_instruction(to_text(i));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload, i.payload);
}

TEST(Isa, PaperSyntaxExamples) {
  // The three AAP types from §II.B, in this text encoding.
  const auto t1 = parse_instruction("AAP_COPY sa=0 src1=7 dst=42 size=4");
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->op, Opcode::kAapCopy);
  EXPECT_EQ(t1->size, 4u);
  const auto t2 =
      parse_instruction("AAP2_XNOR sa=0 src1=56 src2=57 dst=9 size=1");
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(t2->op, Opcode::kAapXnor);
  const auto t3 =
      parse_instruction("AAP3_TRA sa=0 src1=56 src2=57 src3=58 dst=9 size=1");
  ASSERT_TRUE(t3.has_value());
  EXPECT_EQ(t3->src3, 58u);
}

TEST(Isa, CommentsAndBlanksSkipped) {
  EXPECT_FALSE(parse_instruction("").has_value());
  EXPECT_FALSE(parse_instruction("   ").has_value());
  EXPECT_FALSE(parse_instruction("# a comment").has_value());
}

TEST(Isa, MalformedInputThrows) {
  EXPECT_THROW(parse_instruction("BOGUS sa=0"), pima::PreconditionError);
  EXPECT_THROW(parse_instruction("AAP_COPY sa"), pima::PreconditionError);
  EXPECT_THROW(parse_instruction("AAP_COPY sa=x"), pima::PreconditionError);
  EXPECT_THROW(parse_instruction("AAP_COPY bad=1"), pima::PreconditionError);
  EXPECT_THROW(parse_instruction("AAP_COPY sa=0 size=0"),
               pima::PreconditionError);
}

TEST(Isa, ProgramRoundTrip) {
  Program prog;
  prog.push_back(copy_inst(0, 1, 2));
  Instruction rst;
  rst.op = Opcode::kResetLatch;
  prog.push_back(rst);
  const auto text = to_text(prog);
  std::istringstream in(text);
  const auto parsed = parse_program(in);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].op, Opcode::kAapCopy);
  EXPECT_EQ(parsed[1].op, Opcode::kResetLatch);
}

TEST(Isa, ExecuteCopyAndRead) {
  Device dev(tiny());
  BitVector bits(32);
  bits.set(3, true);
  Instruction wr;
  wr.op = Opcode::kRowWrite;
  wr.src1 = 0;
  wr.payload = bits;
  Instruction rd;
  rd.op = Opcode::kRowRead;
  rd.src1 = 9;
  const Program prog{wr, copy_inst(0, 0, 9), rd};
  const auto results = execute(dev, prog);
  ASSERT_EQ(results.rows_read.size(), 1u);
  EXPECT_EQ(results.rows_read[0], bits);
}

TEST(Isa, ExecuteXnorProgramMatchesKernel) {
  Device dev(tiny());
  Subarray& sa = dev.subarray(0);
  BitVector a(32), b(32);
  a.set(0, true);
  b.set(0, true);
  b.set(1, true);
  sa.write_row(1, a);
  sa.write_row(2, b);

  const std::string text =
      "# PIM_XNOR of rows 1 and 2\n"
      "AAP_COPY sa=0 src1=1 dst=56 size=1\n"
      "AAP_COPY sa=0 src1=2 dst=57 size=1\n"
      "AAP2_XNOR sa=0 src1=56 src2=57 dst=10 size=1\n"
      "DPU_AND sa=0 src1=10 size=1 width=32\n"
      "DPU_POPCOUNT sa=0 src1=10 size=1 width=32\n";
  std::istringstream in(text);
  const auto results = execute(dev, parse_program(in));
  EXPECT_EQ(dev.subarray(0).peek_row(10), BitVector::bit_xnor(a, b));
  ASSERT_EQ(results.reductions.size(), 1u);
  EXPECT_FALSE(results.reductions[0]);  // rows differ at bit 1
  ASSERT_EQ(results.popcounts.size(), 1u);
  EXPECT_EQ(results.popcounts[0], 31u);
}

TEST(Isa, ExecuteAdditionProgram) {
  // Full bit-serial addition of 3 + 1 via the ISA (paper's 2-cycle/bit
  // protocol with explicit staging).
  Device dev(tiny());
  Subarray& sa = dev.subarray(0);
  // Operand A = 3 (bits at rows 0-1), operand B = 1 (rows 4-5), carry row
  // 20, sum rows 30-31; all columns hold the same value.
  BitVector ones(32), zeros(32);
  ones.fill(true);
  sa.write_row(0, ones);   // a0 = 1
  sa.write_row(1, ones);   // a1 = 1
  sa.write_row(4, ones);   // b0 = 1
  sa.write_row(5, zeros);  // b1 = 0
  sa.write_row(20, zeros); // carry-in = 0

  const std::string text =
      "RST_LATCH sa=0\n"
      "AAP_COPY sa=0 src1=20 dst=58 size=1\n"  // c0 into x3
      // bit 0: sum then carry
      "AAP_COPY sa=0 src1=0 dst=56 size=1\n"
      "AAP_COPY sa=0 src1=4 dst=57 size=1\n"
      "SUM sa=0 src1=56 src2=57 dst=30 size=1\n"
      "AAP_COPY sa=0 src1=0 dst=56 size=1\n"
      "AAP_COPY sa=0 src1=4 dst=57 size=1\n"
      "AAP3_TRA sa=0 src1=56 src2=57 src3=58 dst=58 size=1\n"
      // bit 1
      "AAP_COPY sa=0 src1=1 dst=56 size=1\n"
      "AAP_COPY sa=0 src1=5 dst=57 size=1\n"
      "SUM sa=0 src1=56 src2=57 dst=31 size=1\n"
      "AAP_COPY sa=0 src1=1 dst=56 size=1\n"
      "AAP_COPY sa=0 src1=5 dst=57 size=1\n"
      "AAP3_TRA sa=0 src1=56 src2=57 src3=58 dst=21 size=1\n";
  std::istringstream in(text);
  execute(dev, parse_program(in));
  // 3 + 1 = 4 = 0b100: sum bits 0, carry-out 1.
  EXPECT_TRUE(none_set(sa.peek_row(30)));
  EXPECT_TRUE(none_set(sa.peek_row(31)));
  EXPECT_TRUE(all_set(sa.peek_row(21)));
}

TEST(Isa, BulkSizeRejectedOnComputeOps) {
  Device dev(tiny());
  Instruction i;
  i.op = Opcode::kAapXnor;
  i.src1 = 56;
  i.src2 = 57;
  i.dst = 10;
  i.size = 2;
  EXPECT_THROW(execute(dev, {i}), pima::PreconditionError);
}

TEST(Isa, BulkCopyExpandsConsecutiveRows) {
  Device dev(tiny());
  Subarray& sa = dev.subarray(0);
  for (RowAddr r = 0; r < 4; ++r) {
    BitVector v(32);
    v.set(r, true);
    sa.write_row(r, v);
  }
  execute(dev, {copy_inst(0, 0, 40, 4)});
  for (RowAddr r = 0; r < 4; ++r) EXPECT_EQ(sa.peek_row(40 + r), sa.peek_row(r));
}

TEST(Isa, ExecutionIsCosted) {
  Device dev(tiny());
  execute(dev, {copy_inst(0, 0, 1), copy_inst(1, 0, 1)});
  const auto stats = dev.roll_up();
  EXPECT_EQ(stats.commands, 2u);
  EXPECT_EQ(stats.subarrays_used, 2u);
}

}  // namespace
}  // namespace pima::dram
