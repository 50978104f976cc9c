// Command capture: a traced sub-array appends the exact instruction that
// replays each command it executes.
#include <gtest/gtest.h>

#include "dram/device.hpp"
#include "dram/isa.hpp"
#include "dram/subarray.hpp"
#include "test_support.hpp"

namespace pima::dram {
namespace {

Geometry tiny() {
  Geometry g;
  g.rows = 64;
  g.compute_rows = 8;
  g.columns = 32;
  return g;
}

TEST(Trace, RecordsEveryCommandInOrder) {
  Subarray sa(tiny(), circuit::default_technology());
  Program capture;
  sa.attach_trace(&capture, 3);
  sa.write_row(1, BitVector(32));
  sa.aap_copy(1, 2);
  sa.compare_rows(1, 2, 10);
  ASSERT_EQ(capture.size(), 5u);  // write, copy, 2 staging copies, xnor
  EXPECT_EQ(capture[0].op, Opcode::kRowWrite);
  EXPECT_EQ(capture[1].op, Opcode::kAapCopy);
  EXPECT_EQ(capture[1].src1, 1u);
  EXPECT_EQ(capture[1].dst, 2u);
  EXPECT_EQ(capture[4].op, Opcode::kAapXnor);
  EXPECT_EQ(capture[4].dst, 10u);
  for (const auto& inst : capture) {
    EXPECT_EQ(inst.subarray, 3u);
    EXPECT_EQ(inst.size, 1u);
  }
}

TEST(Trace, DetachStopsRecording) {
  Subarray sa(tiny(), circuit::default_technology());
  Program capture;
  sa.attach_trace(&capture);
  sa.aap_copy(0, 1);
  sa.attach_trace(nullptr);
  sa.aap_copy(0, 1);
  EXPECT_EQ(capture.size(), 1u);
}

TEST(Trace, BreakdownFromStatsMatchesTrace) {
  // The per-kind split of a sub-array's CommandStats adds up to the stats'
  // own totals: same counts, same busy time, same energy.
  Subarray sa(tiny(), circuit::default_technology());
  Program capture;
  sa.attach_trace(&capture);
  sa.compare_rows(0, 1, 10);
  sa.write_row(5, BitVector(32));
  (void)sa.dpu_fetch(10);
  const auto b = breakdown_from_stats(sa.stats(), sa.geometry().columns,
                                      circuit::default_technology());
  ASSERT_EQ(b.rows.size(), 4u);  // copies, xnor, write, DPU reduce
  std::size_t commands = 0;
  for (const auto& row : b.rows) {
    EXPECT_EQ(row.count, sa.stats().counts[static_cast<std::size_t>(row.kind)])
        << to_string(row.kind);
    commands += row.count;
  }
  EXPECT_EQ(commands, sa.stats().total_commands());
  EXPECT_EQ(commands, capture.size());
  EXPECT_DOUBLE_EQ(b.total_energy_pj, sa.stats().energy_pj);
  EXPECT_DOUBLE_EQ(b.total_time_ns, sa.stats().busy_ns);
}

TEST(Trace, EntriesCarryReplayExactOpcodes) {
  // XNOR and XOR share CommandKind::kAapTwoRow (same cost class) but must
  // stay distinguishable in the capture for exact replay; a DPU fetch
  // replays as a full-width popcount.
  Subarray sa(tiny(), circuit::default_technology());
  Program capture;
  sa.attach_trace(&capture);
  const auto x1 = sa.compute_row(0), x2 = sa.compute_row(1);
  sa.aap_xnor(x1, x2, 5);
  sa.aap_xor(x1, x2, 6);
  (void)sa.dpu_fetch(6);
  ASSERT_EQ(capture.size(), 3u);
  EXPECT_EQ(capture[0].op, Opcode::kAapXnor);
  EXPECT_EQ(capture[1].op, Opcode::kAapXor);
  EXPECT_EQ(capture[2].op, Opcode::kDpuPopcount);
  EXPECT_EQ(capture[2].src1, 6u);
  EXPECT_EQ(capture[2].width, 32u);
}

TEST(Trace, LatchResetIsTraceOnlyAndUncosted) {
  Subarray sa(tiny(), circuit::default_technology());
  Program capture;
  sa.attach_trace(&capture, 2);
  sa.reset_latch();
  ASSERT_EQ(capture.size(), 1u);
  Instruction want;
  want.op = Opcode::kResetLatch;
  want.subarray = 2;
  EXPECT_EQ(capture[0], want);
  // The Rst pulse rides the surrounding AAP envelope: no command counted,
  // no time, no energy.
  EXPECT_EQ(sa.stats().total_commands(), 0u);
  EXPECT_DOUBLE_EQ(sa.stats().busy_ns, 0.0);
  EXPECT_DOUBLE_EQ(sa.stats().energy_pj, 0.0);
}

TEST(Trace, RowWritePayloadIsCaptured) {
  Subarray sa(tiny(), circuit::default_technology());
  Program capture;
  sa.attach_trace(&capture);
  BitVector bits(32);
  bits.set(0, true);
  bits.set(31, true);
  sa.write_row(4, bits);
  sa.aap_copy(4, 5);
  ASSERT_EQ(capture.size(), 2u);
  EXPECT_EQ(capture[0].payload, bits);
  EXPECT_TRUE(capture[1].payload.empty());  // only writes carry data
}

TEST(Trace, ProgramFromTraceReplaysIdenticalState) {
  const auto g = tiny();
  Subarray sa(g, circuit::default_technology());
  Program capture;
  sa.attach_trace(&capture);
  BitVector bits(32);
  for (std::size_t i = 0; i < 32; i += 2) bits.set(i, true);
  sa.write_row(1, bits);
  sa.aap_copy(1, sa.compute_row(0));
  sa.aap_copy(1, sa.compute_row(1));
  sa.aap_copy(1, sa.compute_row(2));
  sa.aap_tra_carry(sa.compute_row(0), sa.compute_row(1), sa.compute_row(2), 2);
  sa.sum_cycle(sa.compute_row(0), sa.compute_row(1), 3);
  sa.reset_latch();
  (void)sa.read_row(3);
  (void)sa.dpu_fetch(2);

  Device replay(g);
  replay.enable_tracing();
  execute(replay, capture);
  auto& rsa = replay.subarray(std::size_t{0});
  for (RowAddr r = 0; r < g.rows; ++r)
    ASSERT_EQ(rsa.peek_row(r), sa.peek_row(r)) << "row " << r;
  EXPECT_EQ(rsa.peek_latch(), sa.peek_latch());
  EXPECT_EQ(rsa.stats().busy_ns, sa.stats().busy_ns);
  EXPECT_EQ(rsa.stats().energy_pj, sa.stats().energy_pj);
  // The replay's own capture is the program it executed.
  EXPECT_EQ(test_support::captured_program(replay), capture);
}

}  // namespace
}  // namespace pima::dram
