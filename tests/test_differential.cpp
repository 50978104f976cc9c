// Differential verification: the production DRAM model against the golden
// oracle, over fuzzed command streams, captured traces and injected faults.
#include "verify/differential.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "dram/isa.hpp"
#include "test_support.hpp"
#include "verify/fuzz.hpp"

namespace pima::verify {
namespace {

dram::Geometry tiny() {
  dram::Geometry g;
  g.rows = 64;
  g.compute_rows = 8;
  g.columns = 64;
  g.subarrays_per_mat = 4;
  g.mats_per_bank = 2;
  g.banks = 2;
  return g;
}

FuzzOptions tiny_fuzz(std::uint64_t seed, std::size_t ops) {
  FuzzOptions o;
  o.seed = seed;
  o.ops = ops;
  o.subarrays = 2;
  o.geometry = tiny();
  return o;
}

// The headline property: over >= 1000 independently seeded random command
// sequences, the word-parallel production model and the naive golden model
// never disagree — not in any touched row, not in the carry latch, not in
// any read or reduction result.
TEST(Differential, ThousandSeededSequencesNoDivergence) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const FuzzOptions opts = tiny_fuzz(seed, 40);
    const auto program = generate_program(opts);
    const auto d = run_candidate(program, opts);
    ASSERT_FALSE(d.has_value()) << "seed " << seed << ": " << d->report();
  }
}

// A handful of long sequences exercise the periodic full-state diff path
// (every 64 instructions) and deeper latch histories.
TEST(Differential, LongSequencesNoDivergence) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    FuzzOptions opts = tiny_fuzz(seed * 101, 1000);
    opts.subarrays = 3;
    const auto d = run_candidate(generate_program(opts), opts);
    ASSERT_FALSE(d.has_value()) << "seed " << opts.seed << ": " << d->report();
  }
}

TEST(Differential, GeneratedProgramsAreValidByConstruction) {
  const FuzzOptions opts = tiny_fuzz(42, 500);
  const auto program = generate_program(opts);
  ASSERT_EQ(program.size(), 500u);
  dram::Device device(opts.geometry);
  EXPECT_NO_THROW(dram::execute(device, program));
}

TEST(Differential, InjectedRowBitFlipIsDetected) {
  const FuzzOptions opts = tiny_fuzz(3, 50);
  const Prelude flip = [](dram::Device& device) {
    device.subarray(std::size_t{0}).inject_bit_flip(5, 17);
  };
  const auto d = run_candidate(generate_program(opts), opts, flip);
  ASSERT_TRUE(d.has_value());
}

TEST(Differential, InjectedLatchFlipDetectedAndShrunkToTinyRepro) {
  FuzzOptions opts = tiny_fuzz(7, 120);
  auto program = generate_program(opts);
  // Front a sum cycle so the corrupted latch provably propagates into a row
  // before any TRA / latch reset can overwrite it in both models.
  dram::Instruction observe;
  observe.op = dram::Opcode::kSum;
  observe.subarray = 0;
  observe.src1 = opts.geometry.data_rows();
  observe.src2 = opts.geometry.data_rows() + 1;
  observe.dst = 0;
  program.insert(program.begin(), observe);

  const Prelude flip = [](dram::Device& device) {
    device.subarray(std::size_t{0}).inject_latch_flip(0);
  };
  const auto d = run_candidate(program, opts, flip);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->command_index, 0u);  // caught at the very first sum cycle

  const auto shrunk = shrink(program, opts, flip);
  ASSERT_TRUE(shrunk.has_value());
  // The flip lives in the device state itself, so the minimal repro needs
  // at most the observing command — far under the 10-command bound.
  EXPECT_LE(shrunk->program.size(), 10u);
  EXPECT_TRUE(shrunk->divergence.report().find("latch") != std::string::npos ||
              shrunk->divergence.report().find("row") != std::string::npos);
}

TEST(Differential, ShrinkReturnsNulloptForPassingProgram) {
  const FuzzOptions opts = tiny_fuzz(11, 30);
  EXPECT_FALSE(shrink(generate_program(opts), opts).has_value());
}

TEST(Differential, SymmetricRejectionIsAgreement) {
  // XNOR on data rows is illegal on both models: agreement, not divergence.
  dram::Instruction bad;
  bad.op = dram::Opcode::kAapXnor;
  bad.src1 = 1;
  bad.src2 = 2;
  bad.dst = 3;
  EXPECT_FALSE(run_differential(tiny(), {bad}).has_value());

  // Aliased AAP copy is rejected by both models too.
  dram::Instruction aliased;
  aliased.op = dram::Opcode::kAapCopy;
  aliased.src1 = 4;
  aliased.dst = 4;
  EXPECT_FALSE(run_differential(tiny(), {aliased}).has_value());
}

TEST(Differential, StrictModeReportsSymmetricRejection) {
  // Replaying a captured trace under the wrong geometry makes both models
  // reject compute-row activations that were legal at capture time. In
  // strict mode that is a finding, not agreement.
  dram::Instruction bad;
  bad.op = dram::Opcode::kAapXnor;
  bad.src1 = 1;
  bad.src2 = 2;
  bad.dst = 3;
  DifferentialOptions strict;
  strict.accept_symmetric_rejection = false;
  const auto d = run_differential(tiny(), {bad}, strict);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->site, DivergenceSite::kRejection);
  EXPECT_NE(d->detail.find("both models rejected"), std::string::npos);
}

TEST(Differential, DivergenceReportPinpointsCommandRowAndBit) {
  const dram::Geometry g = tiny();
  dram::Device device(g);
  golden::GoldenDevice golden(g);
  // Make the models disagree by hand: flip a stored bit on the device only.
  device.subarray(std::size_t{0}).inject_bit_flip(9, 13);
  dram::Instruction copy;  // copies the corrupted row: caught immediately
  copy.op = dram::Opcode::kAapCopy;
  copy.src1 = 9;
  copy.dst = 20;
  const auto d = run_differential(device, golden, {copy});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->site, DivergenceSite::kRow);
  EXPECT_EQ(d->command_index, 0u);
  EXPECT_EQ(d->subarray, 0u);
  EXPECT_EQ(d->bit, 13u);
  EXPECT_TRUE(d->device_bit);
  EXPECT_FALSE(d->golden_bit);
  EXPECT_NE(d->report().find("command 0"), std::string::npos);
  EXPECT_NE(d->report().find("bit 13"), std::string::npos);
}

TEST(Differential, ReadAndReductionResultsAreCompared) {
  const FuzzOptions opts = tiny_fuzz(1, 0);
  dram::Program program;
  dram::Instruction w;
  w.op = dram::Opcode::kRowWrite;
  w.src1 = 2;
  w.payload = BitVector(tiny().columns);
  w.payload.set(3, true);
  program.push_back(w);
  dram::Instruction rd;
  rd.op = dram::Opcode::kRowRead;
  rd.src1 = 2;
  program.push_back(rd);
  dram::Instruction pc;
  pc.op = dram::Opcode::kDpuPopcount;
  pc.src1 = 2;
  pc.width = tiny().columns;
  program.push_back(pc);
  EXPECT_FALSE(run_candidate(program, opts).has_value());
}

// ---- Trace capture / replay round trip ----------------------------------

TEST(Differential, CapturedTraceReplaysCleanThroughBothModels) {
  const dram::Geometry g = tiny();
  dram::Device device(g);
  device.enable_tracing();
  auto& sa = device.subarray(std::size_t{1});
  const auto x1 = sa.compute_row(0), x2 = sa.compute_row(1),
             x3 = sa.compute_row(2);
  BitVector bits(g.columns);
  for (std::size_t c = 0; c < g.columns; c += 3) bits.set(c, true);
  sa.write_row(5, bits);
  sa.aap_copy(5, 6);
  sa.aap_copy(5, x1);
  sa.aap_copy(6, x2);
  sa.aap_tra_carry(x1, x2, x3, 7);
  sa.aap_copy(5, x1);
  sa.aap_copy(6, x2);
  sa.sum_cycle(x1, x2, 8);
  sa.reset_latch();
  sa.compare_rows(5, 6, 9);

  const auto program = test_support::captured_program(device);
  ASSERT_FALSE(program.empty());
  // The replay reproduces the exact final state on a fresh device pair.
  auto divergence = run_differential(g, program);
  EXPECT_FALSE(divergence.has_value()) << divergence->report();

  // And the replayed device matches the original, row for row.
  dram::Device replayed(g);
  dram::execute(replayed, program);
  for (dram::RowAddr r = 0; r < g.rows; ++r)
    EXPECT_EQ(replayed.subarray(std::size_t{1}).peek_row(r), sa.peek_row(r))
        << "row " << r;
  EXPECT_EQ(replayed.subarray(std::size_t{1}).peek_latch(), sa.peek_latch());
}

TEST(Differential, CapturedProgramSurvivesTextRoundTrip) {
  const dram::Geometry g = tiny();
  dram::Device device(g);
  device.enable_tracing();
  auto& sa = device.subarray(std::size_t{0});
  BitVector bits(g.columns);
  bits.set(0, true);
  bits.set(g.columns - 1, true);
  sa.write_row(3, bits);
  sa.aap_copy(3, sa.compute_row(0));
  sa.aap_copy(3, sa.compute_row(1));
  sa.aap_xnor(sa.compute_row(0), sa.compute_row(1), 4);
  sa.reset_latch();

  const auto program = test_support::captured_program(device);
  std::istringstream in(dram::to_text(program));
  const auto parsed = dram::parse_program(in);
  EXPECT_EQ(parsed, program);
}

TEST(Differential, CapturedProgramRequiresTracing) {
  dram::Device device(tiny());
  device.subarray(std::size_t{0}).aap_copy(3, 4);
  EXPECT_FALSE(device.tracing());
  EXPECT_EQ(device.trace_if(0), nullptr);
  EXPECT_TRUE(test_support::captured_program(device).empty());
}

}  // namespace
}  // namespace pima::verify
