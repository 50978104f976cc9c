#include "core/degree.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "dna/genome.hpp"
#include "dram/fault.hpp"
#include "dram/isa.hpp"
#include "golden/golden.hpp"

namespace pima::core {
namespace {

dram::Geometry degree_geometry() {
  dram::Geometry g;
  g.rows = 512;
  g.compute_rows = 8;
  g.columns = 64;
  g.subarrays_per_mat = 16;
  g.mats_per_bank = 4;
  g.banks = 2;
  return g;
}

TEST(ColumnSums, EmptyInputIsZero) {
  dram::Device dev(degree_geometry());
  const auto sums = pim_column_sums(dev.subarray(0), {});
  for (const auto s : sums) EXPECT_EQ(s, 0u);
}

TEST(ColumnSums, SingleRowPassesThrough) {
  dram::Device dev(degree_geometry());
  BitVector row(64);
  row.set(0, true);
  row.set(63, true);
  const auto sums = pim_column_sums(dev.subarray(0), {row});
  EXPECT_EQ(sums[0], 1u);
  EXPECT_EQ(sums[63], 1u);
  EXPECT_EQ(sums[10], 0u);
}

TEST(ColumnSums, PaperFig8Example) {
  // Fig. 8 sums the adjacency matrix of a 6-vertex graph; the final row of
  // per-column degrees reads 4 3 3 2 3 1.
  const char* matrix[6] = {"011110", "100011", "100110",
                           "101000", "111000", "010000"};
  std::vector<BitVector> rows;
  for (const auto* r : matrix) {
    BitVector row(64);
    for (std::size_t c = 0; c < 6; ++c) row.set(c, r[c] == '1');
    rows.push_back(std::move(row));
  }
  dram::Device dev(degree_geometry());
  const auto sums = pim_column_sums(dev.subarray(0), rows);
  const std::uint32_t expect[6] = {4, 3, 3, 2, 3, 1};
  for (std::size_t c = 0; c < 6; ++c) EXPECT_EQ(sums[c], expect[c]) << c;
}

TEST(ColumnSums, MismatchedWidthThrows) {
  dram::Device dev(degree_geometry());
  EXPECT_THROW(pim_column_sums(dev.subarray(0), {BitVector(32)}),
               pima::PreconditionError);
}

TEST(ColumnSums, CommandsAreAccounted) {
  dram::Device dev(degree_geometry());
  BitVector a(64), b(64), c(64);
  a.fill(true);
  b.set(3, true);
  pim_column_sums(dev.subarray(0), {a, b, c});
  const auto& st = dev.subarray(0).stats();
  // A 3-row compression must issue at least one TRA and two-row XORs.
  EXPECT_GE(
      st.counts[static_cast<std::size_t>(dram::CommandKind::kAapTra)], 1u);
  EXPECT_GE(
      st.counts[static_cast<std::size_t>(dram::CommandKind::kAapTwoRow)], 2u);
}

// Property: column sums computed in-memory equal the software popcount per
// column, across row-count regimes that exercise single numbers, one
// compression level, and deep carry-save trees with recycling.
class ColumnSumProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ColumnSumProperty, MatchesSoftware) {
  const std::size_t n_rows = GetParam();
  dram::Device dev(degree_geometry());
  Rng rng(1000 + n_rows);
  std::vector<BitVector> rows;
  std::vector<std::uint32_t> expect(64, 0);
  for (std::size_t r = 0; r < n_rows; ++r) {
    BitVector row(64);
    for (std::size_t c = 0; c < 64; ++c) {
      const bool bit = rng.bernoulli(0.4);
      row.set(c, bit);
      if (bit) ++expect[c];
    }
    rows.push_back(std::move(row));
  }
  const auto sums = pim_column_sums(dev.subarray(0), rows);
  for (std::size_t c = 0; c < 64; ++c) EXPECT_EQ(sums[c], expect[c]) << c;
}

INSTANTIATE_TEST_SUITE_P(RowCounts, ColumnSumProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 9, 16, 33, 64));

// Fast-path oracle: the degree kernel on a plain sub-array (the fused
// carry-save compress) against the same kernel on a sub-array carrying a
// zero-rate fault injector (which injects nothing but forces the
// per-command path). Rows, latch, CommandStats and the captured trace must
// agree exactly, and the trace must replay through the golden model to the
// same state. A third, untraced fused sub-array checks the path that
// production runs take, where no instruction is captured.
class ColumnSumFastPath
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(ColumnSumFastPath, FusedKernelsMatchPerCommandPathAndGolden) {
  const auto [cols, n_rows] = GetParam();
  dram::Geometry g = degree_geometry();
  g.columns = cols;
  dram::Subarray fused(g, circuit::default_technology());
  dram::Subarray untraced(g, circuit::default_technology());
  dram::Subarray stepped(g, circuit::default_technology());
  stepped.attach_fault_injector(std::make_shared<dram::FaultInjector>(
      std::make_shared<const dram::FaultModel>(circuit::TechParams{},
                                               dram::FaultConfig{}),
      0, g));
  dram::Program fused_trace, stepped_trace;
  fused.attach_trace(&fused_trace);
  stepped.attach_trace(&stepped_trace);

  // Random rows with duplicates (every fourth row repeats an earlier one)
  // and some all-zero rows, so equal operands and zero-padded compressions
  // both occur.
  Rng rng(cols * 1000 + n_rows);
  std::vector<BitVector> rows;
  for (std::size_t r = 0; r < n_rows; ++r) {
    if (r % 4 == 3) {
      rows.push_back(rows[rng.uniform(r)]);
      continue;
    }
    BitVector row(cols);
    if (r % 9 != 5)
      for (std::size_t c = 0; c < cols; ++c) row.set(c, rng.bernoulli(0.45));
    rows.push_back(std::move(row));
  }

  const auto sums = pim_column_sums(fused, rows);
  EXPECT_EQ(sums, pim_column_sums(stepped, rows));
  EXPECT_EQ(sums, pim_column_sums(untraced, rows));
  EXPECT_EQ(sums, golden::column_sums(rows));

  for (const dram::Subarray* side : {&fused, &untraced}) {
    SCOPED_TRACE(side == &fused ? "traced" : "untraced");
    for (dram::RowAddr r = 0; r < g.rows; ++r)
      ASSERT_EQ(side->peek_row(r), stepped.peek_row(r)) << "row " << r;
    EXPECT_EQ(side->peek_latch(), stepped.peek_latch());
    for (std::size_t k = 0; k < dram::kCommandKindCount; ++k)
      EXPECT_EQ(side->stats().counts[k], stepped.stats().counts[k]) << k;
    EXPECT_EQ(side->stats().busy_ns, stepped.stats().busy_ns);
    EXPECT_EQ(side->stats().energy_pj, stepped.stats().energy_pj);
  }

  EXPECT_EQ(dram::to_text(fused_trace), dram::to_text(stepped_trace));

  golden::GoldenDevice replay(g);
  golden::execute(replay, fused_trace);
  const auto& gsa = replay.subarray(0);
  for (dram::RowAddr r = 0; r < g.rows; ++r)
    ASSERT_EQ(gsa.row_bits(r), fused.peek_row(r)) << "golden row " << r;
  EXPECT_EQ(gsa.latch_bits(), fused.peek_latch());
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndRowCounts, ColumnSumFastPath,
    ::testing::Combine(::testing::Values(std::size_t{37}, std::size_t{64},
                                         std::size_t{100}, std::size_t{256}),
                       ::testing::Values(std::size_t{3}, std::size_t{8},
                                         std::size_t{40})));

// The degree job's self-check: run_degree_job compares its sums with the
// block's host degrees whenever the sub-array is fault-free.
EdgeBlock check_block() {
  EdgeBlock b;
  b.edges = {{0, 3, 1}, {2, 3, 2}, {5, 40, 1}, {7, 63, 3}};
  return b;
}

TEST(ColumnSumCheck, CorruptedSumThrowsNamingFlatAndColumn) {
  const EdgeBlock block = check_block();
  auto sums = block_column_degrees(block, 64);
  EXPECT_NO_THROW(check_block_sums(7, block, sums));
  sums[40] += 1;
  sums[63] = 0;
  try {
    check_block_sums(7, block, sums);
    FAIL() << "a corrupted sum passed the check";
  } catch (const pima::SimulationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sub-array 7"), std::string::npos) << what;
    EXPECT_NE(what.find("column 40"), std::string::npos) << what;
  }
}

TEST(ColumnSumCheck, FaultFreeJobMatchesAndFaultyJobIsNotChecked) {
  const EdgeBlock block = check_block();
  const auto want = block_column_degrees(block, 64);
  ColumnSumScratch scratch;
  dram::Device clean(degree_geometry());
  EXPECT_EQ(run_degree_job(clean.subarray(3), 3, block, 8, scratch), want);

  // Retention flips corrupt the stored rows, so the sums come out wrong;
  // the job returns them rather than throwing.
  dram::FaultConfig faults;
  faults.retention_flip_per_op = 0.05;
  dram::Device faulty(degree_geometry());
  faulty.enable_faults(faults);
  std::vector<std::uint32_t> sums;
  EXPECT_NO_THROW(
      sums = run_degree_job(faulty.subarray(3), 3, block, 8, scratch));
  EXPECT_NE(sums, want);
}

TEST(PimDegrees, MatchesGraphDegrees) {
  dna::GenomeParams gp;
  gp.length = 400;
  gp.repeat_count = 2;
  gp.repeat_length = 40;
  const auto genome = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.coverage = 6.0;
  rp.read_length = 50;
  const auto reads = dna::sample_reads(genome, rp);
  const auto g = assembly::DeBruijnGraph::from_counter(
      assembly::build_hashmap(reads, 12));

  dram::Device dev(degree_geometry());
  const auto partition = partition_graph(g, 12);  // intervals ≤ 64 columns
  const auto degrees = pim_degrees(dev, g, partition);

  // Host reference: Σ multiplicity of each node's in- and out-edges.
  std::vector<std::uint32_t> in(g.node_count(), 0), out(g.node_count(), 0);
  for (const auto& e : g.edges()) {
    out[e.from] += e.multiplicity;
    in[e.to] += e.multiplicity;
  }
  EXPECT_EQ(degrees.in_degree, in);
  EXPECT_EQ(degrees.out_degree, out);
}

// Channels share nothing but their own scratch buffers: the blocks run
// concurrently on worker threads and every degree and per-sub-array
// statistic equals the inline run's.
TEST(PimDegrees, EngineChannelsMatchInline) {
  dna::GenomeParams gp;
  gp.length = 400;
  gp.repeat_count = 2;
  gp.repeat_length = 40;
  const auto genome = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.coverage = 6.0;
  rp.read_length = 50;
  const auto g = assembly::DeBruijnGraph::from_counter(
      assembly::build_hashmap(dna::sample_reads(genome, rp), 12));
  const auto partition = partition_graph(g, 12);

  dram::Device inline_dev(degree_geometry());
  const auto want = pim_degrees(inline_dev, g, partition);
  dram::Device threaded_dev(degree_geometry());
  runtime::EngineOptions options;
  options.channels = 3;
  runtime::Engine engine(threaded_dev, options);
  const auto got = pim_degrees(threaded_dev, g, partition, &engine);

  EXPECT_EQ(got.in_degree, want.in_degree);
  EXPECT_EQ(got.out_degree, want.out_degree);
  for (std::size_t flat = 0; flat < degree_geometry().total_subarrays();
       ++flat) {
    const dram::Subarray* a = inline_dev.subarray_if(flat);
    const dram::Subarray* b = threaded_dev.subarray_if(flat);
    ASSERT_EQ(a == nullptr, b == nullptr) << flat;
    if (a == nullptr) continue;
    for (std::size_t k = 0; k < dram::kCommandKindCount; ++k)
      EXPECT_EQ(a->stats().counts[k], b->stats().counts[k]) << flat;
    EXPECT_EQ(a->stats().busy_ns, b->stats().busy_ns) << flat;
    EXPECT_EQ(a->stats().energy_pj, b->stats().energy_pj) << flat;
  }
}

TEST(PimDegrees, MultiplicityContributes) {
  // One read with a repeated k-mer: multiplicity-2 edge must count twice.
  std::vector<dna::Sequence> reads{
      dna::Sequence::from_string("CGTGCGTGCTT")};
  const auto g = assembly::DeBruijnGraph::from_counter(
      assembly::build_hashmap(reads, 5), /*use_multiplicity=*/true);
  dram::Device dev(degree_geometry());
  const auto degrees = pim_degrees(dev, g, partition_graph(g, 2));
  std::uint64_t in_total = 0;
  for (const auto d : degrees.in_degree) in_total += d;
  EXPECT_EQ(in_total, g.edge_instances());
}

}  // namespace
}  // namespace pima::core
