// Analytic platform models for the paper's comparison targets.
//
// The paper compares PIM-Assembler against an Intel i7 CPU, an NVIDIA GTX
// 1080Ti GPU, HMC 2.0, Ambit, DRISA-1T1C and DRISA-3T1C on bulk bit-wise
// XNOR/addition microbenchmarks (Fig. 3b) and on the assembly application
// (Figs. 9–11). We model each platform the way the paper does:
//
//  * Von-Neumann platforms (CPU/GPU/HMC host path) are bandwidth-limited on
//    bulk bit-wise ops: every result bit forces `bytes_touched_per_result
//    byte` of traffic over the platform's effective memory bandwidth. The
//    GPU additionally pays host↔device staging over PCIe for data that
//    originates in host memory (the paper's "limited memory capacity"
//    argument).
//  * Processing-in-DRAM platforms execute row-wide operations whose cost is
//    a per-design number of AAP row cycles (e.g. Ambit needs 7 memory
//    cycles per XNOR including row initialization; PIM-Assembler needs 1
//    compute cycle plus 2 operand-staging copies). Throughput scales with
//    the number of concurrently activated sub-arrays.
//
// Per-design cycle counts and the concurrency/efficiency calibration are
// documented in presets.cpp and EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <string>

namespace pima::platforms {

/// Bulk bit-wise operations the microbenchmark exercises.
enum class BulkOp : std::uint8_t { kXnor, kAdd };

enum class PlatformKind : std::uint8_t { kVonNeumann, kProcessingInMemory };

/// One modelled platform.
struct PlatformSpec {
  std::string name;
  PlatformKind kind = PlatformKind::kVonNeumann;

  // --- Von-Neumann parameters ---
  double mem_bw_gbs = 0.0;        ///< effective memory bandwidth, GB/s
  double bw_efficiency = 1.0;     ///< achieved fraction of peak on streaming
  double staging_bw_gbs = 0.0;    ///< host↔device link (0 = data is local)
  /// Bytes moved per result byte for a two-operand bulk op (read a, read b,
  /// write r = 3 in the streaming case).
  double bytes_per_result_byte = 3.0;

  // --- PIM parameters ---
  double row_cycle_ns = 0.0;      ///< one AAP primitive (≈ 2·tRAS + tRP)
  std::size_t row_bits = 256;     ///< bits produced by one row-wide op
  std::size_t concurrent_subarrays = 0;  ///< simultaneously active sub-arrays
  double xnor_cycles = 0.0;       ///< AAP cycles per row-wide XNOR (total,
                                  ///  incl. operand staging / row init)
  double add_cycles_per_bit = 0.0;///< AAP cycles per bit of a vertical add

  // --- Power model (application-level figures) ---
  double idle_power_w = 0.0;      ///< static/background power while running
  double peak_dynamic_power_w = 0.0;  ///< dynamic power at full utilization

  /// Extra row cycles a PIM design pays per hash-probe compare beyond its
  /// X(N)OR sequence — row initialization and result readout on designs
  /// without the reconfigurable SA + MAT-DPU fast path (0 for P-A).
  double pim_aux_cycles = 0.0;

  /// Architectural utilization ceiling: the fraction of theoretical peak
  /// the platform sustains when not stalled on data (pipeline bubbles,
  /// decode/dispatch, bank conflicts). Used for the RUR figure.
  double arch_utilization = 0.6;

  // --- Application-level behaviour (Figs. 9/11) ---
  /// Fraction of wall time the platform stalls on on-/off-chip data
  /// transfer for this workload class (Memory Bottleneck Ratio baseline at
  /// k=16; the model grows it with k for bandwidth-bound platforms).
  double mbr_base = 0.0;
  /// How strongly MBR grows with k-mer length (bits moved per query grow
  /// with k on load/store platforms; PIM rows absorb the growth).
  double mbr_k_slope = 0.0;
};

/// Throughput of `op` on bulk vectors of `vector_bits` bits each, in
/// result-bits per second. `element_bits` is the operand word width for
/// addition (the paper's vectors are bit-wise XNOR and element-wise add).
double bulk_throughput_bits_per_s(const PlatformSpec& p, BulkOp op,
                                  double vector_bits,
                                  std::size_t element_bits = 32);

}  // namespace pima::platforms
