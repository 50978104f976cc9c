// In-DRAM short-read alignment (seed-and-verify on the PIM substrate).
//
// The paper's introduction situates PIM-Assembler against PIM short-read
// *alignment* accelerators (AlignS and the CPU/GPU/FPGA aligners it cites)
// and notes that the same comparison-heavy structure dominates both
// problems. This module shows the platform covering that workload too:
//
//   * the reference (e.g. assembled contigs) is tiled into 128 bp windows
//     stored one-per-row across sub-arrays (the same Fig. 6 row discipline
//     as the hash shards),
//   * a controller-side k-mer seed index maps a read to candidate
//     (window, offset) placements,
//   * each candidate is verified IN MEMORY: the read is staged into a temp
//     row, the single-cycle two-row XNOR produces per-column match bits
//     against the window row, and the DPU popcount yields the Hamming
//     distance directly — one row cycle + one reduce per candidate,
//     regardless of read length.
//
// Reads from either strand are handled by also seeding the reverse
// complement. Alignment is gapless (substitutions only), matching the
// error model of the paper's short-read setting.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "assembly/kmer.hpp"
#include "dna/sequence.hpp"
#include "dram/device.hpp"

namespace pima::core {

struct AlignerParams {
  std::size_t seed_k = 16;        ///< seed k-mer length
  std::size_t max_mismatches = 3; ///< report alignments within this distance
  std::size_t max_candidates = 16;///< verify at most this many seeds/read
};

struct Alignment {
  std::size_t reference_pos = 0;  ///< 0-based position in the reference
  bool reverse = false;           ///< read aligned as reverse complement
  std::size_t mismatches = 0;     ///< Hamming distance
};

/// Gapless in-memory read aligner over one reference sequence.
class PimAligner {
 public:
  /// Tiles `reference` into rows of `device` starting at sub-array
  /// `first_subarray` (using as many sub-arrays as the tiling needs).
  PimAligner(dram::Device& device, const dna::Sequence& reference,
             const AlignerParams& params = {});

  /// Best alignment (fewest mismatches ≤ max_mismatches), or nullopt.
  std::optional<Alignment> align(const dna::Sequence& read);

  /// Every acceptable alignment, sorted by mismatch count.
  std::vector<Alignment> align_all(const dna::Sequence& read);

  std::size_t window_count() const { return windows_.size(); }
  std::size_t subarrays_used() const;

 private:
  struct Window {
    std::size_t subarray_flat;
    dram::RowAddr row;
    std::size_t ref_pos;   ///< reference position of the window start
    std::size_t length;    ///< bases stored (≤ bases_per_row)
  };

  std::size_t bases_per_row() const;
  /// Verifies a candidate placement with one row compare + DPU popcount;
  /// returns the Hamming distance, or nullopt if out of window bounds.
  std::optional<std::size_t> verify(const Window& w, std::size_t offset,
                                    const dna::Sequence& read);

  dram::Device& device_;
  dna::Sequence reference_;
  AlignerParams params_;
  std::vector<Window> windows_;
  /// seed k-mer → (window index, offset within window) candidates.
  std::unordered_map<assembly::Kmer,
                     std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      seeds_;
};

}  // namespace pima::core
