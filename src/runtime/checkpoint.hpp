// Versioned, checksummed pipeline snapshots for crash-safe assembly runs.
//
// The pipeline (core::run_pipeline) has three natural persistence points —
// the paper's Fig. 5 stage boundaries: k-mer analysis → de Bruijn
// construction → traversal. After each stage the run's resumable state is
// small and well-defined:
//
//   stage 1 done: the counted k-mer table (extracted (k-mer, freq) pairs)
//   stage 2 done: the de Bruijn graph (sorted edge list — from_edges()
//                 rebuilds the exact same node ids and adjacency)
//   stage 3 done: the contigs
//
// plus, cumulatively, the per-stage DeviceStats and the FaultStats
// roll-up. A snapshot always carries the full state through its last
// completed stage, so one file (`pipeline.ckpt`) is rewritten at each
// boundary and any crash leaves the previous complete snapshot behind.
//
// On-disk format (little-endian, fixed-width):
//
//   magic   "PIMACKPT"          8 bytes
//   version u32                 currently kCheckpointVersion
//   size    u64                 payload byte count
//   crc     u32                 CRC-32 (IEEE 802.3) over the payload
//   payload                     fingerprint + stage state (see .cpp)
//
// Writes are atomic: serialize to `<path>.tmp`, fsync, rename onto the
// final path, fsync the directory. A reader therefore sees either the old
// snapshot or the new one, never a torn file. Loads are all-or-nothing:
// any validation failure (magic, version, truncation, CRC, trailing bytes)
// throws CorruptCheckpointError before the caller's state is touched, and
// CRC-32 guarantees detection of every single-byte corruption.
//
// The fingerprint pins every input that the remaining stages' command
// streams depend on — geometry, k, sharding, traversal flags, fault seed —
// so a resumed run is provably bit-identical to an uninterrupted one
// (contigs, per-stage DeviceStats and FaultStats). Channel count is
// deliberately NOT part of the fingerprint: the runtime's determinism
// contract makes results identical for any --threads value, so a run
// checkpointed at --threads 4 may resume at --threads 1 and vice versa.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "assembly/kmer.hpp"
#include "dna/sequence.hpp"
#include "dram/device.hpp"
#include "runtime/recovery.hpp"

namespace pima::runtime {

// Version 2 added the `devices` fingerprint field (multi-device sharding,
// DESIGN.md §14); version 3 added a per-device `shard` field that version 4
// drops again (pipeline.ckpt is the only resume record, §15). Other versions
// are rejected as corrupt rather than silently resumed under a possibly
// different shard layout.
inline constexpr std::uint32_t kCheckpointVersion = 4;

/// Run configuration pinned by a snapshot. A resume whose live
/// configuration differs in any field is rejected with
/// CorruptCheckpointError (the remaining stages would not reproduce the
/// interrupted run's command streams).
struct CheckpointFingerprint {
  // Pipeline shape.
  std::uint64_t k = 0;
  std::uint64_t hash_shards = 0;
  /// Simulated device count (dram::owner_of). Pinned — unlike --threads —
  /// because the shard fingerprint is part of the run's identity: stage
  /// snapshots were cut under a specific owner = flat % devices layout.
  std::uint64_t devices = 1;
  std::uint32_t graph_intervals = 0;
  bool use_multiplicity = false;
  bool euler_contigs = false;
  std::uint8_t traversal = 0;
  // Device geometry.
  std::uint64_t rows = 0;
  std::uint64_t compute_rows = 0;
  std::uint64_t columns = 0;
  std::uint64_t subarrays_per_mat = 0;
  std::uint64_t mats_per_bank = 0;
  std::uint64_t banks = 0;
  // Stochastic inputs.
  double fault_variation = 0.0;
  std::uint64_t fault_seed = 0;
  double fault_retention = 0.0;
  double fault_weak_rows = 0.0;
  std::uint8_t recovery_mode = 0;

  bool operator==(const CheckpointFingerprint&) const = default;

  /// Human-readable name of the first differing field (for reject
  /// messages); empty when equal.
  std::string diff(const CheckpointFingerprint& other) const;
};

/// Everything run_pipeline needs to skip completed stages. Fields past
/// `stages_done` hold their defaults.
struct PipelineSnapshot {
  CheckpointFingerprint fingerprint;
  std::uint32_t stages_done = 0;  ///< 1 = hashmap, 2 = +debruijn, 3 = all

  dram::DeviceStats hashmap;
  dram::DeviceStats debruijn;
  dram::DeviceStats traverse;
  FaultStats fault_stats;  ///< roll-up through the last completed stage

  std::uint64_t distinct_kmers = 0;
  /// Stage ≥ 1: the counted k-mer table, in (shard, slot) order.
  std::vector<std::pair<assembly::Kmer, std::uint32_t>> kmer_entries;
  /// Stage ≥ 2: de Bruijn edge list (k-mer, multiplicity), in
  /// DeBruijnGraph edge order — from_edges() reproduces the graph exactly.
  std::vector<std::pair<assembly::Kmer, std::uint32_t>> graph_edges;
  /// Stage ≥ 3: the assembled contigs.
  std::vector<dna::Sequence> contigs;

  bool operator==(const PipelineSnapshot&) const = default;
};

/// Serializes and atomically writes the snapshot (tmp + fsync + rename).
/// Throws IoError on OS failures.
void save_checkpoint(const std::string& path, const PipelineSnapshot& snap);

/// Loads and validates a snapshot. Throws IoError if the file cannot be
/// opened and CorruptCheckpointError on any validation failure.
PipelineSnapshot load_checkpoint(const std::string& path);

/// Validates that a loaded snapshot may seed a run with fingerprint
/// `current`; throws CorruptCheckpointError naming the mismatched field.
void validate_compatible(const PipelineSnapshot& snap,
                         const CheckpointFingerprint& current);

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) — exposed for corruption
/// tests.
std::uint32_t crc32(const void* data, std::size_t size);

}  // namespace pima::runtime
