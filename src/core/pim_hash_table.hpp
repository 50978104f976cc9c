// In-DRAM k-mer counting hash table (paper Fig. 6 & 7).
//
// Keys are routed to shards (one shard = one sub-array) by hash; inside a
// shard the key probes its home row and linearly scans occupied rows using
// the single-cycle row-parallel comparator:
//
//   1. MEM_insert the query into a temp row,
//   2. PIM_XNOR: stage temp + candidate key row into x1/x2 and perform the
//      two-row-activation XNOR (one cycle), leaving per-column match bits,
//   3. the MAT-level DPU AND-reduces the first 2k bits — full-row match,
//   4. on match, PIM_Add increments the slot's 8-bit saturating counter;
//      on an empty slot, MEM_insert writes the key and sets the counter.
//
// The slot-occupancy bitmap lives in the controller (it is metadata about
// rows, not row data). Counter updates use the DPU read-modify-write path;
// bulk-parallel counter updates across a whole row of counters use the
// vertical PIM_Add (exercised by the graph stage).
//
// Every command lands on the owning sub-array's CommandStats, so hash-table
// construction cost rolls up through dram::Device with full parallelism
// accounting.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "assembly/kmer.hpp"
#include "core/layout.hpp"
#include "dram/device.hpp"
#include "runtime/recovery.hpp"

namespace pima::core {

/// Where a shard's value (counter) rows live relative to its key rows.
enum class MappingPolicy {
  /// Paper Fig. 6: counters co-located with their keys in the same
  /// sub-array — updates are row ops local to the shard.
  kCorrelated,
  /// Ablation baseline: all counters centralized in one dedicated
  /// sub-array (the layout a naive port would use). Every update crosses
  /// sub-arrays through the global row buffer and the value array becomes
  /// a serialization hotspot.
  kCentralValues,
};

/// (k-mer, frequency) pairs as the table reads them back.
using KmerEntries = std::vector<std::pair<assembly::Kmer, std::uint32_t>>;

/// The hash router: the shard a k-mer counts in, of `shards`. Every
/// transport routes by this rule; with shard s at flat first + s and owner
/// dram::owner_of(flat, devices), a sharded run places k-mers by the
/// paper-style owner = hash(canonical kmer) % N.
inline std::size_t hash_shard_of(const assembly::Kmer& kmer,
                                 std::size_t shards) {
  return static_cast<std::size_t>(kmer.hash() % shards);
}

/// Counting hash table materialized in simulated DRAM.
class PimHashTable {
 public:
  /// `shards` sub-arrays are taken from `device` starting at flat index
  /// `first_subarray`. Capacity = shards × layout.kmer_rows keys. With
  /// MappingPolicy::kCentralValues one extra sub-array (at
  /// `first_subarray + shards`) holds every counter.
  PimHashTable(dram::Device& device, std::size_t shards,
               std::size_t first_subarray = 0,
               MappingPolicy policy = MappingPolicy::kCorrelated);

  /// Inserts the k-mer or increments its counter. Returns new frequency.
  ///
  /// Thread compatibility: with the correlated mapping and the key length
  /// bound up front (bind_key_length), concurrent calls are safe as long as
  /// no two threads touch the same shard — all mutable state (sub-array
  /// rows, occupancy bitmap, entry count) is per shard. The runtime's
  /// channel executors guarantee that partitioning.
  std::uint32_t insert_or_increment(const assembly::Kmer& kmer);

  /// Frequency of a k-mer, or nullopt. (Same probe path, no mutation.)
  std::optional<std::uint32_t> lookup(const assembly::Kmer& kmer);

  /// Fixes the key length before any insert, so concurrent inserters never
  /// race on the lazy first-insert initialization.
  void bind_key_length(std::size_t k);

  /// Routes the probe comparator (the table's critical in-array op)
  /// through fault-aware execution: verify-retry/vote per the manager's
  /// policy, host-side recompute once a shard's sub-array degrades.
  /// nullptr restores the unchecked direct path. The manager must outlive
  /// the table's use and is shared per-sub-array, so the runtime's
  /// channel-ownership discipline keeps concurrent shards safe.
  void attach_recovery(runtime::RecoveryManager* recovery) {
    recovery_ = recovery;
  }

  std::size_t distinct_kmers() const;
  std::size_t capacity() const;
  std::size_t shard_count() const { return shards_.size(); }
  const ShardLayout& layout() const { return layout_; }

  /// Shard a k-mer routes to (hash_shard_of over this table's shards).
  std::size_t shard_for(const assembly::Kmer& kmer) const {
    return hash_shard_of(kmer, shards_.size());
  }
  /// Flat device index of a shard's sub-array — what the runtime uses to
  /// route inserts to the channel owning the shard.
  std::size_t shard_subarray_flat(std::size_t shard) const;

  /// Reads one shard back out of DRAM into (k-mer, frequency) pairs, in
  /// slot order. Costed as row reads. The whole table reads out in
  /// (shard, slot) order by concatenating shards 0..shard_count()-1.
  KmerEntries extract_shard(std::size_t shard);

  /// Decodes slot contents straight from row bits without cost (tests).
  std::optional<std::pair<assembly::Kmer, std::uint32_t>> peek_slot(
      std::size_t shard, std::size_t slot) const;

 private:
  struct Shard {
    std::size_t subarray_flat;           ///< index into the device
    std::vector<bool> occupied;          ///< controller-side slot bitmap
    std::size_t entries = 0;
  };

  const dram::Geometry& geometry() const { return device_.geometry(); }

  dram::Subarray& shard_subarray(const Shard& s);
  /// Sub-array holding this shard's counters (shard itself when
  /// correlated; the central value array otherwise).
  dram::Subarray& value_subarray(std::size_t shard_index);
  /// Row address of slot's counter in the value sub-array.
  dram::RowAddr value_row_for(std::size_t shard_index,
                              std::size_t slot) const;
  std::size_t home_slot(const assembly::Kmer& kmer) const;

  /// Row-parallel compare of the staged query against a key slot, through
  /// the recovery executor when one is attached.
  bool probe_matches(const Shard& shard, std::size_t slot, std::size_t k);

  std::uint32_t read_counter(std::size_t shard_index, std::size_t slot);
  void write_counter(std::size_t shard_index, std::size_t slot,
                     std::uint32_t v);

  dram::Device& device_;
  ShardLayout layout_;
  MappingPolicy policy_;
  runtime::RecoveryManager* recovery_ = nullptr;
  std::vector<Shard> shards_;
  std::size_t central_value_flat_ = 0;  ///< used with kCentralValues
  std::size_t k_ = 0;  ///< key length (bound up front or at first insert)
};

}  // namespace pima::core
