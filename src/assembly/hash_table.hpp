// Software k-mer counting hash table (the paper's Hashmap(S, k) procedure).
//
// Open-addressing table with linear probing — deliberately the same probe
// discipline the PIM shard uses (core/pim_hash_table), so the software and
// in-memory implementations are step-for-step comparable and the
// instrumentation counters (comparisons, insertions, increments) measured
// here feed the full-scale cost model directly.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "assembly/kmer.hpp"

namespace pima::assembly {

/// Instrumentation matching the paper's op classes: PIM_XNOR comparisons,
/// PIM_Add increments, MEM_insert writes.
struct HashOpCounts {
  std::uint64_t comparisons = 0;  ///< key probes (PIM_XNOR row compares)
  std::uint64_t increments = 0;   ///< frequency updates (PIM_Add)
  std::uint64_t inserts = 0;      ///< new-entry writes (MEM_insert)

  HashOpCounts& operator+=(const HashOpCounts& o) {
    comparisons += o.comparisons;
    increments += o.increments;
    inserts += o.inserts;
    return *this;
  }
};

/// Counting hash table over k-mers with saturating frequencies.
class KmerCounter {
 public:
  /// `expected_entries` sizes the table (load factor kept under 0.7);
  /// `counter_bits` bounds frequencies (the PIM shard stores 8-bit
  /// saturating counters — see core/layout).
  explicit KmerCounter(std::size_t expected_entries,
                       unsigned counter_bits = 32);

  /// Inserts the k-mer or increments its frequency (paper Fig. 5b loop
  /// body). Returns the new frequency.
  std::uint32_t insert_or_increment(const Kmer& kmer);

  /// Adds `count` occurrences at once (saturating) — the bulk path used
  /// when re-materializing a table from already-counted (k-mer, freq)
  /// pairs. Equivalent to `count` insert_or_increment calls but O(1) in
  /// the count. Returns the new frequency.
  std::uint32_t insert_with_count(const Kmer& kmer, std::uint32_t count);

  /// Frequency of a k-mer, or nullopt if absent. Counts probe comparisons.
  std::optional<std::uint32_t> lookup(const Kmer& kmer) const;

  std::size_t distinct_kmers() const { return entries_; }
  std::size_t capacity() const { return slots_.size(); }
  std::uint64_t total_kmers() const { return total_; }

  const HashOpCounts& op_counts() const { return ops_; }
  void reset_op_counts() { ops_ = HashOpCounts{}; }

  /// Deterministic iteration over occupied entries (slot order).
  template <typename Fn>  // Fn(const Kmer&, uint32_t freq)
  void for_each(Fn&& fn) const {
    for (const auto& s : slots_)
      if (s.occupied) fn(s.kmer, s.freq);
  }

 private:
  struct Slot {
    Kmer kmer;
    std::uint32_t freq = 0;
    bool occupied = false;
  };

  std::size_t probe_start(const Kmer& k) const {
    return static_cast<std::size_t>(k.hash() % slots_.size());
  }
  void grow();

  std::vector<Slot> slots_;
  std::size_t entries_ = 0;
  std::uint64_t total_ = 0;
  std::uint32_t max_freq_;
  mutable HashOpCounts ops_;
};

/// Runs the full Hashmap(S,k) procedure over a read set: every read of
/// length L contributes L-k+1 k-mers.
KmerCounter build_hashmap(const std::vector<dna::Sequence>& reads,
                          std::size_t k);

}  // namespace pima::assembly
