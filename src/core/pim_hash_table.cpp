#include "core/pim_hash_table.hpp"

#include "dram/dpu.hpp"

namespace pima::core {

namespace {
// Secondary hash for the in-shard home slot, independent of the shard
// router so shard and slot choices are uncorrelated.
std::uint64_t slot_hash(const assembly::Kmer& km) {
  std::uint64_t z = km.hash() ^ 0xda942042e4dd58b5ull;
  z = (z ^ (z >> 29)) * 0xff51afd7ed558ccdull;
  return z ^ (z >> 32);
}
}  // namespace

PimHashTable::PimHashTable(dram::Device& device, std::size_t shards,
                           std::size_t first_subarray, MappingPolicy policy)
    : device_(device),
      layout_(ShardLayout::for_geometry(device.geometry())),
      policy_(policy) {
  PIMA_CHECK(shards > 0, "need at least one shard");
  const std::size_t extra =
      policy == MappingPolicy::kCentralValues ? 1 : 0;
  PIMA_CHECK(
      first_subarray + shards + extra <= geometry().total_subarrays(),
      "shard range exceeds device");
  if (policy == MappingPolicy::kCentralValues) {
    central_value_flat_ = first_subarray + shards;
    const std::size_t counter_rows =
        (shards * layout_.kmer_rows + layout_.counters_per_row() - 1) /
        layout_.counters_per_row();
    PIMA_CHECK(counter_rows <= geometry().data_rows(),
               "central value array cannot hold every counter — use the "
               "correlated mapping for tables this large");
  }
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    Shard sh;
    sh.subarray_flat = first_subarray + s;
    sh.occupied.assign(layout_.kmer_rows, false);
    shards_.push_back(std::move(sh));
  }
}

dram::Subarray& PimHashTable::value_subarray(std::size_t shard_index) {
  if (policy_ == MappingPolicy::kCentralValues)
    return device_.subarray(central_value_flat_);
  return shard_subarray(shards_[shard_index]);
}

dram::RowAddr PimHashTable::value_row_for(std::size_t shard_index,
                                          std::size_t slot) const {
  if (policy_ == MappingPolicy::kCentralValues) {
    const std::size_t global = shard_index * layout_.kmer_rows + slot;
    return global / layout_.counters_per_row();
  }
  return layout_.value_row(slot);
}

dram::Subarray& PimHashTable::shard_subarray(const Shard& s) {
  return device_.subarray(s.subarray_flat);
}

std::size_t PimHashTable::capacity() const {
  return shards_.size() * layout_.kmer_rows;
}

std::size_t PimHashTable::shard_subarray_flat(std::size_t shard) const {
  PIMA_CHECK(shard < shards_.size(), "shard index out of table");
  return shards_[shard].subarray_flat;
}

void PimHashTable::bind_key_length(std::size_t k) {
  PIMA_CHECK(k_ == 0 || k_ == k, "mixed k within one table");
  PIMA_CHECK(k >= 1 && k <= assembly::Kmer::kMaxK, "k out of range");
  k_ = k;
}

std::size_t PimHashTable::distinct_kmers() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) n += sh.entries;
  return n;
}

std::size_t PimHashTable::home_slot(const assembly::Kmer& kmer) const {
  return static_cast<std::size_t>(slot_hash(kmer) % layout_.kmer_rows);
}

bool PimHashTable::probe_matches(const Shard& shard, std::size_t slot,
                                 std::size_t k) {
  // PIM_XNOR (Fig. 7): stage + single-cycle two-row XNOR into a compute
  // row, then DPU AND-reduction over the key bits. A false probe result
  // corrupts the table (duplicate keys or phantom increments), so this is
  // the op the recovery layer guards when fault-aware execution is on.
  dram::Subarray& sa = shard_subarray(shard);
  const dram::RowAddr result = sa.compute_row(3);
  if (recovery_ != nullptr) {
    recovery_->executor_for(shard.subarray_flat)
        .compare_rows(layout_.temp_row(0), layout_.kmer_row(slot), result);
  } else {
    sa.compare_rows(layout_.temp_row(0), layout_.kmer_row(slot), result);
  }
  return dram::Dpu::and_reduce(sa, result, 2 * k);
}

std::uint32_t PimHashTable::read_counter(std::size_t shard_index,
                                         std::size_t slot) {
  dram::Subarray& sa = value_subarray(shard_index);
  const dram::RowAddr addr = value_row_for(shard_index, slot);
  const std::size_t global = policy_ == MappingPolicy::kCentralValues
                                 ? shard_index * layout_.kmer_rows + slot
                                 : slot;
  const std::size_t off =
      (global % layout_.counters_per_row()) * layout_.counter_bits;
  const BitVector& row = sa.read_row(addr);
  std::uint32_t v = 0;
  for (std::size_t b = 0; b < layout_.counter_bits; ++b)
    if (row.get(off + b)) v |= std::uint32_t{1} << b;
  return v;
}

void PimHashTable::write_counter(std::size_t shard_index, std::size_t slot,
                                 std::uint32_t v) {
  dram::Subarray& sa = value_subarray(shard_index);
  const dram::RowAddr addr = value_row_for(shard_index, slot);
  const std::size_t global = policy_ == MappingPolicy::kCentralValues
                                 ? shard_index * layout_.kmer_rows + slot
                                 : slot;
  const std::size_t off =
      (global % layout_.counters_per_row()) * layout_.counter_bits;
  BitVector row = sa.peek_row(addr);
  for (std::size_t b = 0; b < layout_.counter_bits; ++b)
    row.set(off + b, (v >> b) & 1u);
  sa.write_row(addr, row);
}

std::uint32_t PimHashTable::insert_or_increment(const assembly::Kmer& kmer) {
  if (k_ == 0) k_ = kmer.k();
  PIMA_CHECK(kmer.k() == k_, "mixed k within one table");
  PIMA_CHECK(2 * k_ <= geometry().columns,
             "k-mer exceeds row width (max 128 bp)");

  const std::size_t shard_index = shard_for(kmer);
  Shard& shard = shards_[shard_index];
  dram::Subarray& sa = shard_subarray(shard);

  // Stage the query into the temp region (MEM_insert of the new query,
  // Fig. 6). The row image is the 2-bit packed k-mer, zero padded.
  BitVector query(geometry().columns);
  query.copy_range_from(kmer.to_sequence().to_bits(0, k_), 0);
  sa.write_row(layout_.temp_row(0), query);

  std::size_t slot = home_slot(kmer);
  for (std::size_t probes = 0; probes < layout_.kmer_rows; ++probes) {
    if (!shard.occupied[slot]) {
      // MEM_insert(k_mer, 1): RowClone the staged query into the key slot
      // and set its counter.
      sa.aap_copy(layout_.temp_row(0), layout_.kmer_row(slot));
      shard.occupied[slot] = true;
      ++shard.entries;
      write_counter(shard_index, slot, 1);
      return 1;
    }
    if (probe_matches(shard, slot, k_)) {
      // PIM_Add(k_mer, 1) + MEM_insert(k_mer, New_freq): saturating 8-bit
      // increment through the DPU read-modify-write path.
      const std::uint32_t max =
          (std::uint32_t{1} << layout_.counter_bits) - 1;
      std::uint32_t v = read_counter(shard_index, slot);
      if (v < max) ++v;
      write_counter(shard_index, slot, v);
      return v;
    }
    slot = (slot + 1) % layout_.kmer_rows;
  }
  throw SimulationError(
      "hash shard full: " + std::to_string(layout_.kmer_rows) +
      " keys — use more shards for this workload");
}

std::optional<std::uint32_t> PimHashTable::lookup(const assembly::Kmer& kmer) {
  if (k_ == 0 || kmer.k() != k_) return std::nullopt;
  const std::size_t shard_index = shard_for(kmer);
  Shard& shard = shards_[shard_index];
  dram::Subarray& sa = shard_subarray(shard);

  BitVector query(geometry().columns);
  query.copy_range_from(kmer.to_sequence().to_bits(0, k_), 0);
  sa.write_row(layout_.temp_row(0), query);

  std::size_t slot = home_slot(kmer);
  for (std::size_t probes = 0; probes < layout_.kmer_rows; ++probes) {
    if (!shard.occupied[slot]) return std::nullopt;
    if (probe_matches(shard, slot, k_)) return read_counter(shard_index, slot);
    slot = (slot + 1) % layout_.kmer_rows;
  }
  return std::nullopt;
}

std::optional<std::pair<assembly::Kmer, std::uint32_t>>
PimHashTable::peek_slot(std::size_t shard, std::size_t slot) const {
  PIMA_CHECK(shard < shards_.size(), "shard index out of table");
  PIMA_CHECK(slot < layout_.kmer_rows, "slot index out of shard");
  const Shard& sh = shards_[shard];
  if (!sh.occupied[slot] || k_ == 0) return std::nullopt;
  const dram::Subarray* sa_ptr = device_.subarray_if(sh.subarray_flat);
  PIMA_CHECK(sa_ptr != nullptr, "occupied shard must be instantiated");
  const BitVector& key_row = sa_ptr->peek_row(layout_.kmer_row(slot));
  const auto seq = dna::Sequence::from_bits(key_row, 0, k_);
  const assembly::Kmer km = assembly::Kmer::from_sequence(seq, 0, k_);
  const dram::Subarray* val_ptr =
      policy_ == MappingPolicy::kCentralValues
          ? device_.subarray_if(central_value_flat_)
          : sa_ptr;
  PIMA_CHECK(val_ptr != nullptr, "value array must be instantiated");
  const std::size_t global = policy_ == MappingPolicy::kCentralValues
                                 ? shard * layout_.kmer_rows + slot
                                 : slot;
  const BitVector& val_row = val_ptr->peek_row(value_row_for(shard, slot));
  const std::size_t off =
      (global % layout_.counters_per_row()) * layout_.counter_bits;
  std::uint32_t v = 0;
  for (std::size_t b = 0; b < layout_.counter_bits; ++b)
    if (val_row.get(off + b)) v |= std::uint32_t{1} << b;
  return std::make_pair(km, v);
}

KmerEntries PimHashTable::extract_shard(std::size_t shard) {
  PIMA_CHECK(shard < shards_.size(), "shard index out of table");
  KmerEntries out;
  Shard& sh = shards_[shard];
  out.reserve(sh.entries);
  if (sh.entries == 0) return out;
  dram::Subarray& sa = shard_subarray(sh);
  for (std::size_t slot = 0; slot < layout_.kmer_rows; ++slot) {
    if (!sh.occupied[slot]) continue;
    const BitVector& key_row = sa.read_row(layout_.kmer_row(slot));
    const auto seq = dna::Sequence::from_bits(key_row, 0, k_);
    out.emplace_back(assembly::Kmer::from_sequence(seq, 0, k_),
                     read_counter(shard, slot));
  }
  return out;
}

}  // namespace pima::core
