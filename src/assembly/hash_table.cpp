#include "assembly/hash_table.hpp"

#include <algorithm>

namespace pima::assembly {
namespace {

std::size_t table_size_for(std::size_t expected) {
  // Next power of two above expected/0.7 (power-of-two keeps the probe
  // arithmetic cheap and mirrors the PIM shard's row addressing).
  std::size_t n = 16;
  while (n * 7 < expected * 10) n <<= 1;
  return n;
}

}  // namespace

KmerCounter::KmerCounter(std::size_t expected_entries, unsigned counter_bits)
    : slots_(table_size_for(std::max<std::size_t>(expected_entries, 1))),
      max_freq_(counter_bits >= 32
                    ? ~std::uint32_t{0}
                    : (std::uint32_t{1} << counter_bits) - 1) {
  PIMA_CHECK(counter_bits >= 1 && counter_bits <= 32,
             "counter width must be 1..32 bits");
}

std::uint32_t KmerCounter::insert_or_increment(const Kmer& kmer) {
  if ((entries_ + 1) * 10 > slots_.size() * 7) grow();
  std::size_t i = probe_start(kmer);
  for (;;) {
    Slot& s = slots_[i];
    if (!s.occupied) {
      s.kmer = kmer;
      s.freq = 1;
      s.occupied = true;
      ++entries_;
      ++total_;
      ++ops_.inserts;
      return 1;
    }
    ++ops_.comparisons;
    if (s.kmer == kmer) {
      if (s.freq < max_freq_) ++s.freq;  // saturating
      ++total_;
      ++ops_.increments;
      return s.freq;
    }
    i = (i + 1) & (slots_.size() - 1);
  }
}

std::uint32_t KmerCounter::insert_with_count(const Kmer& kmer,
                                             std::uint32_t count) {
  if (count == 0) return lookup(kmer).value_or(0);
  if ((entries_ + 1) * 10 > slots_.size() * 7) grow();
  std::size_t i = probe_start(kmer);
  for (;;) {
    Slot& s = slots_[i];
    if (!s.occupied) {
      s.kmer = kmer;
      s.freq = std::min(count, max_freq_);
      s.occupied = true;
      ++entries_;
      total_ += count;
      ++ops_.inserts;
      ops_.increments += count - 1;
      return s.freq;
    }
    ++ops_.comparisons;
    if (s.kmer == kmer) {
      const std::uint64_t sum = std::uint64_t{s.freq} + count;
      s.freq = sum > max_freq_ ? max_freq_
                               : static_cast<std::uint32_t>(sum);
      total_ += count;
      ops_.increments += count;
      return s.freq;
    }
    i = (i + 1) & (slots_.size() - 1);
  }
}

std::optional<std::uint32_t> KmerCounter::lookup(const Kmer& kmer) const {
  std::size_t i = probe_start(kmer);
  for (;;) {
    const Slot& s = slots_[i];
    if (!s.occupied) return std::nullopt;
    ++ops_.comparisons;
    if (s.kmer == kmer) return s.freq;
    i = (i + 1) & (slots_.size() - 1);
  }
}

void KmerCounter::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  entries_ = 0;
  const auto saved_total = total_;
  const auto saved_ops = ops_;  // rehash is bookkeeping, not workload ops
  for (const auto& s : old) {
    if (!s.occupied) continue;
    std::size_t i = probe_start(s.kmer);
    while (slots_[i].occupied) i = (i + 1) & (slots_.size() - 1);
    slots_[i] = s;
    ++entries_;
  }
  total_ = saved_total;
  ops_ = saved_ops;
}

KmerCounter build_hashmap(const std::vector<dna::Sequence>& reads,
                          std::size_t k) {
  std::size_t expected = 0;
  for (const auto& r : reads)
    if (r.size() >= k) expected += r.size() - k + 1;
  KmerCounter table(expected / 4 + 16);

  for (const auto& read : reads) {
    if (read.size() < k) continue;
    Kmer window = Kmer::from_sequence(read, 0, k);
    for (std::size_t i = 0;; ++i) {
      table.insert_or_increment(window);
      if (i + k >= read.size()) break;
      window = window.rolled(read.at(i + k));
    }
  }
  return table;
}

}  // namespace pima::assembly
