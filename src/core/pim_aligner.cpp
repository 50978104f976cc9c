#include "core/pim_aligner.hpp"

#include <algorithm>
#include <set>

#include "dram/dpu.hpp"

namespace pima::core {

std::size_t PimAligner::bases_per_row() const {
  return device_.geometry().columns / 2;
}

PimAligner::PimAligner(dram::Device& device, const dna::Sequence& reference,
                       const AlignerParams& params)
    : device_(device), reference_(reference), params_(params) {
  PIMA_CHECK(!reference.empty(), "empty reference");
  PIMA_CHECK(params_.seed_k >= 8 && params_.seed_k <= assembly::Kmer::kMaxK,
             "seed k out of range");
  // Consecutive reference rows overlap by 4/5 of a row (a stride of B/5);
  // an overlap of at least read length − 1 never misses a placement.
  const std::size_t b = bases_per_row();
  const std::size_t overlap = b * 4 / 5;
  PIMA_CHECK(overlap < b, "overlap must leave a stride");
  const std::size_t stride = b - overlap;

  // Tile the reference into window rows. The last data row of every
  // sub-array is kept free as the query staging (temp) row.
  const std::size_t rows_per_sa = device.geometry().data_rows() - 1;
  std::size_t sa = 0, row = 0;
  for (std::size_t pos = 0; pos < reference.size(); pos += stride) {
    const std::size_t len = std::min(b, reference.size() - pos);
    if (len < params_.seed_k) break;
    Window w;
    w.subarray_flat = sa;
    w.row = row;
    w.ref_pos = pos;
    w.length = len;
    BitVector image(device.geometry().columns);
    image.copy_range_from(reference.to_bits(pos, len), 0);
    device.subarray(sa).write_row(row, image);
    windows_.push_back(w);
    if (++row == rows_per_sa) {
      row = 0;
      ++sa;
      PIMA_CHECK(sa < device.geometry().total_subarrays(),
                 "reference exceeds device capacity");
    }
    if (len < b) break;  // final partial window
  }

  // Controller-side seed index over every window position.
  for (std::uint32_t wi = 0; wi < windows_.size(); ++wi) {
    const Window& w = windows_[wi];
    for (std::size_t o = 0; o + params_.seed_k <= w.length; ++o) {
      auto& hits = seeds_[assembly::Kmer::from_sequence(
          reference_, w.ref_pos + o, params_.seed_k)];
      if (hits.size() < 8)
        hits.emplace_back(wi, static_cast<std::uint32_t>(o));
    }
  }
}

std::size_t PimAligner::subarrays_used() const {
  std::set<std::size_t> used;
  for (const auto& w : windows_) used.insert(w.subarray_flat);
  return used.size();
}

std::optional<std::size_t> PimAligner::verify(const Window& w,
                                              std::size_t offset,
                                              const dna::Sequence& read) {
  if (offset + read.size() > w.length) return std::nullopt;
  dram::Subarray& sa = device_.subarray(w.subarray_flat);
  const dram::RowAddr temp = sa.geometry().data_rows() - 1;

  // Stage the query aligned to the candidate offset; columns outside the
  // read span are ignored by the DPU's masked reduction.
  BitVector query(sa.geometry().columns);
  query.copy_range_from(read.to_bits(0, read.size()), 2 * offset);
  sa.write_row(temp, query);

  // Single-cycle row compare, then base-level Hamming distance via the
  // DPU pair-AND popcount over the read's bit range.
  const dram::RowAddr result = sa.compute_row(3);
  sa.compare_rows(temp, w.row, result);
  const std::size_t matching =
      dram::Dpu::popcount_pairs(sa, result, 2 * offset, read.size());
  return read.size() - matching;
}

std::vector<Alignment> PimAligner::align_all(const dna::Sequence& read) {
  std::vector<Alignment> out;
  if (read.size() < params_.seed_k) return out;

  const dna::Sequence rc = read.reverse_complement();
  std::set<std::pair<std::size_t, bool>> tried;  // (ref_pos, reverse)
  std::size_t verifications = 0;

  for (const bool reverse : {false, true}) {
    const dna::Sequence& q = reverse ? rc : read;
    for (std::size_t anchor = 0;
         anchor + params_.seed_k <= q.size() &&
         verifications < params_.max_candidates;
         anchor += params_.seed_k) {
      const auto it =
          seeds_.find(assembly::Kmer::from_sequence(q, anchor, params_.seed_k));
      if (it == seeds_.end()) continue;
      for (const auto& [wi, off] : it->second) {
        if (verifications >= params_.max_candidates) break;
        if (off < anchor) continue;
        const Window& w = windows_[wi];
        const std::size_t window_offset = off - anchor;
        // Only windows that hold the whole read count as candidates — the
        // same placement usually appears in several overlapping windows,
        // and a truncating one must not shadow a fitting duplicate.
        if (window_offset + q.size() > w.length) continue;
        const std::size_t ref_pos = w.ref_pos + window_offset;
        if (!tried.insert({ref_pos, reverse}).second) continue;
        ++verifications;
        const auto distance = verify(w, window_offset, q);
        if (distance && *distance <= params_.max_mismatches)
          out.push_back({ref_pos, reverse, *distance});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Alignment& a, const Alignment& b) {
    return std::tie(a.mismatches, a.reference_pos) <
           std::tie(b.mismatches, b.reference_pos);
  });
  return out;
}

std::optional<Alignment> PimAligner::align(const dna::Sequence& read) {
  const auto all = align_all(read);
  if (all.empty()) return std::nullopt;
  return all.front();
}

}  // namespace pima::core
