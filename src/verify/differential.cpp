#include "verify/differential.hpp"

#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace pima::verify {
namespace {

// Full-device diff every this many instructions. The per-instruction
// touched-row diff and the final full diff always run.
constexpr std::size_t kFullDiffPeriod = 64;

/// Rows whose contents an instruction may have changed (size expansion
/// included). The latch is handled separately.
std::vector<dram::RowAddr> touched_rows(const dram::Instruction& inst) {
  using dram::Opcode;
  std::vector<dram::RowAddr> rows;
  switch (inst.op) {
    case Opcode::kAapCopy:
      for (std::size_t r = 0; r < inst.size; ++r) {
        rows.push_back(inst.src1 + r);
        rows.push_back(inst.dst + r);
      }
      break;
    case Opcode::kAapXnor:
    case Opcode::kAapXor:
    case Opcode::kSum:
      rows.push_back(inst.src1);
      rows.push_back(inst.src2);
      for (std::size_t r = 0; r < inst.size; ++r) rows.push_back(inst.dst + r);
      break;
    case Opcode::kAapTra:
      rows.push_back(inst.src1);
      rows.push_back(inst.src2);
      rows.push_back(inst.src3);
      for (std::size_t r = 0; r < inst.size; ++r) rows.push_back(inst.dst + r);
      break;
    case Opcode::kRowWrite:
      for (std::size_t r = 0; r < inst.size; ++r) rows.push_back(inst.src1 + r);
      break;
    case Opcode::kResetLatch:
    case Opcode::kRowRead:
    case Opcode::kDpuAnd:
    case Opcode::kDpuOr:
    case Opcode::kDpuPopcount:
      break;  // state-preserving (latch aside)
  }
  return rows;
}

bool touches_latch(dram::Opcode op) {
  return op == dram::Opcode::kAapTra || op == dram::Opcode::kResetLatch;
}

std::optional<Divergence> diff_bits(const BitVector& device_bits,
                                    const BitVector& golden_bits,
                                    DivergenceSite site, std::size_t flat,
                                    dram::RowAddr row) {
  if (device_bits == golden_bits) return std::nullopt;
  Divergence d;
  d.site = site;
  d.subarray = flat;
  d.row = row;
  const std::size_t n = std::min(device_bits.size(), golden_bits.size());
  for (std::size_t c = 0; c < n; ++c) {
    if (device_bits.get(c) != golden_bits.get(c)) {
      d.bit = c;
      d.device_bit = device_bits.get(c);
      d.golden_bit = golden_bits.get(c);
      return d;
    }
  }
  // Sizes differ with a common prefix — report the first missing bit.
  d.bit = n;
  d.detail = "row widths differ between the models";
  return d;
}

std::optional<Divergence> diff_rows(const dram::Subarray& sa,
                                    const golden::GoldenSubArray& gsa,
                                    std::size_t flat,
                                    const std::vector<dram::RowAddr>& rows) {
  for (const auto r : rows)
    if (auto d = diff_bits(sa.peek_row(r), gsa.row_bits(r),
                           DivergenceSite::kRow, flat, r))
      return d;
  return std::nullopt;
}

template <typename T>
std::optional<Divergence> diff_result_tail(const std::vector<T>& device_vals,
                                           const std::vector<T>& golden_vals,
                                           const char* what) {
  PIMA_CHECK(device_vals.size() == golden_vals.size(),
             "result streams out of step");
  if (device_vals.empty()) return std::nullopt;
  const auto& dv = device_vals.back();
  const auto& gv = golden_vals.back();
  if (dv == gv) return std::nullopt;
  Divergence d;
  d.site = DivergenceSite::kResult;
  std::ostringstream out;
  out << what << " #" << (device_vals.size() - 1) << " differs";
  if constexpr (std::is_same_v<T, BitVector>) {
    const auto bit_diff = diff_bits(dv, gv, DivergenceSite::kResult, 0, 0);
    if (bit_diff) {
      d.bit = bit_diff->bit;
      d.device_bit = bit_diff->device_bit;
      d.golden_bit = bit_diff->golden_bit;
      out << " first at bit " << d.bit;
    }
  } else {
    out << ": device=" << dv << " golden=" << gv;
  }
  d.detail = out.str();
  return d;
}

void append(std::vector<BitVector>& into, std::vector<BitVector>&& from) {
  for (auto& v : from) into.push_back(std::move(v));
}
void append(std::vector<bool>& into, const std::vector<bool>& from) {
  into.insert(into.end(), from.begin(), from.end());
}
void append(std::vector<std::size_t>& into,
            const std::vector<std::size_t>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

}  // namespace

std::string Divergence::report() const {
  std::ostringstream out;
  out << "divergence at command " << command_index;
  if (!command_text.empty()) out << " [" << command_text << "]";
  out << " sub-array " << subarray;
  switch (site) {
    case DivergenceSite::kRow:
      out << " row " << row << " bit " << bit << ": device="
          << (device_bit ? 1 : 0) << " golden=" << (golden_bit ? 1 : 0);
      break;
    case DivergenceSite::kLatch:
      out << " carry latch bit " << bit << ": device=" << (device_bit ? 1 : 0)
          << " golden=" << (golden_bit ? 1 : 0);
      break;
    case DivergenceSite::kResult:
      out << " result mismatch";
      break;
    case DivergenceSite::kRejection:
      out << " rejection asymmetry";
      break;
  }
  if (!detail.empty()) out << " (" << detail << ")";
  return out.str();
}

std::optional<Divergence> diff_subarray(const dram::Subarray& sa,
                                        const golden::GoldenSubArray& gsa,
                                        std::size_t flat) {
  const auto& geom = sa.geometry();
  for (dram::RowAddr r = 0; r < geom.rows; ++r)
    if (auto d = diff_bits(sa.peek_row(r), gsa.row_bits(r),
                           DivergenceSite::kRow, flat, r))
      return d;
  return diff_bits(sa.peek_latch(), gsa.latch_bits(), DivergenceSite::kLatch,
                   flat, 0);
}

std::optional<Divergence> diff_state(const dram::Device& device,
                                     const golden::GoldenDevice& golden) {
  const std::size_t total = device.geometry().total_subarrays();
  for (std::size_t flat = 0; flat < total; ++flat) {
    const dram::Subarray* sa = device.subarray_if(flat);
    const golden::GoldenSubArray* gsa = golden.subarray_if(flat);
    if (sa == nullptr && gsa == nullptr) continue;
    // One side instantiated, the other not: an uninstantiated sub-array is
    // all zeros, so the instantiated side must be all zeros too.
    if (sa == nullptr || gsa == nullptr) {
      const auto& geom = device.geometry();
      for (dram::RowAddr r = 0; r < geom.rows; ++r) {
        const BitVector bits = sa ? sa->peek_row(r) : gsa->row_bits(r);
        const BitVector zero(bits.size());
        const BitVector& device_bits = sa ? bits : zero;
        const BitVector& golden_bits = sa ? zero : bits;
        if (auto d = diff_bits(device_bits, golden_bits, DivergenceSite::kRow,
                               flat, r))
          return d;
      }
      const BitVector latch = sa ? sa->peek_latch() : gsa->latch_bits();
      const BitVector zero(latch.size());
      if (auto d = diff_bits(sa ? latch : zero, sa ? zero : latch,
                             DivergenceSite::kLatch, flat, 0))
        return d;
      continue;
    }
    if (auto d = diff_subarray(*sa, *gsa, flat)) return d;
  }
  return std::nullopt;
}

std::optional<Divergence> run_differential(dram::Device& device,
                                           golden::GoldenDevice& golden,
                                           const dram::Program& program,
                                           const DifferentialOptions& options) {
  dram::ExecutionResults device_results;
  golden::GoldenResults golden_results;

  for (std::size_t i = 0; i < program.size(); ++i) {
    const auto& inst = program[i];
    const dram::Program single{inst};

    bool device_rejected = false;
    bool golden_rejected = false;
    std::string device_msg;
    std::string golden_msg;
    try {
      auto r = dram::execute(device, single);
      append(device_results.rows_read, std::move(r.rows_read));
      append(device_results.reductions, r.reductions);
      append(device_results.popcounts, r.popcounts);
    } catch (const PreconditionError& e) {
      device_rejected = true;
      device_msg = e.what();
    }
    try {
      auto r = golden::execute(golden, single);
      append(golden_results.rows_read, std::move(r.rows_read));
      append(golden_results.reductions, r.reductions);
      append(golden_results.popcounts, r.popcounts);
    } catch (const PreconditionError& e) {
      golden_rejected = true;
      golden_msg = e.what();
    }

    if (device_rejected != golden_rejected) {
      Divergence d;
      d.site = DivergenceSite::kRejection;
      d.command_index = i;
      d.subarray = inst.subarray;
      d.command_text = dram::to_text(inst);
      d.detail = device_rejected
                     ? "device rejected (" + device_msg + "), golden executed"
                     : "golden rejected (" + golden_msg + "), device executed";
      return d;
    }
    if (device_rejected) {
      if (options.accept_symmetric_rejection) return std::nullopt;  // agree
      Divergence d;
      d.site = DivergenceSite::kRejection;
      d.command_index = i;
      d.subarray = inst.subarray;
      d.command_text = dram::to_text(inst);
      d.detail = "both models rejected (" + device_msg +
                 ") — replay geometry does not fit the trace";
      return d;
    }

    // Diff the instruction's footprint immediately.
    auto& sa = device.subarray(inst.subarray);
    auto& gsa = golden.subarray(inst.subarray);
    auto fill = [&](Divergence d) {
      d.command_index = i;
      if (d.site != DivergenceSite::kResult) d.subarray = inst.subarray;
      d.command_text = dram::to_text(inst);
      return d;
    };
    if (auto d = diff_rows(sa, gsa, inst.subarray, touched_rows(inst)))
      return fill(std::move(*d));
    if (touches_latch(inst.op))
      if (auto d = diff_bits(sa.peek_latch(), gsa.latch_bits(),
                             DivergenceSite::kLatch, inst.subarray, 0))
        return fill(std::move(*d));
    if (auto d = diff_result_tail(device_results.rows_read,
                                  golden_results.rows_read, "ROW_READ"))
      return fill(std::move(*d));
    if (auto d = diff_result_tail(device_results.reductions,
                                  golden_results.reductions, "reduction"))
      return fill(std::move(*d));
    if (auto d = diff_result_tail(device_results.popcounts,
                                  golden_results.popcounts, "popcount"))
      return fill(std::move(*d));

    if ((i + 1) % kFullDiffPeriod == 0)
      if (auto d = diff_state(device, golden)) return fill(std::move(*d));
  }

  if (auto d = diff_state(device, golden)) {
    d->command_index = program.size();
    d->command_text = "<final full-state diff>";
    return d;
  }
  return std::nullopt;
}

std::optional<Divergence> run_differential(const dram::Geometry& geometry,
                                           const dram::Program& program,
                                           const DifferentialOptions& options) {
  dram::Device device(geometry);
  golden::GoldenDevice golden(geometry);
  return run_differential(device, golden, program, options);
}

}  // namespace pima::verify
