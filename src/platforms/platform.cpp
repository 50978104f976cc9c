#include "platforms/platform.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pima::platforms {
namespace {

double von_neumann_throughput(const PlatformSpec& p) {
  PIMA_CHECK(p.mem_bw_gbs > 0.0, "von-Neumann platform needs bandwidth");
  const double mem_bits_per_s =
      p.mem_bw_gbs * 1e9 * 8.0 * p.bw_efficiency / p.bytes_per_result_byte;
  if (p.staging_bw_gbs <= 0.0) return mem_bits_per_s;
  // Operands staged over the host link (2 in, 1 out per result byte).
  const double link_bits_per_s =
      p.staging_bw_gbs * 1e9 * 8.0 / p.bytes_per_result_byte;
  return std::min(mem_bits_per_s, link_bits_per_s);
}

double pim_throughput(const PlatformSpec& p, BulkOp op,
                      std::size_t element_bits) {
  PIMA_CHECK(p.row_cycle_ns > 0.0 && p.concurrent_subarrays > 0,
             "PIM platform needs row cycle and concurrency");
  const double rows_per_s =
      static_cast<double>(p.concurrent_subarrays) / (p.row_cycle_ns * 1e-9);
  switch (op) {
    case BulkOp::kXnor:
      PIMA_CHECK(p.xnor_cycles > 0.0, "PIM platform needs XNOR cycle count");
      return rows_per_s * static_cast<double>(p.row_bits) / p.xnor_cycles;
    case BulkOp::kAdd: {
      PIMA_CHECK(p.add_cycles_per_bit > 0.0,
                 "PIM platform needs add cycle count");
      // Vertical layout: one row-op slice per operand bit; a full element
      // costs add_cycles_per_bit · element_bits row cycles and yields
      // row_bits · element_bits result bits.
      const double cycles = p.add_cycles_per_bit *
                            static_cast<double>(element_bits);
      return rows_per_s *
             static_cast<double>(p.row_bits * element_bits) / cycles;
    }
  }
  return 0.0;
}

}  // namespace

double bulk_throughput_bits_per_s(const PlatformSpec& p, BulkOp op,
                                  double vector_bits,
                                  std::size_t element_bits) {
  PIMA_CHECK(vector_bits > 0.0, "vector must be non-empty");
  if (p.kind == PlatformKind::kVonNeumann) return von_neumann_throughput(p);
  return pim_throughput(p, op, element_bits);
}

}  // namespace pima::platforms
