#include "dram/subarray.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace pima::dram {

Subarray::Subarray(const Geometry& geometry, const circuit::Technology& tech)
    : geom_(geometry), latch_(geometry.columns) {
  geom_.validate();
  rows_.assign(geom_.rows, BitVector(geom_.columns));
  for (std::size_t k = 0; k < kCommandKindCount; ++k) {
    const auto kind = static_cast<CommandKind>(k);
    latency_[k] = command_latency_ns(kind, tech.timing);
    energy_[k] = command_energy_pj(kind, geom_.columns, tech.energy);
  }
}

RowAddr Subarray::compute_row(std::size_t i) const {
  PIMA_CHECK(i < geom_.compute_rows, "compute row index out of range");
  return geom_.data_rows() + i;
}

bool Subarray::is_compute_row(RowAddr r) const {
  return r >= geom_.data_rows() && r < geom_.rows;
}

void Subarray::check_row(RowAddr r) const {
  PIMA_CHECK(r < geom_.rows, "row address out of sub-array");
}

void Subarray::check_compute(RowAddr r, const char* what) const {
  check_row(r);
  PIMA_CHECK(is_compute_row(r),
             std::string("multi-row activation outside computation rows: ") +
                 what);
}

void Subarray::record(CommandKind k, Opcode op, RowAddr a, RowAddr b,
                      RowAddr c, RowAddr dst, const BitVector* payload) {
  if (fault_ != nullptr) retention_tick();
  const auto i = static_cast<std::size_t>(k);
  if (trace_ != nullptr) trace_command(op, a, b, c, dst, payload);
  stats_.record(k, latency_[i], energy_[i]);
}

void Subarray::retention_tick() {
  // Retention process: one tick per executed command, occasionally
  // decaying a stored data-row cell.
  if (const auto cell = fault_->retention_target())
    rows_[cell->row].set(cell->col, !rows_[cell->row].get(cell->col));
}

void Subarray::trace_command(Opcode op, RowAddr a, RowAddr b, RowAddr c,
                             RowAddr dst, const BitVector* payload) {
  Instruction inst;
  inst.op = op;
  inst.subarray = trace_flat_;
  inst.src1 = a;
  inst.src2 = b;
  inst.src3 = c;
  inst.dst = dst;
  if (payload != nullptr) inst.payload = *payload;
  // The DPU fetch does not know the reduce flavour or width; a full-width
  // popcount reproduces the command cost and, like any reduce, leaves the
  // row state untouched.
  if (op == Opcode::kDpuPopcount) inst.width = geom_.columns;
  trace_->push_back(std::move(inst));
}

const BitVector& Subarray::read_row(RowAddr r) {
  check_row(r);
  record(CommandKind::kRowRead, Opcode::kRowRead, r);
  return rows_[r];
}

void Subarray::write_row(RowAddr r, const BitVector& bits) {
  check_row(r);
  PIMA_CHECK(bits.size() == geom_.columns, "row width mismatch");
  record(CommandKind::kRowWrite, Opcode::kRowWrite, r, 0, 0, 0, &bits);
  rows_[r].assign(bits);
}

const BitVector& Subarray::peek_row(RowAddr r) const {
  check_row(r);
  return rows_[r];
}

void Subarray::inject_bit_flip(RowAddr r, std::size_t col) {
  check_row(r);
  PIMA_CHECK(col < geom_.columns, "fault column out of row");
  rows_[r].set(col, !rows_[r].get(col));
}

void Subarray::inject_latch_flip(std::size_t col) {
  PIMA_CHECK(col < geom_.columns, "fault column out of latch");
  latch_.set(col, !latch_.get(col));
}

void Subarray::aap_copy(RowAddr src, RowAddr dst) {
  check_row(src);
  check_row(dst);
  PIMA_CHECK(src != dst,
             "AAP copy with src == des aliases the activated row; a "
             "self-copy is a refresh, not a RowClone — issue it explicitly "
             "if that is what the controller means");
  record(CommandKind::kAapCopy, Opcode::kAapCopy, src, 0, 0, dst);
  rows_[dst].assign(rows_[src]);
}

void Subarray::aap_xnor(RowAddr xa, RowAddr xb, RowAddr dst) {
  check_compute(xa, "xnor operand a");
  check_compute(xb, "xnor operand b");
  check_row(dst);
  PIMA_CHECK(xa != xb, "two-row activation needs two distinct rows");
  record(CommandKind::kAapTwoRow, Opcode::kAapXnor, xa, xb, 0, dst);
  // Charge sharing destroys both operands and the SA restores the result,
  // so the result is computed straight into xa and copied from there.
  BitVector& result = rows_[xa];
  result.assign_xnor(result, rows_[xb]);
  // A sensing fault corrupts what the SA drives — every copy of the result
  // (restored operands, destination) gets the same wrong bits.
  if (fault_ != nullptr)
    fault_->corrupt_activation(CommandKind::kAapTwoRow, {xa, xb}, result);
  rows_[xb].assign(result);
  if (dst != xa && dst != xb) rows_[dst].assign(result);
}

void Subarray::aap_xor(RowAddr xa, RowAddr xb, RowAddr dst) {
  check_compute(xa, "xor operand a");
  check_compute(xb, "xor operand b");
  check_row(dst);
  PIMA_CHECK(xa != xb, "two-row activation needs two distinct rows");
  record(CommandKind::kAapTwoRow, Opcode::kAapXor, xa, xb, 0, dst);
  BitVector& result = rows_[xa];
  result.assign_xor(result, rows_[xb]);
  if (fault_ != nullptr)
    fault_->corrupt_activation(CommandKind::kAapTwoRow, {xa, xb}, result);
  rows_[xb].assign(result);
  if (dst != xa && dst != xb) rows_[dst].assign(result);
}

void Subarray::aap_tra_carry(RowAddr xa, RowAddr xb, RowAddr xc, RowAddr dst) {
  check_compute(xa, "tra operand a");
  check_compute(xb, "tra operand b");
  check_compute(xc, "tra operand c");
  check_row(dst);
  PIMA_CHECK(xa != xb && xb != xc && xa != xc,
             "TRA needs three distinct rows");
  record(CommandKind::kAapTra, Opcode::kAapTra, xa, xb, xc, dst);
  BitVector& maj = rows_[xa];
  maj.assign_maj3(maj, rows_[xb], rows_[xc]);
  if (fault_ != nullptr)
    fault_->corrupt_activation(CommandKind::kAapTra, {xa, xb, xc}, maj);
  rows_[xb].assign(maj);
  rows_[xc].assign(maj);
  // add_vertical issues TRA with dst == xc, so the alias case is routine
  // production traffic, not a controller error.
  if (dst != xa && dst != xb && dst != xc) rows_[dst].assign(maj);
  latch_.assign(maj);
}

void Subarray::sum_cycle(RowAddr xa, RowAddr xb, RowAddr dst) {
  check_compute(xa, "sum operand a");
  check_compute(xb, "sum operand b");
  check_row(dst);
  PIMA_CHECK(xa != xb, "two-row activation needs two distinct rows");
  record(CommandKind::kSumCycle, Opcode::kSum, xa, xb, 0, dst);
  BitVector& sum = rows_[xa];
  sum.assign_xor3(sum, rows_[xb], latch_);
  if (fault_ != nullptr)
    fault_->corrupt_activation(CommandKind::kSumCycle, {xa, xb}, sum);
  rows_[xb].assign(sum);
  if (dst != xa && dst != xb) rows_[dst].assign(sum);
}

void Subarray::reset_latch() {
  // Uncosted (no CommandStats record), but replay-relevant: without the
  // RST_LATCH instruction a replayed sum cycle could consume a stale carry.
  if (trace_ != nullptr)
    trace_command(Opcode::kResetLatch, 0, 0, 0, 0, nullptr);
  latch_.fill(false);
}

const BitVector& Subarray::dpu_fetch(RowAddr r) {
  check_row(r);
  record(CommandKind::kDpuReduce, Opcode::kDpuPopcount, r);
  return rows_[r];
}

void Subarray::add_vertical(const std::vector<RowAddr>& a_rows,
                            const std::vector<RowAddr>& b_rows,
                            const std::vector<RowAddr>& sum_rows,
                            RowAddr carry_out_row) {
  const std::size_t m = a_rows.size();
  PIMA_CHECK(m > 0, "addition needs at least one bit row");
  PIMA_CHECK(b_rows.size() == m && sum_rows.size() == m,
             "operand/result row spans must have equal length");
  const RowAddr x1 = compute_row(0), x2 = compute_row(1), x3 = compute_row(2);

  // Initialize carry chain: latch ← 0, x3 ← 0 (x3 carries c_i between bits;
  // the latch carries it into the sum cycle).
  reset_latch();
  // Carry-in = 0: zero x3 via a host row write (a dedicated all-zero row
  // plus an AAP copy would be equivalent in cost).
  write_row(x3, BitVector(geom_.columns));

  for (std::size_t i = 0; i < m; ++i) {
    // Sum cycle uses the carry latched by the previous bit's TRA (c_i).
    aap_copy(a_rows[i], x1);
    aap_copy(b_rows[i], x2);
    sum_cycle(x1, x2, sum_rows[i]);
    // The sum cycle destroyed x1/x2; restage for the carry TRA. x3 holds
    // c_i from the previous TRA write-back.
    aap_copy(a_rows[i], x1);
    aap_copy(b_rows[i], x2);
    aap_tra_carry(x1, x2, x3, x3);  // latch ← c_{i+1}, x3 ← c_{i+1}
  }
  aap_copy(x3, carry_out_row);
}

void Subarray::compare_rows(RowAddr a, RowAddr b, RowAddr result_row) {
  const RowAddr x1 = compute_row(0), x2 = compute_row(1);
  aap_copy(a, x1);
  aap_copy(b, x2);
  aap_xnor(x1, x2, result_row);
}

bool Subarray::xnor_match(RowAddr a, RowAddr b, RowAddr result_row,
                          std::size_t width) {
  const RowAddr data = geom_.data_rows();
  PIMA_CHECK(a < data && b < data, "xnor match operands must be data rows");
  check_row(result_row);
  PIMA_CHECK(width <= geom_.columns, "reduce width exceeds row");
  const RowAddr x1 = data, x2 = data + 1;
  if (fault_ != nullptr) {
    compare_rows(a, b, result_row);
    return dpu_fetch(result_row).all_ones_prefix(width);
  }
  record(CommandKind::kAapCopy, Opcode::kAapCopy, a, 0, 0, x1);
  record(CommandKind::kAapCopy, Opcode::kAapCopy, b, 0, 0, x2);
  record(CommandKind::kAapTwoRow, Opcode::kAapXnor, x1, x2, 0, result_row);
  record(CommandKind::kDpuReduce, Opcode::kDpuPopcount, result_row);
  BitVector& match = rows_[result_row];
  match.assign_xnor(rows_[a], rows_[b]);
  if (result_row != x1) rows_[x1].assign(match);
  if (result_row != x2) rows_[x2].assign(match);
  return match.all_ones_prefix(width);
}

void Subarray::compress(std::span<const RowAddr> a,
                        std::span<const RowAddr> b,
                        std::span<const RowAddr> c, RowAddr pad,
                        std::span<const RowAddr> sum,
                        std::span<const RowAddr> carry) {
  const std::size_t w = sum.size();
  PIMA_CHECK(carry.size() == w,
             "carry-save sum and carry spans differ in width");
  PIMA_CHECK(a.size() <= w && b.size() <= w && c.size() <= w,
             "carry-save operand wider than its result");
  const RowAddr data = geom_.data_rows();
  const auto is_data = [data](RowAddr r) { return r < data; };
  PIMA_CHECK(is_data(pad) && std::all_of(a.begin(), a.end(), is_data) &&
                 std::all_of(b.begin(), b.end(), is_data) &&
                 std::all_of(c.begin(), c.end(), is_data),
             "fused carry-save operands must be data rows");
  for (std::size_t i = 0; i < w; ++i) {
    check_row(sum[i]);
    check_row(carry[i]);
  }
  const RowAddr x1 = data, x2 = data + 1, x3 = data + 2;
  const auto bit = [pad](std::span<const RowAddr> n, std::size_t i) {
    return i < n.size() ? n[i] : pad;
  };

  if (fault_ != nullptr) {
    for (std::size_t i = 0; i < w; ++i) {
      const RowAddr ra = bit(a, i), rb = bit(b, i), rc = bit(c, i);
      aap_copy(ra, x1);
      aap_copy(rb, x2);
      aap_xor(x1, x2, x1);  // x1 = x2 = a⊕b
      aap_copy(rc, x2);
      aap_xor(x1, x2, sum[i]);
      aap_copy(ra, x1);
      aap_copy(rb, x2);
      aap_copy(rc, x3);
      aap_tra_carry(x1, x2, x3, carry[i]);
    }
    return;
  }

  // The busy clock and energy add each command's cost in command order,
  // exactly the additions one record() per command makes, so the totals
  // round identically; a bulk 6w × copy latency would not (floating-point
  // addition is not associative).
  const auto cost = [this](CommandKind k) {
    return std::pair{latency_ns(k), energy_pj(k)};
  };
  const auto [copy_ns, copy_pj] = cost(CommandKind::kAapCopy);
  const auto [xor_ns, xor_pj] = cost(CommandKind::kAapTwoRow);
  const auto [tra_ns, tra_pj] = cost(CommandKind::kAapTra);
  double busy = stats_.busy_ns, energy = stats_.energy_pj;
  for (std::size_t i = 0; i < w; ++i) {
    const RowAddr ra = bit(a, i), rb = bit(b, i), rc = bit(c, i);
    if (trace_ != nullptr) {
      trace_command(Opcode::kAapCopy, ra, 0, 0, x1, nullptr);
      trace_command(Opcode::kAapCopy, rb, 0, 0, x2, nullptr);
      trace_command(Opcode::kAapXor, x1, x2, 0, x1, nullptr);
      trace_command(Opcode::kAapCopy, rc, 0, 0, x2, nullptr);
      trace_command(Opcode::kAapXor, x1, x2, 0, sum[i], nullptr);
      trace_command(Opcode::kAapCopy, ra, 0, 0, x1, nullptr);
      trace_command(Opcode::kAapCopy, rb, 0, 0, x2, nullptr);
      trace_command(Opcode::kAapCopy, rc, 0, 0, x3, nullptr);
      trace_command(Opcode::kAapTra, x1, x2, x3, carry[i], nullptr);
    }
    busy += copy_ns;
    busy += copy_ns;
    busy += xor_ns;
    busy += copy_ns;
    busy += xor_ns;
    busy += copy_ns;
    busy += copy_ns;
    busy += copy_ns;
    busy += tra_ns;
    energy += copy_pj;
    energy += copy_pj;
    energy += xor_pj;
    energy += copy_pj;
    energy += xor_pj;
    energy += copy_pj;
    energy += copy_pj;
    energy += copy_pj;
    energy += tra_pj;
    BitVector::assign_carry_save(rows_[sum[i]], rows_[carry[i]], rows_[ra],
                                 rows_[rb], rows_[rc]);
  }
  stats_.busy_ns = busy;
  stats_.energy_pj = energy;
  stats_.counts[static_cast<std::size_t>(CommandKind::kAapCopy)] += 6 * w;
  stats_.counts[static_cast<std::size_t>(CommandKind::kAapTwoRow)] += 2 * w;
  stats_.counts[static_cast<std::size_t>(CommandKind::kAapTra)] += w;
  // The staged computation rows and the latch are read by nothing inside
  // the step (operands are data rows), so only the last TRA's state shows.
  if (w == 0) return;
  latch_.assign(rows_[carry[w - 1]]);
  rows_[x1].assign(latch_);
  rows_[x2].assign(latch_);
  rows_[x3].assign(latch_);
}

}  // namespace pima::dram
