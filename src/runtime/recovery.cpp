#include "runtime/recovery.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "telemetry/progress.hpp"
#include "telemetry/session.hpp"

namespace pima::runtime {

namespace {

// Live fault counters for the progress reporter: fault paths are rare and
// already expensive (re-stage + re-execute), so a registry lookup per event
// is fine. Integral atomic adds commute exactly, so the totals stay
// deterministic for any channel count.
void bump_live(const char* name, const char* help) {
  if (telemetry::metrics_enabled())
    telemetry::metrics().counter(name, help).increment();
}

}  // namespace

double recovery_backoff_ns(std::size_t attempt) {
  // ldexp saturates to +inf for huge exponents instead of overflowing a
  // shift, so the clamp is exact at every attempt count.
  const double exponential = std::ldexp(
      kBackoffBaseNs, attempt > 1024 ? 1024 : static_cast<int>(attempt));
  return std::min(kBackoffCapNs, exponential);
}

std::optional<RecoveryMode> parse_recovery_mode(std::string_view s) {
  if (s == "off") return RecoveryMode::kOff;
  if (s == "retry") return RecoveryMode::kRetry;
  if (s == "vote") return RecoveryMode::kVote;
  return std::nullopt;
}

FaultStats& FaultStats::operator+=(const FaultStats& o) {
  injected += o.injected;
  detected += o.detected;
  retried += o.retried;
  remapped += o.remapped;
  escaped += o.escaped;
  vote_corrections += o.vote_corrections;
  host_fallbacks += o.host_fallbacks;
  degraded_subarrays += o.degraded_subarrays;
  return *this;
}

RecoveryExecutor::RecoveryExecutor(dram::Subarray& subarray,
                                   const RecoveryOptions& options)
    : sa_(subarray), options_(options) {
  const std::size_t compute = sa_.geometry().compute_rows;
  // Slots 0 and 1 are the active operand staging rows; x3 and x4 (offsets
  // 2, 3) are left for the callers' result rows; everything above is a
  // spare pool for weak-row remapping.
  staging_ = {0, 1};
  for (std::size_t off = 4; off < compute; ++off) spares_.push_back(off);
  row_failures_.assign(compute, 0);
}

void RecoveryExecutor::execute_once(dram::RowAddr a, dram::RowAddr b,
                                    dram::RowAddr dst) {
  const dram::RowAddr x1 = sa_.compute_row(staging_[0]),
                      x2 = sa_.compute_row(staging_[1]);
  sa_.aap_copy(a, x1);
  sa_.aap_copy(b, x2);
  sa_.aap_xnor(x1, x2, dst);
}

void RecoveryExecutor::note_detected() {
  ++stats_.detected;
  bump_live(telemetry::kFaultDetected, "verification mismatches detected");
  telemetry::tracer().record_instant("fault:detected");
  if (!degraded_ && stats_.detected > options_.subarray_failure_budget) {
    degraded_ = true;
    ++stats_.degraded_subarrays;
    bump_live("pima_fault_degraded_subarrays_total",
              "sub-arrays degraded to host-side recompute");
    telemetry::tracer().record_instant("fault:degraded");
  }
}

void RecoveryExecutor::blame_staging() {
  for (auto& slot : staging_) {
    if (++row_failures_[slot] < kWeakRowThreshold) continue;
    if (spares_.empty()) continue;  // nothing left to remap onto
    slot = spares_.back();
    spares_.pop_back();
    ++stats_.remapped;
    bump_live("pima_fault_remapped_rows_total",
              "computation rows retired to spares");
  }
}

void RecoveryExecutor::host_fallback(const BitVector& golden,
                                     dram::RowAddr a, dram::RowAddr b,
                                     dram::RowAddr dst) {
  // The controller pulls the operands through the global row buffer,
  // recomputes, and writes the result back — no in-array compute trusted.
  (void)sa_.read_row(a);
  (void)sa_.read_row(b);
  sa_.write_row(dst, golden);
  ++stats_.host_fallbacks;
  bump_live(telemetry::kFaultHostFallbacks,
            "critical ops recomputed host-side");
}

void RecoveryExecutor::compare_rows(dram::RowAddr a, dram::RowAddr b,
                                    dram::RowAddr dst) {
  for (const std::size_t offset : staging_)
    PIMA_CHECK(dst != sa_.compute_row(offset),
               "checked-op destination collides with a staging row");
  const BitVector golden =
      BitVector::bit_xnor(sa_.peek_row(a), sa_.peek_row(b));

  if (degraded_) {
    host_fallback(golden, a, b, dst);
    return;
  }

  if (options_.mode == RecoveryMode::kOff) {
    // Unverified execution: whatever the array sensed is the result.
    execute_once(a, b, dst);
    if (sa_.peek_row(dst) != golden) ++stats_.escaped;
    return;
  }

  if (options_.mode == RecoveryMode::kVote) {
    // TMR in time: three executions, per-column majority.
    std::array<BitVector, 3> results;
    for (auto& r : results) {
      execute_once(a, b, dst);
      r = sa_.dpu_fetch(dst);  // costed readback into the vote
    }
    const bool disagree =
        results[0] != results[1] || results[1] != results[2];
    if (disagree) {
      note_detected();
      blame_staging();
    }
    const BitVector voted =
        BitVector::bit_maj3(results[0], results[1], results[2]);
    if (results[2] != voted) {
      sa_.write_row(dst, voted);  // fix the stored copy to the majority
      ++stats_.vote_corrections;
      bump_live("pima_fault_vote_corrections_total",
                "vote-mode results fixed by majority");
    }
    if (voted != golden) ++stats_.escaped;
    return;
  }

  // RecoveryMode::kRetry — verify-after-op with bounded re-execution.
  for (std::size_t attempt = 0;; ++attempt) {
    execute_once(a, b, dst);
    // Costed readback through the DPU path; the controller checks it
    // against its residual for the op.
    const BitVector& got = sa_.dpu_fetch(dst);
    if (got == golden) return;
    note_detected();
    blame_staging();
    if (degraded_ || attempt >= options_.max_retries) {
      // Retry budget exhausted (or the sub-array just blew its failure
      // budget): recompute host-side rather than give up.
      host_fallback(golden, a, b, dst);
      return;
    }
    ++stats_.retried;
    bump_live(telemetry::kFaultRetried, "re-executions performed");
    // Exponential backoff (capped) on this sub-array's command stream.
    sa_.wait_ns(recovery_backoff_ns(attempt));
  }
}

RecoveryManager::RecoveryManager(dram::Device& device,
                                 const RecoveryOptions& options)
    : device_(device), options_(options) {
  executors_.resize(device.geometry().total_subarrays());
}

RecoveryExecutor& RecoveryManager::executor_for(std::size_t subarray_flat) {
  PIMA_CHECK(subarray_flat < executors_.size(),
             "sub-array index out of device");
  if (!executors_[subarray_flat])
    executors_[subarray_flat] = std::make_unique<RecoveryExecutor>(
        device_.subarray(subarray_flat), options_);
  return *executors_[subarray_flat];
}

FaultStats RecoveryManager::roll_up() const {
  FaultStats total;
  for (const auto& ex : executors_)
    if (ex) total += ex->stats();
  total.injected = device_.injection_roll_up().total_flips();
  return total;
}

void RecoveryManager::export_metrics(
    telemetry::MetricsRegistry& registry) const {
  using telemetry::Labels;
  const auto add = [&](const char* name, const char* help,
                       const Labels& labels, std::size_t v) {
    if (v != 0) registry.counter(name, help, labels).add(static_cast<double>(v));
  };
  for (std::size_t flat = 0; flat < executors_.size(); ++flat) {
    const auto& ex = executors_[flat];
    if (!ex) continue;
    const FaultStats& s = ex->stats();
    const Labels labels = {{"subarray", std::to_string(flat)}};
    add("pima_recovery_detected_total",
        "verification mismatches per sub-array", labels, s.detected);
    add("pima_recovery_retries_total", "re-executions per sub-array", labels,
        s.retried);
    add("pima_recovery_vote_corrections_total",
        "vote-mode majority corrections per sub-array", labels,
        s.vote_corrections);
    add("pima_recovery_remapped_rows_total",
        "computation rows retired to spares per sub-array", labels,
        s.remapped);
    add("pima_recovery_host_fallbacks_total",
        "host-side recomputes per sub-array", labels, s.host_fallbacks);
    add("pima_recovery_escaped_total",
        "wrong results accepted per sub-array", labels, s.escaped);
    add("pima_recovery_degraded_total",
        "sub-array degraded to host-side recompute", labels,
        s.degraded_subarrays);
  }
  registry
      .counter("pima_fault_injected_total",
               "corrupted columns injected (ground truth)")
      .add(static_cast<double>(device_.injection_roll_up().total_flips()));
}

}  // namespace pima::runtime
