#include "dram/fault.hpp"

#include "circuit/montecarlo.hpp"
#include "common/error.hpp"

namespace pima::dram {

namespace {

// Error-rate multiplier for an activation touching a weak row.
constexpr double kWeakRowMultiplier = 50.0;

}  // namespace

FaultModel::FaultModel(const circuit::TechParams& tech,
                       const FaultConfig& config)
    : config_(config) {
  PIMA_CHECK(config.variation >= 0.0 && config.variation <= 1.0,
             "variation level must be a fraction in [0,1]");
  PIMA_CHECK(config.retention_flip_per_op >= 0.0 &&
                 config.retention_flip_per_op <= 1.0,
             "retention flip probability must be in [0,1]");
  PIMA_CHECK(config.weak_row_fraction >= 0.0 &&
                 config.weak_row_fraction <= 1.0,
             "weak row fraction must be in [0,1]");
  PIMA_CHECK(config.rate_multiplier >= 0.0, "rate multiplier must be >= 0");
  if (config.variation <= 0.0) return;
  PIMA_CHECK(config.calibration_trials > 0,
             "rate calibration needs at least one Monte-Carlo trial");
  // Calibrate against the Table I Monte-Carlo: a trial is one column sense,
  // so failure_percent/100 is directly the per-column error probability of
  // one activation. Distinct sub-seeds keep the two estimates independent.
  const auto tra = circuit::run_variation_trials(
      tech, circuit::Mechanism::kTripleRowActivation, config.variation,
      config.calibration_trials, config.seed ^ 0x7ab1e001ull);
  const auto two_row = circuit::run_variation_trials(
      tech, circuit::Mechanism::kTwoRowActivation, config.variation,
      config.calibration_trials, config.seed ^ 0x7ab1e002ull);
  tra_rate_ = tra.failure_percent / 100.0 * config.rate_multiplier;
  two_row_rate_ = two_row.failure_percent / 100.0 * config.rate_multiplier;
}

double FaultModel::column_error(CommandKind k) const {
  switch (k) {
    case CommandKind::kAapTra:
      return tra_rate_;
    case CommandKind::kAapTwoRow:
    case CommandKind::kSumCycle:
      return two_row_rate_;
    default:
      return 0.0;
  }
}

FaultInjector::FaultInjector(std::shared_ptr<const FaultModel> model,
                             std::size_t subarray_flat,
                             const Geometry& geometry)
    : model_(std::move(model)),
      geom_(geometry),
      rng_(Rng(model_->config().seed).fork(subarray_flat)) {
  weak_compute_rows_.assign(geom_.compute_rows, false);
  const double f = model_->config().weak_row_fraction;
  if (f > 0.0)
    for (std::size_t i = 0; i < geom_.compute_rows; ++i)
      weak_compute_rows_[i] = rng_.bernoulli(f);
}

bool FaultInjector::is_weak_row(RowAddr r) const {
  if (r < geom_.data_rows() || r >= geom_.rows) return false;
  return weak_compute_rows_[r - geom_.data_rows()];
}

std::size_t FaultInjector::corrupt_activation(
    CommandKind kind, std::initializer_list<RowAddr> activated,
    BitVector& result) {
  double rate = model_->column_error(kind);
  if (rate <= 0.0) return 0;
  for (const RowAddr r : activated)
    if (is_weak_row(r)) {
      rate *= kWeakRowMultiplier;
      break;
    }
  if (rate > 1.0) rate = 1.0;
  std::size_t flips = 0;
  for (std::size_t col = 0; col < result.size(); ++col)
    if (rng_.bernoulli(rate)) {
      result.set(col, !result.get(col));
      ++flips;
    }
  if (flips > 0) {
    counters_.compute_flips += flips;
    ++counters_.faulty_ops;
  }
  return flips;
}

std::optional<FaultInjector::CellAddr> FaultInjector::retention_target() {
  const double p = model_->config().retention_flip_per_op;
  if (p <= 0.0 || !rng_.bernoulli(p)) return std::nullopt;
  ++counters_.retention_flips;
  return CellAddr{rng_.uniform(geom_.data_rows()),
                  rng_.uniform(geom_.columns)};
}

}  // namespace pima::dram
