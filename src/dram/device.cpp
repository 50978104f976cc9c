#include "dram/device.hpp"

#include <algorithm>

#include "common/units.hpp"

namespace pima::dram {

double DeviceStats::dynamic_power_w() const {
  return power_watts(energy_pj, time_ns);
}

DeviceStats& DeviceStats::operator+=(const DeviceStats& o) {
  time_ns += o.time_ns;
  serial_ns += o.serial_ns;
  energy_pj += o.energy_pj;
  commands += o.commands;
  subarrays_used = std::max(subarrays_used, o.subarrays_used);
  return *this;
}

void StatsFold::add(const CommandStats& st) {
  const std::size_t n = st.total_commands();
  if (n == 0) return;
  ++device.subarrays_used;
  device.time_ns = std::max(device.time_ns, st.busy_ns);
  device.serial_ns += st.busy_ns;
  device.energy_pj += st.energy_pj;
  device.commands += n;
  commands.merge_serial(st);
}

EnergyBreakdown breakdown_from_stats(const CommandStats& stats,
                                     std::size_t columns,
                                     const circuit::Technology& tech) {
  EnergyBreakdown b;
  for (std::size_t k = 0; k < kCommandKindCount; ++k) {
    if (stats.counts[k] == 0) continue;
    const auto kind = static_cast<CommandKind>(k);
    const auto count = static_cast<double>(stats.counts[k]);
    EnergyBreakdown::Row row{kind, stats.counts[k],
                             count * command_energy_pj(kind, columns,
                                                       tech.energy),
                             count * command_latency_ns(kind, tech.timing)};
    b.total_energy_pj += row.energy_pj;
    b.total_time_ns += row.time_ns;
    b.rows.push_back(row);
  }
  return b;
}

StatsFold fold_in_flat_order(const SubarrayStats& stats) {
  std::vector<const SubarrayStats::value_type*> entries;
  for (const auto& entry : stats) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  StatsFold fold;
  for (const auto* entry : entries) fold.add(entry->second);
  return fold;
}

Device::Device(const Geometry& geometry, const circuit::Technology& tech)
    : geom_(geometry), tech_(tech) {
  geom_.validate();
  subarrays_.resize(geom_.total_subarrays());
}

Subarray& Device::subarray(std::size_t flat) {
  PIMA_CHECK(flat < subarrays_.size(), "sub-array index out of device");
  if (!subarrays_[flat]) {
    subarrays_[flat] = std::make_unique<Subarray>(geom_, tech_);
    if (fault_model_ != nullptr)
      subarrays_[flat]->attach_fault_injector(
          std::make_shared<FaultInjector>(fault_model_, flat, geom_));
    if (tracing_) {
      traces_[flat] = std::make_unique<Program>();
      subarrays_[flat]->attach_trace(traces_[flat].get(), flat);
    }
  }
  return *subarrays_[flat];
}

const Subarray* Device::subarray_if(std::size_t flat) const {
  PIMA_CHECK(flat < subarrays_.size(), "sub-array index out of device");
  return subarrays_[flat].get();
}

StatsFold Device::fold() const {
  StatsFold fold;
  for (const auto& sa : subarrays_)
    if (sa) fold.add(sa->stats());
  return fold;
}

DeviceStats Device::roll_up() const { return fold().device; }

void Device::clear_stats() {
  for (const auto& sa : subarrays_)
    if (sa) sa->clear_stats();
}

void Device::enable_faults(const FaultConfig& config) {
  if (!config.enabled()) {
    fault_model_ = nullptr;
    for (const auto& sa : subarrays_)
      if (sa) sa->attach_fault_injector(nullptr);
    return;
  }
  fault_model_ = std::make_shared<const FaultModel>(tech_.tech, config);
  for (std::size_t flat = 0; flat < subarrays_.size(); ++flat)
    if (subarrays_[flat])
      subarrays_[flat]->attach_fault_injector(
          std::make_shared<FaultInjector>(fault_model_, flat, geom_));
}

void Device::enable_tracing() {
  if (tracing_) return;
  tracing_ = true;
  traces_.resize(subarrays_.size());
  for (std::size_t flat = 0; flat < subarrays_.size(); ++flat) {
    if (!subarrays_[flat]) continue;
    traces_[flat] = std::make_unique<Program>();
    subarrays_[flat]->attach_trace(traces_[flat].get(), flat);
  }
}

const Program* Device::trace_if(std::size_t flat) const {
  PIMA_CHECK(flat < subarrays_.size(), "sub-array index out of device");
  return flat < traces_.size() ? traces_[flat].get() : nullptr;
}

InjectionCounters Device::injection_roll_up() const {
  InjectionCounters total;
  for (const auto& sa : subarrays_) {
    if (!sa || sa->fault_injector() == nullptr) continue;
    const auto& c = sa->fault_injector()->counters();
    total.compute_flips += c.compute_flips;
    total.retention_flips += c.retention_flips;
    total.faulty_ops += c.faulty_ops;
  }
  return total;
}

}  // namespace pima::dram
