// Reproduces paper Fig. 9: execution-time (a) and power (b) breakdown of
// the chr14 genome-assembly run (45,711,162 reads × 101 bp) for GPU,
// PIM-Assembler (P-A), Ambit, DRISA-3T1C (D3) and DRISA-1T1C (D1) at
// k ∈ {16, 22, 26, 32}, per pipeline stage (hashmap / deBruijn / traverse).
#include <cstdio>
#include <cstring>
#include <string>

#include "common/table.hpp"
#include "core/cost_model.hpp"
#include "platforms/presets.hpp"
#include "telemetry/session.hpp"

using namespace pima;

int main(int argc, char** argv) {
  // `--metrics-out=out.prom` (or `--metrics-out out.prom`) additionally
  // exports every projected figure through the shared metrics registry:
  // Prometheus text at the given path plus a JSON snapshot at <path>.json.
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0)
      metrics_out = argv[i] + 14;
    else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc)
      metrics_out = argv[++i];
  }

  const auto apps = platforms::application_platforms();
  const std::size_t ks[] = {16, 22, 26, 32};

  TextTable exec("Fig. 9a: execution time breakdown (s)");
  exec.set_header({"k", "platform", "hashmap", "deBruijn", "traverse",
                   "total"});
  TextTable power("Fig. 9b: power consumption (W)");
  power.set_header({"k", "platform", "power"});

  auto& registry = telemetry::metrics();
  for (const auto k : ks) {
    core::WorkloadParams w;
    w.k = k;
    for (const auto& p : apps) {
      const auto cost = core::estimate_application(p, w);
      exec.add_row({std::to_string(k), p.name,
                    TextTable::num(cost.hashmap.time_s, 4),
                    TextTable::num(cost.debruijn.time_s, 4),
                    TextTable::num(cost.traverse.time_s, 4),
                    TextTable::num(cost.total_time_s, 4)});
      power.add_row({std::to_string(k), p.name,
                     TextTable::num(cost.avg_power_w, 4)});
      if (!metrics_out.empty()) {
        const telemetry::Labels base = {{"platform", p.name},
                                        {"k", std::to_string(k)}};
        const struct {
          const char* stage;
          double time_s;
        } stages[] = {{"hashmap", cost.hashmap.time_s},
                      {"debruijn", cost.debruijn.time_s},
                      {"traverse", cost.traverse.time_s}};
        for (const auto& s : stages) {
          telemetry::Labels labels = base;
          labels.emplace_back("stage", s.stage);
          registry
              .gauge("pima_fig9_stage_time_seconds",
                     "Projected per-stage execution time (Fig. 9a)", labels)
              .set(s.time_s);
        }
        registry
            .gauge("pima_fig9_total_time_seconds",
                   "Projected end-to-end execution time (Fig. 9a)", base)
            .set(cost.total_time_s);
        registry
            .gauge("pima_fig9_power_watts",
                   "Projected average power draw (Fig. 9b)", base)
            .set(cost.avg_power_w);
      }
    }
  }
  std::fputs(exec.render().c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(power.render().c_str(), stdout);

  // Paper-reported summary ratios.
  TextTable summary("\nSummary vs paper");
  summary.set_header({"claim", "paper", "measured"});
  std::vector<double> time_ratio_gpu, hash_ratio_by_k;
  std::vector<double> time_ratio_ambit, time_ratio_d3, time_ratio_d1;
  double pa_power_sum = 0.0, gpu_power_over_pa_sum = 0.0;
  for (const auto k : ks) {
    core::WorkloadParams w;
    w.k = k;
    const auto gpu = core::estimate_application(platforms::gpu_1080ti(), w);
    const auto pa = core::estimate_application(platforms::pim_assembler(), w);
    const auto am = core::estimate_application(platforms::ambit(), w);
    const auto d3 = core::estimate_application(platforms::drisa_3t1c(), w);
    const auto d1 = core::estimate_application(platforms::drisa_1t1c(), w);
    time_ratio_gpu.push_back(gpu.total_time_s / pa.total_time_s);
    time_ratio_ambit.push_back(am.total_time_s / pa.total_time_s);
    time_ratio_d3.push_back(d3.total_time_s / pa.total_time_s);
    time_ratio_d1.push_back(d1.total_time_s / pa.total_time_s);
    hash_ratio_by_k.push_back(gpu.hashmap.time_s / pa.hashmap.time_s);
    pa_power_sum += pa.avg_power_w;
    gpu_power_over_pa_sum += gpu.avg_power_w / pa.avg_power_w;
  }
  auto avg = [](const std::vector<double>& v) {
    double s = 0;
    for (const double x : v) s += x;
    return s / static_cast<double>(v.size());
  };
  summary.add_row({"exec time vs GPU (avg)", "~5x",
                   TextTable::num(avg(time_ratio_gpu), 3) + "x"});
  summary.add_row({"exec time vs Ambit (avg)", "2.9x",
                   TextTable::num(avg(time_ratio_ambit), 3) + "x"});
  summary.add_row({"exec time vs D3 (avg)", "2.5x",
                   TextTable::num(avg(time_ratio_d3), 3) + "x"});
  summary.add_row({"exec time vs D1 (avg)", "2.8x",
                   TextTable::num(avg(time_ratio_d1), 3) + "x"});
  summary.add_row({"hashmap speedup @k=16", "5.2x",
                   TextTable::num(hash_ratio_by_k.front(), 3) + "x"});
  summary.add_row({"hashmap speedup @k=32", "9.8x",
                   TextTable::num(hash_ratio_by_k.back(), 3) + "x"});
  summary.add_row({"P-A average power", "38.4 W",
                   TextTable::num(pa_power_sum / 4.0, 4) + " W"});
  summary.add_row({"power vs GPU", "~7.5x lower",
                   TextTable::num(gpu_power_over_pa_sum / 4.0, 3) +
                       "x lower"});
  std::fputs(summary.render().c_str(), stdout);

  if (!metrics_out.empty()) {
    telemetry::TelemetrySession::instance().write_metrics(metrics_out);
    std::fprintf(stderr, "metrics: %s (+ %s.json)\n", metrics_out.c_str(),
                 metrics_out.c_str());
  }
  return 0;
}
