#include "bench/bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/check.h"
#include "common/strings.h"
#include "scenario/driver.h"
#include "scenario/registry.h"

namespace aimetro::bench {

std::optional<scenario::ScenarioSpec> resolve_registry_spec(
    const std::string& name, const std::vector<std::string>& overrides,
    std::string* error) {
  auto spec = scenario::find_scenario(name, error);
  if (!spec) return std::nullopt;
  for (const std::string& assignment : overrides) {
    if (!scenario::apply_override(&*spec, assignment, error)) {
      return std::nullopt;
    }
  }
  *error = scenario::validate_spec(*spec);
  if (!error->empty()) return std::nullopt;
  return spec;
}

scenario::ScenarioSpec registry_spec(const std::string& name,
                                     const std::vector<std::string>& overrides) {
  std::string error;
  const auto spec = resolve_registry_spec(name, overrides, &error);
  AIM_CHECK_MSG(spec.has_value(),
                "invalid bench spec '" << name << "': " << error);
  return *spec;
}

const trace::SimulationTrace& registry_window(
    const scenario::ScenarioSpec& spec) {
  // Keyed on the full spec text: any knob that shapes the trace (map,
  // agents, segments, profile, seed, scales, window) is part of the key.
  static std::map<std::string, trace::SimulationTrace> cache;
  const std::string key = spec.to_text();
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, scenario::ScenarioDriver(spec).build_trace()).first;
  }
  return it->second;
}

const trace::SimulationTrace& registry_day_trace(
    const scenario::ScenarioSpec& spec) {
  scenario::ScenarioSpec day = spec;
  day.window_begin = -1;
  day.window_end = -1;
  return registry_window(day);
}

replay::ExperimentConfig registry_platform(
    const scenario::ScenarioSpec& spec) {
  return scenario::ScenarioDriver(spec).experiment_config();
}

std::string ville_scenario_name(std::int32_t n_agents) {
  AIM_CHECK_MSG(n_agents >= 25 && n_agents % 25 == 0,
                "ville populations come in multiples of 25");
  if (n_agents == 25) return "smallville_day";
  return strformat("scaling_ville%d", n_agents / 25);
}

replay::ExperimentConfig l4_llama8b(std::int32_t gpus) {
  return registry_platform(registry_spec(
      "smallville_day", {strformat("data_parallel=%d", gpus)}));
}

replay::ExperimentConfig a100_llama70b(std::int32_t gpus) {
  // TP4 per replica, hybrid data parallelism beyond four GPUs (§4.1).
  return registry_platform(registry_spec(
      "smallville_day",
      {"model=llama-3-70b-instruct", "gpu=a100", "tensor_parallel=4",
       strformat("data_parallel=%d", std::max(1, gpus / 4))}));
}

replay::ExperimentConfig a100_mixtral(std::int32_t gpus) {
  // Mixtral fits in TP2, enabling higher data parallelism on the same
  // eight-GPU platform (§4.3).
  return registry_platform(registry_spec(
      "smallville_day",
      {"model=mixtral", "gpu=a100", "tensor_parallel=2",
       strformat("data_parallel=%d", std::max(1, gpus / 2))}));
}

replay::ExperimentResult run_mode(const trace::SimulationTrace& trace,
                                  replay::ExperimentConfig cfg,
                                  replay::Mode mode) {
  cfg.mode = mode;
  return replay::run_experiment(trace, cfg);
}

double gpu_limit_seconds(const trace::SimulationTrace& trace,
                         const replay::ExperimentConfig& cfg) {
  const double critical =
      run_mode(trace, cfg, replay::Mode::kCritical).completion_seconds;
  const double nodep =
      run_mode(trace, cfg, replay::Mode::kNoDependency).completion_seconds;
  return std::max(critical, nodep);
}

void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int w = i < widths.size() ? widths[i] : 12;
    line += pad_left(cells[i], static_cast<std::size_t>(w));
    line += "  ";
  }
  std::printf("%s\n", line.c_str());
}

bool quick_flag(int argc, char** argv) {
  if (argc == 1) return false;
  if (argc == 2 && std::string(argv[1]) == "--quick") return true;
  std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
  std::exit(2);
}

}  // namespace aimetro::bench
