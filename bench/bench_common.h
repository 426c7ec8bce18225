// Shared helpers for the figure/table reproduction harnesses.
//
// Each bench binary regenerates one table or figure family from the
// paper's evaluation (§4). Workloads and platforms come from the scenario
// registry — a harness names a registry scenario (plus `key = value`
// overrides) and gets its trace and DES platform cell through
// ScenarioDriver, the same code path `aimetro_run` and the tests use.
// Nothing here hand-builds traces anymore; a new workload is a registry
// entry, not a bench edit.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/strings.h"
#include "replay/experiment.h"
#include "scenario/spec.h"
#include "trace/generator.h"
#include "world/grid_map.h"

namespace aimetro::bench {

/// Canonical trace windows (steps; 10 simulated seconds per step).
inline constexpr Step kBusyBegin = 4320;   // 12:00
inline constexpr Step kBusyEnd = 4680;     // 13:00
inline constexpr Step kQuietBegin = 2160;  // 06:00
inline constexpr Step kQuietEnd = 2520;    // 07:00

/// Resolve a registry scenario and apply `key = value` overrides on top:
/// the valid spec, or nullopt with the reason in `error` for an unknown
/// scenario name, key or value, or an invalid final spec.
std::optional<scenario::ScenarioSpec> resolve_registry_spec(
    const std::string& name, const std::vector<std::string>& overrides,
    std::string* error);

/// resolve_registry_spec for a harness's own fixed specs: check-fails
/// where it returns nullopt, so a harness cannot silently drift off the
/// registry.
scenario::ScenarioSpec registry_spec(
    const std::string& name, const std::vector<std::string>& overrides = {});

/// The trace of `spec`'s replay window (the whole episode when it has no
/// window), built by ScenarioDriver::build_trace and cached by spec, so
/// harnesses that replay one window on several platforms generate it
/// once. Only the window's positions are kept.
const trace::SimulationTrace& registry_window(
    const scenario::ScenarioSpec& spec);

/// The full-episode trace of `spec` (its window cleared; `days` day
/// episodes for multi-day specs), cached as registry_window caches.
const trace::SimulationTrace& registry_day_trace(
    const scenario::ScenarioSpec& spec);

/// The DES platform cell `spec` describes (model/GPU resolved, TP x DP
/// applied) — ScenarioDriver::experiment_config.
replay::ExperimentConfig registry_platform(const scenario::ScenarioSpec& spec);

/// The scenario name covering `n_agents` agents: the paper's calibrated
/// 25-agent day, or its §4.3 scaling construction (`scaling_ville<N>`,
/// n_agents a multiple of 25).
std::string ville_scenario_name(std::int32_t n_agents);

/// Platform presets from §4.1, resolved through the spec layer.
replay::ExperimentConfig l4_llama8b(std::int32_t gpus);
replay::ExperimentConfig a100_llama70b(std::int32_t gpus);   // TP4 (+DP)
replay::ExperimentConfig a100_mixtral(std::int32_t gpus);    // TP2 (+DP)

/// Run one mode on a platform config.
replay::ExperimentResult run_mode(const trace::SimulationTrace& trace,
                                  replay::ExperimentConfig cfg,
                                  replay::Mode mode);

/// gpu-limit (§4.3): the tighter of the two lower bounds — the critical
/// path (dependency bound) and no-dependency (resource bound). The paper's
/// text says "shorter"; both are lower bounds on completion time, so the
/// max is the sound combined bound (see the "gpu-limit" section of
/// metro_bench/README.md).
double gpu_limit_seconds(const trace::SimulationTrace& trace,
                         const replay::ExperimentConfig& cfg);

/// Table printing helpers.
void print_header(const std::string& title);
void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths);

/// True for a lone `--quick` argument, false for none. Anything else
/// prints a usage line and exits 2.
bool quick_flag(int argc, char** argv);

}  // namespace aimetro::bench
