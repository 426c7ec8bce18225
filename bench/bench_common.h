// Shared helpers for the figure/table reproduction harnesses.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation (§4). Workloads and platforms come from the scenario registry
// — a harness names a registry scenario (plus `key = value` overrides) and
// gets its trace and DES platform cell through ScenarioDriver, the same
// code path `aimetro_run` and the tests use. Nothing here hand-builds
// traces anymore; a new workload is a registry entry, not a bench edit.
#pragma once

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

/// Resolve a registry scenario and apply `key = value` overrides on top.
/// Check-fails on unknown scenario names, keys, or invalid final specs, so
/// a harness cannot silently drift off the registry.
scenario::ScenarioSpec registry_spec(
    const std::string& name, const std::vector<std::string>& overrides = {});

/// The full-episode trace of `spec` (its window cleared; `days` day
/// episodes for multi-day specs), built by ScenarioDriver::build_trace
/// and cached — harnesses slice several windows out of one generation.
const trace::SimulationTrace& registry_day_trace(
    const scenario::ScenarioSpec& spec);

/// The spec's replay window of the cached full episode (the whole episode
/// when the spec has no window).
trace::SimulationTrace registry_window(const scenario::ScenarioSpec& spec);

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

// ---- Perf-trajectory JSON emitter ----
//
// Bench binaries accept `--json <dir>` (or `--json=<dir>`): each wired
// benchmark then writes a machine-readable `BENCH_<benchmark>.json` under
// <dir> alongside its console output, so CI can accumulate a perf
// trajectory instead of scraping logs. One record per (benchmark, N,
// shards) cell. `peak_rss_kib` is the process high-water mark at write
// time, not a per-benchmark figure, so every record of one run carries
// the same value.

struct BenchRecord {
  std::string benchmark;
  std::int64_t n = 0;        // problem size (agents, nodes, ...)
  std::int32_t shards = 1;   // region partition, 1 when not applicable
  double ms = 0.0;           // wall milliseconds per iteration
};

/// Remove `--json <dir>` / `--json=<dir>` from argv (compacting it and
/// updating *argc) so downstream flag parsers never see it. Returns the
/// directory, empty when the flag is absent.
std::string strip_json_flag(int* argc, char** argv);

/// Current process peak RSS in KiB (getrusage high-water mark).
std::int64_t peak_rss_kib();

/// Write one `BENCH_<benchmark>.json` per distinct record.benchmark under
/// `dir` (a flat JSON array of {benchmark, n, shards, ms, peak_rss_kib}).
/// No-op when dir is empty; check-fails when a file cannot be written.
void write_bench_json(const std::string& dir,
                      const std::vector<BenchRecord>& records);

}  // namespace aimetro::bench
