// Experiment configuration and results for trace replay.
//
// One ExperimentConfig describes a single cell of the paper's evaluation
// grid: a scheduling setting x model x GPU platform x parallelism.
// run_experiment() replays a trace under it in virtual time and reports
// completion time, achieved parallelism, and scheduler statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scoreboard.h"
#include "llm/cluster.h"
#include "replay/gantt.h"
#include "trace/schema.h"

namespace aimetro::replay {

/// The evaluation settings of §4.1/§4.2/§4.3.
enum class Mode {
  kSingleThread,   // original-implementation style: one global cursor
  kParallelSync,   // lock-step: global barrier per simulation step
  kMetropolis,     // this paper: OOO scheduling via the scoreboard
  kOracle,         // trace-mined optimal dependencies (unattainable online)
  kNoDependency,   // all calls issued at t=0 (resource lower bound)
  kCritical,       // the critical path executed alone (dependency bound)
};

const char* mode_name(Mode mode);

struct ExperimentConfig {
  Mode mode = Mode::kMetropolis;
  llm::ModelSpec model = llm::ModelSpec::llama3_8b();
  llm::GpuSpec gpu = llm::GpuSpec::l4();
  llm::ParallelismConfig parallelism;       // replicas x TP group size
  llm::ClusterConfig cluster;               // priority_scheduling lives here
  /// Max clusters concurrently assigned to workers; 0 = unlimited.
  std::int32_t max_concurrent_clusters = 0;
  /// Scoreboard neighbor-scan implementation (Metropolis mode):
  /// spatial-index probes by default, full-scan reference on request.
  core::ScanMode scan_mode = core::ScanMode::kIndexed;
  /// Region partition of the scoreboard (Metropolis mode). The DES is
  /// single-threaded, so this buys no concurrency here — it exists so
  /// replay can certify that a sharded board replays byte-identically to
  /// shards=1 before the threaded engine trusts the same partition.
  std::int32_t shards = 1;
  bool record_gantt = false;
  /// Run O(n^2) scoreboard invariant checks after every commit (tests).
  bool validate_invariants = false;
};

struct ExperimentResult {
  Mode mode = Mode::kMetropolis;
  double completion_seconds = 0.0;
  /// Time-averaged outstanding LLM requests ("achieved parallelism", §4.2).
  double avg_parallelism = 0.0;
  /// Mean replica busy fraction over the run.
  double avg_utilization = 0.0;
  std::uint64_t total_calls = 0;
  std::int64_t total_input_tokens = 0;
  std::int64_t total_output_tokens = 0;
  std::uint64_t des_events = 0;
  std::uint64_t prefix_cache_hits = 0;
  // Metropolis-only scheduler statistics.
  core::ScoreboardStats scoreboard;
  double mean_blockers = 0.0;
  /// Effective strip count (after the scoreboard's collapse rules).
  std::int32_t shards = 1;
  /// Per-agent (step, position) at completion, indexed by AgentId —
  /// the final scoreboard state (Metropolis mode only). Lets callers check
  /// that independent executions of one workload converged to one state.
  std::vector<std::pair<Step, Pos>> final_agent_states;
  std::vector<GanttRecord> gantt;
  std::vector<SimTime> step_completion_times;  // lock-step modes only

  std::string summary() const;
};

ExperimentResult run_experiment(const trace::SimulationTrace& trace,
                                const ExperimentConfig& config);

}  // namespace aimetro::replay
