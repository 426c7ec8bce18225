// Trace schema.
//
// The paper's evaluation replays traces collected by instrumenting the
// original GenAgent implementation: "Each event includes the input prompt,
// configurations, LLM response, calling step, and caller's identity. A
// separate trace file tracks the agent's movements" (§4.1). This module
// defines the equivalent schema: per-agent movement (one tile per step) and
// per-agent LLM call events with token lengths, plus explicit interaction
// records (conversation turns) used by the oracle dependency miner.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "world/csr_graph.h"

namespace aimetro::trace {

enum class CallType : std::uint8_t {
  kPerceive = 0,
  kRetrieve = 1,
  kPlan = 2,
  kReact = 3,
  kConverse = 4,
  kReflect = 5,
  kDailyPlan = 6,
  kScheduleDecomp = 7,
};

const char* call_type_name(CallType t);

/// One LLM invocation. Token lengths stand in for the prompt/response text
/// (the replay sets ignore_eos-style exact output lengths, as in §4.1).
struct LlmCall {
  AgentId agent = -1;
  Step step = 0;            // simulation step the call belongs to
  std::int32_t seq = 0;     // order within (agent, step); chains run serially
  CallType type = CallType::kPerceive;
  std::int32_t input_tokens = 0;
  std::int32_t output_tokens = 0;
  std::uint64_t prompt_hash = 0;    // identity of the prompt prefix (cache model)
  std::int32_t conversation_id = -1;  // -1 when not a conversation turn

  friend bool operator==(const LlmCall&, const LlmCall&) = default;
};

/// Explicit interaction between two agents at a step (conversation turn,
/// shared-object use). The oracle miner unions these with observation
/// proximity.
struct Interaction {
  Step step = 0;
  AgentId a = -1;
  AgentId b = -1;

  friend bool operator==(const Interaction&, const Interaction&) = default;
};

/// One agent's full trajectory and call stream.
struct AgentTrace {
  AgentId agent = -1;
  /// positions[i] = tile at the START of step (start_step + i);
  /// size == n_steps + 1 (the final entry is the position after the last
  /// step commits). Chebyshev distance between consecutive entries is at
  /// most max_vel.
  std::vector<Tile> positions;
  /// Sorted by (step, seq).
  std::vector<LlmCall> calls;
};

/// What kind of world a trace's positions live in. Grid traces encode
/// tiles; graph traces encode node ids of a fixed undirected graph in
/// `Tile::x` (y always 0), with `radius_p`/`max_vel` measured in hops.
enum class WorldKind : std::uint8_t { kGrid = 0, kGraph = 1 };

/// A complete simulation trace (possibly a slice of a day, possibly a
/// concatenation of independent segments).
struct SimulationTrace {
  std::int32_t n_agents = 0;
  Step n_steps = 0;      // steps covered: [start_step, start_step + n_steps)
  Step start_step = 0;   // absolute index of positions[0] (4320 = noon)
  double seconds_per_step = 10.0;  // simulated seconds per step (GenAgent)
  double radius_p = 4.0;           // perception radius (grid units / hops)
  double max_vel = 1.0;            // max movement per step (grid units / hops)
  std::int32_t map_width = 0;
  std::int32_t map_height = 0;
  WorldKind world_kind = WorldKind::kGrid;
  /// Graph worlds only: the graph, flat, whose shape its constructor has
  /// already checked. Positions must name nodes (x in [0, node count),
  /// y == 0), and consecutive positions must be equal or adjacent. Grid
  /// worlds leave it empty. For bounds checks to stay uniform, graph
  /// traces set map_width = node count and map_height = 1.
  world::CsrGraph graph_adjacency;
  std::vector<AgentTrace> agents;          // indexed by AgentId
  std::vector<Interaction> interactions;   // sorted by (step, a, b)

  std::size_t total_calls() const;
  /// Check-fails when structural invariants are violated (sizes, sorting,
  /// speed limit, bounds, call types). The graph's own shape is
  /// world::CsrGraph's to check; this checks how the trace uses it.
  void validate() const;

  Tile position_at(AgentId id, Step step) const;
};

/// The chain `agent` runs at absolute step `step`: its calls at that
/// step in seq order, found by binary search over `agent.calls`. Empty
/// when the step has no calls.
std::span<const LlmCall> calls_at(const AgentTrace& agent, Step step);

/// Calls of one agent grouped by step, in chain order. Steps with no calls
/// have no entry. Kept only because metro_bench/metro_bench.cpp calls it;
/// src/ reads chains with calls_at.
using StepCalls = std::map<Step, std::vector<const LlmCall*>>;
StepCalls group_calls_by_step(const AgentTrace& agent);

/// Restrict `full` to absolute steps [begin, end): agents keep their
/// positions over the window; only calls/interactions inside it survive.
/// The generators build windowed traces themselves and promise this
/// function's result byte for byte, so it is their tests' reference.
SimulationTrace slice(const SimulationTrace& full, Step begin, Step end);

/// Place independent segment traces side-by-side in space (agent ids and x
/// coordinates offset by segment), sharing the same time axis — the paper's
/// "large ville" construction (§4.3). All segments must have identical
/// shape (steps/window/params).
SimulationTrace concatenate_segments(
    const std::vector<SimulationTrace>& segments, std::int32_t stride_x);

/// Prompt-prefix identity of a conversation: every turn of one conversation
/// shares the prompt prefix in the cache model, so all of its calls carry
/// this hash. Conversation ids must therefore stay unique across day and
/// segment concatenation.
std::uint64_t conversation_prompt_hash(std::int32_t conversation_id);

}  // namespace aimetro::trace
