// Synthetic GenAgent workload generator.
//
// Stands in for the paper's instrumented GPT-3.5 traces (40 simulation days
// of the original Generative Agents implementation). A (seed, config) pair
// deterministically produces a full-day trace whose aggregate statistics
// are calibrated to the published numbers:
//   - ~56.7k LLM calls per 25-agent day,
//   - 642.6 mean input tokens, 21.9 mean output tokens,
//   - diurnal activity: near-zero 1am-4am (all agents asleep), a quiet
//     hour 6-7am (~800 calls), a busy hour 12-1pm (~5,000 calls with long
//     conversations) — the Figure 4c shape.
// Behaviour is generated, not just sampled: agents follow daily routines
// (wake, commute, lunch, socialize, sleep) with A*-pathfound movement, and
// conversations occur when agents actually meet, which is what creates the
// spatial coupling/blocking structure the scheduler exploits.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/behavior.h"
#include "trace/schema.h"
#include "world/grid_map.h"

namespace aimetro::trace {

struct GeneratorConfig {
  std::int32_t n_agents = 25;
  std::int32_t steps_per_day = 8640;  // 10 simulated seconds per step
  std::uint64_t seed = 42;
  double radius_p = 4.0;  // GenAgent perception radius (grid units)
  double max_vel = 1.0;   // one tile per step

  /// Total LLM calls targeted PER DAY; the paper reports 56.7k for 25
  /// agents. Scaled linearly when n_agents != 25.
  double target_calls_per_25_agents = 56700.0;

  /// Token-length targets (trace-wide means).
  double mean_input_tokens = 642.6;
  double mean_output_tokens = 21.9;

  /// The behavior model: routine mix, conversation propensity, diurnal
  /// curve. Defaults to the calibrated GenAgent townsfolk day; see
  /// trace/behavior.h for the other built-in profiles. Every agent uses
  /// this profile unless `agent_profiles` is set.
  BehaviorProfile profile;

  /// Heterogeneous population: one profile per agent (size must equal
  /// n_agents; see trace::assign_profiles for drawing one from a
  /// PopulationMix). Empty = the homogeneous `profile` above, which keeps
  /// the generator byte-identical to the historical single-profile path.
  std::vector<BehaviorProfile> agent_profiles;

  /// Days in the episode (generate_episode): each day draws independent
  /// randomness (schedules, conversations, fill) keyed by (seed, agent,
  /// day), and day k+1 starts where day k ended. days = 1 is exactly the
  /// historical single-day trace.
  std::int32_t days = 1;

  /// Which day of a multi-day episode this single-day generation is; salts
  /// the RNG streams so day 2 differs from day 1. Set by generate_episode.
  std::int32_t day_index = 0;

  /// Cross-day carry-over: start tiles for every agent (size n_agents),
  /// normally the previous day's final positions. Empty = agents start in
  /// bed at home. Set by generate_episode for days after the first.
  std::vector<Tile> start_tiles;
};

/// Generates a ONE-day trace on `map` (one segment; use
/// concatenate_segments + GridMap::concatenate for the large ville, and
/// generate_episode for multi-day runs). Ignores cfg.days.
SimulationTrace generate(const world::GridMap& map, const GeneratorConfig& cfg);

/// Generates a cfg.days-day episode on `map`: days chained on the time
/// axis with positional carry-over at each midnight boundary, and
/// conversation ids (with their prompt hashes) renumbered so no two days
/// share a conversation. With days == 1 this is exactly generate().
SimulationTrace generate_episode(const world::GridMap& map,
                                 const GeneratorConfig& cfg);

/// Generate one independent episode trace of `segment` per entry of
/// `agents_per_segment` (derived seeds base.seed + k * 0x9e3779b9) and
/// place them side by side with a one-tile divider stride — the paper's
/// large-ville construction (§4.3). Honors base.days. Segment k holds
/// agents_per_segment[k] agents (all counts >= 1, base.n_agents ignored);
/// populations need not be equal, so a total that does not divide evenly
/// loses no agents. A heterogeneous base.agent_profiles (sized to the
/// segment totals) is split across the segments in agent-id order.
///
/// Window: with window_begin >= 0 (a step of the episode's axis) the
/// result is exactly slice(<unwindowed result>, window_begin, window_end),
/// byte for byte, and no segment's full-length trace is ever alive. A
/// segment builds only the days the window needs. One RNG stream drives
/// each day, so movement, conversations and planning (Pass A) still run
/// every step of it, but positions are stored only for steps
/// [window_begin, window_end] and Pass-A calls only inside the window;
/// Pass B sizes its fill from per-hour tallies of every Pass-A call. Pass
/// B draws last: it draws every routine call up to the end of the window's
/// last hour, stores only those inside the window, and stops there. A day
/// before the window runs Pass A for its final tiles and its largest
/// conversation id (the carry-over and the renumbering) and stores
/// nothing else, and no day after the window is generated. validate() then
/// sees only the window, so the generator checks each move (in bounds,
/// within max_vel) as it makes it, naming the move's episode step.
/// window_begin < 0 keeps the whole episode.
///
/// Concurrency: segments are generated on min(segments,
/// std::thread::hardware_concurrency()) threads, the caller plus plain
/// std::threads, which claim segment indexes from a shared counter. Each
/// segment is written to its own slot, and the slots are concatenated in
/// segment order.
///
/// Determinism: a segment depends only on (segment map, base, its index),
/// never on which thread ran it or when, so the bytes are the same on any
/// thread count.
///
/// Failure: a segment that throws (e.g. a check failure on a zero-agent
/// segment) stops new segments from being claimed. Once every thread has
/// joined, the exception of the lowest failing segment index is rethrown
/// on the caller.
SimulationTrace generate_concatenated(
    const world::GridMap& segment,
    const std::vector<std::int32_t>& agents_per_segment,
    const GeneratorConfig& base, Step window_begin = -1,
    Step window_end = -1);

/// Graph-world (social-network) generator: agents live on the nodes of a
/// fixed undirected graph (e.g. world::newman_watts_graph; the result
/// carries it as its graph_adjacency, so move it in), positions encode
/// node ids, and radius_p/max_vel are measured in hops
/// (cfg.max_vel must be >= 1 — agents move one hop per step). It shares
/// the grid generator's day model: the same wake/sleep schedule draws,
/// wake-up planning burst and reflections, conversation turns with
/// per-pair cooldowns, Pass-B routine fill to the calibrated diurnal
/// call-count curve, and call/interaction assembly. What is its own:
/// agents start on random nodes, random-walk their neighborhood with the
/// profile's diurnal intensity (drifting toward high-degree hub nodes in
/// social hours), and conversations start between agents on the same
/// node.
/// Requires cfg.day_index == 0 and empty cfg.start_tiles (graph scenarios
/// are single-day); cfg.days is ignored.
///
/// Window: with window_begin >= 0 the result is exactly
/// slice(<unwindowed result>, window_begin, window_end), byte for byte.
/// It windows its day as generate_concatenated() windows a grid day, with
/// the same Pass-A tallies and Pass-B cut; validate() then sees only the
/// window, so the generator checks each hop against the graph as it makes
/// it. window_begin < 0 keeps the whole day.
SimulationTrace generate_social_graph(world::CsrGraph graph,
                                      const GeneratorConfig& cfg,
                                      Step window_begin = -1,
                                      Step window_end = -1);

}  // namespace aimetro::trace
