// Declarative workload specifications.
//
// A ScenarioSpec describes one complete workload — world geometry, agent
// population and behavior profile, dependency parameters, the LLM serving
// platform, and which execution backend runs it — as plain data. Specs are
// serialized to / parsed from a simple `key = value` text format ('#'
// comments, one key per line) with a std::from_chars-based typed
// conversion layer, so a scenario is a file you can diff, share, and sweep
// rather than a C++ binary you have to write.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace aimetro::scenario {

/// Which execution pipeline runs the scenario.
///  - kDes: trace replay on the discrete-event serving simulator
///    (src/replay + src/llm) — virtual time, cost-model GPUs.
///  - kEngine: the live threaded runtime::Engine — real threads, a real
///    world, wall-clock time, fake-LLM latency.
enum class Backend : std::uint8_t { kDes, kEngine };

const char* backend_name(Backend b);
std::optional<Backend> backend_from_name(const std::string& name);

/// World-geometry family; see world::GridMap builders.
enum class MapKind : std::uint8_t { kSmallville, kPlaza, kUrbanGrid, kArena };

const char* map_kind_name(MapKind m);
std::optional<MapKind> map_kind_from_name(const std::string& name);

/// What the agents stand on.
///  - kGrid: a tile map (`map` picks the GridMap family) — distances are
///    Euclidean, movement is one tile per step.
///  - kGraph: the nodes of a Newman-Watts small-world follower graph
///    (`graph_nodes`/`graph_degree`/`graph_rewire`) — distances are hops,
///    movement is one edge per step, and `map` is ignored.
enum class WorldKind : std::uint8_t { kGrid, kGraph };

const char* world_name(WorldKind w);
std::optional<WorldKind> world_from_name(const std::string& name);

/// Time base of the engine backend.
///  - kWall: real time; LLM calls sleep the fixed `call_latency_us` on a
///    FakeLlmClient, reports are in wall seconds.
///  - kVirtual: cost-model time; LLM calls are priced on llm::CostModel by
///    a CostModelLlmClient and served on a runtime::SimClock at
///    `time_scale`x compression, reports are in virtual seconds directly
///    comparable to the DES backend.
/// The DES backend is always virtual; `clock` is ignored there.
enum class ClockKind : std::uint8_t { kWall, kVirtual };

const char* clock_name(ClockKind c);
std::optional<ClockKind> clock_from_name(const std::string& name);

/// Scoreboard neighbor-scan implementation (core::ScanMode).
///  - kIndexed: spatial-index box probes — the production path.
///  - kBrute: the O(n) full-scan reference, for differential digest
///    checks; results are identical, only the cost differs.
enum class ScoreboardKind : std::uint8_t { kIndexed, kBrute };

const char* scoreboard_name(ScoreboardKind s);
std::optional<ScoreboardKind> scoreboard_from_name(const std::string& name);

/// Kept only because metro_bench/metro_bench.cpp names both values:
/// strips are always equal-width, and no spec key sets this.
enum class PartitionChoice : std::uint8_t { kWidth, kPopulation };

/// Ignored: strip boundaries never move after construction. The type
/// remains only because metro_bench/metro_bench.cpp reads
/// ScenarioSpec::reshard; drop both together with that read.
enum class ReshardMode : std::uint8_t { kOff };

/// CPU placement of the engine backend's per-strip worker pools.
///  - kNone: leave thread placement to the OS scheduler.
///  - kCores: pin each strip's pool to a contiguous core group
///    (Linux sched affinity; silently a no-op elsewhere, on the DES
///    backend, and with one effective strip).
enum class PinMode : std::uint8_t { kNone, kCores };

const char* pin_name(PinMode p);
std::optional<PinMode> pin_from_name(const std::string& name);

struct ScenarioSpec {
  std::string name = "unnamed";
  std::string description;

  // ---- World geometry ----
  /// Grid worlds read `map`/`map_width`/... below; graph worlds read the
  /// graph_* keys and ignore the grid geometry entirely.
  WorldKind world = WorldKind::kGrid;
  std::int32_t graph_nodes = 0;   // graph worlds: node count (>= 3)
  std::int32_t graph_degree = 4;  // graph worlds: even ring degree
  double graph_rewire = 0.1;      // graph worlds: shortcut probability [0,1]
  MapKind map = MapKind::kSmallville;
  std::int32_t map_width = 40;   // arena maps only
  std::int32_t map_height = 40;  // arena maps only
  std::int32_t homes = 15;       // smallville / plaza / urban_grid
  std::int32_t districts = 6;    // urban_grid office districts
  /// Horizontal segment concatenation — the paper's large-ville scaling
  /// construction (§4.3). Requires agents >= segments; when agents is not
  /// divisible by segments the remainder is spread over the first
  /// segments, so every specified agent is simulated.
  std::int32_t segments = 1;
  /// Hotspot skew of the agents-per-segment allocation, in [0, 1): 0 is
  /// the even split (the historical layout); larger values concentrate
  /// the population geometrically toward the first (leftmost) segments —
  /// segment k is weighted (1 - skew)^k — while every segment keeps at
  /// least one agent. This is what makes load imbalance reproducible
  /// from a spec name (the skewed_ville family).
  double segment_skew = 0.0;

  // ---- Agent population & behavior ----
  std::int32_t agents = 25;
  std::string profile = "townsfolk";  // see trace::BehaviorProfile
  /// Heterogeneous population mix, e.g.
  /// "townsfolk:0.6,socialite:0.2,commuter:0.15,hermit:0.05" (see
  /// trace::PopulationMix). Empty = every agent runs `profile`. When set,
  /// per-agent profiles are drawn deterministically from the mix
  /// (trace::assign_profiles keyed by `seed`) and `profile` is ignored.
  std::string population;
  double conversation_scale = 1.0;    // multiplies conversation propensity
  double calls_scale = 1.0;           // multiplies the calls-per-day target
  std::int32_t steps_per_day = 8640;  // 10 simulated seconds per step
  /// Episode length in days: the trace chains `days` day episodes with
  /// positional carry-over at each midnight boundary and fresh per-day
  /// randomness. days = 1 is exactly the historical single-day workload.
  std::int32_t days = 1;
  /// Replay window [begin, end) in absolute steps over the whole episode
  /// (day d covers [d*steps_per_day, (d+1)*steps_per_day)); -1/-1 = the
  /// full episode.
  Step window_begin = -1;
  Step window_end = -1;
  std::uint64_t seed = 42;

  // ---- Dependency parameters ----
  double radius_p = 4.0;
  double max_vel = 1.0;
  /// Scoreboard scan implementation on both backends: `indexed` (spatial
  /// index, the default) or `brute` (full-scan reference path — same
  /// results, O(n) per commit; for differential digest checks).
  ScoreboardKind scoreboard = ScoreboardKind::kIndexed;
  /// Equal-width strips of the scoreboard: `auto` (scale with the agent
  /// count; see resolved_shards()) or an explicit strip count in
  /// [1, 64] (core::kMaxShards). Internally 0 = auto. Digests are
  /// byte-identical for every value — sharding changes only which locks
  /// the engine takes, never what the simulation computes.
  std::int32_t shards = 0;
  /// Ignored, and not a spec key: the field remains only because
  /// metro_bench/metro_bench.cpp reads it; drop it together with that
  /// read.
  PartitionChoice partition = PartitionChoice::kWidth;
  /// Ignored, and not a spec key: the field remains only because
  /// metro_bench/metro_bench.cpp reads it; drop it together with that
  /// read.
  ReshardMode reshard = ReshardMode::kOff;
  /// `cores` pins each per-strip engine pool to a contiguous CPU core
  /// group; `none` (the default) leaves placement to the OS.
  PinMode pin = PinMode::kNone;

  // ---- LLM serving platform (DES backend) ----
  /// Resolved through llm::find_model / llm::find_gpu; unknown names are a
  /// validation error, never a silent default.
  std::string model = "llama-3-8b-instruct";
  std::string gpu = "l4";
  std::int32_t tensor_parallel = 1;
  std::int32_t data_parallel = 4;

  // ---- Execution ----
  Backend backend = Backend::kDes;
  std::int32_t workers = 4;            // engine backend worker threads
  /// Worker threads in the engine backend's member-chain TaskPool (the
  /// per-run pool that executes coupled members' LLM chains). 0 derives
  /// runtime::derive_pool_workers(workers) = 2 * workers; see
  /// resolved_pool_workers().
  std::int32_t pool_workers = 0;
  /// Engine-backend time base (see ClockKind). clock = virtual prices
  /// calls on the spec's model/GPU/parallelism via the DES cost model.
  ClockKind clock = ClockKind::kWall;
  /// Virtual microseconds per wall microsecond when clock = virtual: 1000
  /// compresses ~2.5 virtual hours of GPU time into ~9 wall seconds.
  double time_scale = 1000.0;
  std::int64_t call_latency_us = 200;  // clock = wall fake-LLM latency

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;

  /// Serialize as `key = value` text; parse_spec_text round-trips it.
  std::string to_text() const;

  /// Steps actually simulated: the window size, or the full episode
  /// (days * steps_per_day).
  Step sim_steps() const;
  /// Full episode length in steps (ignoring any window).
  Step episode_steps() const {
    return static_cast<Step>(days) * steps_per_day;
  }
  /// Member-chain pool size the engine backend actually uses:
  /// `pool_workers` when set, else derived from `workers`.
  std::int32_t resolved_pool_workers() const;
  /// Strip count the backends actually use: `shards` when explicit, else
  /// one strip per ~2500 agents, clamped to [1, 64] — small worlds stay
  /// unsharded, metro_ville100000 gets 40 strips.
  std::int32_t resolved_shards() const;
};

struct SpecParseResult {
  std::optional<ScenarioSpec> spec;
  std::string error;  // non-empty iff !spec; includes the offending line

  explicit operator bool() const { return spec.has_value(); }
};

/// Parse `key = value` text on top of `base` (so files and CLI overrides
/// can patch a registry entry). Rejects unknown keys, malformed values,
/// and garbage lines with a line-numbered error.
SpecParseResult parse_spec_text(const std::string& text,
                                ScenarioSpec base = {});

/// Parse a spec file from disk.
SpecParseResult parse_spec_file(const std::string& path);

/// Apply a single "key=value" override. Returns false and sets *error on
/// unknown keys or unconvertible values; unknown-key errors name the
/// nearest valid key ("did you mean ...?") so typos fail loudly and
/// helpfully rather than silently shaping a different workload.
bool apply_override(ScenarioSpec* spec, const std::string& assignment,
                    std::string* error);

/// Every valid spec key, in to_text() order (for docs, CLI help, tests).
std::vector<std::string> spec_key_names();

/// Semantic validation: ranges, divisibility, profile/model/GPU name
/// resolution, backend/map compatibility. Empty string when valid.
std::string validate_spec(const ScenarioSpec& spec);

}  // namespace aimetro::scenario
