#include "scenario/driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/metric.h"
#include "gym/agents.h"
#include "gym/env.h"
#include "llm/client.h"
#include "llm/cost_model_client.h"
#include "llm/specs.h"
#include "runtime/engine.h"
#include "runtime/sim_clock.h"
#include "runtime/task_pool.h"
#include "trace/generator.h"
#include "world/social_graph.h"
#include "world/world_state.h"

namespace aimetro::scenario {

namespace {

/// Order-sensitive digest over agent-indexed (step, position) states.
/// Positions are tile centers, so quantizing by 4 is exact.
std::uint64_t digest_states(const std::vector<std::pair<Step, Pos>>& states) {
  std::uint64_t h = 0xA13E7205C0FFEE01ULL;
  for (const auto& [step, pos] : states) {
    std::uint64_t v = splitmix64(static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(step)));
    v = splitmix64(v ^ static_cast<std::uint64_t>(
                           std::llround(pos.x * 4.0) + (1LL << 30)));
    v = splitmix64(v ^ static_cast<std::uint64_t>(
                           std::llround(pos.y * 4.0) + (1LL << 30)));
    h = splitmix64(h ^ v) + 0x9e3779b97f4a7c15ULL;
  }
  return h;
}

/// Per-agent profile names for a heterogeneous spec, drawn
/// deterministically from the population mix (empty for homogeneous
/// specs). Depends only on (population, agents, seed) — never on the
/// backend. Called once, from the ScenarioDriver constructor.
std::vector<std::string> assigned_profile_names(const ScenarioSpec& spec) {
  if (spec.population.empty()) return {};
  std::string mix_error;
  const auto mix = trace::PopulationMix::parse(spec.population, &mix_error);
  AIM_CHECK_MSG(mix.has_value(), "population: " << mix_error);
  return trace::assign_profiles(*mix, spec.agents, spec.seed);
}

/// Realized population as "profile:count,..." in mix order, for reports.
/// `names` is the driver's one authoritative assignment.
std::string population_summary(const ScenarioSpec& spec,
                               const std::vector<std::string>& names) {
  if (names.empty()) return "";
  std::string mix_error;
  const auto mix = trace::PopulationMix::parse(spec.population, &mix_error);
  AIM_CHECK_MSG(mix.has_value(), "population: " << mix_error);
  std::vector<std::string> parts;
  for (const std::string& profile : mix->profiles) {
    const auto count = std::count(names.begin(), names.end(), profile);
    parts.push_back(strformat("%s:%lld", profile.c_str(),
                              static_cast<long long>(count)));
  }
  return join(parts, ",");
}

/// Generator settings shared by every segment; the per-segment population
/// is decided by segment_agent_counts (n_agents here is a placeholder the
/// per-segment overload overrides; the heterogeneous assignment in
/// `names` — the driver's one authoritative copy — is split across
/// segments in agent-id order).
trace::GeneratorConfig generator_config(
    const ScenarioSpec& spec, const std::vector<std::string>& names) {
  trace::GeneratorConfig cfg;
  cfg.n_agents = spec.agents;
  cfg.steps_per_day = spec.steps_per_day;
  cfg.days = spec.days;
  cfg.seed = spec.seed;
  cfg.radius_p = spec.radius_p;
  cfg.max_vel = spec.max_vel;
  cfg.target_calls_per_25_agents = 56700.0 * spec.calls_scale;
  const auto profile = trace::BehaviorProfile::find(spec.profile);
  AIM_CHECK_MSG(profile.has_value(), "unknown profile " << spec.profile);
  cfg.profile = *profile;
  cfg.profile.conversation_start_prob = std::min(
      1.0, cfg.profile.conversation_start_prob * spec.conversation_scale);
  for (const std::string& name : names) {
    auto assigned = trace::BehaviorProfile::find(name);
    AIM_CHECK_MSG(assigned.has_value(), "unknown profile " << name);
    assigned->conversation_start_prob = std::min(
        1.0, assigned->conversation_start_prob * spec.conversation_scale);
    cfg.agent_profiles.push_back(std::move(*assigned));
  }
  return cfg;
}

/// Index of `abs_step`'s day among the days `tr`'s window overlaps.
std::size_t day_index(const trace::SimulationTrace& tr,
                      std::int32_t steps_per_day, Step abs_step) {
  return static_cast<std::size_t>(abs_step / steps_per_day -
                                  tr.start_step / steps_per_day);
}

/// Trace-side day rows (workload columns) for every day the window
/// overlaps; finish_seconds is filled in from the backend's run.
std::vector<ScenarioReport::DayRow> day_rows_from_trace(
    const trace::SimulationTrace& tr, std::int32_t steps_per_day) {
  AIM_CHECK(steps_per_day >= 1);
  const std::int32_t first_day = tr.start_step / steps_per_day;
  std::vector<ScenarioReport::DayRow> rows(
      day_index(tr, steps_per_day, tr.start_step + tr.n_steps - 1) + 1);
  for (std::size_t d = 0; d < rows.size(); ++d) {
    rows[d].day = first_day + static_cast<std::int32_t>(d);
  }
  // Distinct conversations per day (ids are day-unique by construction,
  // so a per-day id set counts whole conversations, not turns).
  std::vector<std::set<std::int32_t>> day_conversations(rows.size());
  for (const trace::AgentTrace& a : tr.agents) {
    for (const trace::LlmCall& c : a.calls) {
      const std::size_t d = day_index(tr, steps_per_day, c.step);
      rows[d].calls += 1;
      rows[d].input_tokens += c.input_tokens;
      rows[d].output_tokens += c.output_tokens;
      if (c.conversation_id >= 0) {
        day_conversations[d].insert(c.conversation_id);
      }
    }
  }
  for (std::size_t d = 0; d < rows.size(); ++d) {
    rows[d].conversations = day_conversations[d].size();
  }
  return rows;
}

world::GridMap segment_map(const ScenarioSpec& spec) {
  switch (spec.map) {
    case MapKind::kSmallville:
      return world::GridMap::smallville(spec.homes);
    case MapKind::kPlaza:
      return world::GridMap::plaza(spec.homes);
    case MapKind::kUrbanGrid:
      return world::GridMap::urban_grid(spec.districts, spec.homes);
    case MapKind::kArena:
      return world::GridMap::arena(spec.map_width, spec.map_height);
  }
  AIM_CHECK_MSG(false, "unreachable map kind");
  return world::GridMap(1, 1);
}

/// One engine run's LLM stack, per the spec's clock: a fixed-latency fake
/// measured on the wall clock, or a CostModelLlmClient pricing calls on
/// the spec's model/GPU/parallelism over a scaled virtual SimClock.
struct EngineLlmStack {
  std::unique_ptr<runtime::SimClock> clock;  // virtual mode only
  std::unique_ptr<llm::FakeLlmClient> fake;
  std::unique_ptr<llm::CostModelLlmClient> priced;
  std::chrono::steady_clock::time_point wall_start;

  llm::LlmClient& client() {
    return priced != nullptr ? static_cast<llm::LlmClient&>(*priced) : *fake;
  }
  std::uint64_t calls() const {
    return priced != nullptr ? priced->calls() : fake->calls();
  }
  void start_timing() {
    wall_start = std::chrono::steady_clock::now();
    if (clock != nullptr) clock->restart();
  }
  /// Completion in report units: virtual seconds when priced, else wall.
  double completion_seconds() const {
    if (clock != nullptr) return clock->elapsed_seconds();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_start)
        .count();
  }
};

EngineLlmStack make_engine_llm(const ScenarioSpec& spec) {
  EngineLlmStack stack;
  if (spec.clock == ClockKind::kVirtual) {
    const auto model = llm::find_model(spec.model);
    const auto gpu = llm::find_gpu(spec.gpu);
    AIM_CHECK_MSG(model.has_value(), "unknown model " << spec.model);
    AIM_CHECK_MSG(gpu.has_value(), "unknown GPU " << spec.gpu);
    llm::CostModelClientConfig cfg;
    cfg.data_parallel = spec.data_parallel;
    cfg.seed = spec.seed;
    stack.clock = std::make_unique<runtime::SimClock>(spec.time_scale);
    stack.priced = std::make_unique<llm::CostModelLlmClient>(
        llm::CostModel(*model, *gpu, spec.tensor_parallel), stack.clock.get(),
        cfg);
  } else {
    stack.fake =
        std::make_unique<llm::FakeLlmClient>(spec.seed, spec.call_latency_us);
  }
  stack.start_timing();
  return stack;
}

core::ScanMode scan_mode_of(const ScenarioSpec& spec) {
  return spec.scoreboard == ScoreboardKind::kBrute
             ? core::ScanMode::kBruteForce
             : core::ScanMode::kIndexed;
}

std::int32_t sign(std::int32_t d) { return d > 0 ? 1 : (d < 0 ? -1 : 0); }

/// One 4-neighbor step from `from` toward `to` (axis with the larger gap
/// first, falling back to the other axis when that tile is unwalkable).
/// Single-axis moves keep Euclidean displacement <= max_vel = 1, which the
/// dependency scoreboard enforces at commit.
Tile step_toward(const world::GridMap& map, Tile from, Tile to) {
  const std::int32_t dx = to.x - from.x;
  const std::int32_t dy = to.y - from.y;
  const Tile via_x{from.x + sign(dx), from.y};
  const Tile via_y{from.x, from.y + sign(dy)};
  const Tile first = std::abs(dx) >= std::abs(dy) ? via_x : via_y;
  const Tile second = std::abs(dx) >= std::abs(dy) ? via_y : via_x;
  if (!(first == from) && map.walkable(first)) return first;
  if (!(second == from) && map.walkable(second)) return second;
  return from;
}

}  // namespace

std::string ScenarioReport::summary() const {
  std::string out = strformat(
      "== scenario '%s' [%s backend] ==\n"
      "agents=%d  steps=%d  llm-calls=%llu  agent-steps=%llu\n",
      scenario.c_str(), backend_name(backend), agents, steps,
      static_cast<unsigned long long>(total_calls),
      static_cast<unsigned long long>(agent_steps));
  if (days > 1) {
    out += strformat("days=%d  steps/day=%d\n", days, steps_per_day);
  }
  if (!population.empty()) {
    out += strformat("population  %s\n", population.c_str());
  }
  const char* unit = virtual_time ? "s (virtual)" : "s (wall)";
  // DES: one global cursor. Engine: 1 worker (trace maps) or lock-step
  // (arena maps) — the pre-metropolis baseline either way. Omitted
  // entirely when the baseline run was skipped.
  if (has_serial) {
    out += strformat("baseline    %10.2f%s\n", serial_seconds, unit);
  }
  if (backend == Backend::kDes) {
    out += strformat("sync        %10.2f%s\n", sync_seconds, unit);
  }
  out += strformat("metropolis  %10.2f%s", metro_seconds, unit);
  std::vector<std::string> speedups;
  if (has_serial) {
    speedups.push_back(strformat("%.2fx vs serial", speedup_vs_serial));
  }
  if (backend == Backend::kDes) {
    speedups.push_back(strformat("%.2fx vs sync", speedup_vs_sync));
  }
  if (!speedups.empty()) {
    out += strformat("   (%s)", join(speedups, ", ").c_str());
  }
  out += "\n";
  if (backend == Backend::kDes) {
    out += strformat("parallelism=%.2f  ", avg_parallelism);
  }
  out += strformat(
      "mean-cluster=%.2f  mean-blockers=%.2f  clusters=%llu\n",
      mean_cluster_size, mean_blockers,
      static_cast<unsigned long long>(clusters_dispatched));
  if (pool_workers > 0) {
    out += strformat(
        "chain-pool  workers=%d  peak-inflight=%llu\n", pool_workers,
        static_cast<unsigned long long>(peak_inflight_tasks));
  }
  if (shards > 1) {
    out += strformat("shards=%d\n", shards);
    if (!shard_rows.empty()) {
      out += strformat("  %6s %10s %12s %12s %14s\n", "shard", "commits",
                       "wait-us", "hold-us", "max-wait-us");
      for (const ShardContention& row : shard_rows) {
        out += strformat(
            "  %6s %10llu %12llu %12llu %14llu\n",
            row.shard < 0 ? "cross" : std::to_string(row.shard).c_str(),
            static_cast<unsigned long long>(row.commits),
            static_cast<unsigned long long>(row.commit_wait_us),
            static_cast<unsigned long long>(row.commit_hold_us),
            static_cast<unsigned long long>(row.max_commit_wait_us));
      }
    }
  }
  out += strformat("scoreboard-digest=%016llx\n",
                   static_cast<unsigned long long>(scoreboard_digest));
  if (day_rows.size() > 1) {
    out += strformat("per-day breakdown (metropolis, %s):\n",
                     virtual_time ? "virtual" : "wall");
    out += strformat("  %4s %10s %12s %11s %9s %14s\n", "day", "calls",
                     "in-tok", "out-tok", "convs", "day-finish");
    for (const DayRow& row : day_rows) {
      out += strformat(
          "  %4d %10llu %12lld %11lld %9llu %13.2fs\n", row.day + 1,
          static_cast<unsigned long long>(row.calls),
          static_cast<long long>(row.input_tokens),
          static_cast<long long>(row.output_tokens),
          static_cast<unsigned long long>(row.conversations),
          row.finish_seconds);
    }
  }
  if (world_hash_serial != 0 && world_hash_metro != 0) {
    out += strformat(
        "world-hash  serial=%016llx  metropolis=%016llx  %s\n",
        static_cast<unsigned long long>(world_hash_serial),
        static_cast<unsigned long long>(world_hash_metro),
        world_hash_serial == world_hash_metro ? "(identical: OK)"
                                              : "(DIVERGED!)");
  }
  return out;
}

ScenarioDriver::ScenarioDriver(ScenarioSpec spec) : spec_(std::move(spec)) {
  const std::string error = validate_spec(spec_);
  AIM_CHECK_MSG(error.empty(), "invalid scenario '" << spec_.name
                                                    << "': " << error);
  assigned_profiles_ = assigned_profile_names(spec_);
}

world::GridMap ScenarioDriver::build_map() const {
  world::GridMap segment = segment_map(spec_);
  if (spec_.segments > 1) {
    return world::GridMap::concatenate(segment, spec_.segments,
                                       /*divider=*/true);
  }
  return segment;
}

trace::SimulationTrace ScenarioDriver::build_trace() const {
  AIM_CHECK_MSG(spec_.map != MapKind::kArena,
                "arena maps have no generated trace");
  const trace::GeneratorConfig cfg = generator_config(spec_, assigned_profiles_);
  trace::SimulationTrace trace;
  // Both generators store only the replay window's positions.
  if (spec_.world == WorldKind::kGraph) {
    trace = trace::generate_social_graph(
        world::newman_watts_graph(spec_.graph_nodes, spec_.graph_degree,
                                  spec_.graph_rewire, spec_.seed),
        cfg, spec_.window_begin, spec_.window_end);
  } else {
    // Windowed per segment, so full-length segment traces never pile up.
    trace = trace::generate_concatenated(
        segment_map(spec_),
        segment_agent_counts(spec_.agents, spec_.segments, spec_.segment_skew),
        cfg, spec_.window_begin, spec_.window_end);
  }
  AIM_CHECK_MSG(trace.n_agents == spec_.agents,
                "segment split lost agents: " << trace.n_agents << " vs "
                                              << spec_.agents);
  return trace;
}

replay::ExperimentConfig ScenarioDriver::experiment_config() const {
  replay::ExperimentConfig cfg;
  const auto model = llm::find_model(spec_.model);
  const auto gpu = llm::find_gpu(spec_.gpu);
  AIM_CHECK_MSG(model.has_value(), "unknown model " << spec_.model);
  AIM_CHECK_MSG(gpu.has_value(), "unknown GPU " << spec_.gpu);
  cfg.model = *model;
  cfg.gpu = *gpu;
  cfg.parallelism =
      llm::ParallelismConfig{spec_.tensor_parallel, spec_.data_parallel};
  cfg.scan_mode = scan_mode_of(spec_);
  cfg.shards = spec_.resolved_shards();
  return cfg;
}

std::vector<std::int32_t> segment_agent_counts(std::int32_t agents,
                                               std::int32_t segments) {
  AIM_CHECK(segments >= 1 && agents >= segments);
  const std::int32_t base = agents / segments;
  const std::int32_t remainder = agents % segments;
  std::vector<std::int32_t> counts(static_cast<std::size_t>(segments), base);
  for (std::int32_t k = 0; k < remainder; ++k) counts[k] += 1;
  return counts;
}

std::vector<std::int32_t> segment_agent_counts(std::int32_t agents,
                                               std::int32_t segments,
                                               double skew) {
  AIM_CHECK(skew >= 0.0 && skew < 1.0);
  if (skew == 0.0) return segment_agent_counts(agents, segments);
  AIM_CHECK(segments >= 1 && agents >= segments);
  // One guaranteed agent per segment; the spare mass goes out
  // proportionally to the geometric weights (1 - skew)^k, rounded by
  // largest remainder (ties broken toward lower segment index) so the
  // counts are deterministic and sum exactly to `agents`.
  std::vector<std::int32_t> counts(static_cast<std::size_t>(segments), 1);
  const std::int32_t spare = agents - segments;
  if (spare == 0) return counts;
  std::vector<double> weight(static_cast<std::size_t>(segments));
  double total = 0.0;
  double w = 1.0;
  for (std::int32_t k = 0; k < segments; ++k) {
    weight[static_cast<std::size_t>(k)] = w;
    total += w;
    w *= 1.0 - skew;
  }
  std::vector<double> frac(static_cast<std::size_t>(segments));
  std::int32_t assigned = 0;
  for (std::int32_t k = 0; k < segments; ++k) {
    const double share =
        static_cast<double>(spare) * weight[static_cast<std::size_t>(k)] /
        total;
    const auto whole = static_cast<std::int32_t>(share);
    counts[static_cast<std::size_t>(k)] += whole;
    assigned += whole;
    frac[static_cast<std::size_t>(k)] = share - whole;
  }
  std::vector<std::int32_t> order(static_cast<std::size_t>(segments));
  for (std::int32_t k = 0; k < segments; ++k) {
    order[static_cast<std::size_t>(k)] = k;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     return frac[static_cast<std::size_t>(a)] >
                            frac[static_cast<std::size_t>(b)];
                   });
  for (std::int32_t i = 0; i < spare - assigned; ++i) {
    counts[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] += 1;
  }
  return counts;
}

std::vector<Tile> plan_gym_starts(const world::GridMap& map, std::int32_t n) {
  AIM_CHECK(n >= 1);
  // Anchor tiles on an evenly spaced grid with margins (the historical
  // layout), then snap each anchor to the nearest walkable tile no other
  // agent holds — ring search in deterministic scan order. The old clamp
  // to width-1/height-1 could stack agents on one tile when the grid
  // overflowed the map.
  const std::int32_t cols = std::max<std::int32_t>(
      1, static_cast<std::int32_t>(std::ceil(std::sqrt(n))));
  const std::int32_t rows = (n + cols - 1) / cols;
  const std::int32_t dx = std::max<std::int32_t>(1, (map.width() - 6) / cols);
  const std::int32_t dy = std::max<std::int32_t>(1, (map.height() - 6) / rows);
  const std::int32_t max_ring = std::max(map.width(), map.height());

  std::unordered_set<Tile, TileHash> taken;
  std::vector<Tile> starts;
  starts.reserve(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) {
    const Tile anchor{
        std::min(map.width() - 1, 3 + (i % cols) * dx),
        std::min(map.height() - 1, 3 + (i / cols) * dy)};
    bool placed = false;
    for (std::int32_t ring = 0; ring <= max_ring && !placed; ++ring) {
      for (std::int32_t oy = -ring; oy <= ring && !placed; ++oy) {
        for (std::int32_t ox = -ring; ox <= ring && !placed; ++ox) {
          if (std::max(std::abs(ox), std::abs(oy)) != ring) continue;
          const Tile t{anchor.x + ox, anchor.y + oy};
          if (!map.walkable(t) || taken.count(t) != 0) continue;
          taken.insert(t);
          starts.push_back(t);
          placed = true;
        }
      }
    }
    AIM_CHECK_MSG(placed, "map cannot seat " << n << " agents: no free "
                          "walkable tile near (" << anchor.x << ","
                          << anchor.y << ")");
  }
  return starts;
}

namespace {

/// One execution on either backend — the serial baseline or the
/// metropolis run — in the units ScenarioReport needs.
struct RunOutcome {
  double completion_seconds = 0.0;  // virtual or wall, per backend/clock
  std::uint64_t calls = 0;
  std::uint64_t agent_steps = 0;
  std::uint64_t digest = 0;
  std::uint64_t world_hash = 0;  // engine backend only
  core::ScoreboardStats scoreboard;
  double mean_blockers = 0.0;
  double avg_parallelism = 0.0;  // DES only
  std::int32_t shards = 1;
  /// Engine trace runs: per-strip commit rows, then the cross row.
  std::vector<runtime::EngineStats> shard_rows;
  /// Member-chain pool diagnostics (zero for the serial baseline, which
  /// runs chains inline, and on the DES).
  std::int32_t pool_workers = 0;
  std::uint64_t peak_inflight_tasks = 0;
  /// Multi-day trace runs: seconds at which the last call of each day the
  /// window overlaps finished, in day_rows order.
  std::vector<double> day_finish;
};

/// What every backend returns: the serial baseline (all zero when
/// skipped) and the metropolis run, plus the DES's lock-step run.
struct RunPair {
  RunOutcome serial;
  RunOutcome metro;
  double sync_seconds = 0.0;  // DES only
};

RunPair run_des(const ScenarioDriver& driver, const trace::SimulationTrace& tr,
                bool serial_baseline) {
  const ScenarioSpec& spec = driver.spec();
  replay::ExperimentConfig cfg = driver.experiment_config();
  auto run_mode = [&](replay::Mode mode) {
    cfg.mode = mode;
    // Per-call finish times feed the per-day breakdown of multi-day runs.
    cfg.record_gantt = mode == replay::Mode::kMetropolis && spec.days > 1;
    return replay::run_experiment(tr, cfg);
  };
  RunPair runs;
  if (serial_baseline) {
    runs.serial.completion_seconds =
        run_mode(replay::Mode::kSingleThread).completion_seconds;
  }
  runs.sync_seconds = run_mode(replay::Mode::kParallelSync).completion_seconds;
  const replay::ExperimentResult metro = run_mode(replay::Mode::kMetropolis);
  RunOutcome& out = runs.metro;
  out.completion_seconds = metro.completion_seconds;
  out.calls = metro.total_calls;
  out.agent_steps = static_cast<std::uint64_t>(
      std::llround(metro.scoreboard.sum_cluster_sizes));
  out.digest = digest_states(metro.final_agent_states);
  out.scoreboard = metro.scoreboard;
  out.mean_blockers = metro.mean_blockers;
  out.avg_parallelism = metro.avg_parallelism;
  out.shards = metro.shards;
  for (const replay::GanttRecord& rec : metro.gantt) {
    const std::size_t d = day_index(tr, spec.steps_per_day, rec.step);
    if (d >= out.day_finish.size()) out.day_finish.resize(d + 1, 0.0);
    out.day_finish[d] =
        std::max(out.day_finish[d], sim_time_to_seconds(rec.finish));
  }
  return runs;
}

RunPair run_engine_trace(const ScenarioDriver& driver,
                         const trace::SimulationTrace& tr,
                         bool serial_baseline) {
  const ScenarioSpec& spec = driver.spec();
  const bool graph = spec.world == WorldKind::kGraph;
  // Graph worlds stand on a node-count-by-1 substrate map (bounds checks
  // only); the dependency metric measures hops over the trace's graph.
  const world::GridMap map =
      graph ? world::GridMap(spec.graph_nodes, 1) : driver.build_map();
  const std::shared_ptr<const core::Metric> metric =
      graph ? std::make_shared<core::GraphMetric>(tr.graph_adjacency)
            : nullptr;

  // Replay the generated trace through the live threaded engine: movement
  // follows the trace (one step toward the trace position, so a move lost
  // to a conflict just lags and retries), and every traced LLM call is
  // issued through the blocking client shim from the worker threads.
  auto run_once = [&](std::int32_t workers) {
    EngineLlmStack llm_stack = make_engine_llm(spec);
    llm::LlmClient& client = llm_stack.client();
    std::vector<Tile> starts;
    starts.reserve(static_cast<std::size_t>(tr.n_agents));
    for (AgentId a = 0; a < tr.n_agents; ++a) {
      starts.push_back(tr.position_at(a, tr.start_step));
    }
    world::WorldState world(&map, std::move(starts),
                            graph ? &tr.graph_adjacency : nullptr);

    runtime::EngineConfig ecfg;
    ecfg.params = core::DependencyParams{spec.radius_p, spec.max_vel};
    ecfg.target_step = tr.n_steps;
    ecfg.n_workers = workers;
    ecfg.scan_mode = scan_mode_of(spec);
    ecfg.metric = metric;  // null = Euclidean
    ecfg.shards = spec.resolved_shards();
    ecfg.pin_cores = spec.pin == PinMode::kCores;

    // One agent's traced calls for a step, issued in chain order (calls
    // within a chain are serial by definition).
    auto chain_of = [&tr](AgentId m, Step abs_step) {
      return trace::calls_at(tr.agents[static_cast<std::size_t>(m)], abs_step);
    };
    auto issue_chain = [&](AgentId m, Step abs_step) {
      for (const trace::LlmCall& call : chain_of(m, abs_step)) {
        llm::CompletionRequest req;
        req.prompt = strformat("agent=%d step=%d type=%s", m, abs_step,
                               trace::call_type_name(call.type));
        req.prompt_tokens = call.input_tokens;
        req.max_tokens = call.output_tokens;
        req.priority = abs_step;
        client.complete(req);
      }
    };

    // Multi-day runs: track when each episode day's last chain finished
    // (workers race on this; the mutex is cold next to an LLM call).
    std::vector<double> day_finish(
        day_index(tr, spec.steps_per_day, tr.start_step + tr.n_steps - 1) +
            1,
        0.0);
    common::Mutex day_finish_mutex{"scenario.day_finish"};
    auto note_chain_done = [&](Step abs_step) {
      if (spec.days <= 1) return;
      const double elapsed = llm_stack.completion_seconds();
      const std::size_t d = day_index(tr, spec.steps_per_day, abs_step);
      common::MutexLock lock(day_finish_mutex);
      day_finish[d] = std::max(day_finish[d], elapsed);
    };

    // Distinct members' chains are independent, so they run concurrently —
    // matching the DES replay, which submits every member's chain on
    // dispatch. The 1-worker baseline keeps them serial: it models the
    // original implementation's single global cursor. Parallel runs hand
    // chains to one persistent per-run TaskPool (created here, before the
    // timed region starts) instead of constructing and joining a thread
    // per chain on every dispatch.
    const bool parallel_chains = workers > 1;
    std::unique_ptr<runtime::TaskPool> chain_pool;
    if (parallel_chains) {
      chain_pool = std::make_unique<runtime::TaskPool>(
          spec.resolved_pool_workers());
    }
    auto step_fn = [&, parallel_chains](const core::AgentCluster& cluster,
                                        const world::WorldState& w) {
      const Step abs_step = tr.start_step + cluster.step;
      std::vector<AgentId> with_calls;
      for (AgentId m : cluster.members) {
        if (!chain_of(m, abs_step).empty()) with_calls.push_back(m);
      }
      if (parallel_chains && with_calls.size() > 1) {
        std::vector<runtime::TaskPool::Task> tasks;
        tasks.reserve(with_calls.size());
        for (AgentId m : with_calls) {
          tasks.push_back([&issue_chain, m, abs_step] {
            issue_chain(m, abs_step);
          });
        }
        chain_pool->submit_and_wait(std::move(tasks), /*priority=*/abs_step);
      } else {
        for (AgentId m : with_calls) issue_chain(m, abs_step);
      }
      if (!with_calls.empty()) note_chain_done(abs_step);

      std::vector<world::StepIntent> intents;
      intents.reserve(cluster.members.size());
      for (AgentId m : cluster.members) {
        Tile current;
        {
          common::ReaderLock lock(w.mutex());
          current = w.tile_of(m);
        }
        const Tile want = tr.position_at(m, abs_step + 1);
        // Graph traces already move one hop per step, so the target is
        // directly reachable; grid traces may need axis decomposition.
        const Tile next = graph ? want : step_toward(map, current, want);
        world::StepIntent intent;
        intent.agent = m;
        if (!(next == current)) intent.move_to = next;
        intents.push_back(intent);
      }
      return intents;
    };

    RunOutcome out;
    runtime::Engine engine(&world, ecfg, step_fn);
    llm_stack.start_timing();
    out.agent_steps = engine.run().agent_steps;
    out.completion_seconds = llm_stack.completion_seconds();
    out.calls = llm_stack.calls();
    if (chain_pool != nullptr) {
      out.pool_workers = chain_pool->workers();
      out.peak_inflight_tasks = chain_pool->stats().peak_in_flight;
    }
    out.day_finish = std::move(day_finish);
    const core::Scoreboard& board = engine.scoreboard();
    AIM_CHECK(board.all_done());
    std::vector<std::pair<Step, Pos>> states;
    for (AgentId a = 0; a < tr.n_agents; ++a) {
      states.emplace_back(board.step_of(a), board.pos_of(a));
    }
    out.digest = digest_states(states);
    {
      // The engine has drained, but the digest read still follows the
      // protocol: state_hash requires the world lock.
      common::ReaderLock lock(world.mutex());
      out.world_hash = world.state_hash();
    }
    out.scoreboard = board.stats();
    out.mean_blockers = board.mean_blockers();
    out.shards = engine.shards();
    out.shard_rows = engine.shard_commit_stats();
    return out;
  };

  RunPair runs;
  if (serial_baseline) runs.serial = run_once(1);
  runs.metro = run_once(spec.workers);
  return runs;
}

RunPair run_engine_gym(const ScenarioDriver& driver, bool serial_baseline) {
  const ScenarioSpec& spec = driver.spec();
  const world::GridMap map = driver.build_map();
  const std::int32_t n = spec.agents;
  const std::vector<Tile> starts = plan_gym_starts(map, n);

  auto make_agents = [&] {
    std::vector<std::unique_ptr<gym::Agent>> agents;
    for (std::int32_t i = 0; i < n; ++i) {
      agents.push_back(std::make_unique<gym::WandererAgent>(
          spec.seed + static_cast<std::uint64_t>(i) * 1000));
    }
    return agents;
  };

  gym::EnvConfig cfg;
  cfg.params = core::DependencyParams{spec.radius_p, spec.max_vel};
  cfg.target_step = spec.sim_steps();
  cfg.n_workers = spec.workers;
  cfg.pool_workers = spec.resolved_pool_workers();
  cfg.scan_mode = scan_mode_of(spec);

  RunPair runs;
  if (serial_baseline) {
    // Baseline: lock-step execution (Algorithm 1), same LLM pricing.
    cfg.out_of_order = false;
    EngineLlmStack llm_serial = make_engine_llm(spec);
    gym::Env lockstep(&map, starts, make_agents(), &llm_serial.client(), cfg);
    llm_serial.start_timing();
    lockstep.run();
    runs.serial.completion_seconds = llm_serial.completion_seconds();
    runs.serial.world_hash = lockstep.state_hash();
  }

  // Out-of-order on the AI Metropolis engine (Algorithm 3). Dependency
  // statistics come from its scoreboard, as on the trace paths.
  cfg.out_of_order = true;
  EngineLlmStack llm_metro = make_engine_llm(spec);
  gym::Env metro(&map, starts, make_agents(), &llm_metro.client(), cfg);
  llm_metro.start_timing();
  RunOutcome& out = runs.metro;
  out.agent_steps = metro.run().agent_steps;
  out.completion_seconds = llm_metro.completion_seconds();
  out.calls = llm_metro.calls();
  out.scoreboard = metro.scoreboard_stats();
  out.mean_blockers = metro.mean_blockers();
  out.pool_workers = metro.chain_pool().workers();
  out.peak_inflight_tasks = metro.chain_pool().stats().peak_in_flight;
  out.world_hash = metro.state_hash();
  out.digest = out.world_hash;
  return runs;
}

}  // namespace

ScenarioReport ScenarioDriver::run(bool serial_baseline) const {
  ScenarioReport r;
  RunPair runs;
  if (spec_.map == MapKind::kArena) {
    runs = run_engine_gym(*this, serial_baseline);
    r.agents = spec_.agents;
    r.steps = spec_.sim_steps();
  } else {
    const trace::SimulationTrace tr = build_trace();
    runs = spec_.backend == Backend::kDes
               ? run_des(*this, tr, serial_baseline)
               : run_engine_trace(*this, tr, serial_baseline);
    r.agents = tr.n_agents;
    r.steps = tr.n_steps;
    if (spec_.days > 1) {
      r.day_rows = day_rows_from_trace(tr, spec_.steps_per_day);
    }
  }
  const RunOutcome& metro = runs.metro;
  const bool des = spec_.backend == Backend::kDes;
  r.scenario = spec_.name;
  r.backend = spec_.backend;
  r.days = spec_.days;
  r.steps_per_day = spec_.steps_per_day;
  r.population = population_summary(spec_, assigned_profiles_);
  for (std::size_t d = 0;
       d < r.day_rows.size() && d < metro.day_finish.size(); ++d) {
    r.day_rows[d].finish_seconds = metro.day_finish[d];
  }
  r.total_calls = metro.calls;
  r.agent_steps = metro.agent_steps;
  r.has_serial = serial_baseline;
  // The DES backend always reports virtual time.
  r.virtual_time = des || spec_.clock == ClockKind::kVirtual;
  r.serial_seconds = runs.serial.completion_seconds;
  r.sync_seconds = runs.sync_seconds;
  r.metro_seconds = metro.completion_seconds;
  if (r.metro_seconds > 0.0) {
    if (serial_baseline) {
      r.speedup_vs_serial = r.serial_seconds / r.metro_seconds;
    }
    if (des) r.speedup_vs_sync = r.sync_seconds / r.metro_seconds;
  }
  r.avg_parallelism = metro.avg_parallelism;
  r.mean_cluster_size = metro.scoreboard.mean_cluster_size();
  r.mean_blockers = metro.mean_blockers;
  r.clusters_dispatched = metro.scoreboard.clusters_dispatched;
  r.pool_workers = metro.pool_workers;
  r.peak_inflight_tasks = metro.peak_inflight_tasks;
  r.shards = metro.shards;
  if (metro.shards > 1) {
    for (std::size_t i = 0; i < metro.shard_rows.size(); ++i) {
      const runtime::EngineStats& row = metro.shard_rows[i];
      ScenarioReport::ShardContention c;
      c.shard = i + 1 == metro.shard_rows.size()
                    ? -1  // the cross-shard (boundary) row
                    : static_cast<std::int32_t>(i);
      c.commits = row.commits;
      c.commit_wait_us = row.commit_wait_us;
      c.commit_hold_us = row.commit_hold_us;
      c.max_commit_wait_us = row.max_commit_wait_us;
      r.shard_rows.push_back(c);
    }
  }
  r.scoreboard_digest = metro.digest;
  r.world_hash_serial = runs.serial.world_hash;
  r.world_hash_metro = metro.world_hash;
  return r;
}

}  // namespace aimetro::scenario
