// metro_bench — end-to-end and per-layer benchmark of the AI Metropolis
// simulator on a fixed set of registry workloads, on both backends.
//
//   metro_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--spans FILE]
//   metro_bench --list
//
// One invocation runs one workload in its own process:
//   1. setup (generate the trace, build map/graph/chains);
//   2. one untimed warm-up run;
//   3. --trace 0: timed metropolis runs with no tracing, alternating with
//      further setups, until --seconds have passed; the medians are
//      `run_s` and `setup_s`.
//      --trace 1: repeated setups, then traced passes until --seconds have
//      passed, giving the per-layer numbers (medians over passes);
//   4. the correctness checks.
// The last line of stdout is one JSON object {"correct", "attempted",
// "failed", "metrics"}. A failed check prints correct=false and exits 1;
// bad arguments or an internal error print no result and exit 2.
//
// The DES path calls what ScenarioDriver::run_des calls (build_trace,
// experiment_config, replay::run_experiment). The engine path is a copy of
// ScenarioDriver::run_engine_trace's run_once, so timed runs reuse one
// generated trace; its step_toward and digest_states are copies too, and
// the seed-42 digests below pin them to aimetro_run's output. Workload
// choices, metric definitions and bounds are documented in README.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/metric.h"
#include "core/scoreboard.h"
#include "llm/client.h"
#include "recorder.h"
#include "replay/experiment.h"
#include "runtime/engine.h"
#include "runtime/task_pool.h"
#include "scenario/driver.h"
#include "scenario/registry.h"
#include "scenario/spec.h"
#include "trace/schema.h"
#include "world/grid_map.h"
#include "world/world_state.h"

namespace metro_bench {
namespace {

using namespace aimetro;  // NOLINT(google-build-using-namespace)

// ---- Workloads ----

struct Workload {
  std::string name;
  std::string scenario;
  std::vector<std::string> overrides;
  /// Engine settings the traced pass probes on a DES workload's trace
  /// (engine workloads probe their own settings).
  std::vector<std::string> probe_overrides;
  /// Scoreboard digest of the metropolis run at seed 42: the DES digest is
  /// the trace's final state, the engine digest the engine's final state.
  std::uint64_t digest_seed42;
};

/// Zero LLM latency and 2 + 2 threads: the engine's own host cost, inside
/// the 4-core budget.
const std::vector<std::string> kEngineHost = {
    "backend=engine", "call_latency_us=0", "workers=2", "pool_workers=2"};

std::vector<std::string> concat(std::vector<std::string> a,
                                const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"ville25_day_des", "smallville_day",
       {"window_begin=-1", "window_end=-1"}, kEngineHost,
       0x29d3aa30666fb455ULL},
      {"metro1k_des", "metro_ville1000", {},
       concat(kEngineHost, {"shards=2"}), 0xc66cb632112871bbULL},
      {"metro1k_engine", "metro_ville1000",
       concat(kEngineHost, {"shards=2"}), {}, 0x1f56cbb750068722ULL},
      {"social1k_des", "social_net1000", {}, kEngineHost,
       0xf0f34413c29818e1ULL},
  };
  return kWorkloads;
}

scenario::ScenarioSpec make_spec(const std::string& name,
                                 const std::vector<std::string>& overrides) {
  std::string error;
  auto spec = scenario::find_scenario(name, &error);
  AIM_CHECK_MSG(spec.has_value(), error);
  for (const std::string& assignment : overrides) {
    AIM_CHECK_MSG(scenario::apply_override(&*spec, assignment, &error), error);
  }
  error = scenario::validate_spec(*spec);
  AIM_CHECK_MSG(error.empty(), "invalid spec '" << name << "': " << error);
  // The engine copy below covers single-day, wall-clock, non-resharding
  // trace replays only — what every workload here is.
  AIM_CHECK(spec->days == 1 && spec->clock == scenario::ClockKind::kWall &&
            spec->reshard == scenario::ReshardMode::kOff);
  return *spec;
}

// ---- Helpers copied from ScenarioDriver (see the header comment) ----

/// Order-sensitive digest over agent-indexed (step, position) states.
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

std::int32_t sign(std::int32_t d) { return d > 0 ? 1 : (d < 0 ? -1 : 0); }

/// One 4-neighbor step from `from` toward `to`.
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

/// The engine's per-member intent: one step toward the trace position.
world::StepIntent intent_for(const trace::SimulationTrace& tr,
                             const world::GridMap& map, AgentId m,
                             Step abs_step, Tile current) {
  const Tile want = tr.position_at(m, abs_step + 1);
  const bool graph = tr.world_kind == trace::WorldKind::kGraph;
  const Tile next = graph ? want : step_toward(map, current, want);
  world::StepIntent intent;
  intent.agent = m;
  if (!(next == current)) intent.move_to = next;
  return intent;
}

/// Digest of a drained scoreboard's final (step, position) per agent.
std::uint64_t board_digest(const core::Scoreboard& board,
                           std::int32_t n_agents) {
  std::vector<std::pair<Step, Pos>> states;
  states.reserve(static_cast<std::size_t>(n_agents));
  for (AgentId a = 0; a < n_agents; ++a) {
    states.emplace_back(board.step_of(a), board.pos_of(a));
  }
  return digest_states(states);
}

core::ScanMode scan_mode_of(const scenario::ScenarioSpec& spec) {
  return spec.scoreboard == scenario::ScoreboardKind::kBrute
             ? core::ScanMode::kBruteForce
             : core::ScanMode::kIndexed;
}

world::PartitionKind partition_kind_of(const scenario::ScenarioSpec& spec) {
  return spec.partition == scenario::PartitionChoice::kPopulation
             ? world::PartitionKind::kEqualPopulation
             : world::PartitionKind::kEqualWidth;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---- Setup ----

struct Setup {
  scenario::ScenarioSpec spec;
  trace::SimulationTrace trace;
  replay::ExperimentConfig des;
  std::unique_ptr<world::GridMap> map;  // engine/world substrate
  std::shared_ptr<const core::Metric> metric;
  std::vector<trace::StepCalls> chains;
  std::vector<Tile> starts;
  std::uint64_t calls = 0;
  std::uint64_t agent_steps = 0;
  double generate_s = 0.0;  // build_trace alone
  double setup_s = 0.0;
};

Setup make_setup(const scenario::ScenarioSpec& spec) {
  Setup s;
  const auto t0 = Clock::now();
  const scenario::ScenarioDriver driver(spec);
  s.trace = driver.build_trace();
  const auto t1 = Clock::now();
  s.spec = spec;
  s.des = driver.experiment_config();
  const bool graph = spec.world == scenario::WorldKind::kGraph;
  // Graph worlds stand on a node-count-by-1 substrate map (bounds checks
  // only), exactly as the driver builds them.
  s.map = std::make_unique<world::GridMap>(
      graph ? world::GridMap(spec.graph_nodes, 1) : driver.build_map());
  s.metric = graph ? std::make_shared<core::GraphMetric>(
                         s.trace.graph_adjacency)
                   : core::make_euclidean();
  s.chains.resize(static_cast<std::size_t>(s.trace.n_agents));
  for (std::size_t i = 0; i < s.chains.size(); ++i) {
    s.chains[i] = trace::group_calls_by_step(s.trace.agents[i]);
  }
  s.starts.reserve(static_cast<std::size_t>(s.trace.n_agents));
  for (AgentId a = 0; a < s.trace.n_agents; ++a) {
    s.starts.push_back(s.trace.position_at(a, s.trace.start_step));
  }
  const auto t2 = Clock::now();
  s.calls = s.trace.total_calls();
  s.agent_steps = static_cast<std::uint64_t>(s.trace.n_agents) *
                  static_cast<std::uint64_t>(s.trace.n_steps);
  s.generate_s = seconds_between(t0, t1);
  s.setup_s = seconds_between(t0, t2);
  return s;
}

// ---- DES backend ----

struct DesRun {
  double run_s = 0.0;  // host seconds
  replay::ExperimentResult result;
  std::uint64_t digest = 0;
};

DesRun run_des(const Setup& s, replay::Mode mode, Recorder* rec,
               bool gantt = false) {
  replay::ExperimentConfig cfg = s.des;
  cfg.mode = mode;
  cfg.record_gantt = gantt;
  DesRun out;
  const auto t0 = Clock::now();
  out.result = replay::run_experiment(s.trace, cfg);
  const auto t1 = Clock::now();
  out.run_s = seconds_between(t0, t1);
  if (rec != nullptr) {
    rec->record(Kind::kDesRun, t0, t1, 0, replay::mode_name(mode));
  }
  out.digest = digest_states(out.result.final_agent_states);
  return out;
}

/// Failures of one metropolis DES run: agent-steps not committed plus
/// agents not ending at n_steps on their trace end tile.
std::uint64_t des_failures(const Setup& s, const DesRun& run) {
  const auto& tr = s.trace;
  const auto committed = static_cast<std::uint64_t>(
      std::llround(run.result.scoreboard.sum_cluster_sizes));
  std::uint64_t failed =
      committed < s.agent_steps ? s.agent_steps - committed : 0;
  if (run.result.final_agent_states.size() !=
      static_cast<std::size_t>(tr.n_agents)) {
    return failed + static_cast<std::uint64_t>(tr.n_agents);
  }
  for (AgentId a = 0; a < tr.n_agents; ++a) {
    const auto& [step, pos] =
        run.result.final_agent_states[static_cast<std::size_t>(a)];
    const Pos want = tr.position_at(a, tr.start_step + tr.n_steps).center();
    if (step != tr.n_steps || !(pos.x == want.x && pos.y == want.y)) {
      ++failed;
    }
  }
  return failed;
}

// ---- Engine backend ----

/// Times every call into the wrapped client.
class TimedClient final : public llm::LlmClient {
 public:
  TimedClient(llm::LlmClient* inner, Recorder* rec)
      : inner_(inner), rec_(rec) {}

  llm::CompletionResult complete(
      const llm::CompletionRequest& request) override {
    const auto t0 = Clock::now();
    llm::CompletionResult out = inner_->complete(request);
    rec_->record(Kind::kLlmCall, t0, Clock::now(), request.priority);
    return out;
  }

 private:
  llm::LlmClient* inner_;
  Recorder* rec_;
};

struct EngineRun {
  double run_s = 0.0;  // Engine::run wall seconds
  runtime::EngineStats stats;
  std::vector<runtime::EngineStats> shard_rows;
  runtime::TaskPoolStats chain_pool;
  std::uint64_t calls = 0;
  std::uint64_t digest = 0;
  std::uint64_t world_hash = 0;
  std::int32_t threads = 0;  // cluster-executing worker threads
};

/// One engine run of the setup's trace under `espec`'s engine settings —
/// the driver's run_once. With `rec`, the StepFn, chain tasks and LLM
/// calls are timed.
EngineRun run_engine(const Setup& s, const scenario::ScenarioSpec& espec,
                     std::int32_t workers, Recorder* rec) {
  const trace::SimulationTrace& tr = s.trace;
  const world::GridMap& map = *s.map;
  const bool graph = tr.world_kind == trace::WorldKind::kGraph;
  llm::FakeLlmClient fake(espec.seed, espec.call_latency_us);
  TimedClient timed(&fake, rec);
  llm::LlmClient& client =
      rec != nullptr ? static_cast<llm::LlmClient&>(timed) : fake;
  world::WorldState world(&map, s.starts,
                          graph ? &tr.graph_adjacency : nullptr);

  runtime::EngineConfig ecfg;
  ecfg.params = core::DependencyParams{espec.radius_p, espec.max_vel};
  ecfg.target_step = tr.n_steps;
  ecfg.n_workers = workers;
  ecfg.scan_mode = scan_mode_of(espec);
  ecfg.kv_instrumentation = false;
  if (graph) ecfg.metric = s.metric;
  ecfg.shards = espec.resolved_shards();
  ecfg.partition = partition_kind_of(espec);
  ecfg.pin_cores = espec.pin == scenario::PinMode::kCores;

  auto issue_chain = [&](AgentId m, Step abs_step) {
    const auto& by_step = s.chains[static_cast<std::size_t>(m)];
    const auto it = by_step.find(abs_step);
    if (it == by_step.end()) return;
    for (const trace::LlmCall* call : it->second) {
      llm::CompletionRequest req;
      req.prompt = strformat("agent=%d step=%d type=%s", m, abs_step,
                             trace::call_type_name(call->type));
      req.prompt_tokens = call->input_tokens;
      req.max_tokens = call->output_tokens;
      req.priority = abs_step;
      client.complete(req);
    }
  };

  const bool parallel_chains = workers > 1;
  std::unique_ptr<runtime::TaskPool> chain_pool;
  if (parallel_chains) {
    chain_pool =
        std::make_unique<runtime::TaskPool>(espec.resolved_pool_workers());
  }
  auto step_fn = [&, parallel_chains](const core::AgentCluster& cluster,
                                      const world::WorldState& w) {
    const auto began = rec != nullptr ? Clock::now() : Clock::time_point{};
    const Step abs_step = tr.start_step + cluster.step;
    std::vector<AgentId> with_calls;
    for (AgentId m : cluster.members) {
      const auto& by_step = s.chains[static_cast<std::size_t>(m)];
      if (by_step.count(abs_step) != 0) with_calls.push_back(m);
    }
    if (parallel_chains && with_calls.size() > 1) {
      std::vector<runtime::TaskPool::Task> tasks;
      tasks.reserve(with_calls.size());
      for (AgentId m : with_calls) {
        if (rec != nullptr) {
          tasks.push_back([&issue_chain, rec, m, abs_step,
                           submitted = Clock::now()] {
            const auto started = Clock::now();
            rec->record(Kind::kPoolWait, submitted, started, abs_step);
            issue_chain(m, abs_step);
            rec->record(Kind::kChain, started, Clock::now(), abs_step);
          });
        } else {
          tasks.push_back(
              [&issue_chain, m, abs_step] { issue_chain(m, abs_step); });
        }
      }
      chain_pool->submit_and_wait(std::move(tasks), /*priority=*/abs_step);
    } else {
      for (AgentId m : with_calls) issue_chain(m, abs_step);
    }

    std::vector<world::StepIntent> intents;
    intents.reserve(cluster.members.size());
    for (AgentId m : cluster.members) {
      Tile current;
      {
        common::ReaderLock lock(w.mutex());
        current = w.tile_of(m);
      }
      intents.push_back(intent_for(tr, map, m, abs_step, current));
    }
    if (rec != nullptr) {
      rec->record(Kind::kStepFn, began, Clock::now(), abs_step);
    }
    return intents;
  };

  EngineRun out;
  {
    runtime::Engine engine(&world, ecfg, step_fn);
    const auto t0 = Clock::now();
    out.stats = engine.run();
    const auto t1 = Clock::now();
    out.run_s = seconds_between(t0, t1);
    if (rec != nullptr) rec->record(Kind::kEngineRun, t0, t1);
    AIM_CHECK(engine.scoreboard().all_done());
    out.digest = board_digest(engine.scoreboard(), tr.n_agents);
    out.shard_rows = engine.shard_commit_stats();
    const std::int32_t shards = engine.shards();
    out.threads = shards > 1 ? shards * ((workers + shards - 1) / shards)
                             : workers;
  }
  {
    common::ReaderLock lock(world.mutex());
    out.world_hash = world.state_hash();
  }
  out.calls = fake.calls();
  if (chain_pool != nullptr) out.chain_pool = chain_pool->stats();
  return out;
}

/// Failures of one engine run: agent-steps not committed plus traced
/// calls not issued.
std::uint64_t engine_failures(const Setup& s, const EngineRun& run) {
  std::uint64_t failed = 0;
  if (run.stats.agent_steps < s.agent_steps) {
    failed += s.agent_steps - run.stats.agent_steps;
  }
  if (run.calls < s.calls) failed += s.calls - run.calls;
  return failed;
}

// ---- Single-threaded core + world replay ----

struct CoreReplay {
  std::uint64_t digest = 0;
  std::uint64_t commits = 0;
  std::uint64_t interior = 0;
  std::uint64_t moves = 0;
  std::uint64_t denied = 0;
  double mean_cluster = 0.0;
  double mean_blockers = 0.0;
};

/// The engine's per-cluster protocol on one thread, every call timed:
/// intents -> resolve_conflict_and_commit -> local_commit_shard + commit
/// -> pop (the strip's queue after an interior commit, the whole board
/// after a cross one). Clusters run earliest step first, as a 1-worker
/// engine runs them, so the final state equals the engine's.
CoreReplay replay_core(const Setup& s, const scenario::ScenarioSpec& espec,
                       Recorder& rec) {
  const trace::SimulationTrace& tr = s.trace;
  const bool graph = tr.world_kind == trace::WorldKind::kGraph;
  world::WorldState world(s.map.get(), s.starts,
                          graph ? &tr.graph_adjacency : nullptr);
  std::vector<Pos> initial;
  initial.reserve(s.starts.size());
  for (const Tile& t : s.starts) initial.push_back(t.center());
  core::Scoreboard board(
      core::DependencyParams{espec.radius_p, espec.max_vel}, s.metric,
      std::move(initial), tr.n_steps, scan_mode_of(espec),
      espec.resolved_shards(), partition_kind_of(espec));

  struct Ready {
    Step step;
    std::uint64_t seq;
    core::AgentCluster cluster;
    bool operator>(const Ready& o) const {
      return step != o.step ? step > o.step : seq > o.seq;
    }
  };
  std::priority_queue<Ready, std::vector<Ready>, std::greater<>> ready;
  std::uint64_t seq = 0;
  auto push = [&](std::vector<core::AgentCluster> clusters) {
    for (core::AgentCluster& c : clusters) {
      const Step step = c.step;
      ready.push(Ready{step, seq++, std::move(c)});
    }
  };

  CoreReplay out;
  Step floor = 0;
  auto t = Clock::now();
  push(board.pop_ready_clusters());
  rec.record(Kind::kPop, t, Clock::now());
  while (!ready.empty()) {
    const core::AgentCluster cluster = ready.top().cluster;
    ready.pop();
    const Step abs_step = tr.start_step + cluster.step;
    std::vector<world::StepIntent> intents;
    intents.reserve(cluster.members.size());
    for (AgentId m : cluster.members) {
      common::ReaderLock lock(world.mutex());
      intents.push_back(intent_for(tr, *s.map, m, abs_step, world.tile_of(m)));
    }

    t = Clock::now();
    std::vector<world::StepOutcome> outcomes;
    {
      common::WriterLock lock(world.mutex());
      outcomes = world.resolve_conflict_and_commit(cluster.step, intents);
    }
    rec.record(Kind::kApply, t, Clock::now(), abs_step);
    // Members are sorted, and outcomes come back in agent order, so
    // outcomes[i] answers intents[i].
    std::vector<std::pair<AgentId, Pos>> moves;
    moves.reserve(outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      AIM_CHECK(outcomes[i].agent == intents[i].agent);
      moves.emplace_back(outcomes[i].agent, outcomes[i].tile.center());
      if (intents[i].move_to.has_value()) {
        ++out.moves;
        if (!outcomes[i].move_ok) ++out.denied;
      }
    }

    t = Clock::now();
    const std::int32_t strip = board.local_commit_shard(moves, floor);
    if (strip >= 0) {
      board.commit(moves, floor);
      ++out.interior;
    } else {
      board.commit(moves);
      floor = board.min_step();
    }
    const auto committed = Clock::now();
    rec.record(Kind::kCommit, t, committed, abs_step);
    push(strip >= 0 ? board.pop_ready_clusters_in_shard(strip)
                    : board.pop_ready_clusters());
    rec.record(Kind::kPop, committed, Clock::now(), abs_step);
    ++out.commits;
  }
  AIM_CHECK(board.all_done());
  out.digest = board_digest(board, tr.n_agents);
  out.mean_cluster = board.stats().mean_cluster_size();
  out.mean_blockers = board.mean_blockers();
  return out;
}

// ---- Reporting ----

struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;  // one per run or pass; value = median
  /// Printed in the table but left out of the JSON: sample counts that
  /// describe the workload rather than its speed.
  bool table_only = false;
};

class Report {
 public:
  void add(const std::string& name, const std::string& unit, double value) {
    sample(name, unit).push_back(value);
  }
  void add_count(const std::string& name, std::uint64_t value) {
    add(name, "count", static_cast<double>(value));
    find(name)->table_only = true;
  }
  std::vector<double>& sample(const std::string& name,
                              const std::string& unit) {
    if (Metric* m = find(name)) return m->samples;
    metrics_.push_back(Metric{name, unit, {}});
    return metrics_.back().samples;
  }

  void print_table() const {
    std::printf("%-28s %16s %-8s %14s %14s %6s\n", "metric", "median", "unit",
                "q1", "q3", "n");
    for (const Metric& m : metrics_) {
      std::printf("%-28s %16.6g %-8s %14.6g %14.6g %6zu\n", m.name.c_str(),
                  median(m.samples), m.unit.c_str(), quantile(m.samples, 0.25),
                  quantile(m.samples, 0.75), m.samples.size());
    }
  }

  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
    std::string out = strformat(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false", static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    const char* sep = "";
    for (const Metric& m : metrics_) {
      if (m.table_only) continue;
      out += strformat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       sep, m.name.c_str(), median(m.samples), m.unit.c_str());
      sep = ", ";
    }
    return out + "}}";
  }

 private:
  Metric* find(const std::string& name) {
    for (Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  std::vector<Metric> metrics_;
};

struct Outcome {
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed checks, one line each

  void check(bool ok, const std::string& what) {
    if (!ok && std::find(errors.begin(), errors.end(), what) == errors.end()) {
      errors.push_back(what);
    }
  }
};

// ---- The two modes ----

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

bool is_engine(const scenario::ScenarioSpec& spec) {
  return spec.backend == scenario::Backend::kEngine;
}

/// One untraced metropolis run on the workload's backend: run_s, the
/// digest, and the run's failed operations.
struct RunSample {
  double run_s = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t world_hash = 0;
  std::uint64_t failed = 0;
};

RunSample run_workload(const Setup& s) {
  if (is_engine(s.spec)) {
    const EngineRun run = run_engine(s, s.spec, s.spec.workers, nullptr);
    return RunSample{run.run_s, run.digest, run.world_hash,
                     engine_failures(s, run)};
  }
  const DesRun run = run_des(s, replay::Mode::kMetropolis, nullptr);
  return RunSample{run.run_s, run.digest, 0, des_failures(s, run)};
}

/// Checks after the timed runs: the serial reference on the engine, the
/// per-call completion record on the DES.
void check_workload(const Setup& s, const RunSample& first, Outcome* out) {
  if (is_engine(s.spec)) {
    const EngineRun serial = run_engine(s, s.spec, 1, nullptr);
    out->check(serial.world_hash == first.world_hash,
               strformat("1-worker world hash %016llx != metropolis %016llx",
                         static_cast<unsigned long long>(serial.world_hash),
                         static_cast<unsigned long long>(first.world_hash)));
    out->check(serial.digest == first.digest,
               "1-worker digest differs from the metropolis digest");
  } else {
    const DesRun run =
        run_des(s, replay::Mode::kMetropolis, nullptr, /*gantt=*/true);
    bool ordered = true;
    for (const replay::GanttRecord& g : run.result.gantt) {
      ordered = ordered && g.finish >= g.submit;
    }
    out->check(run.result.gantt.size() == s.calls,
               strformat("%zu LLM calls completed, %llu traced",
                         run.result.gantt.size(),
                         static_cast<unsigned long long>(s.calls)));
    out->check(ordered, "an LLM call finished before it was submitted");
  }
}

/// The traced pass's setups, for trace.generate_s: at least three, and
/// more (up to 15) until they have taken 1.5 s, so a sub-second setup
/// still gets a steady median. Only the last is kept; each earlier one is
/// freed before the next starts, so peak memory holds one workload.
struct Setups {
  std::unique_ptr<Setup> last;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
};

Setups repeated_setup(const scenario::ScenarioSpec& spec) {
  Setups out;
  double spent = 0.0;
  while (out.setup_s.size() < 3 ||
         (out.setup_s.size() < 15 && spent < 1.5)) {
    out.last.reset();
    out.last = std::make_unique<Setup>(make_setup(spec));
    out.setup_s.push_back(out.last->setup_s);
    out.generate_s.push_back(out.last->generate_s);
    spent += out.last->setup_s;
  }
  return out;
}

void check_seed42(const Workload& w, const Options& opt,
                  const RunSample& warm, Outcome* out) {
  if (opt.seed != 42) return;
  out->check(warm.digest == w.digest_seed42,
             strformat("seed-42 digest %016llx, expected %016llx",
                       static_cast<unsigned long long>(warm.digest),
                       static_cast<unsigned long long>(w.digest_seed42)));
}

scenario::ScenarioSpec spec_for(const Workload& w,
                                const std::vector<std::string>& extra,
                                const Options& opt) {
  return make_spec(
      w.scenario,
      concat(concat(w.overrides, extra),
             {strformat("seed=%llu",
                        static_cast<unsigned long long>(opt.seed))}));
}

/// Setups alternate with the timed runs over the whole window: a new setup
/// starts once the runs since the last one have taken as long as it did.
/// On a shared host each vCPU's speed drifts over seconds, so setup_s and
/// run_s then sample the same stretch of it; a burst of setups at the
/// start would see only its first second. Each setup is freed before the
/// next starts, so peak memory holds one workload, and runs on every setup
/// must reproduce the warm-up run's digest.
void end_to_end(const Workload& w, const Options& opt, Outcome* out) {
  const scenario::ScenarioSpec spec = spec_for(w, {}, opt);
  const auto began = Clock::now();
  auto s = std::make_unique<Setup>(make_setup(spec));
  std::vector<double> setups = {s->setup_s};
  const RunSample warm = run_workload(*s);
  out->check(warm.failed == 0, "operations failed in the warm-up run");

  const std::uint64_t ops = s->calls + s->agent_steps;
  std::vector<double> runs;
  double since_setup = 0.0;
  while (setups.size() < 3 || runs.size() < 3 ||
         seconds_between(began, Clock::now()) < opt.seconds) {
    if (since_setup >= setups.back()) {
      s.reset();
      s = std::make_unique<Setup>(make_setup(spec));
      setups.push_back(s->setup_s);
      since_setup = 0.0;
    }
    const RunSample r = run_workload(*s);
    runs.push_back(r.run_s);
    since_setup += r.run_s;
    out->attempted += ops;
    const bool same = r.digest == warm.digest && r.world_hash == warm.world_hash;
    out->failed += same ? r.failed : ops;
    out->check(same, "digest changed between runs");
    out->check(r.failed == 0, "operations failed in a timed run");
  }
  check_workload(*s, warm, out);
  check_seed42(w, opt, warm, out);
  out->report.sample("run_s", "s") = runs;
  out->report.sample("setup_s", "s") = setups;
  out->report.add("peak_rss_mib", "MiB", peak_rss_mib());
}

void per_layer(const Workload& w, const Options& opt, Outcome* out) {
  const scenario::ScenarioSpec spec = spec_for(w, {}, opt);
  const scenario::ScenarioSpec espec =
      is_engine(spec) ? spec : spec_for(w, w.probe_overrides, opt);
  const Setups setups = repeated_setup(spec);
  const Setup& s = *setups.last;
  Report& r = out->report;
  r.sample("trace.generate_s", "s") = setups.generate_s;
  r.add_count("trace.calls", s.calls);
  r.add_count("trace.agent_steps", s.agent_steps);

  const RunSample warm = run_workload(s);
  out->check(warm.failed == 0, "operations failed in the warm-up run");
  check_seed42(w, opt, warm, out);
  const auto began = Clock::now();
  for (int pass = 0;
       pass == 0 || seconds_between(began, Clock::now()) < opt.seconds;
       ++pass) {
    Recorder rec(!opt.spans.empty() && pass == 0);

    // core + world: the single-threaded replay.
    const CoreReplay core = replay_core(s, espec, rec);
    const std::vector<double> commit_us = rec.samples_us(Kind::kCommit);
    const std::vector<double> pop_us = rec.samples_us(Kind::kPop);
    const std::vector<double> apply_us = rec.samples_us(Kind::kApply);
    const double core_busy = rec.busy_s(Kind::kCommit) + rec.busy_s(Kind::kPop);
    r.add_count("core.commits", core.commits);
    r.add("core.commit_us_p50", "us", quantile(commit_us, 0.5));
    r.add("core.commit_us_p99", "us", quantile(commit_us, 0.99));
    r.add("core.commit_busy_s", "s", rec.busy_s(Kind::kCommit));
    r.add("core.pop_us_p50", "us", quantile(pop_us, 0.5));
    r.add("core.pop_us_p99", "us", quantile(pop_us, 0.99));
    r.add("core.pop_busy_s", "s", rec.busy_s(Kind::kPop));
    r.add("core.mean_cluster", "agents", core.mean_cluster);
    r.add("core.mean_blockers", "agents", core.mean_blockers);
    r.add("core.interior_ratio", "ratio",
          static_cast<double>(core.interior) /
              static_cast<double>(core.commits));
    r.add("world.apply_us_p50", "us", quantile(apply_us, 0.5));
    r.add("world.apply_us_p99", "us", quantile(apply_us, 0.99));
    r.add("world.apply_busy_s", "s", rec.busy_s(Kind::kApply));
    r.add("world.denied_ratio", "ratio",
          core.moves == 0 ? 0.0
                          : static_cast<double>(core.denied) /
                                static_cast<double>(core.moves));

    // replay: the DES serving model on the same trace.
    const DesRun metro = run_des(s, replay::Mode::kMetropolis, &rec);
    const DesRun nodep = run_des(s, replay::Mode::kNoDependency, &rec);
    out->attempted += s.calls + s.agent_steps;
    out->failed += des_failures(s, metro);
    const double events = static_cast<double>(metro.result.des_events);
    r.add("replay.metro_s", "s", metro.run_s);
    r.add("replay.nodep_s", "s", nodep.run_s);
    r.add("replay.events", "count", events);
    r.add("replay.events_per_s", "1/s", events / metro.run_s);
    r.add("replay.unattributed_s", "s", metro.run_s - nodep.run_s - core_busy);
    r.add("llm.utilization", "ratio", metro.result.avg_utilization);
    r.add("llm.parallelism", "requests", metro.result.avg_parallelism);
    if (pass == 0) {
      // Simulated outcomes are deterministic per trace: one pass suffices.
      const double sync =
          run_des(s, replay::Mode::kParallelSync, &rec).result.completion_seconds;
      const double critical =
          run_des(s, replay::Mode::kCritical, &rec).result.completion_seconds;
      const double virt = metro.result.completion_seconds;
      r.add("replay.virtual_s", "s", virt);
      r.add("replay.speedup_vs_sync", "x", sync / virt);
      r.add("replay.gpu_limit_ratio", "x",
            virt / std::max(critical, nodep.result.completion_seconds));
    }

    // runtime + llm: an untraced and a traced engine run.
    const EngineRun base = run_engine(s, espec, espec.workers, nullptr);
    const EngineRun traced = run_engine(s, espec, espec.workers, &rec);
    for (const EngineRun* run : {&base, &traced}) {
      out->attempted += s.calls + s.agent_steps;
      out->failed += engine_failures(s, *run);
      out->check(run->digest == core.digest,
                 "engine digest differs from the single-threaded replay");
    }
    const std::vector<double> step_us = rec.samples_us(Kind::kStepFn);
    const std::vector<double> wait_us = rec.samples_us(Kind::kPoolWait);
    const std::vector<double> call_us = rec.samples_us(Kind::kLlmCall);
    const double step_busy = rec.busy_s(Kind::kStepFn);
    const double wait_s = static_cast<double>(traced.stats.commit_wait_us) / 1e6;
    const double hold_s = static_cast<double>(traced.stats.commit_hold_us) / 1e6;
    const double pool_tasks = static_cast<double>(
        traced.chain_pool.tasks_executed + traced.chain_pool.tasks_inlined);
    r.add_count("llm.calls", call_us.size());
    r.add("llm.call_us_p50", "us", quantile(call_us, 0.5));
    r.add("llm.call_us_p99", "us", quantile(call_us, 0.99));
    r.add("llm.busy_s", "s", rec.busy_s(Kind::kLlmCall));
    r.add("runtime.run_s", "s", traced.run_s);
    r.add("runtime.commit_wait_s", "s", wait_s);
    r.add("runtime.commit_hold_s", "s", hold_s);
    r.add("runtime.max_commit_wait_ms", "ms",
          static_cast<double>(traced.stats.max_commit_wait_us) / 1e3);
    r.add("runtime.cross_ratio", "ratio",
          static_cast<double>(traced.shard_rows.back().commits) /
              static_cast<double>(traced.stats.commits));
    r.add("runtime.step_fn_busy_s", "s", step_busy);
    r.add("runtime.step_fn_us_p50", "us", quantile(step_us, 0.5));
    r.add("runtime.step_fn_us_p99", "us", quantile(step_us, 0.99));
    r.add("runtime.pool_wait_us_p50", "us", quantile(wait_us, 0.5));
    r.add("runtime.pool_wait_us_p99", "us", quantile(wait_us, 0.99));
    r.add_count("runtime.pool_tasks", wait_us.size());
    r.add("runtime.pool_inlined_ratio", "ratio",
          pool_tasks == 0.0 ? 0.0
                            : static_cast<double>(
                                  traced.chain_pool.tasks_inlined) /
                                  pool_tasks);
    r.add("runtime.trace_overhead_pct", "%",
          (traced.run_s / base.run_s - 1.0) * 100.0);
    r.add("runtime.unattributed_share", "ratio",
          1.0 - (step_busy + wait_s + hold_s) /
                    (static_cast<double>(traced.threads) * traced.run_s));

    if (pass == 0 && !opt.spans.empty()) {
      AIM_CHECK_MSG(rec.write_chrome_trace(opt.spans),
                    "cannot write " << opt.spans);
      std::fprintf(stderr, "wrote %s\n", opt.spans.c_str());
    }
  }
}

// ---- Command line ----

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: metro_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans FILE]\n"
               "       metro_bench --list\n",
               message.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list") {
      for (const Workload& w : workloads()) std::printf("%s\n", w.name.c_str());
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) usage_error("unexpected argument " + arg);
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage_error(arg + " needs a value");
    }
    flags[arg.substr(2)] = value;
  }
  for (const auto& [key, value] : flags) {
    char* end = nullptr;
    if (key == "workload") {
      opt.workload = value;
    } else if (key == "seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') {
        usage_error("--seed must be a non-negative integer");
      }
    } else if (key == "seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0.0)) {
        usage_error("--seconds must be a positive number");
      }
    } else if (key == "trace") {
      if (value != "0" && value != "1") usage_error("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (key == "spans") {
      opt.spans = value;
    } else {
      usage_error("unknown flag --" + key);
    }
  }
  if (opt.workload.empty()) usage_error("--workload is required");
  if (!opt.spans.empty() && !opt.trace) usage_error("--spans needs --trace 1");
  return opt;
}

int run(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const Workload* w = nullptr;
  std::vector<std::string> names;
  for (const Workload& candidate : workloads()) {
    names.push_back(candidate.name);
    if (candidate.name == opt.workload) w = &candidate;
  }
  if (w == nullptr) {
    usage_error("unknown workload '" + opt.workload + "' (known: " +
                join(names, ", ") + ")");
  }
  std::printf("metro_bench %s seed=%llu seconds=%g trace=%d\n",
              w->name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  Outcome out;
  if (opt.trace) {
    per_layer(*w, opt, &out);
  } else {
    end_to_end(*w, opt, &out);
  }
  out.report.print_table();
  for (const std::string& e : out.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = out.errors.empty() && out.failed == 0;
  std::printf("%s\n", out.report.json(correct, out.attempted, out.failed)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace metro_bench

int main(int argc, char** argv) {
  try {
    return metro_bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
