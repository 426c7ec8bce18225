// Discrete-event executors for every scheduling setting.
//
// All settings share the same trace, serving cluster, and overhead model;
// they differ only in when agent call-chains are allowed to start — which
// is exactly the paper's experimental isolation: the schedulers only
// change available parallelism, never the work itself.
//
// Metropolis mode drives core::MetroController — the object the threaded
// engine drives under its locks — single-threaded: every commit is
// classified, then committed on the interior (floor-bounded, one strip's
// pops) or cross path, and reshard boundaries fire inside cross commits.
// Interior commits release clusters only in their own strip and the DES
// reports zero commit wait, so the schedule is the one a whole-board
// commit and pop would give.
//
// The metropolis path runs once per cluster step, millions of times a
// simulated day, so it keeps its state in slabs rather than in closures:
// a dispatched cluster lives in a slot whose events capture only (this,
// slot) or (this, slot, member index) — within std::function's inline
// buffer — and every call chain advances through a slot of (chain,
// index, priority, done), so a request's completion captures (this,
// run). The commit reuses one move buffer. Each event keeps the delay
// and the place in the order it had when closures carried copies, so
// event counts and simulated times are unchanged.
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <queue>

#include "common/check.h"
#include "common/strings.h"
#include "core/critical_path.h"
#include "core/metro_controller.h"
#include "core/oracle.h"
#include "des/event_loop.h"
#include "replay/experiment.h"

namespace aimetro::replay {

namespace {

using trace::LlmCall;
using trace::SimulationTrace;

// CPU-side costs of the simulation engine itself. The paper's engine
// keeps the controller's critical path in C++ precisely to keep these
// small relative to LLM inference (§3.6).
constexpr SimTime kControllerOpUs = 20;  // per dispatch/ack by the controller
constexpr SimTime kWorkerStepUs = 500;   // per agent-step with LLM work
constexpr SimTime kCommitUs = 50;        // per cluster commit transaction

/// A free slot of `slab`: the last one freed, else a new one at the end.
template <typename T>
std::uint32_t take_slot(std::vector<T>* slab, std::vector<std::uint32_t>* free) {
  if (free->empty()) {
    slab->emplace_back();
    return static_cast<std::uint32_t>(slab->size() - 1);
  }
  const std::uint32_t slot = free->back();
  free->pop_back();
  return slot;
}

/// Shared replay machinery: trace indexing, chain submission, gantt.
class Executor {
 public:
  Executor(const SimulationTrace& trace, const ExperimentConfig& cfg)
      : trace_(trace),
        cfg_(cfg),
        cluster_(&loop_, cfg.model, cfg.gpu, cfg.parallelism, cfg.cluster) {
    chains_.resize(static_cast<std::size_t>(trace.n_agents));
    for (std::size_t i = 0; i < chains_.size(); ++i) {
      chains_[i] = trace::group_calls_by_step(trace.agents[i]);
    }
  }

  ExperimentResult run() {
    switch (cfg_.mode) {
      case Mode::kSingleThread:
        run_single_thread();
        break;
      case Mode::kParallelSync:
        run_parallel_sync();
        break;
      case Mode::kMetropolis:
        run_metropolis();
        break;
      case Mode::kOracle:
        run_oracle();
        break;
      case Mode::kNoDependency:
        run_no_dependency();
        break;
      case Mode::kCritical:
        run_critical();
        break;
    }
    loop_.run();
    return finalize();
  }

 private:
  // ---- shared helpers ----

  const std::vector<const LlmCall*>* chain_at(AgentId agent, Step rel) const {
    const auto& by_step = chains_[static_cast<std::size_t>(agent)];
    auto it = by_step.find(trace_.start_step + rel);
    return it == by_step.end() ? nullptr : &it->second;
  }

  /// Submit an agent's calls for one step, serially, then schedule
  /// `done` (zero delay). `priority` is the absolute simulation step
  /// (smaller = more urgent).
  void submit_chain(const std::vector<const LlmCall*>& chain,
                    std::int64_t priority, std::function<void()> done) {
    if (chain.empty()) {
      loop_.schedule_after(0, std::move(done));
      return;
    }
    const std::uint32_t run = take_slot(&runs_, &free_runs_);
    runs_[run] = ChainRun{&chain, 0, priority, std::move(done)};
    submit_call(run);
  }

  /// Submit the call `run` is at; its completion advances the run.
  void submit_call(std::uint32_t run) {
    const ChainRun& r = runs_[run];
    const LlmCall* call = (*r.chain)[r.idx];
    llm::Request req;
    req.prompt_tokens = call->input_tokens;
    req.output_tokens = call->output_tokens;
    req.priority = r.priority;
    req.prompt_hash = call->prompt_hash;
    req.on_complete = [this, run](const llm::RequestOutcome& outcome) {
      call_done(run, outcome);
    };
    cluster_.submit(std::move(req));
  }

  void call_done(std::uint32_t run, const llm::RequestOutcome& outcome) {
    ChainRun& r = runs_[run];
    if (cfg_.record_gantt) {
      const LlmCall* call = (*r.chain)[r.idx];
      gantt_.push_back(GanttRecord{call->agent, call->step, call->type,
                                   outcome.submit_time, outcome.finish_time});
    }
    if (++r.idx < r.chain->size()) {
      submit_call(run);
      return;
    }
    std::function<void()> done = std::move(r.done);
    free_runs_.push_back(run);
    loop_.schedule_after(0, std::move(done));
  }

  ExperimentResult finalize() {
    ExperimentResult r;
    r.mode = cfg_.mode;
    const SimTime end = loop_.now();
    r.completion_seconds = sim_time_to_seconds(end);
    r.avg_parallelism = cluster_.average_parallelism(end);
    r.avg_utilization = cluster_.average_utilization(end);
    for (const auto& agent : trace_.agents) {
      for (const auto& c : agent.calls) {
        if (cfg_.mode == Mode::kCritical) continue;  // counted separately
        ++r.total_calls;
        r.total_input_tokens += c.input_tokens;
        r.total_output_tokens += c.output_tokens;
      }
    }
    if (cfg_.mode == Mode::kCritical) {
      r.total_calls = critical_calls_;
      r.total_input_tokens = critical_in_;
      r.total_output_tokens = critical_out_;
    }
    AIM_CHECK_MSG(cluster_.completed() == submitted_expected_ ||
                      submitted_expected_ == 0,
                  "not all requests completed: " << cluster_.completed());
    r.des_events = loop_.processed();
    r.prefix_cache_hits = cluster_.total_prefix_cache_hits();
    if (controller_) {
      const core::Scoreboard& board = controller_->scoreboard();
      r.scoreboard = board.stats();
      r.mean_blockers = board.mean_blockers();
      r.shards = board.shards();
      for (AgentId a = 0; a < trace_.n_agents; ++a) {
        r.final_agent_states.emplace_back(board.step_of(a), board.pos_of(a));
      }
    }
    r.gantt = std::move(gantt_);
    r.step_completion_times = std::move(step_marks_);
    return r;
  }

  // ---- Mode: single-thread ----
  // One global cursor walks (step, agent, call) in order; at most one LLM
  // request is ever outstanding, as in the original GenAgent implementation.
  void run_single_thread() {
    advance_single(0, 0);
  }

  void advance_single(Step rel, std::size_t agent_idx) {
    while (rel < trace_.n_steps) {
      if (agent_idx >= chains_.size()) {
        step_marks_.push_back(loop_.now());
        rel += 1;
        agent_idx = 0;
        continue;
      }
      const auto* chain = chain_at(static_cast<AgentId>(agent_idx), rel);
      if (chain == nullptr) {
        ++agent_idx;
        continue;
      }
      ++submitted_expected_;
      submitted_expected_ += chain->size() - 1;
      const Step abs_step = trace_.start_step + rel;
      loop_.schedule_after(
          kWorkerStepUs,
          [this, chain, abs_step, rel, agent_idx] {
            submit_chain(*chain, abs_step, [this, rel, agent_idx] {
              advance_single(rel, agent_idx + 1);
            });
          });
      return;
    }
  }

  // ---- Mode: parallel-sync ----
  // Algorithm 1: all agents with work this step issue their chains
  // concurrently; a global barrier waits for every chain before the next
  // step begins.
  void run_parallel_sync() { parallel_sync_step(0); }

  void parallel_sync_step(Step rel) {
    if (rel >= trace_.n_steps) return;
    loop_.schedule_after(kControllerOpUs, [this, rel] {
      auto remaining = std::make_shared<std::size_t>(0);
      const Step abs_step = trace_.start_step + rel;
      for (std::size_t a = 0; a < chains_.size(); ++a) {
        const auto* chain = chain_at(static_cast<AgentId>(a), rel);
        if (chain == nullptr) continue;
        *remaining += 1;
        submitted_expected_ += chain->size();
        loop_.schedule_after(
            kWorkerStepUs,
            [this, chain, abs_step, rel, remaining] {
              submit_chain(*chain, abs_step, [this, rel, remaining] {
                if (--*remaining == 0) {
                  step_marks_.push_back(loop_.now());
                  parallel_sync_step(rel + 1);
                }
              });
            });
      }
      if (*remaining == 0) {
        step_marks_.push_back(loop_.now());
        parallel_sync_step(rel + 1);
      }
    });
  }

  // ---- Mode: metropolis (Algorithm 3) ----
  void run_metropolis() {
    std::vector<Pos> initial;
    initial.reserve(static_cast<std::size_t>(trace_.n_agents));
    for (AgentId a = 0; a < trace_.n_agents; ++a) {
      initial.push_back(trace_.position_at(a, trace_.start_step).center());
    }
    // Graph traces measure distance in hops over the trace's social graph;
    // grid traces keep the historical Euclidean model (null metric).
    std::shared_ptr<const core::Metric> metric;
    if (trace_.world_kind == trace::WorldKind::kGraph) {
      metric = std::make_shared<core::GraphMetric>(trace_.graph_adjacency);
    }
    controller_ = std::make_unique<core::MetroController>(
        core::DependencyParams{trace_.radius_p, trace_.max_vel},
        std::move(metric), std::move(initial), trace_.n_steps, cfg_.scan_mode,
        cfg_.shards, cfg_.partition, cfg_.reshard_at);
    metropolis_dispatch(controller_->pop_ready());
  }

  void metropolis_dispatch(
      std::vector<core::MetroController::Routed> released) {
    // Controller: collect newly ready clusters into the ready queue
    // (a priority queue keyed by step, §3.5 — plain FIFO when priority
    // scheduling is disabled, the Table 1 ablation), then hand clusters to
    // free workers.
    for (core::MetroController::Routed& r : released) {
      const Step priority =
          cfg_.cluster.priority_scheduling ? r.cluster.step : 0;
      ready_queue_.push(ReadyEntry{priority, ready_seq_++,
                                   std::move(r.cluster)});
    }
    while (!ready_queue_.empty() &&
           (cfg_.max_concurrent_clusters == 0 ||
            in_flight_clusters_ < cfg_.max_concurrent_clusters)) {
      const std::uint32_t slot = take_slot(&flights_, &free_flights_);
      flights_[slot].cluster =
          std::move(const_cast<ReadyEntry&>(ready_queue_.top()).cluster);
      ready_queue_.pop();
      ++in_flight_clusters_;
      loop_.schedule_after(kControllerOpUs,
                           [this, slot] { execute_cluster(slot); });
    }
  }

  /// Worker: run every member's chain for this step, then commit the
  /// cluster to the scoreboard and ack.
  void execute_cluster(std::uint32_t slot) {
    InFlight& flight = flights_[slot];
    const core::AgentCluster& cluster = flight.cluster;
    flight.remaining = cluster.members.size();
    flight.chains.clear();
    for (AgentId m : cluster.members) {
      flight.chains.push_back(chain_at(m, cluster.step));
    }
    for (std::uint32_t i = 0; i < flight.chains.size(); ++i) {
      const auto* chain = flight.chains[i];
      if (chain == nullptr) {
        member_done(slot);
        continue;
      }
      submitted_expected_ += chain->size();
      loop_.schedule_after(kWorkerStepUs,
                           [this, slot, i] { run_member(slot, i); });
    }
  }

  void run_member(std::uint32_t slot, std::uint32_t member) {
    const InFlight& flight = flights_[slot];
    submit_chain(*flight.chains[member],
                 trace_.start_step + flight.cluster.step,
                 [this, slot] { member_done(slot); });
  }

  void member_done(std::uint32_t slot) {
    if (--flights_[slot].remaining != 0) return;
    loop_.schedule_after(kCommitUs,
                         [this, slot] { commit_cluster(slot); });
  }

  void commit_cluster(std::uint32_t slot) {
    const core::AgentCluster& cluster = flights_[slot].cluster;
    moves_.clear();
    for (AgentId m : cluster.members) {
      moves_.emplace_back(
          m, trace_.position_at(m, trace_.start_step + cluster.step + 1)
                 .center());
    }
    const core::MetroController::Path path =
        controller_->classify(cluster.step, moves_);
    auto released = path.interior()
                        ? controller_->commit_interior(path, moves_, 0)
                        : controller_->commit_cross(moves_);
    if (cfg_.validate_invariants) {
      controller_->scoreboard().check_invariants();
    }
    free_flights_.push_back(slot);
    --in_flight_clusters_;
    metropolis_dispatch(std::move(released));
  }

  // ---- Mode: oracle ----
  // Trace-mined interaction groups: a group at step s starts once all its
  // members committed s-1; members advance together.
  void run_oracle() {
    oracle_deps_ = core::mine_oracle(trace_);
    // Group tasks per step; agents outside any group are singletons.
    oracle_tasks_.resize(static_cast<std::size_t>(trace_.n_steps));
    oracle_task_of_.assign(
        static_cast<std::size_t>(trace_.n_steps),
        std::vector<std::int32_t>(static_cast<std::size_t>(trace_.n_agents),
                                  -1));
    for (Step rel = 0; rel < trace_.n_steps; ++rel) {
      auto& tasks = oracle_tasks_[static_cast<std::size_t>(rel)];
      auto& of = oracle_task_of_[static_cast<std::size_t>(rel)];
      for (const auto& group :
           oracle_deps_.groups_by_step[static_cast<std::size_t>(rel)]) {
        const auto id = static_cast<std::int32_t>(tasks.size());
        tasks.push_back(OracleTask{group, static_cast<std::int32_t>(
                                              group.size())});
        for (AgentId m : group) of[static_cast<std::size_t>(m)] = id;
      }
      for (AgentId a = 0; a < trace_.n_agents; ++a) {
        if (of[static_cast<std::size_t>(a)] < 0) {
          const auto id = static_cast<std::int32_t>(tasks.size());
          tasks.push_back(OracleTask{{a}, 1});
          of[static_cast<std::size_t>(a)] = id;
        }
      }
    }
    // Step-0 tasks are all immediately ready.
    for (auto& task : oracle_tasks_[0]) {
      task.waiting = 0;
      oracle_launch(0, task);
    }
  }

  struct OracleTask {
    std::vector<AgentId> members;
    std::int32_t waiting = 0;  // members yet to commit the previous step
    bool launched = false;
  };

  void oracle_launch(Step rel, OracleTask& task) {
    AIM_CHECK(!task.launched && task.waiting == 0);
    task.launched = true;
    auto remaining = std::make_shared<std::size_t>(task.members.size());
    const Step abs_step = trace_.start_step + rel;
    auto finish = [this, rel, members = task.members] {
      loop_.schedule_after(kCommitUs, [this, rel, members] {
        for (AgentId m : members) oracle_committed(rel, m);
      });
    };
    for (AgentId m : task.members) {
      const auto* chain = chain_at(m, rel);
      if (chain == nullptr) {
        if (--*remaining == 0) finish();
        continue;
      }
      submitted_expected_ += chain->size();
      loop_.schedule_after(kWorkerStepUs,
                           [this, chain, abs_step, remaining, finish] {
                             submit_chain(*chain, abs_step,
                                          [remaining, finish] {
                                            if (--*remaining == 0) finish();
                                          });
                           });
    }
  }

  void oracle_committed(Step rel, AgentId agent) {
    const Step next = rel + 1;
    if (next >= trace_.n_steps) return;
    auto& tasks = oracle_tasks_[static_cast<std::size_t>(next)];
    const std::int32_t tid =
        oracle_task_of_[static_cast<std::size_t>(next)]
                       [static_cast<std::size_t>(agent)];
    OracleTask& task = tasks[static_cast<std::size_t>(tid)];
    AIM_CHECK(task.waiting > 0);
    if (--task.waiting == 0) oracle_launch(next, task);
  }

  // ---- Mode: no-dependency ----
  void run_no_dependency() {
    for (const auto& agent : trace_.agents) {
      for (const auto& call : agent.calls) {
        ++submitted_expected_;
        llm::Request req;
        req.prompt_tokens = call.input_tokens;
        req.output_tokens = call.output_tokens;
        req.priority = call.step;
        req.prompt_hash = call.prompt_hash;
        if (cfg_.record_gantt) {
          req.on_complete = [this, &call](const llm::RequestOutcome& o) {
            gantt_.push_back(GanttRecord{call.agent, call.step, call.type,
                                         o.submit_time, o.finish_time});
          };
        }
        cluster_.submit(std::move(req));
      }
    }
  }

  // ---- Mode: critical ----
  // The oracle critical path executed alone, one call after another.
  void run_critical() {
    oracle_deps_ = core::mine_oracle(trace_);
    critical_result_ = core::critical_path(trace_, oracle_deps_);
    critical_calls_ = critical_result_.call_count;
    critical_in_ = critical_result_.input_tokens;
    critical_out_ = critical_result_.output_tokens;
    submitted_expected_ = critical_result_.call_count;
    submit_chain(critical_result_.calls, 0, [] {});
  }

  const SimulationTrace& trace_;
  ExperimentConfig cfg_;
  des::EventLoop loop_;
  llm::Cluster cluster_;
  std::vector<trace::StepCalls> chains_;
  std::vector<GanttRecord> gantt_;
  std::vector<SimTime> step_marks_;
  std::uint64_t submitted_expected_ = 0;
  /// Chains in progress: each request's completion names its run, so the
  /// closure handed to the serving cluster carries two words.
  struct ChainRun {
    const std::vector<const LlmCall*>* chain = nullptr;
    std::size_t idx = 0;
    std::int64_t priority = 0;
    std::function<void()> done;
  };
  std::vector<ChainRun> runs_;
  std::vector<std::uint32_t> free_runs_;

  // metropolis state
  std::unique_ptr<core::MetroController> controller_;
  struct ReadyEntry {
    Step step;
    std::uint64_t seq;
    core::AgentCluster cluster;
    bool operator>(const ReadyEntry& o) const {
      if (step != o.step) return step > o.step;
      return seq > o.seq;
    }
  };
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, std::greater<>>
      ready_queue_;
  std::uint64_t ready_seq_ = 0;
  std::int32_t in_flight_clusters_ = 0;
  /// Dispatched clusters, by slot: their events capture (this, slot) or
  /// (this, slot, member index), small enough for std::function's inline
  /// buffer, and a freed slot keeps its chain list's capacity.
  struct InFlight {
    core::AgentCluster cluster;
    std::vector<const std::vector<const LlmCall*>*> chains;  // per member
    std::size_t remaining = 0;  // members whose chain has not finished
  };
  std::vector<InFlight> flights_;
  std::vector<std::uint32_t> free_flights_;
  /// The commit's move list, reused across commits.
  core::MetroController::Moves moves_;

  // oracle state
  core::OracleDependencies oracle_deps_;
  std::vector<std::vector<OracleTask>> oracle_tasks_;
  std::vector<std::vector<std::int32_t>> oracle_task_of_;
  core::CriticalPathResult critical_result_;
  std::uint64_t critical_calls_ = 0;
  std::int64_t critical_in_ = 0;
  std::int64_t critical_out_ = 0;
};

}  // namespace

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kSingleThread:
      return "single-thread";
    case Mode::kParallelSync:
      return "parallel-sync";
    case Mode::kMetropolis:
      return "metropolis";
    case Mode::kOracle:
      return "oracle";
    case Mode::kNoDependency:
      return "no-dependency";
    case Mode::kCritical:
      return "critical";
  }
  return "?";
}

std::string ExperimentResult::summary() const {
  return strformat(
      "%-14s completion=%10.1fs  parallelism=%6.2f  util=%5.1f%%  "
      "calls=%llu  events=%llu",
      mode_name(mode), completion_seconds, avg_parallelism,
      avg_utilization * 100.0, static_cast<unsigned long long>(total_calls),
      static_cast<unsigned long long>(des_events));
}

ExperimentResult run_experiment(const trace::SimulationTrace& trace,
                                const ExperimentConfig& config) {
  Executor executor(trace, config);
  return executor.run();
}

}  // namespace aimetro::replay
