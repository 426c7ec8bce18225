// A blocking LlmClient whose latencies come from the DES serving model.
//
// FakeLlmClient sleeps a fixed configured latency per call, so engine-
// backend completion times measured with it say nothing about a real
// serving platform. CostModelLlmClient instead serves every call on the
// DES's own batching rule: each of its `data_parallel` replicas is an
// llm::Batch (replica.h) stepped on the virtual axis of a
// runtime::SimClock, and calls are routed across them the way llm::Cluster
// routes requests (least loaded, lowest index on ties). Callers block for
// latency/scale wall time while the full latency advances on the virtual
// axis, so the threaded engine's serial and metropolis runs report virtual
// seconds directly comparable to the DES backend's numbers.
//
// What still separates the two backends (docs/ARCHITECTURE.md "Virtual
// time envelope"): the engine's own host time lands on the virtual axis
// multiplied by `time_scale`, and the engine runs at most `workers`
// clusters at once while the DES has no worker limit.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "llm/client.h"
#include "llm/cost_model.h"
#include "llm/replica.h"
#include "runtime/sim_clock.h"

namespace aimetro::llm {

/// One replica of CostModelLlmClient: a Batch stepped on a virtual cursor
/// exactly as llm::Replica steps it on the event loop. Iterations run back
/// to back while work remains; a call arriving at `now` joins at the next
/// iteration boundary, or restarts an idle replica at `now`.
///
/// Not thread-safe by itself: CostModelLlmClient guards each replica with
/// its own mutex. Exposed for unit tests — deterministic, no clock, no
/// threads.
class VirtualReplica {
 public:
  VirtualReplica(const CostModel* cost, ReplicaConfig cfg);

  /// Apply every whole iteration that ends at or before `t`.
  void advance(SimTime t);

  /// Advance to `now`, then queue a call arriving at `now`. Returns its
  /// id. Check-fails when the call cannot fit in the KV cache.
  std::uint64_t submit(SimTime now, std::int64_t prompt_tokens,
                       std::int64_t output_tokens, std::int64_t priority);

  /// `id`'s finish time if no further call arrives: exact once it has
  /// finished, and exact for an unfinished call whose replica sees no
  /// later arrival.
  SimTime predict_finish(std::uint64_t id) const;

  /// Pop `id`'s finish time once advance() has finished it.
  std::optional<SimTime> take_finish(std::uint64_t id);

  /// Queued plus running calls (the router's load).
  std::size_t load() const { return stepper_.batch.load(); }
  /// Largest batch any iteration ran with.
  std::int32_t peak_batch() const { return peak_batch_; }

 private:
  /// Everything stepping reads and writes, so predict_finish can step a
  /// copy: the batch's queue and running set, and the cursor.
  struct Stepper {
    enum class State {
      kIdle,     // nothing queued or running
      kPending,  // a boundary at `boundary` awaits admission
      kRunning,  // an iteration composed earlier ends at `boundary`
    };
    Batch batch;
    State state = State::kIdle;
    SimTime boundary = 0;

    /// Take the next step due by `t`: finish the running iteration if it
    /// ends at or before `t` (writing the finished ids to `done`), or
    /// admit and compose at a pending boundary before `t`. A boundary at
    /// exactly `t` stays pending, so a call arriving at `t` still joins
    /// it. Returns false when no step is due.
    bool step(SimTime t, std::vector<std::uint64_t>* done);
  };

  Stepper stepper_;
  std::unordered_map<std::uint64_t, SimTime> finished_;
  std::vector<std::uint64_t> done_;
  std::uint64_t next_id_ = 0;
  std::int32_t peak_batch_ = 0;
};

struct CostModelClientConfig {
  /// Independent replica queues, as ParallelismConfig::data_parallel.
  std::int32_t data_parallel = 1;
  /// Per-replica running cap (ReplicaConfig::max_running_requests).
  std::int32_t max_running_requests = 256;
  /// Chunked-prefill budget per iteration (mirrors ReplicaConfig).
  std::int64_t max_prefill_tokens_per_iter = 8192;
  /// Seed for the deterministic response text.
  std::uint64_t seed = 1;
};

class CostModelLlmClient : public LlmClient {
 public:
  /// `clock` must outlive the client and is shared with the caller, which
  /// reads the run's virtual completion time from it.
  CostModelLlmClient(CostModel cost, const runtime::SimClock* clock,
                     CostModelClientConfig cfg = {});

  /// Queues the call at CompletionRequest::priority (the simulation step,
  /// as the DES's priority scheduling does) and blocks until its replica
  /// finishes it on the virtual axis. Check-fails when the call cannot fit
  /// in a replica's KV cache.
  CompletionResult complete(const CompletionRequest& request) override;

  const CostModel& cost_model() const { return cost_; }
  std::uint64_t calls() const;
  /// Latest virtual finish time across all completed calls.
  SimTime last_finish() const;
  /// Largest batch any replica's iteration ran with (diagnostics).
  std::int32_t peak_batch() const;

 private:
  struct ReplicaState {
    ReplicaState(const CostModel* cost, ReplicaConfig cfg)
        : replica(cost, cfg) {}
    /// Per-replica, so the frequent per-wake steps and predictions on one
    /// replica never block traffic on another.
    common::Mutex mutex{"llm.replica"};
    VirtualReplica replica GUARDED_BY(mutex);
  };

  CostModel cost_;
  const runtime::SimClock* clock_;
  CostModelClientConfig cfg_;

  /// Serializes routing, so least-loaded routing sees every earlier
  /// admission. Lock order: route_mutex_ before a replica mutex, one
  /// replica at a time; the AIMETRO_LOCK_DEBUG validator enforces it.
  mutable common::Mutex route_mutex_{"llm.route"};
  std::vector<std::unique_ptr<ReplicaState>> replicas_;
  mutable common::Mutex stats_mutex_{"llm.stats"};
  std::uint64_t calls_ GUARDED_BY(stats_mutex_) = 0;
  SimTime last_finish_ GUARDED_BY(stats_mutex_) = 0;
};

}  // namespace aimetro::llm
