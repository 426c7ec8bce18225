// The full serving deployment: `data_parallel` replicas (each a
// tensor-parallel group), each with its own admission queue, behind a
// least-loaded router.
//
// A replica's queue is ordered by the request's simulation step when
// priority scheduling is enabled (§3.5) and is plain FIFO otherwise — the
// Table 1 ablation toggles exactly this switch. The batching rule itself
// lives in llm::Batch (replica.h).
//
// Cluster-level metrics capture the paper's "achieved parallelism": the
// time-average of outstanding requests over the execution (§4.2).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "des/event_loop.h"
#include "llm/replica.h"

namespace aimetro::llm {

struct ClusterConfig {
  ReplicaConfig replica;
  bool priority_scheduling = true;
};

class Cluster {
 public:
  Cluster(des::EventLoop* loop, ModelSpec model, GpuSpec gpu,
          ParallelismConfig parallelism, ClusterConfig cfg = {});
  Cluster(const Cluster&) = delete;  // its replicas' hooks hold `this`
  Cluster& operator=(const Cluster&) = delete;

  /// Submit a request to the least-loaded replica. `req.on_complete`
  /// fires when the last output token is produced. Check-fails when the
  /// request cannot fit in a replica's KV cache.
  void submit(Request req);

  std::size_t outstanding() const { return outstanding_; }
  std::uint64_t completed() const { return completed_; }

  /// Time-averaged number of outstanding requests from first submission to
  /// `until` ("achieved parallelism", §4.2).
  double average_parallelism(SimTime until) const;
  SimTime last_completion_time() const { return last_completion_; }

  /// Fraction of [0, until] each replica spent running iterations.
  double average_utilization(SimTime until) const;

  std::int64_t total_decode_tokens() const;
  std::int64_t total_prefill_tokens() const;
  std::uint64_t total_prefix_cache_hits() const;

  const CostModel& cost_model() const { return cost_; }

 private:
  void on_request_complete();
  /// Replica with the least pending work (queued + running), lowest index
  /// on ties — the data-parallel router.
  std::size_t route() const;

  des::EventLoop* loop_;
  CostModel cost_;
  ClusterConfig cfg_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::size_t outstanding_ = 0;
  std::uint64_t completed_ = 0;
  SimTime last_completion_ = 0;
  TimeWeightedStat outstanding_stat_;
};

}  // namespace aimetro::llm
