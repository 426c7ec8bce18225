// One continuous-batching model replica (an SGLang/vLLM-style engine
// instance, possibly spanning a tensor-parallel GPU group).
//
// Iteration-level simulation: at each iteration boundary the replica admits
// waiting requests while KV capacity allows, decodes one token for every
// running request, and spends a bounded chunk of the iteration on prefill
// (chunked prefill a la Sarathi). Iteration duration comes from CostModel.
// The replica pulls work from a shared cluster queue so that priority
// ordering is global across replicas.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "des/event_loop.h"
#include "llm/cost_model.h"
#include "llm/request.h"

namespace aimetro::llm {

struct ReplicaConfig {
  std::int32_t max_running_requests = 256;
  std::int64_t max_prefill_tokens_per_iter = 8192;  // chunked prefill budget
  bool prefix_cache = false;  // §4.1: off for stable benchmarking
  double prefix_cache_hit_frac = 0.6;  // fraction of prompt skipped on hit
  std::size_t prefix_cache_capacity = 4096;  // distinct prefixes retained
};

class Replica {
 public:
  /// `pull` hands the replica the next request to admit given its KV
  /// headroom (tokens), or nullopt; the cluster owns the shared queue.
  using PullFn = std::function<std::optional<Request>(
      std::int64_t kv_headroom_tokens)>;

  Replica(std::int32_t index, des::EventLoop* loop, const CostModel* cost,
          ReplicaConfig cfg, PullFn pull);

  /// Notify the replica that new work may be available; starts the
  /// iteration loop if idle.
  void kick();

  std::int32_t index() const { return index_; }
  bool idle() const { return !iteration_scheduled_; }
  std::int32_t running_count() const {
    return static_cast<std::int32_t>(running_.size());
  }
  std::int64_t kv_used_tokens() const { return kv_used_; }
  std::int64_t kv_capacity_tokens() const { return kv_capacity_; }

  // Lifetime utilization counters.
  SimTime busy_time() const { return busy_time_; }
  std::int64_t decode_tokens_done() const { return decode_tokens_; }
  std::int64_t prefill_tokens_done() const { return prefill_tokens_; }
  std::uint64_t iterations() const { return iterations_; }
  std::uint64_t prefix_cache_hits() const { return cache_hits_; }

 private:
  struct Running {
    Request req;
    RequestOutcome outcome;
    std::int64_t prefill_remaining = 0;
    std::int64_t generated = 0;
    std::int64_t kv_tokens = 0;  // reserved KV footprint
    // This request's share of the iteration in flight, fixed when the
    // iteration is composed: one decode token and/or a prefill chunk.
    bool decoding = false;
    std::int64_t prefill_chunk = 0;
  };

  /// Compose the next iteration over running_ and schedule its end.
  void run_iteration();
  /// End of an iteration: apply every request's share, complete the
  /// finished ones, start the next iteration.
  void finish_iteration();
  void admit();
  bool lookup_prefix_cache(std::uint64_t hash);

  std::int32_t index_;
  des::EventLoop* loop_;
  const CostModel* cost_;
  ReplicaConfig cfg_;
  PullFn pull_;
  /// Admission order. Fixed while an iteration is in flight: admit()
  /// runs only when an iteration is composed.
  std::vector<Running> running_;
  /// Requests completed by the iteration being finished (kept for its
  /// capacity).
  std::vector<Running> finished_;
  std::int64_t kv_used_ = 0;
  std::int64_t kv_capacity_ = 0;
  bool iteration_scheduled_ = false;

  // Prefix cache: most-recent prompt hashes (FIFO eviction).
  std::deque<std::uint64_t> cache_order_;
  std::unordered_set<std::uint64_t> cache_set_;

  SimTime busy_time_ = 0;
  std::int64_t decode_tokens_ = 0;
  std::int64_t prefill_tokens_ = 0;
  std::uint64_t iterations_ = 0;
  std::uint64_t cache_hits_ = 0;
};

}  // namespace aimetro::llm
