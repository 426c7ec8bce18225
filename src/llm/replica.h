// One continuous-batching model replica (an SGLang/vLLM-style engine
// instance, possibly spanning a tensor-parallel GPU group).
//
// The batching rule lives in one clock-free class, Batch: at each
// iteration boundary it admits waiting requests while the running cap and
// KV capacity allow, then composes an iteration that decodes one token for
// every prefilled request plus a bounded chunk of prefill work (chunked
// prefill a la Sarathi), priced by CostModel. Two owners step it: the
// DES's Replica below, on the event loop, and the threaded engine's
// CostModelLlmClient, on a virtual cursor (VirtualReplica in
// cost_model_client.h). Both therefore price every call with one rule.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <queue>
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
};

/// Fraction of the prompt a prefix-cache hit skips.
inline constexpr double kPrefixCacheHitFrac = 0.6;
/// Distinct prompt prefixes a replica's cache retains (FIFO eviction).
inline constexpr std::size_t kPrefixCacheCapacity = 4096;

/// One replica's continuous-batching state, with no clock: the waiting
/// queue, the running batch in admission order, KV accounting, the prefix
/// cache and the lifetime counters. Requests are named by the owner's ids.
/// An owner steps it at every iteration boundary: finish() the iteration
/// that just ran (if any), admit(), then compose() the next one.
///
/// No preemption: an admitted request runs to completion, matching the
/// paper ("no preemption during LLM inference").
class Batch {
 public:
  Batch(const CostModel* cost, ReplicaConfig cfg);

  /// Queue request `id`, ordered by (priority, arrival). Check-fails when
  /// its footprint (prompt + output tokens) exceeds the KV capacity: it
  /// could never be admitted, and every request behind it would wait
  /// forever.
  void enqueue(std::uint64_t id, std::int64_t prompt_tokens,
               std::int64_t output_tokens, std::int64_t priority,
               std::uint64_t prompt_hash);

  /// Move requests from the head of the queue into the running batch while
  /// the running cap and KV headroom allow. A head that does not fit
  /// blocks the requests behind it.
  void admit();

  /// Fix the next iteration's work: one decode token per prefilled
  /// request, plus a prefill chunk (FIFO over admission order) within
  /// max_prefill_tokens_per_iter. Requests finishing prefill in this
  /// iteration decode only in the next one. Returns the iteration's
  /// duration, or 0 when nothing runs.
  SimTime compose();

  /// Apply the composed iteration and write the ids it finished, in
  /// admission order, to `done` (cleared first).
  void finish(std::vector<std::uint64_t>* done);

  /// Queued plus running requests (the router's load).
  std::size_t load() const { return waiting_.size() + running_.size(); }
  std::int32_t running_count() const {
    return static_cast<std::int32_t>(running_.size());
  }

  // Lifetime counters.
  SimTime busy_time() const { return busy_time_; }
  std::int64_t decode_tokens_done() const { return decode_tokens_; }
  std::int64_t prefill_tokens_done() const { return prefill_tokens_; }
  std::uint64_t prefix_cache_hits() const { return cache_hits_; }

 private:
  struct Waiting {
    std::int64_t priority;
    std::uint64_t seq;
    std::uint64_t id;
    std::int64_t prompt_tokens;
    std::int64_t output_tokens;
    std::uint64_t prompt_hash;
    bool operator>(const Waiting& o) const {
      if (priority != o.priority) return priority > o.priority;
      return seq > o.seq;
    }
  };
  struct Running {
    std::uint64_t id = 0;
    std::int64_t prompt_tokens = 0;
    std::int64_t output_tokens = 0;
    std::int64_t prefill_remaining = 0;
    std::int64_t generated = 0;
    std::int64_t kv_tokens = 0;  // reserved KV footprint
    // This request's share of the composed iteration: one decode token
    // and/or a prefill chunk.
    bool decoding = false;
    std::int64_t prefill_chunk = 0;
  };
  /// Most-recent prompt hashes, FIFO eviction. Held only when the cache
  /// is on.
  struct PrefixCache {
    std::deque<std::uint64_t> order;
    std::unordered_set<std::uint64_t> set;
    /// True on a hit; a miss inserts `hash`.
    bool lookup(std::uint64_t hash);
  };

  const CostModel* cost_;
  ReplicaConfig cfg_;
  std::priority_queue<Waiting, std::vector<Waiting>, std::greater<>>
      waiting_;
  std::uint64_t seq_ = 0;
  /// Admission order. Fixed between compose() and finish().
  std::vector<Running> running_;
  std::int64_t kv_used_ = 0;
  std::int64_t kv_capacity_ = 0;
  std::optional<PrefixCache> cache_;

  SimTime busy_time_ = 0;
  std::int64_t decode_tokens_ = 0;
  std::int64_t prefill_tokens_ = 0;
  std::uint64_t cache_hits_ = 0;
};

/// The DES replica: a Batch stepped on the event loop. Iterations run back
/// to back while work remains; an idle replica restarts at the next
/// submission.
class Replica {
 public:
  /// `on_finish` runs for every finished request, before the request's
  /// own on_complete (the cluster's bookkeeping).
  Replica(std::int32_t index, des::EventLoop* loop, const CostModel* cost,
          ReplicaConfig cfg, std::function<void()> on_finish);
  Replica(const Replica&) = delete;  // its events hold `this`
  Replica& operator=(const Replica&) = delete;

  /// Queue `req` at `priority`; an idle replica starts an iteration at
  /// now().
  void submit(Request req, std::int64_t priority);

  const Batch& batch() const { return batch_; }

 private:
  /// Admit and compose at an iteration boundary, and schedule the
  /// iteration's end; go idle when nothing runs.
  void run_iteration();
  /// End of an iteration: complete the finished requests, then start the
  /// next iteration.
  void finish_iteration();

  std::int32_t index_;
  des::EventLoop* loop_;
  Batch batch_;
  std::function<void()> on_finish_;
  /// Queued and running requests, indexed by their batch id; freed slots
  /// are reused.
  std::vector<Request> requests_;
  std::vector<std::uint64_t> free_;
  /// Ids the iteration being finished completed (kept for its capacity).
  std::vector<std::uint64_t> done_;
  bool iteration_scheduled_ = false;
};

}  // namespace aimetro::llm
