#include "llm/replica.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace aimetro::llm {

// ---- Batch ----

Batch::Batch(const CostModel* cost, ReplicaConfig cfg)
    : cost_(cost), cfg_(cfg) {
  AIM_CHECK(cost_ != nullptr);
  AIM_CHECK(cfg_.max_running_requests > 0);
  AIM_CHECK(cfg_.max_prefill_tokens_per_iter > 0);
  kv_capacity_ = cost_->kv_capacity_tokens();
  if (cfg_.prefix_cache) cache_.emplace();
}

bool Batch::PrefixCache::lookup(std::uint64_t hash) {
  if (set.count(hash) > 0) return true;
  set.insert(hash);
  order.push_back(hash);
  if (order.size() > kPrefixCacheCapacity) {
    set.erase(order.front());
    order.pop_front();
  }
  return false;
}

void Batch::enqueue(std::uint64_t id, std::int64_t prompt_tokens,
                    std::int64_t output_tokens, std::int64_t priority,
                    std::uint64_t prompt_hash) {
  const std::int64_t footprint = prompt_tokens + output_tokens;
  AIM_CHECK_MSG(footprint <= kv_capacity_,
                "request needs " << footprint
                                 << " KV tokens, more than the replica's "
                                 << kv_capacity_);
  waiting_.push(Waiting{priority, seq_++, id, prompt_tokens, output_tokens,
                        prompt_hash});
}

void Batch::admit() {
  while (!waiting_.empty() &&
         running_.size() <
             static_cast<std::size_t>(cfg_.max_running_requests)) {
    const Waiting& head = waiting_.top();
    const std::int64_t footprint = head.prompt_tokens + head.output_tokens;
    if (footprint > kv_capacity_ - kv_used_) break;  // head-of-line blocks
    Running r;
    r.id = head.id;
    r.prompt_tokens = head.prompt_tokens;
    r.output_tokens = head.output_tokens;
    r.kv_tokens = footprint;
    r.prefill_remaining = head.prompt_tokens;
    if (cache_ && cache_->lookup(head.prompt_hash)) {
      ++cache_hits_;
      r.prefill_remaining = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(
                 static_cast<double>(head.prompt_tokens) *
                 (1.0 - kPrefixCacheHitFrac)));
    }
    kv_used_ += footprint;
    running_.push_back(r);
    waiting_.pop();
  }
}

SimTime Batch::compose() {
  if (running_.empty()) return 0;
  std::int32_t decode_count = 0;
  std::int64_t kv_resident = 0;
  std::int64_t prefill_budget = cfg_.max_prefill_tokens_per_iter;
  std::int64_t prefill_total = 0;
  for (Running& r : running_) {
    r.decoding = r.prefill_remaining == 0;
    if (r.decoding) {
      ++decode_count;
      kv_resident += r.prompt_tokens + r.generated;
    }
    r.prefill_chunk = std::min(r.prefill_remaining, prefill_budget);
    if (r.prefill_chunk > 0) {
      prefill_budget -= r.prefill_chunk;
      prefill_total += r.prefill_chunk;
    }
  }
  const SimTime duration =
      cost_->iteration_time(decode_count, prefill_total, kv_resident);
  AIM_CHECK(duration > 0);
  busy_time_ += duration;
  return duration;
}

void Batch::finish(std::vector<std::uint64_t>* done) {
  done->clear();
  // Apply each request's share in admission order, compacting the
  // survivors in place.
  auto kept = running_.begin();
  for (Running& r : running_) {
    r.prefill_remaining -= r.prefill_chunk;
    prefill_tokens_ += r.prefill_chunk;
    AIM_CHECK(r.prefill_remaining >= 0);
    if (r.decoding) {
      ++r.generated;
      ++decode_tokens_;
      if (r.generated >= r.output_tokens) {
        kv_used_ -= r.kv_tokens;
        done->push_back(r.id);
        continue;
      }
    }
    *kept++ = r;
  }
  running_.erase(kept, running_.end());
}

// ---- Replica ----

Replica::Replica(std::int32_t index, des::EventLoop* loop,
                 const CostModel* cost, ReplicaConfig cfg,
                 std::function<void()> on_finish)
    : index_(index),
      loop_(loop),
      batch_(cost, cfg),
      on_finish_(std::move(on_finish)) {
  AIM_CHECK(loop_ != nullptr);
}

void Replica::submit(Request req, std::int64_t priority) {
  const std::uint64_t id = free_.empty() ? requests_.size() : free_.back();
  batch_.enqueue(id, req.prompt_tokens, req.output_tokens, priority,
                 req.prompt_hash);
  if (id == requests_.size()) {
    requests_.push_back(std::move(req));
  } else {
    free_.pop_back();
    requests_[id] = std::move(req);
  }
  if (iteration_scheduled_) return;
  iteration_scheduled_ = true;
  loop_->schedule_after(0, [this] { run_iteration(); });
}

void Replica::run_iteration() {
  batch_.admit();
  const SimTime duration = batch_.compose();
  if (duration == 0) {
    iteration_scheduled_ = false;
    return;
  }
  loop_->schedule_after(duration, [this] { finish_iteration(); });
}

void Replica::finish_iteration() {
  batch_.finish(&done_);
  // Completions fire after the batch is consistent; callbacks may submit
  // follow-up requests (agent call chains), which queue for the next
  // iteration.
  for (const std::uint64_t id : done_) {
    Request req = std::move(requests_[id]);
    free_.push_back(id);
    on_finish_();
    if (req.on_complete) {
      req.on_complete(RequestOutcome{req.submit_time, loop_->now(), index_});
    }
  }
  run_iteration();
}

}  // namespace aimetro::llm
