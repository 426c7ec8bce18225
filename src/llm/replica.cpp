#include "llm/replica.h"

#include <algorithm>

#include "common/check.h"

namespace aimetro::llm {

Replica::Replica(std::int32_t index, des::EventLoop* loop,
                 const CostModel* cost, ReplicaConfig cfg, PullFn pull)
    : index_(index),
      loop_(loop),
      cost_(cost),
      cfg_(cfg),
      pull_(std::move(pull)) {
  AIM_CHECK(loop_ != nullptr && cost_ != nullptr);
  AIM_CHECK(cfg_.max_running_requests > 0);
  AIM_CHECK(cfg_.max_prefill_tokens_per_iter > 0);
  kv_capacity_ = cost_->kv_capacity_tokens();
}

void Replica::kick() {
  if (iteration_scheduled_) return;
  iteration_scheduled_ = true;
  loop_->schedule_after(0, [this] { run_iteration(); });
}

bool Replica::lookup_prefix_cache(std::uint64_t hash) {
  if (!cfg_.prefix_cache) return false;
  const bool hit = cache_set_.count(hash) > 0;
  if (!hit) {
    cache_set_.insert(hash);
    cache_order_.push_back(hash);
    if (cache_order_.size() > cfg_.prefix_cache_capacity) {
      cache_set_.erase(cache_order_.front());
      cache_order_.pop_front();
    }
  }
  return hit;
}

void Replica::admit() {
  while (running_.size() <
         static_cast<std::size_t>(cfg_.max_running_requests)) {
    const std::int64_t headroom = kv_capacity_ - kv_used_;
    std::optional<Request> req = pull_(headroom);
    if (!req) break;
    Running r;
    r.outcome.id = req->id;
    r.outcome.submit_time = req->submit_time;
    r.outcome.admit_time = loop_->now();
    r.outcome.replica = index_;
    r.kv_tokens = req->prompt_tokens + req->output_tokens;
    AIM_CHECK_MSG(r.kv_tokens <= kv_capacity_,
                  "request larger than replica KV capacity");
    r.prefill_remaining = req->prompt_tokens;
    if (lookup_prefix_cache(req->prompt_hash)) {
      r.outcome.prefix_cache_hit = true;
      ++cache_hits_;
      r.prefill_remaining = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(
                 static_cast<double>(req->prompt_tokens) *
                 (1.0 - cfg_.prefix_cache_hit_frac)));
    }
    r.req = std::move(*req);
    kv_used_ += r.kv_tokens;
    running_.push_back(std::move(r));
  }
}

void Replica::run_iteration() {
  admit();
  if (running_.empty()) {
    iteration_scheduled_ = false;
    return;
  }

  // Compose this iteration: one decode token per fully-prefilled request,
  // plus a bounded chunk of prefill work (FIFO over admission order).
  // Each request's share is stored on its entry: requests finishing
  // prefill in this iteration begin decoding only in the next one.
  std::int32_t decode_count = 0;
  std::int64_t kv_resident = 0;
  std::int64_t prefill_budget = cfg_.max_prefill_tokens_per_iter;
  std::int64_t prefill_total = 0;
  for (Running& r : running_) {
    r.decoding = r.prefill_remaining == 0;
    if (r.decoding) {
      ++decode_count;
      kv_resident += r.req.prompt_tokens + r.generated;
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
  ++iterations_;
  loop_->schedule_after(duration, [this] { finish_iteration(); });
}

void Replica::finish_iteration() {
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
      if (r.generated >= r.req.output_tokens) {
        kv_used_ -= r.kv_tokens;
        finished_.push_back(std::move(r));
        continue;
      }
    }
    if (&*kept != &r) *kept = std::move(r);
    ++kept;
  }
  running_.erase(kept, running_.end());
  // Fire completions after state is consistent; callbacks may submit
  // follow-up requests (agent call chains) and re-enter kick().
  for (Running& r : finished_) {
    r.outcome.finish_time = loop_->now();
    if (r.req.on_complete) r.req.on_complete(r.outcome);
  }
  finished_.clear();
  run_iteration();
}

}  // namespace aimetro::llm
