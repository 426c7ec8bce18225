#include "llm/cost_model_client.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace aimetro::llm {

// ---- VirtualReplica ----

VirtualReplica::VirtualReplica(const CostModel* cost, ReplicaConfig cfg)
    : stepper_{Batch(cost, cfg)} {}

bool VirtualReplica::Stepper::step(SimTime t,
                                   std::vector<std::uint64_t>* done) {
  if (state == State::kRunning && boundary <= t) {
    batch.finish(done);
    state = State::kPending;
    return true;
  }
  if (state == State::kPending && boundary < t) {
    batch.admit();
    const SimTime duration = batch.compose();
    state = duration == 0 ? State::kIdle : State::kRunning;
    boundary += duration;
    return true;
  }
  return false;
}

void VirtualReplica::advance(SimTime t) {
  while (stepper_.step(t, &done_)) {
    peak_batch_ = std::max(peak_batch_, stepper_.batch.running_count());
    for (const std::uint64_t id : done_) {
      finished_.emplace(id, stepper_.boundary);
    }
    done_.clear();
  }
}

std::uint64_t VirtualReplica::submit(SimTime now, std::int64_t prompt_tokens,
                                     std::int64_t output_tokens,
                                     std::int64_t priority) {
  advance(now);
  AIM_CHECK_MSG(stepper_.state == Stepper::State::kRunning ||
                    stepper_.boundary <= now,
                "submit at " << now << " before the replica's cursor "
                             << stepper_.boundary);
  const std::uint64_t id = next_id_;
  stepper_.batch.enqueue(id, prompt_tokens, output_tokens, priority,
                         /*prompt_hash=*/0);
  ++next_id_;
  if (stepper_.state == Stepper::State::kIdle) {
    stepper_.state = Stepper::State::kPending;
    stepper_.boundary = now;
  }
  return id;
}

SimTime VirtualReplica::predict_finish(std::uint64_t id) const {
  if (const auto it = finished_.find(id); it != finished_.end()) {
    return it->second;
  }
  AIM_CHECK_MSG(id < next_id_, "unknown call " << id);
  Stepper copy = stepper_;
  std::vector<std::uint64_t> done;
  while (copy.step(kSimTimeMax, &done)) {
    if (std::find(done.begin(), done.end(), id) != done.end()) {
      return copy.boundary;
    }
    done.clear();
  }
  AIM_CHECK_MSG(false, "call " << id << " never finishes");
  return 0;
}

std::optional<SimTime> VirtualReplica::take_finish(std::uint64_t id) {
  const auto it = finished_.find(id);
  if (it == finished_.end()) return std::nullopt;
  const SimTime t = it->second;
  finished_.erase(it);
  return t;
}

// ---- CostModelLlmClient ----

CostModelLlmClient::CostModelLlmClient(CostModel cost,
                                       const runtime::SimClock* clock,
                                       CostModelClientConfig cfg)
    : cost_(std::move(cost)), clock_(clock), cfg_(cfg) {
  AIM_CHECK(clock_ != nullptr);
  AIM_CHECK(cfg_.data_parallel >= 1);
  ReplicaConfig replica;
  replica.max_running_requests = cfg_.max_running_requests;
  replica.max_prefill_tokens_per_iter = cfg_.max_prefill_tokens_per_iter;
  replicas_.reserve(static_cast<std::size_t>(cfg_.data_parallel));
  for (std::int32_t i = 0; i < cfg_.data_parallel; ++i) {
    replicas_.push_back(std::make_unique<ReplicaState>(&cost_, replica));
  }
}

CompletionResult CostModelLlmClient::complete(
    const CompletionRequest& request) {
  const std::int64_t prompt_tokens = request.prompt_tokens > 0
                                         ? request.prompt_tokens
                                         : estimate_tokens(request.prompt);
  const std::int64_t output_tokens =
      std::max<std::int64_t>(1, request.max_tokens);

  ReplicaState* target = nullptr;
  std::uint64_t id = 0;
  {
    // Least-loaded routing, lowest index on ties (Cluster::route), over
    // replicas brought up to now. Each replica's lock is taken alone and
    // the clock is read under it, so a replica's times never go back.
    common::MutexLock route_lock(route_mutex_);
    std::size_t best_load = 0;
    for (const auto& r : replicas_) {
      common::MutexLock lock(r->mutex);
      r->replica.advance(clock_->now());
      const std::size_t load = r->replica.load();
      if (target == nullptr || load < best_load) {
        target = r.get();
        best_load = load;
      }
    }
    common::MutexLock lock(target->mutex);
    id = target->replica.submit(clock_->now(), prompt_tokens, output_tokens,
                                request.priority);
  }

  // Block until the replica finishes the call: sleep to its predicted
  // finish, step the replica up to the clock, and repeat — a call that
  // arrives meanwhile joins the batch and moves the prediction later.
  SimTime finish = 0;
  while (true) {
    SimTime predicted = 0;
    {
      common::MutexLock lock(target->mutex);
      target->replica.advance(clock_->now());
      if (const auto done = target->replica.take_finish(id)) {
        finish = *done;
        break;
      }
      predicted = target->replica.predict_finish(id);
    }
    clock_->sleep_until(predicted);
  }
  {
    common::MutexLock lock(stats_mutex_);
    last_finish_ = std::max(last_finish_, finish);
    calls_ += 1;
  }

  CompletionResult result;
  result.prompt_tokens = static_cast<std::int32_t>(prompt_tokens);
  result.text = deterministic_completion_text(cfg_.seed, request.prompt);
  result.output_tokens = estimate_tokens(result.text);
  return result;
}

std::uint64_t CostModelLlmClient::calls() const {
  common::MutexLock lock(stats_mutex_);
  return calls_;
}

SimTime CostModelLlmClient::last_finish() const {
  common::MutexLock lock(stats_mutex_);
  return last_finish_;
}

std::int32_t CostModelLlmClient::peak_batch() const {
  std::int32_t peak = 0;
  for (const auto& r : replicas_) {
    common::MutexLock lock(r->mutex);
    peak = std::max(peak, r->replica.peak_batch());
  }
  return peak;
}

}  // namespace aimetro::llm
