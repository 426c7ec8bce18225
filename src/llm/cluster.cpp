#include "llm/cluster.h"

#include <utility>

#include "common/check.h"

namespace aimetro::llm {

Cluster::Cluster(des::EventLoop* loop, ModelSpec model, GpuSpec gpu,
                 ParallelismConfig parallelism, ClusterConfig cfg)
    : loop_(loop),
      cost_(std::move(model), std::move(gpu), parallelism.tensor_parallel),
      cfg_(cfg) {
  AIM_CHECK(loop_ != nullptr);
  AIM_CHECK(parallelism.data_parallel >= 1);
  for (std::int32_t i = 0; i < parallelism.data_parallel; ++i) {
    replicas_.push_back(std::make_unique<Replica>(
        i, loop_, &cost_, cfg_.replica, [this] { on_request_complete(); }));
  }
}

std::size_t Cluster::route() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < replicas_.size(); ++i) {
    if (replicas_[i]->batch().load() < replicas_[best]->batch().load()) {
      best = i;
    }
  }
  return best;
}

void Cluster::submit(Request req) {
  req.submit_time = loop_->now();
  const std::int64_t priority = cfg_.priority_scheduling ? req.priority : 0;
  replicas_[route()]->submit(std::move(req), priority);
  ++outstanding_;
  outstanding_stat_.set(loop_->now(), static_cast<double>(outstanding_));
}

void Cluster::on_request_complete() {
  AIM_CHECK(outstanding_ > 0);
  --outstanding_;
  ++completed_;
  last_completion_ = loop_->now();
  outstanding_stat_.set(loop_->now(), static_cast<double>(outstanding_));
}

double Cluster::average_parallelism(SimTime until) const {
  if (completed_ == 0 && outstanding_ == 0) return 0.0;
  return outstanding_stat_.average_until(until);
}

double Cluster::average_utilization(SimTime until) const {
  if (until <= 0 || replicas_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& r : replicas_) {
    total += static_cast<double>(r->batch().busy_time());
  }
  return total / (static_cast<double>(until) *
                  static_cast<double>(replicas_.size()));
}

std::int64_t Cluster::total_decode_tokens() const {
  std::int64_t n = 0;
  for (const auto& r : replicas_) n += r->batch().decode_tokens_done();
  return n;
}

std::int64_t Cluster::total_prefill_tokens() const {
  std::int64_t n = 0;
  for (const auto& r : replicas_) n += r->batch().prefill_tokens_done();
  return n;
}

std::uint64_t Cluster::total_prefix_cache_hits() const {
  std::uint64_t n = 0;
  for (const auto& r : replicas_) n += r->batch().prefix_cache_hits();
  return n;
}

}  // namespace aimetro::llm
