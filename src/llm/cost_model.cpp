#include "llm/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace aimetro::llm {

namespace {

constexpr double kFlopsEfficiency = 0.45;  // achieved fraction of peak TFLOPS
constexpr double kBwEfficiency = 0.80;  // achieved fraction of peak bandwidth
constexpr double kTpCommAlpha = 0.15;   // TP speedup = tp / (1 + alpha*(tp-1))
constexpr double kActivationReserveGb = 2.0;  // HBM per GPU for activations
constexpr double kIterationOverheadUs = 300.0;  // scheduler + kernel launch

}  // namespace

CostModel::CostModel(ModelSpec model, GpuSpec gpu, std::int32_t tensor_parallel)
    : model_(std::move(model)), gpu_(std::move(gpu)), tp_(tensor_parallel) {
  AIM_CHECK(tp_ >= 1);
  tp_speedup_ = static_cast<double>(tp_) /
                (1.0 + kTpCommAlpha * static_cast<double>(tp_ - 1));
  AIM_CHECK_MSG(model_.weight_bytes() <
                    gpu_.hbm_gb * 1e9 * static_cast<double>(tp_),
                model_.name << " does not fit on " << tp_ << "x " << gpu_.name);
}

double CostModel::weights_read_bytes(std::int32_t token_batch) const {
  const double w = model_.weight_bytes();
  if (!model_.is_moe() || token_batch <= 0) return w;
  // Expected fraction of experts touched by `token_batch` tokens, each
  // routed to `experts_per_token` of `n_experts` experts.
  const double miss = std::pow(
      1.0 - static_cast<double>(model_.experts_per_token) /
                static_cast<double>(model_.n_experts),
      std::max(1.0, static_cast<double>(token_batch)));
  const double touched_frac = 1.0 - miss;
  return w * (1.0 - model_.expert_params_frac) +
         w * model_.expert_params_frac * touched_frac;
}

SimTime CostModel::iteration_time(std::int32_t decode_batch,
                                  std::int64_t prefill_tokens,
                                  std::int64_t kv_resident_tokens) const {
  AIM_CHECK(decode_batch >= 0 && prefill_tokens >= 0);
  const double token_batch =
      static_cast<double>(decode_batch) + static_cast<double>(prefill_tokens);
  if (token_batch <= 0.0) return 0;

  const double bw =
      gpu_.mem_bw_gbps * 1e9 * kBwEfficiency;  // bytes/s per GPU
  const double flops = gpu_.tflops * 1e12 * kFlopsEfficiency;

  // Memory traffic: weights once per iteration plus the decode KV reads.
  const double weight_bytes =
      weights_read_bytes(static_cast<std::int32_t>(token_batch));
  const double kv_read_bytes =
      decode_batch > 0
          ? static_cast<double>(kv_resident_tokens) * model_.kv_bytes_per_token()
          : 0.0;
  const double mem_seconds =
      (weight_bytes + kv_read_bytes) / (bw * tp_speedup_);

  // Compute: 2 FLOPs per active parameter per token.
  const double compute_seconds =
      2.0 * model_.active_params_b * 1e9 * token_batch /
      (flops * tp_speedup_);

  const double seconds = std::max(mem_seconds, compute_seconds) +
                         kIterationOverheadUs * 1e-6;
  return sim_time_from_seconds(seconds);
}

std::int64_t CostModel::kv_capacity_tokens() const {
  const double total_hbm = gpu_.hbm_gb * 1e9 * static_cast<double>(tp_);
  const double reserve =
      kActivationReserveGb * 1e9 * static_cast<double>(tp_);
  const double free_bytes = total_hbm - model_.weight_bytes() - reserve;
  AIM_CHECK_MSG(free_bytes > 0, "no HBM left for KV cache");
  return static_cast<std::int64_t>(free_bytes / model_.kv_bytes_per_token());
}

}  // namespace aimetro::llm
