// Model and GPU specifications for the serving-cluster simulator.
//
// Presets cover the paper's evaluation matrix (§4.1): Llama-3-8B-Instruct on
// NVIDIA L4s (data parallel 1..8), Llama-3-70B-Instruct on A100-80GB (tensor
// parallel 4, hybrid 2x4 on 8 GPUs), and Mixtral-8x7B (MoE) on A100s.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace aimetro::llm {

struct ModelSpec {
  std::string name;
  double total_params_b = 0.0;   // parameters resident in memory (billions)
  double active_params_b = 0.0;  // parameters touched per token (MoE < total)
  std::int32_t n_layers = 0;
  std::int32_t kv_dim = 0;  // per-layer K (or V) width in elements (GQA-aware)
  // MoE structure (dense models: n_experts == 0).
  std::int32_t n_experts = 0;
  std::int32_t experts_per_token = 0;
  double expert_params_frac = 0.0;  // fraction of weights living in experts

  double weight_bytes() const { return total_params_b * 1e9 * 2.0; }  // bf16
  double kv_bytes_per_token() const {
    return 2.0 * n_layers * kv_dim * 2.0;  // K and V, bf16
  }
  bool is_moe() const { return n_experts > 0; }

  static ModelSpec llama3_8b();
  static ModelSpec llama3_70b();
  static ModelSpec mixtral_8x7b();
};

struct GpuSpec {
  std::string name;
  double tflops = 0.0;      // dense bf16 peak
  double mem_bw_gbps = 0.0;  // GB/s
  double hbm_gb = 0.0;

  static GpuSpec l4();
  static GpuSpec a100_80gb();
};

/// Resolve a model by name. Matching is case-insensitive and treats '_',
/// ' ', and '.' as '-'; common short aliases ("llama3-8b", "8b",
/// "mixtral") resolve to the full preset. nullopt for unknown names —
/// callers must surface a clear error rather than fall back to a default.
std::optional<ModelSpec> find_model(const std::string& name);
std::optional<GpuSpec> find_gpu(const std::string& name);

/// Canonical names of every known preset (for error messages / --list).
std::vector<std::string> known_model_names();
std::vector<std::string> known_gpu_names();

/// How a model is mapped onto GPUs: `data_parallel` independent replicas,
/// each spanning `tensor_parallel` GPUs.
struct ParallelismConfig {
  std::int32_t tensor_parallel = 1;
  std::int32_t data_parallel = 1;
};

}  // namespace aimetro::llm
