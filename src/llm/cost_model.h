// Roofline cost model for one continuous-batching iteration.
//
// The simulator needs only the two properties that drive the paper's
// results: (a) decode is memory-bandwidth-bound, so iteration latency is
// nearly flat in batch size until a compute knee — which is why larger
// batches (more parallelism) raise throughput; (b) prefill is
// compute-bound and proportional to prompt tokens. Tensor parallelism
// divides both weight traffic and compute across GPUs at sub-linear
// efficiency; MoE models touch only the routed experts' weights, so light
// batches read far less than the resident footprint.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "llm/specs.h"

namespace aimetro::llm {

class CostModel {
 public:
  CostModel(ModelSpec model, GpuSpec gpu, std::int32_t tensor_parallel);

  const ModelSpec& model() const { return model_; }
  const GpuSpec& gpu() const { return gpu_; }
  std::int32_t tensor_parallel() const { return tp_; }

  /// Duration of one iteration that decodes one token for `decode_batch`
  /// requests (total resident context `kv_resident_tokens`) and prefills
  /// `prefill_tokens` prompt tokens, in microseconds.
  SimTime iteration_time(std::int32_t decode_batch, std::int64_t prefill_tokens,
                         std::int64_t kv_resident_tokens) const;

  /// Max tokens of KV cache the replica can hold.
  std::int64_t kv_capacity_tokens() const;

  /// Bytes of weights actually read per iteration given the token batch
  /// (MoE models read only routed experts; dense models read everything).
  double weights_read_bytes(std::int32_t token_batch) const;

 private:
  ModelSpec model_;
  GpuSpec gpu_;
  std::int32_t tp_;
  double tp_speedup_;  // effective parallel speedup across the TP group
};

}  // namespace aimetro::llm
