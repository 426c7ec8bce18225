// Critical-path extraction (§4.1, "critical" setting).
//
// Over the oracle dependency DAG — task (A, s) depends on (A, s-1) and on
// (B, s-1) for every B in A's step-s interaction group — find the chain of
// tasks "containing the most LLM input and output tokens". Executing that
// chain alone, one call at a time, lower-bounds the completion time
// regardless of available resources.
#pragma once

#include <cstdint>
#include <vector>

#include "core/oracle.h"
#include "trace/schema.h"

namespace aimetro::core {

struct CriticalPathResult {
  std::int64_t total_tokens = 0;   // input + output along the path
  std::int64_t input_tokens = 0;
  std::int64_t output_tokens = 0;
  std::size_t call_count = 0;
  /// The chain's calls in execution order (copies of the trace's).
  std::vector<trace::LlmCall> calls;
};

CriticalPathResult critical_path(const trace::SimulationTrace& trace,
                                 const OracleDependencies& oracle);

}  // namespace aimetro::core
