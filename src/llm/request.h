// Request/outcome types shared by the cluster simulator and its clients.
#pragma once

#include <cstdint>
#include <functional>

#include "common/types.h"

namespace aimetro::llm {

struct RequestOutcome {
  SimTime submit_time = 0;
  SimTime finish_time = 0;
  std::int32_t replica = -1;
};

/// A single completion request. `priority` is the simulation step of the
/// issuing task — the paper's priority scheduling serves smaller steps
/// first (§3.5); with priorities disabled requests are FIFO.
struct Request {
  SimTime submit_time = 0;  // stamped by Cluster::submit
  std::int64_t prompt_tokens = 0;
  std::int64_t output_tokens = 0;  // replay fixes exact lengths (ignore_eos)
  std::int64_t priority = 0;
  std::uint64_t prompt_hash = 0;   // prefix identity for the cache model
  std::function<void(const RequestOutcome&)> on_complete;
};

}  // namespace aimetro::llm
