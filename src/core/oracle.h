// Offline oracle dependency mining (§4.1, "oracle" setting).
//
// Given a full trace, the optimal dependency graph keeps only the
// interactions that actually happened: "if two agents appear in each
// other's observation space, they synchronize before and after the step".
// We union observation-proximity pairs (distance <= radius_p at the start
// of a step) with the trace's explicit interaction records (conversation
// turns) and form per-step interaction groups (connected components). An
// agent may start step s once it and every member of its step-s group have
// committed step s-1; the group commits s together. This is unattainable
// online (it requires foresight) and serves as the upper bound on
// schedulable parallelism.
#pragma once

#include <vector>

#include "common/types.h"
#include "trace/schema.h"

namespace aimetro::core {

struct OracleDependencies {
  /// groups_by_step[s] (relative step) lists the interaction groups with
  /// >= 2 members, each sorted. Agents absent from every group in a step
  /// are independent singletons for that step.
  std::vector<std::vector<std::vector<AgentId>>> groups_by_step;

  /// Group of `agent` at relative step `rel` including itself (singleton
  /// when it interacted with nobody).
  std::vector<AgentId> group_of(Step rel, AgentId agent) const;
};

OracleDependencies mine_oracle(const trace::SimulationTrace& trace);

}  // namespace aimetro::core
