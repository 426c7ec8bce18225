#include "core/critical_path.h"

#include <algorithm>

#include "common/check.h"

namespace aimetro::core {

CriticalPathResult critical_path(const trace::SimulationTrace& trace,
                                 const OracleDependencies& oracle) {
  const auto n = static_cast<std::size_t>(trace.n_agents);

  // The calls of task (agent, rel), in chain order.
  auto task_calls = [&](std::size_t agent, Step rel) {
    return trace::calls_at(trace.agents[agent], trace.start_step + rel);
  };
  auto task_tokens = [&](std::size_t agent, Step rel) -> std::int64_t {
    std::int64_t tokens = 0;
    for (const trace::LlmCall& c : task_calls(agent, rel)) {
      tokens += c.input_tokens + c.output_tokens;
    }
    return tokens;
  };

  // Longest path over steps with a rolling DP:
  //   dp[a] = heaviest chain ending at (a, rel), pred[a][rel] = choice.
  std::vector<std::int64_t> dp(n, 0);
  // pred[rel * n + a] = predecessor agent of (a, rel) at rel-1, or -1.
  std::vector<AgentId> pred(static_cast<std::size_t>(trace.n_steps) * n, -1);

  for (Step rel = 0; rel < trace.n_steps; ++rel) {
    std::vector<std::int64_t> next(n);
    for (std::size_t a = 0; a < n; ++a) {
      std::int64_t best = dp[a];
      AgentId best_pred = rel > 0 ? static_cast<AgentId>(a) : -1;
      if (rel > 0) {
        for (AgentId b : oracle.group_of(rel, static_cast<AgentId>(a))) {
          if (dp[static_cast<std::size_t>(b)] > best) {
            best = dp[static_cast<std::size_t>(b)];
            best_pred = b;
          }
        }
      }
      next[a] = best + task_tokens(a, rel);
      pred[static_cast<std::size_t>(rel) * n + a] = best_pred;
    }
    dp = std::move(next);
  }

  // Backtrack from the heaviest endpoint.
  std::size_t end_agent = 0;
  for (std::size_t a = 1; a < n; ++a) {
    if (dp[a] > dp[end_agent]) end_agent = a;
  }

  CriticalPathResult result;
  std::vector<std::pair<Step, AgentId>> chain;  // (rel, agent) oldest-last
  auto agent = static_cast<AgentId>(end_agent);
  for (Step rel = trace.n_steps - 1; rel >= 0; --rel) {
    chain.emplace_back(rel, agent);
    const AgentId p =
        pred[static_cast<std::size_t>(rel) * n + static_cast<std::size_t>(agent)];
    if (p < 0) break;
    agent = p;
  }
  std::reverse(chain.begin(), chain.end());
  for (const auto& [rel, a] : chain) {
    for (const trace::LlmCall& c :
         task_calls(static_cast<std::size_t>(a), rel)) {
      result.calls.push_back(c);
      result.input_tokens += c.input_tokens;
      result.output_tokens += c.output_tokens;
      ++result.call_count;
    }
  }
  result.total_tokens = result.input_tokens + result.output_tokens;
  AIM_CHECK_MSG(result.total_tokens == dp[end_agent],
                "critical path backtrack mismatch: " << result.total_tokens
                                                     << " vs "
                                                     << dp[end_agent]);
  return result;
}

}  // namespace aimetro::core
