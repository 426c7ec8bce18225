// Figure 1: a snippet of the execution trace under lock-step scheduling —
// per-agent streams of LLM invocations with step-boundary lines, showing
// the imbalance that causes idle waiting.
#include <cstdio>

#include "bench/bench_common.h"
#include "replay/gantt.h"

using namespace aimetro;

int main() {
  bench::print_header(
      "Figure 1 — execution trace snippet (parallel-sync, 25 agents)");
  const auto& busy = bench::registry_window(bench::registry_spec(
      "smallville_day",
      {strformat("window_begin=%d", bench::kBusyBegin),
       strformat("window_end=%d", bench::kBusyBegin + 40)}));
  auto cfg = bench::l4_llama8b(1);
  cfg.record_gantt = true;
  const auto result =
      bench::run_mode(busy, cfg, replay::Mode::kParallelSync);
  const SimTime end = sim_time_from_seconds(result.completion_seconds);
  // Show the first ~500 seconds like the paper's snippet.
  const SimTime window = std::min<SimTime>(end, sim_time_from_seconds(500));
  std::printf("%s", replay::render_gantt_ascii(result.gantt, busy.n_agents, 0,
                                               window, 110,
                                               result.step_completion_times)
                        .c_str());
  std::printf(
      "\ncalls=%llu  achieved parallelism=%.2f  (the paper measures 1.94 "
      "trace-wide for parallel-sync)\n",
      static_cast<unsigned long long>(result.total_calls),
      result.avg_parallelism);
  return 0;
}
