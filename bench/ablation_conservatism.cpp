// §3.2/§6 ablation: how conservative are the dependency rules? The
// blocking cone scales with radius_p and max_vel; inflating either
// restrains agents that would never actually interact, widening the gap
// to oracle — the cost of forgoing a data-race detector.
#include <cstdio>

#include "bench/bench_common.h"

using namespace aimetro;

int main() {
  bench::print_header(
      "Ablation — rule conservatism (busy hour, 100 agents, 8x L4)");
  const auto& busy = bench::registry_window(bench::registry_spec(
      bench::ville_scenario_name(100),
      {strformat("window_begin=%d", bench::kBusyBegin),
       strformat("window_end=%d", bench::kBusyEnd)}));
  const auto cfg = bench::l4_llama8b(8);
  const double oracle =
      bench::run_mode(busy, cfg, replay::Mode::kOracle).completion_seconds;
  const std::vector<int> widths{10, 9, 14, 12, 14};
  bench::print_row({"radius_p", "max_vel", "metropolis", "% oracle",
                    "parallelism"},
                   widths);
  for (const double radius : {2.0, 4.0, 8.0, 16.0}) {
    for (const double vel : {1.0, 2.0}) {
      // The replay honours the params carried in the trace header.
      auto variant = busy;
      variant.radius_p = radius;
      variant.max_vel = vel;  // rules only; movement in the trace is 1/step
      const auto metro =
          bench::run_mode(variant, cfg, replay::Mode::kMetropolis);
      bench::print_row(
          {strformat("%.0f", radius), strformat("%.0f", vel),
           strformat("%.0fs", metro.completion_seconds),
           strformat("%.1f%%", 100.0 * oracle / metro.completion_seconds),
           strformat("%.2f", metro.avg_parallelism)},
          widths);
    }
  }
  std::printf(
      "\n(oracle = %.0fs; GenAgent's actual parameters are radius_p=4, "
      "max_vel=1)\n",
      oracle);
  return 0;
}
