// Figures 5, 6 and 7: busy-hour (12-1pm) and quiet-hour (6-7am) completion
// times with agents scaled 25 -> 1000 by concatenating independent
// SmallVilles, on three platforms:
//   5  Llama-3-8B on 1 and 8 L4 GPUs;
//   6  Llama-3-70B on eight A100 GPUs (TP4 x DP2);
//   7  Mixtral-8x7B (MoE) on eight A100 GPUs — TP2 x DP4, so twice the
//      data parallelism of the 70B deployment.
// gpu-limit combines the critical-path and no-dependency lower bounds.
//
// Paper reference points:
//   5  (8 GPUs, busy hour) speedup over parallel-sync grows from 1.88x at
//      25 agents to 4.15x at 500, easing to 3.94x at 1000; metropolis
//      rises from 53.1% to 97.0% of oracle.
//   6  metropolis peaks at 1.97x over parallel-sync at 500 agents (busy)
//      and 2.01x at 1000 agents (quiet).
//   7  higher peak speedups than the 70B — 2.97x (busy) and 2.29x (quiet)
//      over parallel-sync at 500 agents — thanks to the lighter
//      per-replica footprint freeing resources for parallelism.
//
//   build/bench/fig567_scaling [--quick]   (--quick: 25 and 100 agents)
#include <cstdio>

#include "bench/bench_common.h"

using namespace aimetro;

namespace {

struct ScalingFigure {
  const char* name;
  const char* platform_title;
  // The title also names the populations run.
  bool title_names_agents;
  replay::ExperimentConfig (*platform)(std::int32_t gpus);
  std::vector<int> gpus;
  // Adds the gpus and single-thread columns (single-thread runs once per
  // population, on the first GPU count) and the speedup over it.
  bool single_thread;
};

const ScalingFigure kFigures[] = {
    {"Figure 5", "Llama-3-8B on L4", true, bench::l4_llama8b, {1, 8}, true},
    {"Figure 6", "Llama-3-70B on 8x A100 (TP4 x DP2)", false,
     bench::a100_llama70b, {8}, false},
    {"Figure 7", "Mixtral-8x7B on 8x A100 (TP2 x DP4)", false,
     bench::a100_mixtral, {8}, false},
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_flag(argc, argv);
  const std::vector<int> agent_counts =
      quick ? std::vector<int>{25, 100} : std::vector<int>{25, 100, 500, 1000};
  for (const ScalingFigure& fig : kFigures) {
    const std::vector<int> widths = fig.single_thread
        ? std::vector<int>{7, 6, 14, 14, 14, 14, 12}
        : std::vector<int>{7, 14, 14, 14, 12};
    std::string platform = fig.platform_title;
    if (fig.title_names_agents) {
      platform += strformat(", agents %d..%d", agent_counts.front(),
                            agent_counts.back());
    }
    for (const bool busy : {true, false}) {
      bench::print_header(strformat(
          "%s — %s hour, %s", fig.name,
          busy ? "busy (12-1pm)" : "quiet (6-7am)", platform.c_str()));
      std::vector<std::string> header{"agents"};
      if (fig.single_thread) {
        header.insert(header.end(), {"gpus", "single-thread"});
      }
      header.insert(header.end(),
                    {"parallel-sync", "metropolis", "oracle", "gpu-limit"});
      bench::print_row(header, widths);
      for (int agents : agent_counts) {
        // The window is cached, so each population's hour is generated
        // once for all three figures.
        const auto& window = bench::registry_window(bench::registry_spec(
            bench::ville_scenario_name(agents),
            {strformat("window_begin=%d", busy ? bench::kBusyBegin
                                               : bench::kQuietBegin),
             strformat("window_end=%d",
                       busy ? bench::kBusyEnd : bench::kQuietEnd)}));
        const double single =
            fig.single_thread
                ? bench::run_mode(window, fig.platform(fig.gpus.front()),
                                  replay::Mode::kSingleThread)
                      .completion_seconds
                : 0.0;
        for (int gpus : fig.gpus) {
          const auto cfg = fig.platform(gpus);
          const auto sync =
              bench::run_mode(window, cfg, replay::Mode::kParallelSync);
          const auto metro =
              bench::run_mode(window, cfg, replay::Mode::kMetropolis);
          const auto oracle =
              bench::run_mode(window, cfg, replay::Mode::kOracle);
          const double limit = bench::gpu_limit_seconds(window, cfg);
          std::vector<std::string> row{std::to_string(agents)};
          if (fig.single_thread) {
            row.insert(row.end(),
                       {std::to_string(gpus), strformat("%.0fs", single)});
          }
          row.insert(row.end(),
                     {strformat("%.0fs", sync.completion_seconds),
                      strformat("%.0fs", metro.completion_seconds),
                      strformat("%.0fs", oracle.completion_seconds),
                      strformat("%.0fs", limit)});
          bench::print_row(row, widths);
          const double vs_sync =
              sync.completion_seconds / metro.completion_seconds;
          const double of_oracle =
              100.0 * oracle.completion_seconds / metro.completion_seconds;
          if (fig.single_thread) {
            std::printf(
                "                speedups: %.2fx vs single, %.2fx vs sync | "
                "parallelism sync=%.2f metro=%.2f | %.1f%% of oracle\n",
                single / metro.completion_seconds, vs_sync,
                sync.avg_parallelism, metro.avg_parallelism, of_oracle);
          } else {
            std::printf("        speedup vs sync: %.2fx | %.1f%% of oracle\n",
                        vs_sync, of_oracle);
          }
        }
      }
    }
  }
  return 0;
}
