// Figures 4a and 4b + §4.2 text: end-to-end 25-agent full-day simulation
// completion time for single-thread / parallel-sync / metropolis / oracle /
// critical, on two platforms:
//   4a  Llama-3-8B-Instruct on 1..8 NVIDIA L4 GPUs;
//   4b  Llama-3-70B-Instruct on NVIDIA A100-80GB GPUs, tensor parallelism
//       4, hybrid TP4 x DP2 on eight.
//
// Paper reference points:
//   4a  metropolis beats single-thread and parallel-sync by 2.38x / 1.44x
//       on one GPU and 3.25x / 1.67x on eight; achieved parallelism
//       0.95 / 1.94 / 3.46 (single / sync / metropolis, 8 GPUs);
//       metropolis reaches 82.9% (1 GPU) to 74.7% (8 GPUs) of oracle.
//   4b  2.45x over single-thread and 1.45x over parallel-sync, 82% of
//       oracle on 8 GPUs; oracle-to-critical 64.7%.
//
//   build/bench/fig4ab_fullday
#include <cstdio>

#include "bench/bench_common.h"

using namespace aimetro;

namespace {

struct FullDayFigure {
  const char* title;
  replay::ExperimentConfig (*platform)(std::int32_t gpus);
  std::vector<int> gpus;  // single-thread runs once, on the first
  bool parallelism;       // print achieved parallelism per mode
  bool oracle_over_critical;
};

const FullDayFigure kFigures[] = {
    {"Figure 4a — full day, 25 agents, Llama-3-8B on NVIDIA L4",
     bench::l4_llama8b, {1, 2, 4, 8}, true, false},
    {"Figure 4b — full day, 25 agents, Llama-3-70B on NVIDIA A100",
     bench::a100_llama70b, {4, 8}, false, true},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
    return 2;
  }
  // The registry's calibrated day, full-day window (the entry defaults to
  // the busy hour).
  const auto& day =
      bench::registry_day_trace(bench::registry_spec("smallville_day"));
  const std::vector<int> widths{6, 14, 14, 14, 14, 14};
  for (const FullDayFigure& fig : kFigures) {
    bench::print_header(fig.title);
    bench::print_row({"gpus", "single-thread", "parallel-sync", "metropolis",
                      "oracle", "critical"},
                     widths);
    // single-thread ignores extra replicas; run it once.
    const double single = bench::run_mode(day, fig.platform(fig.gpus.front()),
                                          replay::Mode::kSingleThread)
                              .completion_seconds;
    for (int gpus : fig.gpus) {
      const auto cfg = fig.platform(gpus);
      const auto sync = bench::run_mode(day, cfg, replay::Mode::kParallelSync);
      const auto metro = bench::run_mode(day, cfg, replay::Mode::kMetropolis);
      const auto oracle = bench::run_mode(day, cfg, replay::Mode::kOracle);
      const auto critical = bench::run_mode(day, cfg, replay::Mode::kCritical);
      bench::print_row(
          {std::to_string(gpus), strformat("%.0fs", single),
           strformat("%.0fs", sync.completion_seconds),
           strformat("%.0fs", metro.completion_seconds),
           strformat("%.0fs", oracle.completion_seconds),
           strformat("%.0fs", critical.completion_seconds)},
          widths);
      std::string line = strformat(
          "        metropolis speedup: %.2fx vs single-thread, %.2fx vs "
          "parallel-sync",
          single / metro.completion_seconds,
          sync.completion_seconds / metro.completion_seconds);
      if (fig.parallelism) {
        line += strformat(" | parallelism single=1.00 sync=%.2f metro=%.2f",
                          sync.avg_parallelism, metro.avg_parallelism);
      }
      line += strformat(
          " | %.1f%% of oracle",
          100.0 * oracle.completion_seconds / metro.completion_seconds);
      if (fig.oracle_over_critical) {
        line += strformat(
            " | oracle/critical=%.1f%%",
            100.0 * critical.completion_seconds / oracle.completion_seconds);
      }
      std::printf("%s\n", line.c_str());
    }
  }
  return 0;
}
