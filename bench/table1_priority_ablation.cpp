// Table 1: performance breakdown of metropolis and oracle with and
// without priority scheduling — busy hour, 500 agents, 4 and 8 L4 GPUs.
//
// Paper reference points: priority scheduling speeds metropolis up by
// 3.84% (4 GPUs) and 15.7% (8 GPUs) while oracle barely moves (1.10%,
// 0.11%); with priority enabled, metropolis parallelism rises 41.9 -> 50.9
// while oracle only moves 69.4 -> 69.9.
#include <cstdio>

#include "bench/bench_common.h"

using namespace aimetro;

int main(int argc, char** argv) {
  const int agents = bench::quick_flag(argc, argv) ? 100 : 500;
  bench::print_header(strformat(
      "Table 1 — priority scheduling ablation (busy hour, %d agents, L4)",
      agents));
  const auto& busy = bench::registry_window(bench::registry_spec(
      bench::ville_scenario_name(agents),
      {strformat("window_begin=%d", bench::kBusyBegin),
       strformat("window_end=%d", bench::kBusyEnd)}));
  const std::vector<int> widths{18, 12, 12, 12, 12};
  bench::print_row({"", "metro 4gpu", "metro 8gpu", "oracle 4gpu",
                    "oracle 8gpu"},
                   widths);
  double with_priority[4], without_priority[4];
  double par_with[4], par_without[4];
  int col = 0;
  for (replay::Mode mode : {replay::Mode::kMetropolis, replay::Mode::kOracle}) {
    for (int gpus : {4, 8}) {
      auto cfg = bench::l4_llama8b(gpus);
      // Finite worker pool (the paper sizes workers by CPU resources,
      // §3.1): with FIFO dispatch, far-ahead agents hog workers while the
      // laggards everyone depends on sit queued — the blocking the paper's
      // priority scheduling removes.
      cfg.max_concurrent_clusters = 32;
      cfg.cluster.replica.max_running_requests = 16;
      cfg.cluster.priority_scheduling = true;
      const auto w = bench::run_mode(busy, cfg, mode);
      cfg.cluster.priority_scheduling = false;
      const auto wo = bench::run_mode(busy, cfg, mode);
      with_priority[col] = w.completion_seconds;
      without_priority[col] = wo.completion_seconds;
      par_with[col] = w.avg_parallelism;
      par_without[col] = wo.avg_parallelism;
      ++col;
    }
  }
  auto fmt_row = [&](const char* name, const double* vals) {
    bench::print_row({name, strformat("%.0fs", vals[0]),
                      strformat("%.0fs", vals[1]),
                      strformat("%.0fs", vals[2]),
                      strformat("%.0fs", vals[3])},
                     widths);
  };
  fmt_row("w/ priority", with_priority);
  fmt_row("w/o priority", without_priority);
  bench::print_row(
      {"speedup",
       strformat("%.2f%%", 100.0 * (without_priority[0] / with_priority[0] - 1.0)),
       strformat("%.2f%%", 100.0 * (without_priority[1] / with_priority[1] - 1.0)),
       strformat("%.2f%%", 100.0 * (without_priority[2] / with_priority[2] - 1.0)),
       strformat("%.2f%%", 100.0 * (without_priority[3] / with_priority[3] - 1.0))},
      widths);
  std::printf(
      "\nachieved parallelism (8 GPUs): metropolis %.1f -> %.1f with "
      "priority; oracle %.1f -> %.1f (paper: 41.9 -> 50.9 and 69.4 -> "
      "69.9)\n",
      par_without[1], par_with[1], par_without[3], par_with[3]);
  return 0;
}
