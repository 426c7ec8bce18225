// §4.1 ablation: the paper disables SGLang's automatic common-prefix
// caching for stable benchmarking but notes that "enabling the cache
// generally provides about a 20% throughput gain across all settings".
// This bench toggles the replica prefix-cache model across schedulers.
#include <cstdio>

#include "bench/bench_common.h"

using namespace aimetro;

int main() {
  bench::print_header(
      "Ablation — prefix cache on/off (busy hour, 25 agents, 4x L4)");
  // The registry entry's own window is exactly the busy hour.
  const auto& busy =
      bench::registry_window(bench::registry_spec("smallville_day"));
  const std::vector<int> widths{14, 12, 12, 10, 12};
  bench::print_row({"mode", "cache off", "cache on", "gain", "hit rate"},
                   widths);
  for (replay::Mode mode :
       {replay::Mode::kParallelSync, replay::Mode::kMetropolis,
        replay::Mode::kOracle}) {
    auto cfg = bench::l4_llama8b(4);
    cfg.cluster.replica.prefix_cache = false;
    const auto off = bench::run_mode(busy, cfg, mode);
    cfg.cluster.replica.prefix_cache = true;
    const auto on = bench::run_mode(busy, cfg, mode);
    bench::print_row(
        {replay::mode_name(mode), strformat("%.0fs", off.completion_seconds),
         strformat("%.0fs", on.completion_seconds),
         strformat("%.1f%%",
                   100.0 * (off.completion_seconds / on.completion_seconds -
                            1.0)),
         strformat("%.1f%%", 100.0 * static_cast<double>(on.prefix_cache_hits) /
                                 static_cast<double>(on.total_calls))},
        widths);
  }
  return 0;
}
