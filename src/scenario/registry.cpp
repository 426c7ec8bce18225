#include "scenario/registry.h"

#include <charconv>

#include "common/strings.h"

namespace aimetro::scenario {

namespace {

// Canonical trace windows (steps; 10 simulated seconds per step).
constexpr Step kBusyBegin = 4320;   // 12:00
constexpr Step kBusyEnd = 4680;     // 13:00
constexpr Step kRushBegin = 2700;   // 07:30
constexpr Step kRushEnd = 3060;     // 08:30
constexpr Step kEveningBegin = 6480;  // 18:00
constexpr Step kEveningEnd = 6840;    // 19:00

ScenarioSpec smallville_day() {
  ScenarioSpec s;
  s.name = "smallville_day";
  s.description =
      "The paper's calibrated Generative-Agents day: 25 townsfolk on the "
      "140x100 SmallVille, busy-hour replay on 4x L4 / Llama-3-8B (#4.2)";
  s.map = MapKind::kSmallville;
  s.homes = 25;
  s.agents = 25;
  s.profile = "townsfolk";
  s.window_begin = kBusyBegin;
  s.window_end = kBusyEnd;
  s.backend = Backend::kDes;
  s.model = "llama-3-8b-instruct";
  s.gpu = "l4";
  s.tensor_parallel = 1;
  s.data_parallel = 4;
  return s;
}

ScenarioSpec social_hub() {
  ScenarioSpec s;
  s.name = "social_hub";
  s.description =
      "40 socialites on an 80x80 plaza town: Zipf-skewed venue choice "
      "concentrates evenings on one hub, producing a power-law contact "
      "graph and large coupled clusters (evening-hour replay)";
  s.map = MapKind::kPlaza;
  s.homes = 14;
  s.agents = 40;
  s.profile = "socialite";
  s.window_begin = kEveningBegin;
  s.window_end = kEveningEnd;
  s.backend = Backend::kDes;
  s.data_parallel = 4;
  return s;
}

ScenarioSpec urban_commute() {
  ScenarioSpec s;
  s.name = "urban_commute";
  s.description =
      "60 commuters on an OpenCity-style grid city: west-side homes, "
      "east-side office districts, origin-destination flows with "
      "synchronized rush hours (morning-rush replay)";
  s.map = MapKind::kUrbanGrid;
  s.homes = 18;
  s.districts = 9;
  s.agents = 60;
  s.profile = "commuter";
  s.window_begin = kRushBegin;
  s.window_end = kRushEnd;
  s.backend = Backend::kDes;
  s.data_parallel = 8;
  return s;
}

ScenarioSpec sparse_ville() {
  ScenarioSpec s;
  s.name = "sparse_ville";
  s.description =
      "12 hermits who never leave home or converse, perception radius 1: "
      "the near-zero-coupling workload where out-of-order execution "
      "should approach the no-dependency resource bound";
  s.map = MapKind::kSmallville;
  s.homes = 25;
  s.agents = 12;
  s.profile = "hermit";
  s.radius_p = 1.0;
  s.calls_scale = 0.4;
  s.window_begin = kBusyBegin;
  s.window_end = kBusyEnd;
  s.backend = Backend::kDes;
  s.data_parallel = 4;
  return s;
}

ScenarioSpec scaling_ville(std::int32_t n_segments) {
  ScenarioSpec s;
  s.name = strformat("scaling_ville%d", n_segments);
  s.description = strformat(
      "The paper's #4.3 scaling construction: %d SmallVilles concatenated "
      "side by side (%d agents), busy-hour replay on 8x L4",
      n_segments, n_segments * 25);
  s.map = MapKind::kSmallville;
  s.homes = 25;
  s.segments = n_segments;
  s.agents = 25 * n_segments;
  s.profile = "townsfolk";
  s.window_begin = kBusyBegin;
  s.window_end = kBusyEnd;
  s.backend = Backend::kDes;
  s.data_parallel = 8;
  return s;
}

// The default heterogeneous mix: mostly townsfolk, a socialite core that
// couples the evenings, commuters that synchronize the rush hours, and a
// few hermits that decouple entirely.
constexpr const char* kDefaultMix =
    "townsfolk:0.6,socialite:0.2,commuter:0.15,hermit:0.05";

ScenarioSpec mixed_ville(std::int32_t n_agents) {
  ScenarioSpec s;
  s.name = strformat("mixed_ville%d", n_agents);
  s.description = strformat(
      "%d agents drawn from a fixed population mix "
      "(townsfolk/socialite/commuter/hermit) on the urban grid: "
      "heterogeneous diurnal curves and coupling in one town "
      "(busy-hour replay)",
      n_agents);
  s.map = MapKind::kUrbanGrid;
  s.homes = 18;
  s.districts = 9;
  s.agents = n_agents;
  s.population = kDefaultMix;
  s.window_begin = kBusyBegin;
  s.window_end = kBusyEnd;
  s.backend = Backend::kDes;
  s.data_parallel = 4;
  return s;
}

ScenarioSpec metro_ville(std::int32_t n_agents) {
  ScenarioSpec s;
  s.name = strformat("metro_ville%d", n_agents);
  s.description = strformat(
      "Production-scale stress of the dependency core: %d townsfolk on %d "
      "concatenated SmallVilles, 10-minute busy-window replay on 8x L4 "
      "(N in [100, 100000]; exercises the sharded spatial-index "
      "scoreboard)",
      n_agents, (n_agents + 24) / 25);
  s.map = MapKind::kSmallville;
  s.homes = 25;
  // The paper's scaling construction taken to production scale: one
  // 25-agent SmallVille segment per 25 agents, remainder spread by the
  // generic segment split.
  s.segments = (n_agents + 24) / 25;
  s.agents = n_agents;
  s.profile = "townsfolk";
  // Keep the biggest members CI-tractable: the family headlines commit
  // throughput, not serving calibration.
  s.calls_scale = 0.25;
  s.window_begin = kBusyBegin;
  s.window_end = kBusyBegin + 60;
  s.backend = Backend::kDes;
  s.data_parallel = 8;
  return s;
}

ScenarioSpec skewed_ville(std::int32_t n_agents) {
  ScenarioSpec s;
  s.name = strformat("skewed_ville%d", n_agents);
  s.description = strformat(
      "Hotspot stress for the sharded board: %d townsfolk packed "
      "geometrically toward the west segments (segment_skew 0.3) on %d "
      "concatenated SmallVilles, a two-day episode replayed across the "
      "midnight boundary (N in [100, 100000])",
      n_agents, (n_agents + 24) / 25);
  s.map = MapKind::kSmallville;
  s.homes = 25;
  s.segments = (n_agents + 24) / 25;
  // Geometric decay per segment: the west end of the concatenated world
  // carries several times its even share, so equal-width strips leave the
  // east strips idle while the west strip serializes commits.
  s.segment_skew = 0.3;
  s.agents = n_agents;
  s.profile = "townsfolk";
  s.calls_scale = 0.25;
  // Two days with a 40-minute window straddling midnight (day 0 step
  // 8520 .. day 1 step 120): the digest checks cover the day carry-over
  // on both sides of it.
  s.days = 2;
  s.window_begin = 8520;
  s.window_end = 8760;
  s.backend = Backend::kDes;
  s.data_parallel = 8;
  return s;
}

ScenarioSpec social_net(std::int32_t n_agents) {
  ScenarioSpec s;
  s.name = strformat("social_net%d", n_agents);
  s.description = strformat(
      "Graph-native social world: %d agents roaming a %d-node Newman-Watts "
      "small-world follower graph, hop-distance dependency rules, "
      "10-minute busy-window replay (N in [10, 10000]; exercises the "
      "graph neighbor index)",
      n_agents, 20 * n_agents);
  s.world = WorldKind::kGraph;
  // ~1 agent per 20 nodes: a 3-hop coupling ball on a degree-4 small-world
  // graph covers ~16 nodes, so the expected coupled-partner count sits
  // just under the percolation threshold — sparse clusters at noon,
  // hub-crowd clusters in the social hours, never one giant component.
  s.graph_nodes = 20 * n_agents;
  s.graph_degree = 4;
  s.graph_rewire = 0.1;
  s.agents = n_agents;
  s.profile = "townsfolk";
  // Two hops of perception on a degree-4 small-world graph couples a few
  // dozen nodes — the graph analogue of SmallVille's radius-4 tiles.
  s.radius_p = 2.0;
  s.max_vel = 1.0;
  s.calls_scale = 0.25;
  s.window_begin = kBusyBegin;
  s.window_end = kBusyBegin + 60;
  s.backend = Backend::kDes;
  s.data_parallel = 8;
  return s;
}

ScenarioSpec metropolis_week() {
  ScenarioSpec s;
  s.name = "metropolis_week";
  s.description =
      "A 7-day mixed-population episode on the urban grid: 20 agents drawn "
      "from the default mix, day episodes chained with cross-day "
      "carry-over — measures out-of-order slack across day boundaries "
      "(per-day rows in the report)";
  s.map = MapKind::kUrbanGrid;
  s.homes = 18;
  s.districts = 9;
  s.agents = 20;
  s.population = kDefaultMix;
  s.days = 7;
  // A full traced week is 7x the calibrated day; scale the per-day call
  // target down so the week stays tractable on both backends.
  s.calls_scale = 0.25;
  s.backend = Backend::kDes;
  s.data_parallel = 4;
  return s;
}

ScenarioSpec quickstart_arena() {
  ScenarioSpec s;
  s.name = "quickstart_arena";
  s.description =
      "10 live LLM-driven wanderers on a 40x40 arena, run on the threaded "
      "engine: verifies out-of-order execution reproduces the lock-step "
      "world exactly";
  s.map = MapKind::kArena;
  s.map_width = 40;
  s.map_height = 40;
  s.agents = 10;
  s.steps_per_day = 120;  // target steps for the live run
  s.backend = Backend::kEngine;
  s.workers = 4;
  s.call_latency_us = 300;
  return s;
}

}  // namespace

namespace {

/// Parse the integer suffix of a parameterized family name; nullopt when
/// the suffix is not a clean integer in [lo, hi].
std::optional<std::int32_t> family_param(const std::string& name,
                                         const std::string& prefix,
                                         std::int32_t lo, std::int32_t hi) {
  const std::string suffix = name.substr(prefix.size());
  std::int32_t n = 0;
  const auto [ptr, ec] =
      std::from_chars(suffix.data(), suffix.data() + suffix.size(), n);
  if (ec == std::errc{} && ptr == suffix.data() + suffix.size() && n >= lo &&
      n <= hi) {
    return n;
  }
  return std::nullopt;
}

}  // namespace

std::vector<RegistryEntry> registry_entries() {
  std::vector<RegistryEntry> out;
  for (const ScenarioSpec& s :
       {smallville_day(), social_hub(), urban_commute(), sparse_ville(),
        scaling_ville(4), mixed_ville(40), metro_ville(1000),
        metro_ville(100000), skewed_ville(10000), social_net(1000),
        metropolis_week(),
        quickstart_arena()}) {
    out.push_back(RegistryEntry{s.name, s.description});
  }
  return out;
}

std::optional<ScenarioSpec> find_scenario(const std::string& name,
                                          std::string* error) {
  if (name == "smallville_day") return smallville_day();
  if (name == "social_hub") return social_hub();
  if (name == "urban_commute") return urban_commute();
  if (name == "sparse_ville") return sparse_ville();
  if (name == "metropolis_week") return metropolis_week();
  if (name == "quickstart_arena") return quickstart_arena();
  constexpr const char* kScalingPrefix = "scaling_ville";
  if (name.rfind(kScalingPrefix, 0) == 0) {
    if (const auto n = family_param(name, kScalingPrefix, 1, 64)) {
      return scaling_ville(*n);
    }
    if (error != nullptr) {
      *error = strformat(
          "scaling_ville<N> takes N in [1, 64]; '%s' does not parse",
          name.c_str());
    }
    return std::nullopt;
  }
  constexpr const char* kMetroPrefix = "metro_ville";
  if (name.rfind(kMetroPrefix, 0) == 0) {
    if (const auto n = family_param(name, kMetroPrefix, 100, 100000)) {
      return metro_ville(*n);
    }
    if (error != nullptr) {
      *error = strformat(
          "metro_ville<N> takes N in [100, 100000]; '%s' does not parse",
          name.c_str());
    }
    return std::nullopt;
  }
  constexpr const char* kSkewedPrefix = "skewed_ville";
  if (name.rfind(kSkewedPrefix, 0) == 0) {
    if (const auto n = family_param(name, kSkewedPrefix, 100, 100000)) {
      return skewed_ville(*n);
    }
    if (error != nullptr) {
      *error = strformat(
          "skewed_ville<N> takes N in [100, 100000]; '%s' does not parse",
          name.c_str());
    }
    return std::nullopt;
  }
  constexpr const char* kSocialPrefix = "social_net";
  if (name.rfind(kSocialPrefix, 0) == 0) {
    if (const auto n = family_param(name, kSocialPrefix, 10, 10000)) {
      return social_net(*n);
    }
    if (error != nullptr) {
      *error = strformat(
          "social_net<N> takes N in [10, 10000]; '%s' does not parse",
          name.c_str());
    }
    return std::nullopt;
  }
  constexpr const char* kMixedPrefix = "mixed_ville";
  if (name.rfind(kMixedPrefix, 0) == 0) {
    if (const auto n = family_param(name, kMixedPrefix, 4, 400)) {
      return mixed_ville(*n);
    }
    if (error != nullptr) {
      *error = strformat(
          "mixed_ville<N> takes N in [4, 400]; '%s' does not parse",
          name.c_str());
    }
    return std::nullopt;
  }
  if (error != nullptr) {
    std::vector<std::string> names;
    for (const auto& entry : registry_entries()) names.push_back(entry.name);
    *error = strformat("unknown scenario '%s' (known: %s)", name.c_str(),
                       join(names, ", ").c_str());
  }
  return std::nullopt;
}

}  // namespace aimetro::scenario
