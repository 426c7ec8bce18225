#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "llm/specs.h"
#include "runtime/task_pool.h"
#include "scenario/driver.h"
#include "scenario/registry.h"
#include "scenario/spec.h"
#include "trace/behavior.h"
#include "trace/generator.h"
#include "world/grid_map.h"

namespace aimetro::scenario {
namespace {

// ---- Spec text round trips ----

TEST(SpecParse, DefaultSpecRoundTrips) {
  const ScenarioSpec spec;
  const auto parsed = parse_spec_text(spec.to_text());
  ASSERT_TRUE(parsed) << parsed.error;
  EXPECT_EQ(*parsed.spec, spec);
}

TEST(SpecParse, EveryRegistryEntryRoundTrips) {
  for (const auto& entry : registry_entries()) {
    std::string error;
    const auto spec = find_scenario(entry.name, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    const auto parsed = parse_spec_text(spec->to_text());
    ASSERT_TRUE(parsed) << entry.name << ": " << parsed.error;
    EXPECT_EQ(*parsed.spec, *spec) << entry.name;
  }
}

TEST(SpecParse, CommentsAndBlankLinesIgnored) {
  const auto parsed = parse_spec_text(
      "# a comment\n"
      "\n"
      "agents = 50\n"
      "   seed=7   \n");
  ASSERT_TRUE(parsed) << parsed.error;
  EXPECT_EQ(parsed.spec->agents, 50);
  EXPECT_EQ(parsed.spec->seed, 7u);
}

TEST(SpecParse, ParsesOnTopOfABaseSpec) {
  std::string error;
  const auto base = find_scenario("smallville_day", &error);
  ASSERT_TRUE(base.has_value());
  const auto parsed = parse_spec_text("agents = 75\nsegments = 3\n", *base);
  ASSERT_TRUE(parsed) << parsed.error;
  EXPECT_EQ(parsed.spec->agents, 75);
  EXPECT_EQ(parsed.spec->segments, 3);
  EXPECT_EQ(parsed.spec->window_begin, base->window_begin);  // inherited
}

TEST(SpecParse, ParsesFromFile) {
  const std::string path = ::testing::TempDir() + "aimetro_spec_test.spec";
  {
    std::ofstream out(path);
    out << "# custom\nagents = 30\nbackend = engine\n";
  }
  const auto parsed = parse_spec_file(path);
  ASSERT_TRUE(parsed) << parsed.error;
  EXPECT_EQ(parsed.spec->agents, 30);
  EXPECT_EQ(parsed.spec->backend, Backend::kEngine);

  const auto missing = parse_spec_file("/nonexistent/aimetro.spec");
  EXPECT_FALSE(missing);
  EXPECT_NE(missing.error.find("cannot open"), std::string::npos);
}

// ---- Malformed input rejection ----

TEST(SpecParse, RejectsUnknownKey) {
  const auto parsed = parse_spec_text("no_such_key = 3\n");
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.error.find("unknown key"), std::string::npos);
  EXPECT_NE(parsed.error.find("no_such_key"), std::string::npos);
}

TEST(SpecParse, UnknownKeySuggestsTheNearestValidKey) {
  // Typos fail hard AND point at the intended key.
  const auto parsed = parse_spec_text("windw_begin = 4320\n");
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.error.find("did you mean 'window_begin'?"),
            std::string::npos);

  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(apply_override(&spec, "agnets=50", &error));
  EXPECT_NE(error.find("did you mean 'agents'?"), std::string::npos);
  EXPECT_FALSE(apply_override(&spec, "popluation=hermit:1", &error));
  EXPECT_NE(error.find("did you mean 'population'?"), std::string::npos);
}

TEST(SpecParse, EveryKeyIsSettableAndRoundTrips) {
  // spec_key_names() is the authoritative key list: every key must accept
  // its own rendered default back through apply_override.
  const ScenarioSpec defaults;
  const std::string text = defaults.to_text();
  for (const std::string& key : spec_key_names()) {
    EXPECT_NE(text.find("\n" + key + " = "), std::string::npos)
        << "to_text() does not render '" << key << "'";
  }
  const auto parsed = parse_spec_text(text);
  ASSERT_TRUE(parsed) << parsed.error;
  EXPECT_EQ(*parsed.spec, defaults);
}

TEST(SpecDocs, EverySpecKeyIsDocumented) {
  // docs/SCENARIO_SPEC.md is the exhaustive key reference; a key added to
  // the field table without a docs row fails here, not in review.
  std::ifstream docs(std::string(AIMETRO_SOURCE_DIR) +
                     "/docs/SCENARIO_SPEC.md");
  ASSERT_TRUE(docs.good()) << "docs/SCENARIO_SPEC.md missing";
  std::stringstream buffer;
  buffer << docs.rdbuf();
  const std::string text = buffer.str();
  for (const std::string& key : spec_key_names()) {
    EXPECT_NE(text.find("`" + key + "`"), std::string::npos)
        << "spec key '" << key << "' is not documented in SCENARIO_SPEC.md";
  }
}

TEST(SpecParse, DaysAndPopulationRoundTrip) {
  const auto parsed = parse_spec_text(
      "days = 7\n"
      "population = townsfolk:0.6,socialite:0.2,commuter:0.15,hermit:0.05\n");
  ASSERT_TRUE(parsed) << parsed.error;
  EXPECT_EQ(parsed.spec->days, 7);
  EXPECT_EQ(parsed.spec->population,
            "townsfolk:0.6,socialite:0.2,commuter:0.15,hermit:0.05");
  EXPECT_EQ(parsed.spec->episode_steps(), 7 * 8640);
  const auto reparsed = parse_spec_text(parsed.spec->to_text());
  ASSERT_TRUE(reparsed) << reparsed.error;
  EXPECT_EQ(*reparsed.spec, *parsed.spec);
}

TEST(SpecParse, RejectsMissingEquals) {
  const auto parsed = parse_spec_text("agents 25\n");
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.error.find("key=value"), std::string::npos);
}

TEST(SpecParse, RejectsNonNumericInt) {
  const auto parsed = parse_spec_text("agents = many\n");
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.error.find("invalid value"), std::string::npos);
}

TEST(SpecParse, RejectsTrailingGarbageOnNumbers) {
  EXPECT_FALSE(parse_spec_text("agents = 25x\n"));
  EXPECT_FALSE(parse_spec_text("radius_p = 4.0.1\n"));
  EXPECT_FALSE(parse_spec_text("seed = -1\n"));  // seed is unsigned
}

TEST(SpecParse, RejectsNonFiniteFloats) {
  // from_chars parses these spellings; no double key may take them.
  const char* const double_keys[] = {
      "graph_rewire", "segment_skew", "conversation_scale", "calls_scale",
      "radius_p",     "max_vel",      "time_scale"};
  for (const char* key : double_keys) {
    for (const char* value : {"nan", "inf", "-inf", "infinity"}) {
      const std::string text = std::string(key) + " = " + value + "\n";
      const auto parsed = parse_spec_text(text);
      ASSERT_FALSE(parsed) << text;
      EXPECT_NE(parsed.error.find("invalid value"), std::string::npos)
          << text << parsed.error;
    }
  }
}

TEST(SpecParse, RejectsUnknownEnumValues) {
  EXPECT_FALSE(parse_spec_text("backend = quantum\n"));
  EXPECT_FALSE(parse_spec_text("map = moonbase\n"));
}

TEST(SpecParse, ReportsLineNumbers) {
  const auto parsed = parse_spec_text("agents = 10\nbogus = 1\n");
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.error.find("line 2"), std::string::npos);
}

TEST(ApplyOverride, SetsAndRejects) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_TRUE(apply_override(&spec, "workers=9", &error));
  EXPECT_EQ(spec.workers, 9);
  EXPECT_FALSE(apply_override(&spec, "workers=fast", &error));
  EXPECT_FALSE(apply_override(&spec, "nonsense", &error));
}

// ---- Semantic validation ----

TEST(SpecValidate, RegistryEntriesAreValid) {
  for (const auto& entry : registry_entries()) {
    std::string error;
    const auto spec = find_scenario(entry.name, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(validate_spec(*spec), "") << entry.name;
  }
}

TEST(SpecValidate, CatchesStructuralErrors) {
  ScenarioSpec spec;
  spec.agents = 10;
  spec.segments = 3;  // not divisible: fine, the remainder is distributed
  EXPECT_EQ(validate_spec(spec), "");
  spec.agents = 2;
  spec.segments = 3;  // a segment would be empty
  EXPECT_NE(validate_spec(spec), "");

  spec = ScenarioSpec{};
  spec.window_begin = 100;
  spec.window_end = 50;
  EXPECT_NE(validate_spec(spec), "");

  spec = ScenarioSpec{};
  spec.map = MapKind::kArena;
  spec.backend = Backend::kDes;  // arena maps need the live engine
  EXPECT_NE(validate_spec(spec), "");

  spec = ScenarioSpec{};
  spec.profile = "warlock";
  const std::string err = validate_spec(spec);
  EXPECT_NE(err.find("unknown behavior profile"), std::string::npos);
  EXPECT_NE(err.find("townsfolk"), std::string::npos);  // lists knowns

  // Trace-bearing maps run the generator's 360-steps-per-hour day; any
  // other length would put calls outside the trace's window.
  for (const std::int32_t steps : {8000, 9000}) {
    spec = ScenarioSpec{};
    spec.steps_per_day = steps;
    EXPECT_NE(validate_spec(spec).find("8640"), std::string::npos) << steps;
  }
  spec = ScenarioSpec{};
  spec.world = WorldKind::kGraph;
  spec.graph_nodes = 200;
  spec.steps_per_day = 8000;
  EXPECT_NE(validate_spec(spec).find("8640"), std::string::npos);
  // Arena maps take any positive step count: it is the live run's target.
  spec = ScenarioSpec{};
  spec.map = MapKind::kArena;
  spec.backend = Backend::kEngine;
  spec.steps_per_day = 20;
  EXPECT_EQ(validate_spec(spec), "");
}

TEST(SpecValidate, PoolWorkersValidatesAndDerives) {
  ScenarioSpec spec;
  EXPECT_EQ(validate_spec(spec), "");
  // 0 (the default) derives from `workers`.
  EXPECT_EQ(spec.pool_workers, 0);
  EXPECT_EQ(spec.resolved_pool_workers(),
            runtime::derive_pool_workers(spec.workers));
  spec.workers = 3;
  EXPECT_EQ(spec.resolved_pool_workers(), 6);
  spec.pool_workers = 5;  // explicit values win
  EXPECT_EQ(spec.resolved_pool_workers(), 5);
  EXPECT_EQ(validate_spec(spec), "");
  spec.pool_workers = -1;
  EXPECT_NE(validate_spec(spec), "");

  // The key parses, round-trips, and typos suggest it.
  const auto parsed = parse_spec_text("pool_workers = 12\n");
  ASSERT_TRUE(parsed) << parsed.error;
  EXPECT_EQ(parsed.spec->pool_workers, 12);
  ScenarioSpec target;
  std::string error;
  EXPECT_FALSE(apply_override(&target, "pool_worker=4", &error));
  EXPECT_NE(error.find("did you mean 'pool_workers'?"), std::string::npos);
}

TEST(SpecValidate, DaysAndPopulation) {
  ScenarioSpec spec;
  spec.days = 0;
  EXPECT_NE(validate_spec(spec), "");
  spec.days = 65;
  EXPECT_NE(validate_spec(spec), "");
  spec.days = 7;
  EXPECT_EQ(validate_spec(spec), "");

  // Windows may span day boundaries but not the episode's end.
  spec.window_begin = 8400;
  spec.window_end = 9000;  // crosses midnight into day 2
  EXPECT_EQ(validate_spec(spec), "");
  spec.days = 1;
  EXPECT_NE(validate_spec(spec), "");  // now past the single day's end

  spec = ScenarioSpec{};
  spec.population = "townsfolk:0.5,hermit:0.5";
  EXPECT_EQ(validate_spec(spec), "");
  spec.population = "warlock:1.0";
  EXPECT_NE(validate_spec(spec).find("unknown behavior profile"),
            std::string::npos);
  spec.population = "townsfolk:0";
  EXPECT_NE(validate_spec(spec), "");
  spec.population = "townsfolk:0.5,townsfolk:0.5";
  EXPECT_NE(validate_spec(spec).find("duplicate"), std::string::npos);
  spec.population = "townsfolk";
  EXPECT_NE(validate_spec(spec).find("name:weight"), std::string::npos);

  // Gym agents have no profiles: population on an arena map would be
  // silently ignored, so it is rejected instead.
  spec = ScenarioSpec{};
  spec.map = MapKind::kArena;
  spec.backend = Backend::kEngine;
  spec.population = "townsfolk:1";
  EXPECT_NE(validate_spec(spec).find("population"), std::string::npos);
}

TEST(PopulationMix, ParsesNormalizesAndRejects) {
  std::string error;
  const auto mix = trace::PopulationMix::parse(
      " townsfolk : 3 , hermit:1 ", &error);
  ASSERT_TRUE(mix.has_value()) << error;
  EXPECT_EQ(mix->profiles, (std::vector<std::string>{"townsfolk", "hermit"}));
  EXPECT_EQ(mix->weights, (std::vector<double>{3.0, 1.0}));
  // to_text round-trips through parse.
  const auto again = trace::PopulationMix::parse(mix->to_text(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->profiles, mix->profiles);

  EXPECT_FALSE(trace::PopulationMix::parse("", &error).has_value());
  EXPECT_FALSE(trace::PopulationMix::parse("townsfolk:1,", &error).has_value());
  EXPECT_FALSE(trace::PopulationMix::parse("townsfolk:-1", &error).has_value());
  EXPECT_FALSE(trace::PopulationMix::parse("townsfolk:abc", &error).has_value());
}

TEST(PopulationMix, AssignmentIsDeterministicAndExact) {
  std::string error;
  const auto mix = trace::PopulationMix::parse(
      "townsfolk:0.6,socialite:0.2,commuter:0.15,hermit:0.05", &error);
  ASSERT_TRUE(mix.has_value()) << error;

  const auto a = trace::assign_profiles(*mix, 20, 42);
  const auto b = trace::assign_profiles(*mix, 20, 42);
  EXPECT_EQ(a, b);  // same (mix, n, seed) -> same assignment, always

  // Largest-remainder quotas: the realized mix is exact, not sampled.
  auto count = [&](const std::vector<std::string>& v, const char* name) {
    return std::count(v.begin(), v.end(), name);
  };
  EXPECT_EQ(count(a, "townsfolk"), 12);
  EXPECT_EQ(count(a, "socialite"), 4);
  EXPECT_EQ(count(a, "commuter"), 3);
  EXPECT_EQ(count(a, "hermit"), 1);

  // A different seed interleaves differently but keeps the same counts.
  const auto c = trace::assign_profiles(*mix, 20, 7);
  EXPECT_NE(a, c);
  EXPECT_EQ(count(c, "townsfolk"), 12);
  EXPECT_EQ(count(c, "hermit"), 1);
}

TEST(SpecValidate, UnknownModelAndGpuAreErrorsNotDefaults) {
  ScenarioSpec spec;
  spec.model = "gpt-17";
  std::string err = validate_spec(spec);
  EXPECT_NE(err.find("unknown model 'gpt-17'"), std::string::npos);
  EXPECT_NE(err.find("llama-3-8b-instruct"), std::string::npos);

  spec = ScenarioSpec{};
  spec.gpu = "tpu-v9";
  err = validate_spec(spec);
  EXPECT_NE(err.find("unknown GPU 'tpu-v9'"), std::string::npos);
  EXPECT_NE(err.find("NVIDIA L4"), std::string::npos);
}

TEST(LlmSpecs, NameResolutionAndAliases) {
  ASSERT_TRUE(llm::find_model("llama-3-8b-instruct").has_value());
  EXPECT_EQ(llm::find_model("Llama_3 8B Instruct")->name,
            "llama-3-8b-instruct");
  EXPECT_EQ(llm::find_model("70b")->name, "llama-3-70b-instruct");
  EXPECT_EQ(llm::find_model("mixtral")->name, "mixtral-8x7b-instruct-v0.1");
  EXPECT_FALSE(llm::find_model("claude").has_value());
  EXPECT_EQ(llm::find_gpu("a100")->name, "NVIDIA A100-80GB");
  EXPECT_EQ(llm::find_gpu("L4")->name, "NVIDIA L4");
  EXPECT_FALSE(llm::find_gpu("h100").has_value());
  EXPECT_FALSE(llm::known_model_names().empty());
  EXPECT_FALSE(llm::known_gpu_names().empty());
}

// ---- Registry ----

TEST(Registry, HasAtLeastFiveScenariosWithUniqueNames) {
  const auto entries = registry_entries();
  EXPECT_GE(entries.size(), 5u);
  std::set<std::string> names;
  for (const auto& e : entries) {
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate " << e.name;
    EXPECT_FALSE(e.summary.empty()) << e.name;
  }
}

TEST(Registry, ScalingVilleIsParameterized) {
  std::string error;
  const auto s3 = find_scenario("scaling_ville3", &error);
  ASSERT_TRUE(s3.has_value()) << error;
  EXPECT_EQ(s3->segments, 3);
  EXPECT_EQ(s3->agents, 75);
  EXPECT_EQ(validate_spec(*s3), "");

  EXPECT_FALSE(find_scenario("scaling_ville0", &error).has_value());
  EXPECT_FALSE(find_scenario("scaling_villeXL", &error).has_value());
}

TEST(Registry, MixedVilleIsParameterized) {
  std::string error;
  const auto m12 = find_scenario("mixed_ville12", &error);
  ASSERT_TRUE(m12.has_value()) << error;
  EXPECT_EQ(m12->agents, 12);
  EXPECT_FALSE(m12->population.empty());
  EXPECT_EQ(validate_spec(*m12), "");

  EXPECT_FALSE(find_scenario("mixed_ville3", &error).has_value());
  EXPECT_FALSE(find_scenario("mixed_ville9000", &error).has_value());
  EXPECT_FALSE(find_scenario("mixed_villeXL", &error).has_value());
}

TEST(Registry, MetroVilleIsParameterizedToOneHundredThousand) {
  std::string error;
  const auto m100 = find_scenario("metro_ville100", &error);
  ASSERT_TRUE(m100.has_value()) << error;
  EXPECT_EQ(m100->agents, 100);
  EXPECT_EQ(m100->segments, 4);
  EXPECT_EQ(validate_spec(*m100), "");
  // Small members stay unsharded under the auto partition.
  EXPECT_EQ(m100->resolved_shards(), 1);

  const auto m100k = find_scenario("metro_ville100000", &error);
  ASSERT_TRUE(m100k.has_value()) << error;
  EXPECT_EQ(m100k->agents, 100000);
  EXPECT_EQ(m100k->segments, 4000);
  EXPECT_EQ(validate_spec(*m100k), "");
  EXPECT_EQ(m100k->resolved_shards(), 40);

  // Non-multiples of 25 ride the generic remainder split.
  const auto m1013 = find_scenario("metro_ville1013", &error);
  ASSERT_TRUE(m1013.has_value()) << error;
  EXPECT_EQ(m1013->segments, 41);
  EXPECT_EQ(validate_spec(*m1013), "");

  EXPECT_FALSE(find_scenario("metro_ville99", &error).has_value());
  EXPECT_FALSE(find_scenario("metro_ville100001", &error).has_value());
  EXPECT_FALSE(find_scenario("metro_villeXXL", &error).has_value());
}

TEST(Registry, SkewedVilleIsAHotspotReshardEpisode) {
  std::string error;
  const auto s1k = find_scenario("skewed_ville1000", &error);
  ASSERT_TRUE(s1k.has_value()) << error;
  EXPECT_EQ(s1k->agents, 1000);
  EXPECT_EQ(s1k->segments, 40);
  EXPECT_DOUBLE_EQ(s1k->segment_skew, 0.3);
  EXPECT_EQ(s1k->partition, PartitionChoice::kPopulation);
  EXPECT_EQ(s1k->reshard, ReshardMode::kEpisode);
  EXPECT_EQ(validate_spec(*s1k), "");
  // The replay window must straddle the day-0/day-1 midnight so the
  // episode reshard has a boundary to fire at.
  EXPECT_EQ(s1k->days, 2);
  EXPECT_LT(s1k->window_begin, s1k->steps_per_day);
  EXPECT_GT(s1k->window_end, s1k->steps_per_day);
  EXPECT_LE(s1k->window_end, s1k->episode_steps());

  EXPECT_FALSE(find_scenario("skewed_ville99", &error).has_value());
  EXPECT_FALSE(find_scenario("skewed_ville100001", &error).has_value());
  EXPECT_FALSE(find_scenario("skewed_villeXL", &error).has_value());
}

TEST(Registry, MetropolisWeekIsAMultiDayMixedEpisode) {
  std::string error;
  const auto week = find_scenario("metropolis_week", &error);
  ASSERT_TRUE(week.has_value()) << error;
  EXPECT_EQ(week->days, 7);
  EXPECT_FALSE(week->population.empty());
  EXPECT_EQ(validate_spec(*week), "");
  EXPECT_EQ(week->episode_steps(), 7 * week->steps_per_day);
}

TEST(Registry, UnknownNameListsKnownScenarios) {
  std::string error;
  EXPECT_FALSE(find_scenario("metropolis_prime", &error).has_value());
  EXPECT_NE(error.find("unknown scenario"), std::string::npos);
  EXPECT_NE(error.find("smallville_day"), std::string::npos);
}

// ---- Behavior profiles & map builders ----

TEST(BehaviorProfiles, AllNamesResolve) {
  for (const auto& name : trace::BehaviorProfile::names()) {
    const auto p = trace::BehaviorProfile::find(name);
    ASSERT_TRUE(p.has_value()) << name;
    EXPECT_EQ(p->name, name);
  }
  EXPECT_FALSE(trace::BehaviorProfile::find("gremlin").has_value());
}

TEST(MapBuilders, PlazaAndUrbanGridHaveTheArenasProfilesNeed) {
  const auto plaza = world::GridMap::plaza(14);
  EXPECT_NE(plaza.arena("home_0"), nullptr);
  EXPECT_NE(plaza.arena("plaza"), nullptr);
  EXPECT_NE(plaza.arena("cafe"), nullptr);

  const auto city = world::GridMap::urban_grid(9, 18);
  EXPECT_NE(city.arena("home_17"), nullptr);
  EXPECT_NE(city.arena("office_8"), nullptr);
  EXPECT_NE(city.arena("cafe"), nullptr);
  EXPECT_NE(city.arena("park"), nullptr);
}

TEST(BehaviorProfiles, ProfilesShapeTheWorkload) {
  // Socialites on the plaza converse heavily; hermits never do.
  trace::GeneratorConfig cfg;
  cfg.n_agents = 12;
  cfg.seed = 5;
  cfg.target_calls_per_25_agents = 8000.0;  // keep the test fast

  cfg.profile = trace::BehaviorProfile::socialite();
  const auto social =
      trace::generate(world::GridMap::plaza(12), cfg);
  EXPECT_GT(social.interactions.size(), 0u);

  cfg.profile = trace::BehaviorProfile::hermit();
  const auto hermit =
      trace::generate(world::GridMap::smallville(12), cfg);
  EXPECT_EQ(hermit.interactions.size(), 0u);

  // Commuters follow the double-peak diurnal curve: the morning rush
  // (7-9am) carries far more calls than the mid-afternoon lull (2-4pm).
  cfg.profile = trace::BehaviorProfile::commuter();
  const auto commute =
      trace::generate(world::GridMap::urban_grid(6, 12), cfg);
  auto calls_between = [&](Step begin, Step end) {
    std::size_t n = 0;
    for (const auto& agent : commute.agents) {
      for (const auto& call : agent.calls) {
        if (call.step >= begin && call.step < end) ++n;
      }
    }
    return n;
  };
  EXPECT_GT(calls_between(7 * 360, 9 * 360), calls_between(14 * 360, 16 * 360));
}

// ---- Multi-day episodes ----

namespace {

/// Structural equality of two traces (schema has no operator== on purpose;
/// tests want the members spelled out for useful failure messages).
void expect_traces_identical(const trace::SimulationTrace& a,
                             const trace::SimulationTrace& b) {
  ASSERT_EQ(a.n_agents, b.n_agents);
  ASSERT_EQ(a.n_steps, b.n_steps);
  ASSERT_EQ(a.start_step, b.start_step);
  ASSERT_EQ(a.agents.size(), b.agents.size());
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    EXPECT_EQ(a.agents[i].positions, b.agents[i].positions) << "agent " << i;
    EXPECT_EQ(a.agents[i].calls, b.agents[i].calls) << "agent " << i;
  }
  EXPECT_EQ(a.interactions, b.interactions);
}

}  // namespace

TEST(MultiDay, OneDayReducesExactlyToTheSingleDayTrace) {
  // days = 1 must be byte-identical to the historical single-day
  // generator — multi-day plumbing cannot perturb existing workloads.
  const auto map = world::GridMap::smallville(8);
  trace::GeneratorConfig cfg;
  cfg.n_agents = 6;
  cfg.seed = 11;
  cfg.target_calls_per_25_agents = 6000.0;  // keep the test fast
  cfg.days = 1;
  expect_traces_identical(trace::generate_episode(map, cfg),
                          trace::generate(map, cfg));
}

TEST(MultiDay, EpisodeChainsDaysWithCarryOverAndFreshRandomness) {
  const auto map = world::GridMap::urban_grid(6, 12);
  trace::GeneratorConfig cfg;
  cfg.n_agents = 6;
  cfg.seed = 3;
  cfg.target_calls_per_25_agents = 5000.0;
  cfg.days = 3;
  const auto episode = trace::generate_episode(map, cfg);
  EXPECT_EQ(episode.n_steps, 3 * cfg.steps_per_day);
  EXPECT_EQ(episode.start_step, 0);

  std::set<std::int32_t> conv_ids_day1, conv_ids_later;
  for (const auto& agent : episode.agents) {
    ASSERT_EQ(agent.positions.size(),
              static_cast<std::size_t>(episode.n_steps) + 1);
    // Calls land in every day of the episode.
    bool day1 = false, day2 = false, day3 = false;
    for (const auto& call : agent.calls) {
      const std::int32_t d = call.step / cfg.steps_per_day;
      day1 |= d == 0;
      day2 |= d == 1;
      day3 |= d == 2;
      if (call.conversation_id >= 0) {
        (d == 0 ? conv_ids_day1 : conv_ids_later).insert(call.conversation_id);
        // Renumbered ids keep the hash convention.
        EXPECT_EQ(call.prompt_hash,
                  trace::conversation_prompt_hash(call.conversation_id));
      }
    }
    EXPECT_TRUE(day1 && day2 && day3) << "agent " << agent.agent;
  }
  // Conversation identities never straddle days (no phantom cache hits).
  for (std::int32_t id : conv_ids_later) {
    EXPECT_EQ(conv_ids_day1.count(id), 0u);
  }

  // Fresh per-day randomness: day 2's call pattern differs from day 1's.
  auto day_steps = [&](std::int32_t day) {
    std::vector<Step> steps;
    for (const auto& agent : episode.agents) {
      for (const auto& call : agent.calls) {
        const std::int32_t d = call.step / cfg.steps_per_day;
        if (d == day) steps.push_back(call.step - d * cfg.steps_per_day);
      }
    }
    return steps;
  };
  EXPECT_NE(day_steps(0), day_steps(1));
  EXPECT_NE(day_steps(1), day_steps(2));
}

TEST(MultiDay, WindowedDesRunReportsPerDayRows) {
  std::string error;
  auto spec = find_scenario("metropolis_week", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  spec->days = 2;
  spec->agents = 8;
  spec->calls_scale = 0.1;
  // A window straddling midnight: late day 1 through early day 2.
  spec->window_begin = 7200;   // 20:00 day 1
  spec->window_end = 11520;    // 08:00 day 2
  ASSERT_EQ(validate_spec(*spec), "");

  const auto report = ScenarioDriver(*spec).run(/*serial_baseline=*/false);
  ASSERT_EQ(report.day_rows.size(), 2u);
  EXPECT_EQ(report.day_rows[0].day, 0);
  EXPECT_EQ(report.day_rows[1].day, 1);
  std::uint64_t row_calls = 0;
  for (const auto& row : report.day_rows) row_calls += row.calls;
  EXPECT_EQ(row_calls, report.total_calls);
  // Day finishes are ordered and positive under virtual time.
  EXPECT_GT(report.day_rows[0].finish_seconds, 0.0);
  EXPECT_GE(report.day_rows[1].finish_seconds,
            report.day_rows[0].finish_seconds);
  EXPECT_NE(report.summary().find("per-day breakdown"), std::string::npos);
  EXPECT_NE(report.summary().find("population"), std::string::npos);
}

// ---- The cross-backend determinism guarantee ----

TEST(CrossBackend, DesAndEngineAgreeOnASparseSpec) {
  std::string error;
  auto spec = find_scenario("sparse_ville", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  // Small window keeps both runs fast; hermits in disjoint walled homes
  // never conflict, so the engine replays the trace positions exactly.
  spec->agents = 8;
  spec->window_begin = 4320;
  spec->window_end = 4400;
  spec->workers = 4;
  spec->call_latency_us = 100;

  spec->backend = Backend::kDes;
  const auto des = ScenarioDriver(*spec).run();

  spec->backend = Backend::kEngine;
  const auto engine = ScenarioDriver(*spec).run();

  EXPECT_EQ(des.agents, engine.agents);
  EXPECT_EQ(des.steps, engine.steps);
  EXPECT_EQ(des.agent_steps, engine.agent_steps);
  EXPECT_EQ(des.agent_steps, 8u * 80u);
  EXPECT_EQ(des.total_calls, engine.total_calls);
  // Final scoreboard state — every agent's (step, position) — agrees.
  EXPECT_EQ(des.scoreboard_digest, engine.scoreboard_digest);
  // And the engine's serial and OOO executions produced identical worlds.
  EXPECT_EQ(engine.world_hash_serial, engine.world_hash_metro);
}

TEST(CrossBackend, MixedPopulationAssignmentAndStateAgree) {
  // A heterogeneous multi-day spec must resolve to the same per-agent
  // profile assignment — and the same final scoreboard state — on both
  // backends (both derive it from (population, agents, seed) alone).
  std::string error;
  auto spec = find_scenario("metropolis_week", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  spec->days = 2;
  spec->agents = 6;
  spec->calls_scale = 0.05;
  spec->window_begin = 8580;  // 23:50 day 1 ...
  spec->window_end = 8700;    // ... 00:10 day 2 (120 steps over midnight)
  spec->workers = 4;
  spec->call_latency_us = 50;
  ASSERT_EQ(validate_spec(*spec), "");

  spec->backend = Backend::kDes;
  const auto des = ScenarioDriver(*spec).run(/*serial_baseline=*/false);

  spec->backend = Backend::kEngine;
  const auto engine = ScenarioDriver(*spec).run(/*serial_baseline=*/false);

  EXPECT_EQ(des.population, engine.population);
  EXPECT_FALSE(des.population.empty());
  EXPECT_EQ(des.agents, engine.agents);
  EXPECT_EQ(des.total_calls, engine.total_calls);
  EXPECT_EQ(des.scoreboard_digest, engine.scoreboard_digest);
  ASSERT_EQ(des.day_rows.size(), 2u);
  ASSERT_EQ(engine.day_rows.size(), 2u);
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(des.day_rows[d].calls, engine.day_rows[d].calls);
    EXPECT_EQ(des.day_rows[d].input_tokens, engine.day_rows[d].input_tokens);
  }
}

TEST(CrossBackend, EngineBackendRunsACoupledScenario) {
  // smallville_day has real coupling and movement conflicts; the engine
  // must still complete every agent-step and keep serial == OOO worlds.
  std::string error;
  auto spec = find_scenario("smallville_day", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  spec->backend = Backend::kEngine;
  spec->agents = 10;
  spec->window_begin = 4320;
  spec->window_end = 4360;  // 40 steps
  spec->call_latency_us = 50;

  const auto report = ScenarioDriver(*spec).run();
  EXPECT_EQ(report.agent_steps, 10u * 40u);
  EXPECT_GT(report.total_calls, 0u);
  EXPECT_EQ(report.world_hash_serial, report.world_hash_metro);
}

TEST(Driver, DesReportHasSchedulerMetrics) {
  std::string error;
  auto spec = find_scenario("smallville_day", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  spec->window_begin = 4320;
  spec->window_end = 4380;  // one simulated minute x 6

  const auto report = ScenarioDriver(*spec).run();
  EXPECT_GT(report.total_calls, 0u);
  EXPECT_GT(report.serial_seconds, 0.0);
  EXPECT_GT(report.sync_seconds, 0.0);
  EXPECT_GT(report.metro_seconds, 0.0);
  EXPECT_GE(report.speedup_vs_serial, 1.0);
  EXPECT_GT(report.mean_cluster_size, 0.0);
  EXPECT_GT(report.clusters_dispatched, 0u);
  EXPECT_FALSE(report.summary().empty());
}

TEST(Driver, InvalidSpecThrowsWithTheValidationMessage) {
  ScenarioSpec spec;
  spec.model = "gpt-17";
  EXPECT_THROW(ScenarioDriver{spec}, CheckError);
}

// ---- Graph-native social worlds ----

TEST(GraphWorld, SpecKeysParseValidateAndSuggest) {
  // The world kind is explicit at parse time; the graph_* knobs parse,
  // round-trip, and validate their ranges.
  const auto parsed = parse_spec_text(
      "world = graph\n"
      "graph_nodes = 60\n"
      "graph_degree = 4\n"
      "graph_rewire = 0.2\n"
      "max_vel = 1\n");
  ASSERT_TRUE(parsed) << parsed.error;
  EXPECT_EQ(parsed.spec->world, WorldKind::kGraph);
  EXPECT_EQ(parsed.spec->graph_nodes, 60);
  EXPECT_EQ(validate_spec(*parsed.spec), "");
  const auto again = parse_spec_text(parsed.spec->to_text());
  ASSERT_TRUE(again) << again.error;
  EXPECT_EQ(*again.spec, *parsed.spec);

  // Unknown world kinds and typo'd keys fail loudly with suggestions.
  EXPECT_FALSE(parse_spec_text("world = torus\n"));
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(apply_override(&spec, "grph_nodes=60", &error));
  EXPECT_NE(error.find("did you mean 'graph_nodes'?"), std::string::npos);

  // Setting graph knobs while world = grid is a spec error that names
  // the fix, not a silently ignored key.
  ASSERT_TRUE(apply_override(&spec, "graph_nodes=60", &error)) << error;
  EXPECT_NE(validate_spec(spec).find("world = graph"), std::string::npos);

  // Range/compatibility validation on graph worlds.
  auto graph_spec = *parsed.spec;
  graph_spec.graph_degree = 3;  // odd
  EXPECT_NE(validate_spec(graph_spec), "");
  graph_spec = *parsed.spec;
  graph_spec.graph_rewire = 1.5;
  EXPECT_NE(validate_spec(graph_spec), "");
  graph_spec = *parsed.spec;
  graph_spec.max_vel = 0.5;  // cannot even cross one edge
  EXPECT_NE(validate_spec(graph_spec), "");
  graph_spec = *parsed.spec;
  graph_spec.segments = 2;  // grid-only construction
  EXPECT_NE(validate_spec(graph_spec), "");
  graph_spec = *parsed.spec;
  graph_spec.days = 2;  // graph generator is single-day
  EXPECT_NE(validate_spec(graph_spec), "");
}

TEST(GraphWorld, SocialNetFamilyIsParameterized) {
  std::string error;
  const auto s10 = find_scenario("social_net10", &error);
  ASSERT_TRUE(s10.has_value()) << error;
  EXPECT_EQ(s10->world, WorldKind::kGraph);
  EXPECT_EQ(s10->agents, 10);
  EXPECT_EQ(s10->graph_nodes, 200);  // ~1 agent per 20 nodes
  EXPECT_EQ(validate_spec(*s10), "");

  const auto s10k = find_scenario("social_net10000", &error);
  ASSERT_TRUE(s10k.has_value()) << error;
  EXPECT_EQ(s10k->agents, 10000);
  EXPECT_EQ(s10k->graph_nodes, 200000);
  EXPECT_EQ(validate_spec(*s10k), "");

  EXPECT_FALSE(find_scenario("social_net9", &error).has_value());
  EXPECT_FALSE(find_scenario("social_net10001", &error).has_value());
  EXPECT_FALSE(find_scenario("social_netXL", &error).has_value());
}

TEST(GraphWorld, CrossBackendDigestsAgreeIndexedAndBrute) {
  // The tentpole guarantee at the scenario level: a graph world reaches
  // the same final scoreboard state on the DES and engine backends, in
  // indexed and brute scan modes — four runs, one digest.
  std::string error;
  auto spec = find_scenario("social_net10", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  spec->window_begin = 4320;
  spec->window_end = 4340;
  spec->call_latency_us = 0;
  ASSERT_EQ(validate_spec(*spec), "");

  std::vector<std::uint64_t> digests;
  std::uint64_t calls = 0;
  for (Backend backend : {Backend::kDes, Backend::kEngine}) {
    for (ScoreboardKind scan :
         {ScoreboardKind::kIndexed, ScoreboardKind::kBrute}) {
      spec->backend = backend;
      spec->scoreboard = scan;
      const auto report = ScenarioDriver(*spec).run(/*serial_baseline=*/false);
      EXPECT_EQ(report.agent_steps, 10u * 20u)
          << backend_name(backend) << "/" << scoreboard_name(scan);
      digests.push_back(report.scoreboard_digest);
      if (calls == 0) calls = report.total_calls;
      EXPECT_EQ(report.total_calls, calls);
    }
  }
  ASSERT_EQ(digests.size(), 4u);
  EXPECT_EQ(digests[0], digests[1]) << "des indexed vs brute";
  EXPECT_EQ(digests[0], digests[2]) << "des vs engine";
  EXPECT_EQ(digests[2], digests[3]) << "engine indexed vs brute";
}

// ---- Scoreboard scan modes ----

TEST(ScanModes, SpecKeyParsesRendersAndRejects) {
  ScenarioSpec spec;
  EXPECT_EQ(spec.scoreboard, ScoreboardKind::kIndexed);
  std::string error;
  ASSERT_TRUE(apply_override(&spec, "scoreboard=brute", &error)) << error;
  EXPECT_EQ(spec.scoreboard, ScoreboardKind::kBrute);
  EXPECT_NE(spec.to_text().find("scoreboard = brute"), std::string::npos);
  EXPECT_FALSE(apply_override(&spec, "scoreboard=quadtree", &error));
  EXPECT_EQ(validate_spec(spec), "");
}

// The registry-wide sweeps below are value-parameterized by scenario (and
// the midnight check by backend), so ctest runs each case as its own test
// and `ctest -j` spreads them across cores.

/// Registry scenario names; trace-bearing ones only without `arena`.
std::vector<std::string> registry_names(bool arena) {
  std::vector<std::string> names;
  for (const auto& entry : registry_entries()) {
    std::string error;
    const auto spec = find_scenario(entry.name, &error);
    if (arena || spec->map != MapKind::kArena) names.push_back(entry.name);
  }
  return names;
}

/// `name` shrunk to a unit-test-sized run with zero LLM latency: a 20-step
/// window (20 target steps for arena maps) and at most 200 agents. The
/// Release CI smoke runs metro_ville1000 at full window.
ScenarioSpec sweep_spec(const std::string& name) {
  std::string error;
  auto spec = find_scenario(name, &error);
  EXPECT_TRUE(spec.has_value()) << error;
  if (spec->map == MapKind::kArena) {
    spec->steps_per_day = 20;  // live gym run: 20 target steps
  } else {
    spec->window_begin = 4320;
    spec->window_end = 4340;
    if (spec->agents > 200) {
      spec->agents = 200;
      spec->segments = std::min(spec->segments, 8);
    }
  }
  spec->call_latency_us = 0;
  EXPECT_EQ(validate_spec(*spec), "") << name;
  return *spec;
}

std::string param_name(const ::testing::TestParamInfo<std::string>& info) {
  return info.param;
}

class RegistryScenario : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryScenario, BruteAndIndexedDigestsAgree) {
  // The differential guarantee at the workload level: for every shipped
  // registry scenario, on both backends, the spatial-index scoreboard
  // must reach the same final state (digest), dispatch the same clusters,
  // and measure the same sparsity as the brute-force reference.
  ScenarioSpec spec = sweep_spec(GetParam());
  for (Backend backend : {Backend::kDes, Backend::kEngine}) {
    if (spec.map == MapKind::kArena && backend == Backend::kDes) {
      continue;  // arena maps are engine-only
    }
    spec.backend = backend;
    spec.scoreboard = ScoreboardKind::kIndexed;
    const auto indexed = ScenarioDriver(spec).run(/*serial_baseline=*/false);
    spec.scoreboard = ScoreboardKind::kBrute;
    const auto brute = ScenarioDriver(spec).run(/*serial_baseline=*/false);

    EXPECT_EQ(indexed.scoreboard_digest, brute.scoreboard_digest)
        << backend_name(backend);
    EXPECT_EQ(indexed.total_calls, brute.total_calls);
    EXPECT_EQ(indexed.agent_steps, brute.agent_steps);
    if (backend == Backend::kDes) {
      // Virtual time makes the whole schedule deterministic, so the
      // scheduler statistics must match bit for bit. (Engine runs
      // reach the same final state, but cluster formation there
      // depends on real thread interleaving either way.)
      EXPECT_EQ(indexed.clusters_dispatched, brute.clusters_dispatched);
      EXPECT_EQ(indexed.mean_cluster_size, brute.mean_cluster_size);
      EXPECT_EQ(indexed.mean_blockers, brute.mean_blockers);
      EXPECT_EQ(indexed.metro_seconds, brute.metro_seconds);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ScanModes, RegistryScenario,
                         ::testing::ValuesIn(registry_names(/*arena=*/true)),
                         param_name);

class RegistryTraceScenario : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryTraceScenario, ShardedAndUnshardedDigestsAgree) {
  // The sharding guarantee at the workload level: on every shipped
  // scenario, on both backends, the region-partitioned scoreboard must
  // reach the same final state, issue the same calls, and (in virtual
  // time) measure the same schedule as the single-strip reference —
  // sharding changes which locks are taken, never what is computed.
  // Arena maps are not instantiated: the gym loop is unsharded by
  // construction.
  ScenarioSpec spec = sweep_spec(GetParam());
  for (Backend backend : {Backend::kDes, Backend::kEngine}) {
    spec.backend = backend;
    spec.shards = 1;
    const auto single = ScenarioDriver(spec).run(/*serial_baseline=*/false);
    spec.shards = 8;
    const auto sharded = ScenarioDriver(spec).run(/*serial_baseline=*/false);

    EXPECT_EQ(sharded.scoreboard_digest, single.scoreboard_digest)
        << backend_name(backend);
    EXPECT_EQ(sharded.total_calls, single.total_calls);
    EXPECT_EQ(sharded.agent_steps, single.agent_steps);
    // Graph worlds measure hops, which the strip partition cannot
    // cover: the board collapses to one strip and must say so.
    EXPECT_EQ(sharded.shards, spec.world == WorldKind::kGraph ? 1 : 8);
    if (backend == Backend::kDes) {
      EXPECT_EQ(sharded.clusters_dispatched, single.clusters_dispatched);
      EXPECT_EQ(sharded.mean_cluster_size, single.mean_cluster_size);
      EXPECT_EQ(sharded.mean_blockers, single.mean_blockers);
      EXPECT_EQ(sharded.metro_seconds, single.metro_seconds);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ScanModes, RegistryTraceScenario,
                         ::testing::ValuesIn(registry_names(/*arena=*/false)),
                         param_name);

class MidnightReshard : public ::testing::TestWithParam<Backend> {};

TEST_P(MidnightReshard, KeepsDigestsAcrossTheBoundary) {
  // The adaptive-partitioning guarantee end to end: a hotspot scenario
  // replayed across its day-0/day-1 midnight — where reshard = episode
  // moves the strip boundaries mid-run — must reach the same final state
  // as the unsharded board, the static equal-width partition, and the
  // pinned-pool configuration.
  std::string error;
  auto spec = find_scenario("skewed_ville100", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  spec->window_begin = 8630;  // straddles midnight at step 8640
  spec->window_end = 8652;
  spec->call_latency_us = 0;
  spec->backend = GetParam();
  ASSERT_EQ(validate_spec(*spec), "");

  struct Variant {
    std::int32_t shards;
    PartitionChoice partition;
    ReshardMode reshard;
    PinMode pin;
  };
  const Variant variants[] = {
      {1, PartitionChoice::kWidth, ReshardMode::kOff, PinMode::kNone},
      {4, PartitionChoice::kWidth, ReshardMode::kOff, PinMode::kNone},
      {4, PartitionChoice::kPopulation, ReshardMode::kEpisode, PinMode::kNone},
      {4, PartitionChoice::kWidth, ReshardMode::kEpisode, PinMode::kCores},
  };
  std::uint64_t reference = 0;
  for (std::size_t v = 0; v < std::size(variants); ++v) {
    spec->shards = variants[v].shards;
    spec->partition = variants[v].partition;
    spec->reshard = variants[v].reshard;
    spec->pin = variants[v].pin;
    const auto report = ScenarioDriver(*spec).run(/*serial_baseline=*/false);
    if (v == 0) {
      reference = report.scoreboard_digest;
    } else {
      EXPECT_EQ(report.scoreboard_digest, reference) << "variant " << v;
    }
    EXPECT_EQ(report.days, 2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ScanModes, MidnightReshard,
    ::testing::Values(Backend::kDes, Backend::kEngine),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return std::string(backend_name(info.param));
    });

TEST(ScanModes, GymReportCarriesDependencySparsity) {
  // The arena/gym path reports mean blockers and mean cluster size from
  // the OOO engine's scoreboard, like the trace paths do.
  std::string error;
  auto spec = find_scenario("quickstart_arena", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  spec->steps_per_day = 20;
  spec->call_latency_us = 0;
  const auto report = ScenarioDriver(*spec).run(/*serial_baseline=*/false);
  EXPECT_GT(report.clusters_dispatched, 0u);
  EXPECT_GT(report.mean_cluster_size, 0.0);
  EXPECT_GE(report.mean_blockers, 0.0);
  EXPECT_NE(report.summary().find("mean-blockers"), std::string::npos);
}

// ---- Remainder-preserving segment splits ----

TEST(SegmentSplit, DistributesTheRemainderAcrossSegments) {
  EXPECT_EQ(segment_agent_counts(25, 4),
            (std::vector<std::int32_t>{7, 6, 6, 6}));
  EXPECT_EQ(segment_agent_counts(8, 8),
            (std::vector<std::int32_t>{1, 1, 1, 1, 1, 1, 1, 1}));
  EXPECT_EQ(segment_agent_counts(50, 2),
            (std::vector<std::int32_t>{25, 25}));
  std::int32_t total = 0;
  for (auto c : segment_agent_counts(103, 7)) total += c;
  EXPECT_EQ(total, 103);
  EXPECT_THROW(segment_agent_counts(3, 4), CheckError);
}

TEST(SegmentSplit, GeometricSkewPilesAgentsOnTheFirstSegments) {
  // skew = 0 reduces to the even split exactly.
  EXPECT_EQ(segment_agent_counts(25, 4, 0.0), segment_agent_counts(25, 4));
  // A skewed split still sums exactly, keeps every segment populated,
  // and is non-increasing (geometric weights are).
  const auto counts = segment_agent_counts(1000, 40, 0.3);
  ASSERT_EQ(counts.size(), 40u);
  std::int32_t total = 0;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    total += counts[k];
    EXPECT_GE(counts[k], 1) << "segment " << k;
    if (k > 0) {
      EXPECT_LE(counts[k], counts[k - 1]) << "segment " << k;
    }
  }
  EXPECT_EQ(total, 1000);
  // The hotspot is real: the first segment carries several times the
  // even share of 25.
  EXPECT_GE(counts[0], 100);
  // Degenerate shapes: one segment takes everything; agents == segments
  // leaves exactly one each regardless of skew.
  EXPECT_EQ(segment_agent_counts(7, 1, 0.5),
            (std::vector<std::int32_t>{7}));
  EXPECT_EQ(segment_agent_counts(5, 5, 0.9),
            (std::vector<std::int32_t>{1, 1, 1, 1, 1}));
}

TEST(SegmentSplit, TraceAndReportCarryEveryRequestedAgent) {
  // 25 agents over 4 segments used to silently simulate 24 (25/4*4).
  std::string error;
  auto spec = find_scenario("smallville_day", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  spec->agents = 25;
  spec->segments = 4;
  spec->window_begin = 4320;
  spec->window_end = 4340;
  ASSERT_EQ(validate_spec(*spec), "");

  const ScenarioDriver driver(*spec);
  EXPECT_EQ(driver.build_trace().n_agents, 25);

  const auto report = driver.run(/*serial_baseline=*/false);
  EXPECT_EQ(report.agents, 25);
  EXPECT_EQ(report.agent_steps, 25u * 20u);
}

// ---- Gym start placement ----

TEST(GymStarts, UniqueWalkableAndComplete) {
  // Overflowing grid anchors used to clamp several agents onto one tile.
  const auto arena = world::GridMap::arena(10, 10);
  const auto starts = plan_gym_starts(arena, 60);
  ASSERT_EQ(starts.size(), 60u);
  std::set<std::pair<std::int32_t, std::int32_t>> seen;
  for (const Tile& t : starts) {
    EXPECT_TRUE(arena.walkable(t)) << t.x << "," << t.y;
    EXPECT_TRUE(seen.insert({t.x, t.y}).second)
        << "duplicate start " << t.x << "," << t.y;
  }
}

TEST(GymStarts, AvoidsUnwalkableTilesOnBuiltUpMaps) {
  const auto ville = world::GridMap::smallville(25);
  const auto starts = plan_gym_starts(ville, 40);
  ASSERT_EQ(starts.size(), 40u);
  std::set<std::pair<std::int32_t, std::int32_t>> seen;
  for (const Tile& t : starts) {
    EXPECT_TRUE(ville.walkable(t));
    EXPECT_TRUE(seen.insert({t.x, t.y}).second);
  }
}

TEST(GymStarts, FailsLoudlyWhenTheMapCannotSeatEveryone) {
  const auto tiny = world::GridMap::arena(4, 4);
  EXPECT_EQ(plan_gym_starts(tiny, 16).size(), 16u);  // exactly full
  EXPECT_THROW(plan_gym_starts(tiny, 17), CheckError);
  ScenarioSpec spec;
  spec.map = MapKind::kArena;
  spec.map_width = 4;
  spec.map_height = 4;
  spec.agents = 17;
  spec.backend = Backend::kEngine;
  EXPECT_NE(validate_spec(spec), "");
}

// ---- Baseline-skipped summaries ----

TEST(Report, SummaryOmitsBaselineWhenSerialSkipped) {
  std::string error;
  auto spec = find_scenario("sparse_ville", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  spec->agents = 4;
  spec->window_begin = 4320;
  spec->window_end = 4360;

  const auto with = ScenarioDriver(*spec).run(/*serial_baseline=*/true);
  EXPECT_TRUE(with.has_serial);
  EXPECT_NE(with.summary().find("baseline"), std::string::npos);
  EXPECT_NE(with.summary().find("vs serial"), std::string::npos);

  const auto without = ScenarioDriver(*spec).run(/*serial_baseline=*/false);
  EXPECT_FALSE(without.has_serial);
  EXPECT_EQ(without.summary().find("baseline"), std::string::npos);
  EXPECT_EQ(without.summary().find("vs serial"), std::string::npos);
  EXPECT_NE(without.summary().find("vs sync"), std::string::npos);
}

TEST(Report, EngineRunsSurfaceChainPoolDiagnostics) {
  std::string error;
  auto spec = find_scenario("smallville_day", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  spec->window_begin = 4320;
  spec->window_end = 4350;
  spec->call_latency_us = 20;

  // DES has no chain pool; its summary must not show one.
  const auto des = ScenarioDriver(*spec).run(/*serial_baseline=*/false);
  EXPECT_EQ(des.pool_workers, 0);
  EXPECT_EQ(des.summary().find("chain-pool"), std::string::npos);

  // The engine backend reports the per-run pool size (derived: 2x
  // workers) and the in-flight high-water mark.
  spec->backend = Backend::kEngine;
  const auto engine = ScenarioDriver(*spec).run(/*serial_baseline=*/false);
  EXPECT_EQ(engine.pool_workers, spec->resolved_pool_workers());
  EXPECT_GE(engine.peak_inflight_tasks, 1u);
  EXPECT_NE(engine.summary().find("chain-pool"), std::string::npos);

  // An explicit pool_workers override is what the run actually uses.
  spec->pool_workers = 3;
  const auto sized = ScenarioDriver(*spec).run(/*serial_baseline=*/false);
  EXPECT_EQ(sized.pool_workers, 3);
}

// ---- The virtual-time engine clock ----

// Sanitizers slow compute (TSan ~15x, ASan ~2-4x), and that slowdown
// leaks into the scaled virtual axis — the accuracy tolerances below
// cannot hold under them. The test still runs under the sanitizers for
// its race/memory coverage (SimClock + CostModelLlmClient shared across
// engine workers); only the tolerance assertions are gated out.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define AIMETRO_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define AIMETRO_UNDER_SANITIZER 1
#endif
#endif
#ifndef AIMETRO_UNDER_SANITIZER
#define AIMETRO_UNDER_SANITIZER 0
#endif

TEST(VirtualClock, EngineVirtualSecondsTrackTheDesBackend) {
  // Same spec on both backends; clock = virtual must report completion
  // times on the DES cost model's virtual axis within the documented
  // ±25% envelope (docs/ARCHITECTURE.md "Virtual time envelope"). The
  // test runs at the default time_scale = 1000: the envelope doc calls
  // out that 5000 amplifies the engine's real compute overhead to the
  // envelope edge, and on a contended host that edge is the difference
  // between a stable test and a flaky one. The engine run is also
  // retried: the accuracy claim is about the clock mapping, not about
  // any one scheduling of the host.
  std::string error;
  auto spec = find_scenario("smallville_day", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  spec->window_begin = 4320;
  spec->window_end = 4380;

  spec->backend = Backend::kDes;
  const auto des = ScenarioDriver(*spec).run();
  ASSERT_GT(des.serial_seconds, 0.0);
  ASSERT_GT(des.metro_seconds, 0.0);

  spec->backend = Backend::kEngine;
  spec->clock = ClockKind::kVirtual;
  spec->time_scale = 1000.0;  // ~2 s of wall time for this window
  constexpr int kAttempts = 3;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    const auto engine = ScenarioDriver(*spec).run();
    EXPECT_TRUE(engine.virtual_time);
    EXPECT_EQ(engine.total_calls, des.total_calls);
    EXPECT_NE(engine.summary().find("s (virtual)"), std::string::npos);
    // The engine's correctness guarantee holds under the virtual clock.
    EXPECT_EQ(engine.world_hash_serial, engine.world_hash_metro);

    if (AIMETRO_UNDER_SANITIZER) break;
    const double serial_ratio = engine.serial_seconds / des.serial_seconds;
    const double metro_ratio = engine.metro_seconds / des.metro_seconds;
    const bool accurate = std::abs(serial_ratio - 1.0) <= 0.25 &&
                          std::abs(metro_ratio - 1.0) <= 0.25;
    if (accurate) break;
    if (attempt == kAttempts) {
      EXPECT_NEAR(serial_ratio, 1.0, 0.25);
      EXPECT_NEAR(metro_ratio, 1.0, 0.25);
    }
  }
}

TEST(VirtualClock, WallClockStillDefaultAndWallLabelled) {
  std::string error;
  const auto spec = find_scenario("quickstart_arena", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->clock, ClockKind::kWall);
  auto small = *spec;
  small.agents = 4;
  small.steps_per_day = 20;
  small.call_latency_us = 50;
  const auto report = ScenarioDriver(small).run();
  EXPECT_FALSE(report.virtual_time);
  EXPECT_NE(report.summary().find("s (wall)"), std::string::npos);
}

}  // namespace
}  // namespace aimetro::scenario
