#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "common/check.h"
#include "scenario/driver.h"
#include "scenario/registry.h"
#include "trace/generator.h"
#include "trace/schema.h"
#include "trace/serialize.h"
#include "trace/stats.h"
#include "world/grid_map.h"
#include "world/social_graph.h"

namespace aimetro::trace {
namespace {

SimulationTrace day_trace(std::uint64_t seed, std::int32_t n_agents = 25) {
  const auto map = world::GridMap::smallville(std::min(n_agents, 26));
  GeneratorConfig cfg;
  cfg.n_agents = n_agents;
  cfg.seed = seed;
  return generate(map, cfg);
}

/// Calibration sweep over seeds: the generator must reproduce the paper's
/// published aggregates for any seed, not just a lucky one.
class GeneratorCalibration : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorCalibration, MatchesPaperAggregates) {
  const SimulationTrace trace = day_trace(GetParam());
  const TraceStats stats = compute_stats(trace);
  // ~56.7k calls per 25-agent day (§4.1).
  EXPECT_NEAR(static_cast<double>(stats.total_calls), 56700.0, 56700.0 * 0.10);
  // Mean input 642.6 tokens, mean output 21.9 tokens.
  EXPECT_NEAR(stats.mean_input_tokens, 642.6, 642.6 * 0.10);
  EXPECT_NEAR(stats.mean_output_tokens, 21.9, 21.9 * 0.20);
  // Figure 4c shape: busy hour ~5000 calls, quiet hour ~800, sleep trough.
  EXPECT_NEAR(static_cast<double>(stats.calls_per_hour[12]), 5000.0, 900.0);
  EXPECT_NEAR(static_cast<double>(stats.calls_per_hour[6]), 800.0, 250.0);
  for (int h : {1, 2, 3}) {
    EXPECT_LT(stats.calls_per_hour[static_cast<std::size_t>(h)], 100u)
        << "hour " << h;
  }
  EXPECT_GT(stats.calls_per_hour[12], stats.calls_per_hour[6]);
  // Conversations exist and create interactions.
  EXPECT_GT(stats.conversations, 50u);
  EXPECT_GT(stats.interactions, 500u);
  // Dependency sparsity: a handful of real dependencies, far fewer than 25
  // (the paper measures 1.85 including self for the original trace).
  EXPECT_GT(stats.mean_prior_step_dependencies, 1.0);
  EXPECT_LT(stats.mean_prior_step_dependencies, 6.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorCalibration,
                         ::testing::Values(42u, 7u, 12345u));

TEST(Generator, StructurallyValidAndDeterministic) {
  const SimulationTrace a = day_trace(99);
  const SimulationTrace b = day_trace(99);
  a.validate();
  EXPECT_EQ(a.total_calls(), b.total_calls());
  ASSERT_EQ(a.agents.size(), b.agents.size());
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    EXPECT_EQ(a.agents[i].positions, b.agents[i].positions);
    EXPECT_EQ(a.agents[i].calls, b.agents[i].calls);
  }
  EXPECT_EQ(a.interactions, b.interactions);
}

TEST(Generator, AgentsSleepAtNight) {
  const SimulationTrace trace = day_trace(5);
  // At 2am (step 720) agents are in their homes, stationary.
  for (const AgentTrace& a : trace.agents) {
    EXPECT_EQ(a.positions[700], a.positions[740]);
  }
}

TEST(Generator, ConversationsAreSpatiallyConsistent) {
  const SimulationTrace trace = day_trace(8);
  // At every explicit interaction, the pair must be within perception
  // range (they were co-located when the conversation started and do not
  // move during it; allow the start-step offset of one move).
  for (const Interaction& in : trace.interactions) {
    const double d = euclidean(trace.position_at(in.a, in.step).center(),
                               trace.position_at(in.b, in.step).center());
    EXPECT_LE(d, trace.radius_p + 2 * trace.max_vel)
        << "step " << in.step << " agents " << in.a << "," << in.b;
  }
}

TEST(Slice, WindowsCallsAndPositions) {
  const SimulationTrace trace = day_trace(4);
  const SimulationTrace busy = slice(trace, 4320, 4680);
  busy.validate();
  EXPECT_EQ(busy.n_steps, 360);
  EXPECT_EQ(busy.start_step, 4320);
  EXPECT_EQ(busy.agents[0].positions.size(), 361u);
  EXPECT_EQ(busy.position_at(0, 4320), trace.position_at(0, 4320));
  for (const auto& agent : busy.agents) {
    for (const auto& call : agent.calls) {
      EXPECT_GE(call.step, 4320);
      EXPECT_LT(call.step, 4680);
    }
  }
  // Slice totals match the full trace restricted to the window.
  std::size_t expected = 0;
  for (const auto& agent : trace.agents) {
    for (const auto& call : agent.calls) {
      if (call.step >= 4320 && call.step < 4680) ++expected;
    }
  }
  EXPECT_EQ(busy.total_calls(), expected);
  EXPECT_THROW(slice(trace, 100, 100), CheckError);
}

TEST(Concatenate, OffsetsAgentsAndSpace) {
  GeneratorConfig cfg;
  cfg.n_agents = 5;
  const auto map = world::GridMap::smallville(5);
  const SimulationTrace big = generate_concatenated(map, {5, 5, 5}, cfg);
  big.validate();
  EXPECT_EQ(big.n_agents, 15);
  // Same-seed segment 0 reproduces inside the concatenation.
  GeneratorConfig seg_cfg = cfg;
  const SimulationTrace seg0 = generate(map, seg_cfg);
  EXPECT_EQ(big.agents[0].positions, seg0.agents[0].positions);
  // Segment 1 agents live in x ranges shifted by the stride.
  const std::int32_t stride = map.width() + 1;
  for (const Tile& t : big.agents[5].positions) {
    EXPECT_GE(t.x, stride);
    EXPECT_LT(t.x, 2 * stride);
  }
  // Interactions never cross segments.
  for (const Interaction& in : big.interactions) {
    EXPECT_EQ(in.a / 5, in.b / 5);
  }
}

TEST(GroupCalls, CallsAtReturnsEachStepsChain) {
  // calls_at must agree with the grouped map at every step of the trace,
  // including steps with no calls (an empty span), and before and after
  // the first and last calls.
  const SimulationTrace trace = day_trace(3, 8);
  for (const AgentTrace& agent : trace.agents) {
    const StepCalls grouped = group_calls_by_step(agent);
    for (Step step = trace.start_step - 1;
         step <= trace.start_step + trace.n_steps; ++step) {
      const auto chain = calls_at(agent, step);
      const auto it = grouped.find(step);
      if (it == grouped.end()) {
        EXPECT_TRUE(chain.empty()) << "step " << step;
        continue;
      }
      ASSERT_EQ(chain.size(), it->second.size()) << "step " << step;
      for (std::size_t i = 0; i < chain.size(); ++i) {
        EXPECT_EQ(&chain[i], it->second[i]) << "step " << step;
      }
    }
  }
}

TEST(GroupCalls, ChainsOrderedWithinStep) {
  const SimulationTrace trace = day_trace(3, 8);
  const StepCalls grouped = group_calls_by_step(trace.agents[0]);
  std::size_t total = 0;
  for (const auto& [step, chain] : grouped) {
    (void)step;
    EXPECT_FALSE(chain.empty());
    for (std::size_t i = 1; i < chain.size(); ++i) {
      EXPECT_LT(chain[i - 1]->seq, chain[i]->seq);
    }
    total += chain.size();
  }
  EXPECT_EQ(total, trace.agents[0].calls.size());
}

TEST(Serialize, BinaryRoundTripIsExact) {
  const SimulationTrace trace = day_trace(6, 6);
  std::stringstream ss;
  save_binary(trace, ss);
  const SimulationTrace loaded = load_binary(ss);
  EXPECT_EQ(loaded.n_agents, trace.n_agents);
  EXPECT_EQ(loaded.n_steps, trace.n_steps);
  EXPECT_EQ(loaded.radius_p, trace.radius_p);
  ASSERT_EQ(loaded.agents.size(), trace.agents.size());
  for (std::size_t i = 0; i < trace.agents.size(); ++i) {
    EXPECT_EQ(loaded.agents[i].positions, trace.agents[i].positions);
    EXPECT_EQ(loaded.agents[i].calls, trace.agents[i].calls);
  }
  EXPECT_EQ(loaded.interactions, trace.interactions);
}

/// FNV-1a over the trace's binary serialization: every position, call and
/// interaction, in file order.
std::uint64_t trace_bytes_hash(const SimulationTrace& trace) {
  std::ostringstream os;
  save_binary(trace, os);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : os.str()) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

TEST(Trace, GoldenBytesAreBitExact) {
  // Host-side optimizations of trace generation (pathfinding, the
  // conversation kick-off scan, windowing, segment scheduling) must not
  // move a byte of the trace the driver builds. One cell per generation
  // path: the full single-segment day, equal segments, skewed two-day
  // segments across midnight, heterogeneous profiles split over segments,
  // and the graph generator. Then the other grid maps (the plaza's hub
  // crowds, urban_grid's gated detours) and 100 agents in one segment
  // over two days, the densest kick-off scan. Last, the day model both
  // generators share, end to end: the graph generator's whole day, once
  // homogeneous and once with a mixed population, and seven
  // mixed-population grid days with carry-over.
  const struct {
    const char* scenario;
    const char* overrides;
    std::uint64_t hash;
  } cells[] = {
      {"smallville_day", "window_begin=-1 window_end=-1", 0xbe5bca36a084271bULL},
      {"metro_ville100", "", 0xb39f11bbab960b64ULL},
      {"skewed_ville100", "", 0xd5856e7be4e748caULL},
      {"mixed_ville100", "segments=4", 0xd88985a75222eb2bULL},
      {"social_net100", "", 0x3206b573157f0984ULL},
      {"social_hub", "", 0x8a52bb05ee020272ULL},
      {"urban_commute", "", 0x9a08afd007b4b402ULL},
      {"skewed_ville100", "segments=1", 0x42aed4d885627f87ULL},
      {"social_net100", "window_begin=-1 window_end=-1",
       0x911186a4a7280fd0ULL},
      {"social_net100",
       "population=townsfolk:0.6,socialite:0.2,commuter:0.15,hermit:0.05 "
       "window_begin=-1 window_end=-1",
       0xe0f86bfe75a50954ULL},
      {"metropolis_week", "", 0xe938cb63a9175e3cULL},
  };
  for (const auto& cell : cells) {
    std::string error;
    auto spec = scenario::find_scenario(cell.scenario, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    std::istringstream overrides(cell.overrides);
    std::string assignment;
    while (overrides >> assignment) {
      ASSERT_TRUE(scenario::apply_override(&*spec, assignment, &error))
          << error;
    }
    const SimulationTrace trace = scenario::ScenarioDriver(*spec).build_trace();
    EXPECT_EQ(trace_bytes_hash(trace), cell.hash)
        << cell.scenario << " " << cell.overrides << ": 0x" << std::hex
        << trace_bytes_hash(trace);
  }
}

TEST(Concatenate, WindowedEqualsSliceOfFull) {
  // Windowing each segment before concatenation must reproduce slicing the
  // whole concatenation byte for byte: skewed segment counts (and the
  // single-segment path), heterogeneous profiles split across segments,
  // and a two-day episode so a window can straddle midnight.
  const auto segment = world::GridMap::smallville(6);
  GeneratorConfig cfg;
  cfg.seed = 11;
  cfg.days = 2;
  const char* names[] = {"townsfolk", "socialite", "commuter", "hermit"};
  for (int i = 0; i < 8; ++i) {
    cfg.agent_profiles.push_back(*BehaviorProfile::find(names[i % 4]));
  }
  const Step day = cfg.steps_per_day;
  const Step last = cfg.days * day;
  const std::pair<Step, Step> windows[] = {
      {0, 90},                 // at step 0
      {last - 1, last},        // the last step, one step long
      {4320, 4321},            // a 1-step window inside a day
      {day - 120, day + 120},  // across midnight
  };
  for (const std::vector<std::int32_t>& counts :
       {std::vector<std::int32_t>{5, 2, 1}, std::vector<std::int32_t>{8}}) {
    const SimulationTrace full = generate_concatenated(segment, counts, cfg);
    ASSERT_EQ(full.n_steps, last);
    for (const auto& [begin, end] : windows) {
      const SimulationTrace windowed =
          generate_concatenated(segment, counts, cfg, begin, end);
      EXPECT_EQ(trace_bytes_hash(windowed),
                trace_bytes_hash(slice(full, begin, end)))
          << counts.size() << " segments, window [" << begin << ", " << end
          << ")";
    }
  }
}

TEST(Concatenate, SegmentCheckFailureThrowsOnCaller) {
  // The zero-agent middle segment fails generate's n_agents check on
  // whichever thread claims it; the caller must get that CheckError after
  // the other segments' threads have joined, never std::terminate.
  const auto segment = world::GridMap::smallville(3);
  const std::vector<std::int32_t> counts = {3, 0, 2};
  GeneratorConfig cfg;
  const std::pair<Step, Step> windows[] = {{-1, -1}, {4320, 4380}};
  for (const auto& [begin, end] : windows) {
    try {
      generate_concatenated(segment, counts, cfg, begin, end);
      ADD_FAILURE() << "a zero-agent segment must fail";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("cfg.n_agents > 0"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream ss;
  ss << "definitely not a trace";
  EXPECT_THROW(load_binary(ss), CheckError);
}

TEST(Stats, HourHistogramSumsToTotal) {
  const SimulationTrace trace = day_trace(10, 10);
  const TraceStats stats = compute_stats(trace);
  std::size_t sum = 0;
  for (const auto c : stats.calls_per_hour) sum += c;
  EXPECT_EQ(sum, stats.total_calls);
  EXPECT_FALSE(stats.to_string().empty());
}

// ---- Graph-world traces ----

namespace {

SimulationTrace graph_trace(std::uint64_t seed, std::int32_t n_agents = 6,
                            std::int32_t nodes = 60) {
  GeneratorConfig cfg;
  cfg.n_agents = n_agents;
  cfg.seed = seed;
  cfg.target_calls_per_25_agents = 6000.0;  // keep the tests fast
  return generate_social_graph(world::newman_watts_graph(nodes, 4, 0.1, seed),
                               cfg);
}

}  // namespace

TEST(GraphTrace, GeneratorEmitsAValidDeterministicGraphWorld) {
  const SimulationTrace a = graph_trace(5);
  a.validate();
  EXPECT_EQ(a.world_kind, WorldKind::kGraph);
  EXPECT_EQ(a.map_width, 60);  // node count
  EXPECT_EQ(a.map_height, 1);
  ASSERT_EQ(a.graph_adjacency.node_count(), 60);
  EXPECT_GT(a.total_calls(), 0u);
  EXPECT_GT(a.interactions.size(), 0u);
  // Positions encode node ids; consecutive positions stay or follow an
  // edge (validate() enforces this — spot-check the encoding here).
  for (const auto& agent : a.agents) {
    for (const Tile& t : agent.positions) {
      EXPECT_EQ(t.y, 0);
      EXPECT_GE(t.x, 0);
      EXPECT_LT(t.x, 60);
    }
  }
  // Same seed, same trace.
  const SimulationTrace b = graph_trace(5);
  EXPECT_EQ(a.total_calls(), b.total_calls());
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    EXPECT_EQ(a.agents[i].positions, b.agents[i].positions);
    EXPECT_EQ(a.agents[i].calls, b.agents[i].calls);
  }
  EXPECT_EQ(a.interactions, b.interactions);
}

TEST(GraphTrace, ConversationPartnersShareANode) {
  // Graph conversations happen between co-located agents, like grid
  // conversations happen within speaking distance.
  const SimulationTrace trace = graph_trace(11);
  for (const Interaction& in : trace.interactions) {
    EXPECT_EQ(trace.position_at(in.a, in.step).x,
              trace.position_at(in.b, in.step).x)
        << "interaction at step " << in.step;
  }
}

TEST(GraphTrace, BinaryRoundTripKeepsWorldKindAndAdjacency) {
  const SimulationTrace trace = graph_trace(7);
  std::stringstream ss;
  save_binary(trace, ss);
  const SimulationTrace loaded = load_binary(ss);
  loaded.validate();
  EXPECT_EQ(loaded.world_kind, WorldKind::kGraph);
  EXPECT_EQ(loaded.graph_adjacency, trace.graph_adjacency);
  EXPECT_EQ(loaded.map_width, trace.map_width);
  EXPECT_EQ(loaded.map_height, trace.map_height);
  ASSERT_EQ(loaded.agents.size(), trace.agents.size());
  for (std::size_t i = 0; i < trace.agents.size(); ++i) {
    EXPECT_EQ(loaded.agents[i].positions, trace.agents[i].positions);
    EXPECT_EQ(loaded.agents[i].calls, trace.agents[i].calls);
  }
  EXPECT_EQ(loaded.interactions, trace.interactions);
}

TEST(GraphTrace, SliceKeepsGraphFieldsAndSegmentsReject) {
  const SimulationTrace trace = graph_trace(9);
  const SimulationTrace busy = slice(trace, 4320, 4680);
  busy.validate();
  EXPECT_EQ(busy.world_kind, WorldKind::kGraph);
  EXPECT_EQ(busy.graph_adjacency, trace.graph_adjacency);
  // x-offset segment concatenation is meaningless on node ids.
  EXPECT_THROW(concatenate_segments({trace, trace}, trace.map_width + 1),
               CheckError);
}

TEST(GraphTrace, WindowedEqualsSliceOfFull) {
  // Storing only the window's positions must reproduce slicing the
  // whole-day trace byte for byte: the registry's busy window, a window
  // at step 0, one ending at the last step, and -1 (the whole day), on a
  // homogeneous and a heterogeneous population (the two Pass-B paths).
  const auto adjacency = world::newman_watts_graph(80, 4, 0.1, 17);
  GeneratorConfig homogeneous;
  homogeneous.n_agents = 8;
  homogeneous.seed = 17;
  homogeneous.target_calls_per_25_agents = 6000.0;
  GeneratorConfig mixed = homogeneous;
  const char* names[] = {"townsfolk", "socialite", "commuter", "hermit"};
  for (int i = 0; i < mixed.n_agents; ++i) {
    mixed.agent_profiles.push_back(*BehaviorProfile::find(names[i % 4]));
  }
  const Step day = homogeneous.steps_per_day;
  const std::pair<Step, Step> windows[] = {
      {4320, 4380},      // social_net<N>'s registry window
      {0, 90},           // at step 0
      {day - 90, day},   // ending at the last step
  };
  for (const GeneratorConfig& cfg : {homogeneous, mixed}) {
    // window_begin = -1 (the default) keeps the whole day.
    const SimulationTrace full = generate_social_graph(adjacency, cfg);
    ASSERT_EQ(full.n_steps, day);
    EXPECT_EQ(trace_bytes_hash(full), trace_bytes_hash(slice(full, 0, day)));
    for (const auto& [begin, end] : windows) {
      const SimulationTrace windowed =
          generate_social_graph(adjacency, cfg, begin, end);
      EXPECT_EQ(windowed.start_step, begin);
      EXPECT_EQ(trace_bytes_hash(windowed),
                trace_bytes_hash(slice(full, begin, end)))
          << cfg.agent_profiles.size() << " profiles, window [" << begin
          << ", " << end << ")";
    }
  }
  EXPECT_THROW(generate_social_graph(adjacency, homogeneous, 100, 100),
               CheckError);
  EXPECT_THROW(generate_social_graph(adjacency, homogeneous, 0, day + 1),
               CheckError);
}

TEST(GraphTrace, ValidateCatchesNonEdgeHopsAndBadBounds) {
  SimulationTrace trace = graph_trace(13);
  {
    // Teleport across the graph: consecutive positions must share an edge.
    SimulationTrace bad = trace;
    auto& positions = bad.agents[0].positions;
    const std::int32_t from = positions[100].x;
    // Pick a node that is not `from` and not adjacent to it.
    const auto nbrs = bad.graph_adjacency.neighbors(from);
    std::int32_t far = -1;
    for (std::int32_t v = 0; v < bad.map_width; ++v) {
      if (v != from && !std::binary_search(nbrs.begin(), nbrs.end(), v)) {
        far = v;
        break;
      }
    }
    ASSERT_GE(far, 0);
    positions[101] = Tile{far, 0};
    EXPECT_THROW(bad.validate(), CheckError);
  }
  {
    // Graph traces carry map dims = nodes x 1.
    SimulationTrace bad = trace;
    bad.map_height = 2;
    EXPECT_THROW(bad.validate(), CheckError);
  }
  {
    // A graph trace carries a graph, and a grid trace none.
    SimulationTrace bad = trace;
    bad.graph_adjacency = world::CsrGraph();
    EXPECT_THROW(bad.validate(), CheckError);
    SimulationTrace grid = day_trace(1, 4);
    grid.graph_adjacency = trace.graph_adjacency;
    EXPECT_THROW(grid.validate(), CheckError);
  }
}

/// `trace` (a graph trace) saved as a v2 stream, with its graph section
/// replaced by `rows` in the same layout: the node count, then per node
/// a uint64 row length and the row's int32 neighbor ids.
std::string with_graph_rows(const SimulationTrace& trace,
                            const std::vector<std::vector<std::int32_t>>& rows) {
  std::ostringstream saved;
  save_binary(trace, saved);
  const std::string bytes = saved.str();
  const std::size_t head = 4 + 4 + 1;  // magic, version, world kind
  std::size_t graph_end = head + 8;
  for (std::int32_t u = 0; u < trace.graph_adjacency.node_count(); ++u) {
    graph_end += 8 + 4 * trace.graph_adjacency.neighbors(u).size();
  }
  std::string out = bytes.substr(0, head);
  auto put = [&out](auto v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(static_cast<std::uint64_t>(rows.size()));
  for (const auto& row : rows) {
    put(static_cast<std::uint64_t>(row.size()));
    for (std::int32_t v : row) put(v);
  }
  return out + bytes.substr(graph_end);
}

/// The message of the CheckError that loading `bytes` throws, or "" when
/// the stream loads.
std::string load_error(const std::string& bytes) {
  std::istringstream is(bytes);
  try {
    load_binary(is);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(Serialize, RejectsMisshapenGraphs) {
  // A trace file is the only way graph data enters from outside the
  // program, so the loader must reject every shape world::CsrGraph does,
  // naming the problem.
  const SimulationTrace trace = graph_trace(13);
  std::vector<std::vector<std::int32_t>> rows;
  for (std::int32_t u = 0; u < trace.graph_adjacency.node_count(); ++u) {
    const auto row = trace.graph_adjacency.neighbors(u);
    rows.emplace_back(row.begin(), row.end());
  }
  // The rows as they are load back: the edits below are what fails.
  ASSERT_EQ(load_error(with_graph_rows(trace, rows)), "");
  ASSERT_GE(rows[0].size(), 2u);
  {
    auto unsorted = rows;
    std::swap(unsorted[0][0], unsorted[0][1]);
    const std::string error = load_error(with_graph_rows(trace, unsorted));
    EXPECT_NE(error.find("graph node 0 lists its neighbors out of order"),
              std::string::npos)
        << error;
  }
  {
    auto out_of_range = rows;
    out_of_range[0].back() = trace.graph_adjacency.node_count();
    const std::string error = load_error(with_graph_rows(trace, out_of_range));
    EXPECT_NE(error.find("graph neighbor 60 of node 0 is not a node id"),
              std::string::npos)
        << error;
  }
  {
    // Edges are undirected: drop one end of 0 -- j and the other end is a
    // one-way edge, named in the error.
    auto one_way = rows;
    const std::int32_t j = one_way[0].front();
    auto& back = one_way[static_cast<std::size_t>(j)];
    back.erase(std::find(back.begin(), back.end(), 0));
    const std::string error = load_error(with_graph_rows(trace, one_way));
    const std::string edge = "one-way graph edge 0 -> " + std::to_string(j);
    EXPECT_NE(error.find(edge), std::string::npos) << error;
  }
}

TEST(Serialize, RejectsUnknownCallTypes) {
  const SimulationTrace trace = day_trace(6, 6);
  ASSERT_FALSE(trace.agents[0].calls.empty());
  std::ostringstream saved;
  save_binary(trace, saved);
  std::string bytes = saved.str();
  // A v1 stream: magic, version, n_agents, n_steps and start_step, three
  // doubles and the map's two dimensions; then agent 0's id, position
  // count, positions (two int32 each) and call count; then its first
  // call's step and seq, and the call's type byte.
  const std::size_t header = 4 + 4 + 3 * 4 + 3 * 8 + 2 * 4;
  const std::size_t type_at =
      header + 4 + 8 + 8 * trace.agents[0].positions.size() + 8 + 4 + 4;
  ASSERT_EQ(static_cast<CallType>(bytes[type_at]),
            trace.agents[0].calls[0].type);
  bytes[type_at] = 8;  // one past kScheduleDecomp
  const std::string error = load_error(bytes);
  EXPECT_NE(error.find("agent 0 has a call of unknown type 8"),
            std::string::npos)
      << error;
}

TEST(Validate, CatchesSpeedViolations) {
  SimulationTrace trace = day_trace(1, 4);
  trace.agents[0].positions[100] = Tile{0, 0};
  trace.agents[0].positions[101] = Tile{50, 50};
  EXPECT_THROW(trace.validate(), CheckError);
}

TEST(Validate, CatchesUnsortedCalls) {
  SimulationTrace trace = day_trace(1, 4);
  auto& calls = trace.agents[1].calls;
  ASSERT_GE(calls.size(), 2u);
  std::swap(calls[0], calls[1]);
  EXPECT_THROW(trace.validate(), CheckError);
}

}  // namespace
}  // namespace aimetro::trace
