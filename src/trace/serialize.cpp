#include "trace/serialize.h"

#include <cstring>
#include <fstream>
#include <ostream>

#include "common/check.h"

namespace aimetro::trace {

namespace {

constexpr char kMagic[4] = {'A', 'I', 'M', 'T'};
// v1: grid traces. v2 adds the world kind and, for graph worlds, the
// adjacency lists. Grid traces keep writing v1 so historical streams stay
// byte-identical; the loader accepts both.
constexpr std::uint32_t kGridVersion = 1;
constexpr std::uint32_t kGraphVersion = 2;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  AIM_CHECK_MSG(is.good(), "truncated trace stream");
  return v;
}

}  // namespace

void save_binary(const SimulationTrace& trace, std::ostream& os) {
  const bool graph = trace.world_kind == WorldKind::kGraph;
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, graph ? kGraphVersion : kGridVersion);
  if (graph) {
    write_pod(os, static_cast<std::uint8_t>(trace.world_kind));
    write_pod(os, static_cast<std::uint64_t>(trace.graph_adjacency.size()));
    for (const auto& neighbors : trace.graph_adjacency) {
      write_pod(os, static_cast<std::uint64_t>(neighbors.size()));
      for (std::int32_t v : neighbors) write_pod(os, v);
    }
  }
  write_pod(os, trace.n_agents);
  write_pod(os, trace.n_steps);
  write_pod(os, trace.start_step);
  write_pod(os, trace.seconds_per_step);
  write_pod(os, trace.radius_p);
  write_pod(os, trace.max_vel);
  write_pod(os, trace.map_width);
  write_pod(os, trace.map_height);
  for (const AgentTrace& a : trace.agents) {
    write_pod(os, a.agent);
    write_pod(os, static_cast<std::uint64_t>(a.positions.size()));
    for (const Tile& t : a.positions) {
      write_pod(os, t.x);
      write_pod(os, t.y);
    }
    write_pod(os, static_cast<std::uint64_t>(a.calls.size()));
    for (const LlmCall& c : a.calls) {
      write_pod(os, c.step);
      write_pod(os, c.seq);
      write_pod(os, static_cast<std::uint8_t>(c.type));
      write_pod(os, c.input_tokens);
      write_pod(os, c.output_tokens);
      write_pod(os, c.prompt_hash);
      write_pod(os, c.conversation_id);
    }
  }
  write_pod(os, static_cast<std::uint64_t>(trace.interactions.size()));
  for (const Interaction& in : trace.interactions) {
    write_pod(os, in.step);
    write_pod(os, in.a);
    write_pod(os, in.b);
  }
  AIM_CHECK_MSG(os.good(), "trace write failed");
}

SimulationTrace load_binary(std::istream& is) {
  char magic[4];
  is.read(magic, sizeof(magic));
  AIM_CHECK_MSG(is.good() && std::memcmp(magic, kMagic, 4) == 0,
                "not an AIMT trace stream");
  const auto version = read_pod<std::uint32_t>(is);
  AIM_CHECK_MSG(version == kGridVersion || version == kGraphVersion,
                "unsupported trace version " << version);
  SimulationTrace trace;
  if (version == kGraphVersion) {
    trace.world_kind = static_cast<WorldKind>(read_pod<std::uint8_t>(is));
    const auto n_nodes = read_pod<std::uint64_t>(is);
    AIM_CHECK(n_nodes > 0 && n_nodes < 10'000'000);
    trace.graph_adjacency.resize(n_nodes);
    for (auto& neighbors : trace.graph_adjacency) {
      const auto n_neighbors = read_pod<std::uint64_t>(is);
      AIM_CHECK(n_neighbors < n_nodes);
      neighbors.reserve(n_neighbors);
      for (std::uint64_t i = 0; i < n_neighbors; ++i) {
        neighbors.push_back(read_pod<std::int32_t>(is));
      }
    }
  }
  trace.n_agents = read_pod<std::int32_t>(is);
  trace.n_steps = read_pod<Step>(is);
  trace.start_step = read_pod<Step>(is);
  trace.seconds_per_step = read_pod<double>(is);
  trace.radius_p = read_pod<double>(is);
  trace.max_vel = read_pod<double>(is);
  trace.map_width = read_pod<std::int32_t>(is);
  trace.map_height = read_pod<std::int32_t>(is);
  AIM_CHECK(trace.n_agents >= 0 && trace.n_agents < 1'000'000);
  trace.agents.resize(static_cast<std::size_t>(trace.n_agents));
  for (AgentTrace& a : trace.agents) {
    a.agent = read_pod<AgentId>(is);
    const auto n_pos = read_pod<std::uint64_t>(is);
    AIM_CHECK(n_pos == static_cast<std::uint64_t>(trace.n_steps) + 1);
    a.positions.reserve(n_pos);
    for (std::uint64_t i = 0; i < n_pos; ++i) {
      Tile t;
      t.x = read_pod<std::int32_t>(is);
      t.y = read_pod<std::int32_t>(is);
      a.positions.push_back(t);
    }
    const auto n_calls = read_pod<std::uint64_t>(is);
    a.calls.reserve(n_calls);
    for (std::uint64_t i = 0; i < n_calls; ++i) {
      LlmCall c;
      c.agent = a.agent;
      c.step = read_pod<Step>(is);
      c.seq = read_pod<std::int32_t>(is);
      c.type = static_cast<CallType>(read_pod<std::uint8_t>(is));
      c.input_tokens = read_pod<std::int32_t>(is);
      c.output_tokens = read_pod<std::int32_t>(is);
      c.prompt_hash = read_pod<std::uint64_t>(is);
      c.conversation_id = read_pod<std::int32_t>(is);
      a.calls.push_back(c);
    }
  }
  const auto n_inter = read_pod<std::uint64_t>(is);
  trace.interactions.reserve(n_inter);
  for (std::uint64_t i = 0; i < n_inter; ++i) {
    Interaction in;
    in.step = read_pod<Step>(is);
    in.a = read_pod<AgentId>(is);
    in.b = read_pod<AgentId>(is);
    trace.interactions.push_back(in);
  }
  trace.validate();
  return trace;
}

void save_binary_file(const SimulationTrace& trace, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  AIM_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  save_binary(trace, os);
}

}  // namespace aimetro::trace
