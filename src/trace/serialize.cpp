#include "trace/serialize.h"

#include <fstream>
#include <ostream>

#include "common/check.h"

namespace aimetro::trace {

namespace {

constexpr char kMagic[4] = {'A', 'I', 'M', 'T'};
// v1: grid traces. v2 adds the world kind and, for graph worlds, the
// adjacency lists. Grid traces keep writing v1 so historical streams stay
// byte-identical.
constexpr std::uint32_t kGridVersion = 1;
constexpr std::uint32_t kGraphVersion = 2;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

}  // namespace

void save_binary(const SimulationTrace& trace, std::ostream& os) {
  const bool graph = trace.world_kind == WorldKind::kGraph;
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, graph ? kGraphVersion : kGridVersion);
  if (graph) {
    write_pod(os, static_cast<std::uint8_t>(trace.world_kind));
    const world::CsrGraph& graph = trace.graph_adjacency;
    write_pod(os, static_cast<std::uint64_t>(graph.node_count()));
    for (std::int32_t u = 0; u < graph.node_count(); ++u) {
      write_pod(os, static_cast<std::uint64_t>(graph.neighbors(u).size()));
      for (std::int32_t v : graph.neighbors(u)) write_pod(os, v);
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

void save_binary_file(const SimulationTrace& trace, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  AIM_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  save_binary(trace, os);
}

}  // namespace aimetro::trace
