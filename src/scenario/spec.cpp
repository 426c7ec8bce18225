#include "scenario/spec.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <vector>

#include "common/strings.h"
#include "llm/specs.h"
#include "runtime/task_pool.h"
#include "trace/behavior.h"

namespace aimetro::scenario {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kDes:
      return "des";
    case Backend::kEngine:
      return "engine";
  }
  return "?";
}

std::optional<Backend> backend_from_name(const std::string& name) {
  if (name == "des") return Backend::kDes;
  if (name == "engine") return Backend::kEngine;
  return std::nullopt;
}

const char* map_kind_name(MapKind m) {
  switch (m) {
    case MapKind::kSmallville:
      return "smallville";
    case MapKind::kPlaza:
      return "plaza";
    case MapKind::kUrbanGrid:
      return "urban_grid";
    case MapKind::kArena:
      return "arena";
  }
  return "?";
}

std::optional<MapKind> map_kind_from_name(const std::string& name) {
  if (name == "smallville") return MapKind::kSmallville;
  if (name == "plaza") return MapKind::kPlaza;
  if (name == "urban_grid") return MapKind::kUrbanGrid;
  if (name == "arena") return MapKind::kArena;
  return std::nullopt;
}

const char* world_name(WorldKind w) {
  switch (w) {
    case WorldKind::kGrid:
      return "grid";
    case WorldKind::kGraph:
      return "graph";
  }
  return "?";
}

std::optional<WorldKind> world_from_name(const std::string& name) {
  if (name == "grid") return WorldKind::kGrid;
  if (name == "graph") return WorldKind::kGraph;
  return std::nullopt;
}

const char* clock_name(ClockKind c) {
  switch (c) {
    case ClockKind::kWall:
      return "wall";
    case ClockKind::kVirtual:
      return "virtual";
  }
  return "?";
}

std::optional<ClockKind> clock_from_name(const std::string& name) {
  if (name == "wall") return ClockKind::kWall;
  if (name == "virtual") return ClockKind::kVirtual;
  return std::nullopt;
}

const char* scoreboard_name(ScoreboardKind s) {
  switch (s) {
    case ScoreboardKind::kIndexed:
      return "indexed";
    case ScoreboardKind::kBrute:
      return "brute";
  }
  return "?";
}

std::optional<ScoreboardKind> scoreboard_from_name(const std::string& name) {
  if (name == "indexed") return ScoreboardKind::kIndexed;
  if (name == "brute") return ScoreboardKind::kBrute;
  return std::nullopt;
}

const char* pin_name(PinMode p) {
  switch (p) {
    case PinMode::kNone:
      return "none";
    case PinMode::kCores:
      return "cores";
  }
  return "?";
}

std::optional<PinMode> pin_from_name(const std::string& name) {
  if (name == "none") return PinMode::kNone;
  if (name == "cores") return PinMode::kCores;
  return std::nullopt;
}

namespace {

// ---- Typed conversion layer (std::from_chars based) ----
// Every value type used by ScenarioSpec gets a conv() overload that
// converts the *entire* trimmed token or fails — no partial parses, no
// locale surprises, no silent truncation.

template <typename Int>
bool conv_int(const std::string& v, Int* out) {
  Int parsed{};
  const char* first = v.data();
  const char* last = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(first, last, parsed);
  if (ec != std::errc{} || ptr != last) return false;
  *out = parsed;
  return true;
}

bool conv(const std::string& v, std::int32_t* out) { return conv_int(v, out); }
bool conv(const std::string& v, std::int64_t* out) { return conv_int(v, out); }
bool conv(const std::string& v, std::uint64_t* out) { return conv_int(v, out); }

// from_chars also accepts "nan", "inf" and "infinity"; no spec value
// means anything non-finite, so those are invalid too.
bool conv(const std::string& v, double* out) {
  double parsed{};
  const char* first = v.data();
  const char* last = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(first, last, parsed);
  if (ec != std::errc{} || ptr != last || !std::isfinite(parsed)) return false;
  *out = parsed;
  return true;
}

bool conv(const std::string& v, std::string* out) {
  *out = v;
  return true;
}

bool conv(const std::string& v, Backend* out) {
  const auto b = backend_from_name(v);
  if (!b) return false;
  *out = *b;
  return true;
}

bool conv(const std::string& v, MapKind* out) {
  const auto m = map_kind_from_name(v);
  if (!m) return false;
  *out = *m;
  return true;
}

bool conv(const std::string& v, WorldKind* out) {
  const auto w = world_from_name(v);
  if (!w) return false;
  *out = *w;
  return true;
}

bool conv(const std::string& v, ClockKind* out) {
  const auto c = clock_from_name(v);
  if (!c) return false;
  *out = *c;
  return true;
}

bool conv(const std::string& v, ScoreboardKind* out) {
  const auto s = scoreboard_from_name(v);
  if (!s) return false;
  *out = *s;
  return true;
}

bool conv(const std::string& v, PinMode* out) {
  const auto p = pin_from_name(v);
  if (!p) return false;
  *out = *p;
  return true;
}

// ---- Rendering (for to_text round trips) ----

std::string render(const std::string& v) { return v; }
std::string render(std::int32_t v) { return std::to_string(v); }
std::string render(std::int64_t v) { return std::to_string(v); }
std::string render(std::uint64_t v) { return std::to_string(v); }
std::string render(Backend v) { return backend_name(v); }
std::string render(MapKind v) { return map_kind_name(v); }
std::string render(WorldKind v) { return world_name(v); }
std::string render(ClockKind v) { return clock_name(v); }
std::string render(ScoreboardKind v) { return scoreboard_name(v); }
std::string render(PinMode v) { return pin_name(v); }
std::string render(double v) {
  // Shortest representation that from_chars converts back exactly.
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, ptr) : std::to_string(v);
}

struct Field {
  const char* key;
  std::function<bool(ScenarioSpec&, const std::string&)> set;
  std::function<std::string(const ScenarioSpec&)> get;
};

#define AIM_SPEC_FIELD(key, member)                                       \
  Field {                                                                 \
    key,                                                                  \
        [](ScenarioSpec& s, const std::string& v) {                       \
          return conv(v, &s.member);                                      \
        },                                                                \
        [](const ScenarioSpec& s) { return render(s.member); }            \
  }

const std::vector<Field>& fields() {
  static const std::vector<Field> kFields = {
      AIM_SPEC_FIELD("name", name),
      AIM_SPEC_FIELD("description", description),
      AIM_SPEC_FIELD("world", world),
      AIM_SPEC_FIELD("graph_nodes", graph_nodes),
      AIM_SPEC_FIELD("graph_degree", graph_degree),
      AIM_SPEC_FIELD("graph_rewire", graph_rewire),
      AIM_SPEC_FIELD("map", map),
      AIM_SPEC_FIELD("map_width", map_width),
      AIM_SPEC_FIELD("map_height", map_height),
      AIM_SPEC_FIELD("homes", homes),
      AIM_SPEC_FIELD("districts", districts),
      AIM_SPEC_FIELD("segments", segments),
      AIM_SPEC_FIELD("segment_skew", segment_skew),
      AIM_SPEC_FIELD("agents", agents),
      AIM_SPEC_FIELD("profile", profile),
      AIM_SPEC_FIELD("population", population),
      AIM_SPEC_FIELD("conversation_scale", conversation_scale),
      AIM_SPEC_FIELD("calls_scale", calls_scale),
      AIM_SPEC_FIELD("steps_per_day", steps_per_day),
      AIM_SPEC_FIELD("days", days),
      AIM_SPEC_FIELD("window_begin", window_begin),
      AIM_SPEC_FIELD("window_end", window_end),
      AIM_SPEC_FIELD("seed", seed),
      AIM_SPEC_FIELD("radius_p", radius_p),
      AIM_SPEC_FIELD("max_vel", max_vel),
      AIM_SPEC_FIELD("scoreboard", scoreboard),
      // `shards` reads/writes `auto` for the 0 sentinel, so the macro's
      // plain integer conversion does not fit.
      Field{"shards",
            [](ScenarioSpec& s, const std::string& v) {
              if (v == "auto") {
                s.shards = 0;
                return true;
              }
              return conv(v, &s.shards);
            },
            [](const ScenarioSpec& s) {
              return s.shards == 0 ? std::string("auto") : render(s.shards);
            }},
      AIM_SPEC_FIELD("pin", pin),
      AIM_SPEC_FIELD("model", model),
      AIM_SPEC_FIELD("gpu", gpu),
      AIM_SPEC_FIELD("tensor_parallel", tensor_parallel),
      AIM_SPEC_FIELD("data_parallel", data_parallel),
      AIM_SPEC_FIELD("backend", backend),
      AIM_SPEC_FIELD("workers", workers),
      AIM_SPEC_FIELD("pool_workers", pool_workers),
      AIM_SPEC_FIELD("clock", clock),
      AIM_SPEC_FIELD("time_scale", time_scale),
      AIM_SPEC_FIELD("call_latency_us", call_latency_us),
  };
  return kFields;
}

#undef AIM_SPEC_FIELD

const Field* find_field(const std::string& key) {
  for (const Field& f : fields()) {
    if (key == f.key) return &f;
  }
  return nullptr;
}

/// Classic Levenshtein distance, for "did you mean" suggestions.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// The valid key closest to `key` by edit distance (ties: table order).
const char* nearest_key(const std::string& key) {
  const char* best = fields().front().key;
  std::size_t best_d = std::numeric_limits<std::size_t>::max();
  for (const Field& f : fields()) {
    const std::size_t d = edit_distance(key, f.key);
    if (d < best_d) {
      best_d = d;
      best = f.key;
    }
  }
  return best;
}

}  // namespace

std::string ScenarioSpec::to_text() const {
  std::ostringstream os;
  os << "# scenario: " << name << "\n";
  for (const Field& f : fields()) {
    os << f.key << " = " << f.get(*this) << "\n";
  }
  return os.str();
}

std::int32_t ScenarioSpec::resolved_pool_workers() const {
  return pool_workers > 0 ? pool_workers
                          : runtime::derive_pool_workers(workers);
}

std::int32_t ScenarioSpec::resolved_shards() const {
  if (shards > 0) return shards;
  // One strip per ~2500 agents keeps strips wide relative to the
  // blocking radius (narrow strips make every agent a border agent and
  // every commit cross-shard). 64 mirrors core::kMaxShards.
  return std::clamp(agents / 2500, 1, 64);
}

Step ScenarioSpec::sim_steps() const {
  if (window_begin >= 0 && window_end > window_begin) {
    return window_end - window_begin;
  }
  return episode_steps();
}

std::vector<std::string> spec_key_names() {
  std::vector<std::string> out;
  for (const Field& f : fields()) out.emplace_back(f.key);
  return out;
}

bool apply_override(ScenarioSpec* spec, const std::string& assignment,
                    std::string* error) {
  const std::size_t eq = assignment.find('=');
  if (eq == std::string::npos) {
    *error = strformat("expected key=value, got '%s'", assignment.c_str());
    return false;
  }
  const std::string key = trim(assignment.substr(0, eq));
  const std::string value = trim(assignment.substr(eq + 1));
  const Field* field = find_field(key);
  if (field == nullptr) {
    *error = strformat("unknown key '%s' (did you mean '%s'?)", key.c_str(),
                       nearest_key(key));
    return false;
  }
  if (!field->set(*spec, value)) {
    *error = strformat("invalid value '%s' for key '%s'", value.c_str(),
                       key.c_str());
    return false;
  }
  return true;
}

SpecParseResult parse_spec_text(const std::string& text, ScenarioSpec base) {
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    std::string error;
    if (!apply_override(&base, stripped, &error)) {
      return SpecParseResult{std::nullopt,
                             strformat("line %d: %s", line_no, error.c_str())};
    }
  }
  return SpecParseResult{std::move(base), ""};
}

SpecParseResult parse_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return SpecParseResult{std::nullopt,
                           strformat("cannot open '%s'", path.c_str())};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_spec_text(buffer.str());
}

std::string validate_spec(const ScenarioSpec& spec) {
  if (spec.agents < 1) return "agents must be >= 1";
  if (spec.segments < 1) return "segments must be >= 1";
  if (spec.agents < spec.segments) {
    // A non-divisible count is fine — the remainder is spread over the
    // first segments — but every segment needs at least one agent.
    return strformat("agents (%d) must be >= segments (%d)", spec.agents,
                     spec.segments);
  }
  if (spec.steps_per_day < 1) return "steps_per_day must be >= 1";
  if (spec.map != MapKind::kArena && spec.steps_per_day != 8640) {
    return strformat(
        "steps_per_day (%d) must be 8640 on trace-bearing maps: the trace "
        "generator's schedules and hourly curves assume 360 steps per "
        "simulated hour (only arena maps take other values)",
        spec.steps_per_day);
  }
  if (spec.days < 1 || spec.days > 64) return "days must be in [1, 64]";
  const bool has_window = spec.window_begin >= 0 || spec.window_end >= 0;
  if (has_window) {
    if (spec.window_begin < 0 || spec.window_end <= spec.window_begin ||
        spec.window_end > spec.episode_steps()) {
      return strformat(
          "window [%d, %d) must satisfy 0 <= begin < end <= days * "
          "steps_per_day (%d)",
          spec.window_begin, spec.window_end, spec.episode_steps());
    }
  }
  if (spec.radius_p <= 0.0) return "radius_p must be > 0";
  if (spec.max_vel < 0.0) return "max_vel must be >= 0";
  if (spec.conversation_scale < 0.0) return "conversation_scale must be >= 0";
  if (spec.calls_scale < 0.0) return "calls_scale must be >= 0";
  if (spec.tensor_parallel < 1 || spec.data_parallel < 1) {
    return "tensor_parallel and data_parallel must be >= 1";
  }
  // Each worker is an OS thread (strip pools and the member-chain pool),
  // so an absurd count must fail here rather than as an uncaught
  // std::system_error mid-spawn. 2048 = derive_pool_workers(1024).
  if (spec.workers < 1 || spec.workers > 1024) {
    return "workers must be in [1, 1024]";
  }
  if (spec.pool_workers < 0 || spec.pool_workers > 2048) {
    return "pool_workers must be in [0, 2048] (0 derives from workers)";
  }
  if (spec.shards < 0 || spec.shards > 64) {
    return "shards must be auto or in [1, 64]";
  }
  if (spec.segment_skew < 0.0 || spec.segment_skew >= 1.0) {
    return "segment_skew must be in [0, 1)";
  }
  if (spec.time_scale <= 0.0) return "time_scale must be > 0";
  if (spec.call_latency_us < 0) return "call_latency_us must be >= 0";

  if (spec.world == WorldKind::kGraph) {
    if (spec.graph_nodes < 3) {
      return "graph worlds need graph_nodes >= 3";
    }
    if (spec.graph_degree < 2 || spec.graph_degree % 2 != 0 ||
        spec.graph_degree >= spec.graph_nodes) {
      return strformat(
          "graph_degree (%d) must be even, >= 2, and < graph_nodes (%d)",
          spec.graph_degree, spec.graph_nodes);
    }
    if (spec.graph_rewire < 0.0 || spec.graph_rewire > 1.0) {
      return "graph_rewire must be in [0, 1]";
    }
    if (spec.max_vel < 1.0) {
      return "graph agents move one hop per step: max_vel must be >= 1";
    }
    if (spec.days != 1) return "graph worlds are single-day: days must be 1";
    if (spec.segments != 1) {
      return "segment concatenation offsets x coordinates, which graph "
             "worlds use as node ids: segments must be 1";
    }
    if (spec.map == MapKind::kArena) {
      return "arena maps run live gym agents on a grid; they cannot be "
             "graph worlds";
    }
  } else if (spec.graph_nodes != 0) {
    // A forgotten `world = graph` must fail loudly, not silently run the
    // grid workload the rest of the spec happens to describe.
    return "graph_nodes is set but world = grid: set world = graph (or "
           "drop the graph_* keys)";
  }

  switch (spec.map) {
    case MapKind::kSmallville:
      if (spec.homes < 1 || spec.homes > 26) {
        return "smallville maps support 1..26 homes";
      }
      break;
    case MapKind::kPlaza:
      if (spec.homes < 1 || spec.homes > 14) {
        return "plaza maps support 1..14 homes";
      }
      break;
    case MapKind::kUrbanGrid:
      if (spec.homes < 1 || spec.homes > 18) {
        return "urban_grid maps support 1..18 homes";
      }
      if (spec.districts < 1 || spec.districts > 9) {
        return "urban_grid maps support 1..9 districts";
      }
      break;
    case MapKind::kArena:
      if (spec.map_width < 4 || spec.map_height < 4) {
        return "arena maps must be at least 4x4";
      }
      if (static_cast<std::int64_t>(spec.map_width) * spec.map_height <
          spec.agents) {
        return strformat("arena %dx%d cannot hold %d agents on distinct tiles",
                         spec.map_width, spec.map_height, spec.agents);
      }
      if (spec.backend != Backend::kEngine) {
        return "arena maps have no routine venues, so no trace can be "
               "generated for them: set backend = engine";
      }
      if (spec.segments != 1) return "arena maps cannot be segmented";
      if (spec.shards > 1) {
        return "arena maps run the live gym loop, which commits through "
               "one scoreboard cursor: shards must be auto or 1";
      }
      if (!spec.population.empty()) {
        // Gym agents have no behavior profiles; accepting the key would
        // silently run a different workload than the spec claims.
        return "arena maps run live gym agents, which have no behavior "
               "profiles: population cannot be set";
      }
      break;
  }

  if (!trace::BehaviorProfile::find(spec.profile)) {
    return strformat("unknown behavior profile '%s' (known: %s)",
                     spec.profile.c_str(),
                     join(trace::BehaviorProfile::names(), ", ").c_str());
  }
  if (!spec.population.empty()) {
    std::string mix_error;
    if (!trace::PopulationMix::parse(spec.population, &mix_error)) {
      return strformat("population: %s", mix_error.c_str());
    }
  }
  if (!llm::find_model(spec.model)) {
    return strformat("unknown model '%s' (known: %s)", spec.model.c_str(),
                     join(llm::known_model_names(), ", ").c_str());
  }
  if (!llm::find_gpu(spec.gpu)) {
    return strformat("unknown GPU '%s' (known: %s)", spec.gpu.c_str(),
                     join(llm::known_gpu_names(), ", ").c_str());
  }
  return "";
}

}  // namespace aimetro::scenario
