#include "trace/generator.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <exception>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"
#include "world/pathfinding.h"

namespace aimetro::trace {

namespace {

using world::GridMap;

constexpr double kStepsPerHour = 360.0;  // 10 s per step

struct AgentSim {
  AgentId id = -1;
  Tile tile;
  /// This agent's behavior model (the shared profile in homogeneous runs,
  /// its assigned one in heterogeneous runs). Never null after init.
  const BehaviorProfile* profile = nullptr;
  // Daily schedule (step indices).
  Step wake = 0, leave_home = 0, lunch_start = 0, lunch_end = 0;
  Step social_start = 0, home_start = 0, sleep = 0;
  std::string home, work, social;
  // Navigation.
  std::string current_target;
  std::vector<Tile> path;
  std::size_t path_idx = 0;
  // Conversation state.
  Step conversing_until = -1;
  // Output.
  std::vector<LlmCall> calls;
};

Step hour_to_step(double hour) {
  return static_cast<Step>(std::lround(hour * kStepsPerHour));
}

// Tolerates hi < lo (possible with extreme custom profiles): lo wins.
Step clamp_step(Step s, Step lo, Step hi) {
  return hi < lo ? lo : std::clamp(s, lo, hi);
}

/// Deterministically pick a walkable tile inside an arena.
Tile random_tile_in(const GridMap& map, const world::Arena& arena, Rng& rng) {
  for (int tries = 0; tries < 64; ++tries) {
    const Tile t{
        static_cast<std::int32_t>(rng.uniform_int(arena.rect.x0, arena.rect.x1)),
        static_cast<std::int32_t>(
            rng.uniform_int(arena.rect.y0, arena.rect.y1))};
    if (map.walkable(t)) return t;
  }
  return world::nearest_walkable(map, arena.rect.center());
}

std::int32_t sample_tokens(Rng& rng, double mean, double sigma_frac,
                           std::int32_t lo, std::int32_t hi) {
  const double v = rng.normal(mean, mean * sigma_frac);
  return std::clamp(static_cast<std::int32_t>(std::lround(v)), lo, hi);
}

std::uint64_t prompt_hash_for(AgentId agent, CallType type,
                              std::int32_t conversation_id) {
  if (conversation_id >= 0) {
    return conversation_prompt_hash(conversation_id);
  }
  return splitmix64((static_cast<std::uint64_t>(agent) << 8) ^
                    static_cast<std::uint64_t>(type));
}

/// The venues a profile can use on a given map: workplaces weighted by the
/// profile's prefix weights, social venues Zipf-weighted by discovery
/// rank. Heterogeneous populations build one table per distinct profile.
struct VenueTable {
  std::vector<std::string> workplaces;
  std::vector<double> workplace_w;
  std::vector<std::string> socials;
  std::vector<double> social_w;
};

VenueTable discover_venues(const GridMap& map, const BehaviorProfile& profile) {
  VenueTable vt;
  // Per-discovered-arena weights: each prefix's weight is split evenly
  // among the arenas matching it.
  for (std::size_t p = 0; p < profile.workplace_prefixes.size(); ++p) {
    std::vector<const world::Arena*> matched;
    for (const auto& arena : map.arenas()) {
      if (arena.name.rfind(profile.workplace_prefixes[p], 0) == 0) {
        matched.push_back(&arena);
      }
    }
    const double w = p < profile.workplace_weights.size()
                         ? profile.workplace_weights[p]
                         : 1.0;
    for (const auto* arena : matched) {
      vt.workplaces.push_back(arena->name);
      vt.workplace_w.push_back(w / static_cast<double>(matched.size()));
    }
  }
  // Social venues: Zipf over discovery rank — a heavy alpha concentrates
  // the evening population on one hub venue (power-law contact graph).
  for (const auto& prefix : profile.social_prefixes) {
    for (const auto& arena : map.arenas()) {
      if (arena.name.rfind(prefix, 0) == 0) {
        vt.socials.push_back(arena.name);
        vt.social_w.push_back(
            1.0 / std::pow(static_cast<double>(vt.socials.size()),
                           profile.social_zipf_alpha));
      }
    }
  }
  return vt;
}

/// Schedule-stream key for heterogeneous runs: (seed, agent, day) fully
/// determines an agent's routine draws, independent of every other agent.
std::uint64_t agent_day_seed(std::uint64_t seed, AgentId agent,
                             std::int32_t day_index) {
  return splitmix64(seed ^
                    splitmix64(0xA9E47ULL +
                               static_cast<std::uint64_t>(agent) *
                                   0x9e3779b97f4a7c15ULL +
                               (static_cast<std::uint64_t>(day_index) << 40)));
}

}  // namespace

SimulationTrace generate(const GridMap& map, const GeneratorConfig& cfg) {
  AIM_CHECK(cfg.n_agents > 0);
  AIM_CHECK(cfg.steps_per_day > 0);
  AIM_CHECK(cfg.day_index >= 0);
  const bool hetero = !cfg.agent_profiles.empty();
  AIM_CHECK_MSG(!hetero || cfg.agent_profiles.size() ==
                               static_cast<std::size_t>(cfg.n_agents),
                "agent_profiles must be empty or one per agent");
  AIM_CHECK_MSG(cfg.start_tiles.empty() ||
                    cfg.start_tiles.size() ==
                        static_cast<std::size_t>(cfg.n_agents),
                "start_tiles must be empty or one per agent");
  // Day 0 seeds exactly as the historical single-day generator; later days
  // of an episode derive an independent stream so each day rolls fresh
  // randomness (schedules, conversations, fill).
  Rng rng(cfg.day_index == 0
              ? cfg.seed
              : splitmix64(cfg.seed + 0x9e3779b97f4a7c15ULL *
                                          static_cast<std::uint64_t>(
                                              cfg.day_index)));

  const BehaviorProfile& profile = cfg.profile;

  // Discover available homes on the map. Workplaces and social venues are
  // profile-dependent (arena-name prefixes, so the same profile works on
  // any map family): one venue table per distinct profile in the run.
  std::vector<std::string> homes;
  for (const auto& arena : map.arenas()) {
    if (arena.name.rfind("home_", 0) == 0) homes.push_back(arena.name);
  }
  AIM_CHECK_MSG(!homes.empty(), "map has no home_* arenas");

  std::map<std::string, VenueTable> venue_tables;
  auto venues_for = [&](const BehaviorProfile& p) -> const VenueTable& {
    auto it = venue_tables.find(p.name);
    if (it == venue_tables.end()) {
      it = venue_tables.emplace(p.name, discover_venues(map, p)).first;
    }
    return it->second;
  };

  const Step day = cfg.steps_per_day;
  std::vector<AgentSim> sims(static_cast<std::size_t>(cfg.n_agents));
  std::vector<std::vector<Tile>> positions(
      static_cast<std::size_t>(cfg.n_agents));

  for (std::int32_t i = 0; i < cfg.n_agents; ++i) {
    AgentSim& a = sims[static_cast<std::size_t>(i)];
    a.id = i;
    const BehaviorProfile& prof =
        hetero ? cfg.agent_profiles[static_cast<std::size_t>(i)] : profile;
    a.profile = &prof;
    const VenueTable& venues = venues_for(prof);
    // Heterogeneous runs draw each agent's routine from a per-agent stream
    // keyed by (seed, agent, day): the draws are independent of the rest
    // of the population, so changing one agent's profile never perturbs a
    // neighbor's schedule. Homogeneous runs keep the historical shared
    // stream so existing seeds reproduce byte-identical traces.
    Rng agent_stream(agent_day_seed(cfg.seed, i, cfg.day_index));
    Rng& arng = hetero ? agent_stream : rng;
    a.home = homes[static_cast<std::size_t>(i) % homes.size()];
    // Profiles with no (matching) workplace or social venue keep the agent
    // home for that part of the day — the hermit routine.
    a.work = venues.workplaces.empty()
                 ? a.home
                 : venues.workplaces[arng.weighted_index(venues.workplace_w)];
    a.social = venues.socials.empty()
                   ? a.home
                   : venues.socials[arng.weighted_index(venues.social_w)];
    // Daily routines are clock-driven: agents wake on quarter-hour marks,
    // so their wake-up planning bursts align across agents (this is what
    // keeps lock-step sync comparatively cheap in the early-morning quiet
    // hour, §4.3).
    a.wake = clamp_step(
        hour_to_step(arng.normal(prof.wake_hour_mean, prof.wake_hour_sigma)),
        hour_to_step(std::max(0.0, prof.wake_hour_mean - 1.5)),
        hour_to_step(prof.wake_hour_mean + 1.5));
    a.wake = (a.wake / 90) * 90;
    a.leave_home = a.wake + static_cast<Step>(arng.uniform_int(120, 300));
    a.lunch_start = clamp_step(
        hour_to_step(
            arng.normal(prof.lunch_hour_mean, prof.lunch_hour_sigma)),
        std::max<Step>(a.leave_home,
                       hour_to_step(prof.lunch_hour_mean - 0.5)),
        hour_to_step(prof.lunch_hour_mean + 0.7));
    a.lunch_end = a.lunch_start + static_cast<Step>(arng.uniform_int(200, 380));
    a.social_start = clamp_step(
        hour_to_step(
            arng.normal(prof.social_hour_mean, prof.social_hour_sigma)),
        std::max<Step>(a.lunch_end,
                       hour_to_step(prof.social_hour_mean - 1.5)),
        hour_to_step(prof.social_hour_mean + 2.0));
    a.home_start = clamp_step(hour_to_step(arng.normal(prof.home_hour_mean, 0.8)),
                              a.social_start + 60,
                              hour_to_step(prof.home_hour_mean + 2.0));
    a.sleep = clamp_step(hour_to_step(arng.normal(prof.sleep_hour_mean, 0.8)),
                         a.home_start + 60, day);
    // Start in bed at home.
    const world::Arena* home = map.arena(a.home);
    AIM_CHECK(home != nullptr);
    Tile bed = home->rect.center();
    // Crowded maps may share homes: jitter within the plot.
    bed.x = std::clamp(bed.x + static_cast<std::int32_t>(arng.uniform_int(-2, 2)),
                       home->rect.x0, home->rect.x1);
    a.tile = world::nearest_walkable(map, bed);
    if (!cfg.start_tiles.empty()) {
      // Cross-day carry-over: this day starts exactly where the previous
      // one ended (typically in bed anyway — the routine ends at home).
      a.tile = cfg.start_tiles[static_cast<std::size_t>(i)];
    }
    positions[static_cast<std::size_t>(i)].reserve(
        static_cast<std::size_t>(day) + 1);
    positions[static_cast<std::size_t>(i)].push_back(a.tile);
  }

  auto target_arena_at = [&](const AgentSim& a, Step s) -> const std::string& {
    if (s < a.leave_home) return a.home;
    if (s < a.lunch_start) return a.work;
    if (s < a.lunch_end) {
      // Lunch out only for agents who actually left home for work.
      static const std::string kCafe = "cafe";
      return (a.work != a.home && map.arena("cafe")) ? kCafe : a.work;
    }
    if (s < a.social_start) return a.work;
    if (s < a.home_start) return a.social;
    return a.home;
  };

  std::int32_t next_conversation_id = 0;
  std::vector<Interaction> interactions;
  std::map<std::pair<AgentId, AgentId>, Step> last_conversation;

  // Scheduled conversation turns: step -> (speaker, partner, conv id, turn).
  struct Turn {
    AgentId speaker, partner;
    std::int32_t conv_id, turn_idx;
  };
  std::map<Step, std::vector<Turn>> scheduled_turns;

  // ---- Pass A: movement, conversations, wake-up planning, reflections ----
  for (std::int32_t i = 0; i < cfg.n_agents; ++i) {
    AgentSim& a = sims[static_cast<std::size_t>(i)];
    // Wake-up burst: daily plan + schedule decompositions.
    a.calls.push_back(LlmCall{a.id, a.wake, 0, CallType::kDailyPlan,
                              sample_tokens(rng, 820, 0.12, 400, 1600),
                              sample_tokens(rng, 260, 0.15, 120, 500),
                              prompt_hash_for(a.id, CallType::kDailyPlan, -1),
                              -1});
    const int decomp = static_cast<int>(rng.uniform_int(2, 3));
    for (int k = 0; k < decomp; ++k) {
      a.calls.push_back(
          LlmCall{a.id, a.wake + 1 + k, 0, CallType::kScheduleDecomp,
                  sample_tokens(rng, 700, 0.12, 300, 1400),
                  sample_tokens(rng, 120, 0.2, 40, 300),
                  prompt_hash_for(a.id, CallType::kScheduleDecomp, -1), -1});
    }
    // Reflections at 2-3 random awake steps.
    const int reflections = static_cast<int>(rng.uniform_int(2, 3));
    for (int k = 0; k < reflections; ++k) {
      const Step s = static_cast<Step>(
          rng.uniform_int(a.wake + 600, std::max<Step>(a.wake + 601, a.sleep - 60)));
      a.calls.push_back(LlmCall{a.id, std::min(s, day - 1), 0,
                                CallType::kReflect,
                                sample_tokens(rng, 1100, 0.15, 500, 2200),
                                sample_tokens(rng, 110, 0.2, 40, 250),
                                prompt_hash_for(a.id, CallType::kReflect, -1),
                                -1});
    }
  }

  for (Step s = 0; s < day; ++s) {
    const auto hour = static_cast<std::size_t>(
        std::min<Step>(23, static_cast<Step>(s / kStepsPerHour)));

    // Emit scheduled conversation turns for this step.
    if (auto it = scheduled_turns.find(s); it != scheduled_turns.end()) {
      for (const Turn& turn : it->second) {
        AgentSim& speaker = sims[static_cast<std::size_t>(turn.speaker)];
        speaker.calls.push_back(LlmCall{
            turn.speaker, s, 0, CallType::kConverse,
            sample_tokens(rng, 560.0 + 38.0 * turn.turn_idx, 0.1, 200, 3000),
            sample_tokens(rng, 26, 0.3, 4, 80),
            prompt_hash_for(turn.speaker, CallType::kConverse, turn.conv_id),
            turn.conv_id});
        interactions.push_back(Interaction{s, std::min(turn.speaker, turn.partner),
                                           std::max(turn.speaker, turn.partner)});
      }
    }

    // Movement.
    for (auto& a : sims) {
      const bool asleep = s < a.wake || s >= a.sleep;
      if (asleep || a.conversing_until >= s) {
        positions[static_cast<std::size_t>(a.id)].push_back(a.tile);
        continue;
      }
      const std::string& want = target_arena_at(a, s);
      if (want != a.current_target) {
        a.current_target = want;
        const world::Arena* arena = map.arena(want);
        AIM_CHECK(arena != nullptr);
        const Tile goal = random_tile_in(map, *arena, rng);
        a.path = world::find_path(map, a.tile, goal);
        a.path_idx = a.path.empty() ? 0 : 1;  // path[0] == current tile
      }
      if (a.path_idx < a.path.size()) {
        a.tile = a.path[a.path_idx++];
      } else if (rng.bernoulli(0.15)) {
        // Idle wander within the current arena.
        const world::Arena* arena = map.arena_at(a.tile);
        auto neighbors = map.neighbors(a.tile);
        std::vector<Tile> candidates;
        for (Tile n : neighbors) {
          if (!arena || arena->rect.contains(n)) candidates.push_back(n);
        }
        if (!candidates.empty()) {
          a.tile = candidates[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(candidates.size()) - 1))];
        }
      }
      positions[static_cast<std::size_t>(a.id)].push_back(a.tile);
    }

    // Conversation kick-off: co-located awake idle agents.
    for (std::size_t i = 0; i < sims.size(); ++i) {
      AgentSim& a = sims[i];
      if (s < a.wake || s >= a.sleep || a.conversing_until >= s) continue;
      for (std::size_t j = i + 1; j < sims.size(); ++j) {
        AgentSim& b = sims[j];
        if (s < b.wake || s >= b.sleep || b.conversing_until >= s) continue;
        if (euclidean(a.tile.center(), b.tile.center()) > cfg.radius_p) continue;
        const auto pair_key = std::make_pair(a.id, b.id);
        const BehaviorProfile& pa = *a.profile;
        const BehaviorProfile& pb = *b.profile;
        auto lit = last_conversation.find(pair_key);
        if (lit != last_conversation.end() &&
            s - lit->second < std::max(pa.conversation_cooldown_steps,
                                       pb.conversation_cooldown_steps)) {
          continue;
        }
        // Socializing follows the initiator's diurnal intensity: frequent,
        // long conversations at the midday peak, rare brief exchanges in
        // the early morning (§4.3: "busy hours feature long
        // conversations").
        double peak_weight = 0.0;
        for (double w : pa.hourly_weights) {
          peak_weight = std::max(peak_weight, w);
        }
        const double conv_intensity = pa.hourly_weights[hour] / peak_weight;
        // A conversation needs both sides willing: across profiles the
        // pair propensity is the geometric mean, so a hermit (propensity
        // 0) never converses no matter how pushy the other side is. The
        // homogeneous path keeps the plain per-profile propensity
        // (bit-exact with historical traces; sqrt(p*p) can differ by an
        // ulp).
        const double start_prob =
            hetero ? std::sqrt(pa.conversation_start_prob *
                               pb.conversation_start_prob)
                   : pa.conversation_start_prob;
        if (!rng.bernoulli(start_prob * std::max(0.1, conv_intensity))) {
          continue;
        }
        const int n_turns =
            3 + static_cast<int>(rng.poisson(1.4 * pa.hourly_weights[hour] *
                                             pa.conversation_length_scale));
        const std::int32_t conv_id = next_conversation_id++;
        Step turn_step = s + 1;
        for (int t = 0; t < n_turns && turn_step < day; ++t) {
          const AgentId speaker = (t % 2 == 0) ? a.id : b.id;
          const AgentId partner = (t % 2 == 0) ? b.id : a.id;
          scheduled_turns[turn_step].push_back(Turn{speaker, partner, conv_id, t});
          turn_step += 1;
        }
        const Step conv_end = std::min<Step>(turn_step, day - 1);
        a.conversing_until = conv_end;
        b.conversing_until = conv_end;
        last_conversation[pair_key] = conv_end;
        break;  // agent a starts at most one conversation per step
      }
    }
  }

  // ---- Pass B: routine fill to hit the diurnal call-count profile ----
  const double total_target = cfg.target_calls_per_25_agents *
                              (static_cast<double>(cfg.n_agents) / 25.0);

  // Per-hour call targets. Homogeneous: the profile's normalized curve
  // (the historical expression, kept verbatim for bit-exact seeds).
  // Heterogeneous: each agent's equal share of the day's calls spread over
  // its own diurnal curve, summed — so a population of commuters and
  // socialites shows both the rush-hour spikes and the evening plateau.
  std::array<double, 24> target_by_hour{};
  std::vector<double> agent_curve_sum(sims.size(), 0.0);
  if (!hetero) {
    double weight_sum = 0.0;
    for (double w : cfg.profile.hourly_weights) weight_sum += w;
    AIM_CHECK(weight_sum > 0.0);
    for (std::size_t h = 0; h < 24; ++h) {
      target_by_hour[h] =
          total_target * cfg.profile.hourly_weights[h] / weight_sum;
    }
  } else {
    const double per_agent =
        total_target / static_cast<double>(cfg.n_agents);
    for (std::size_t i = 0; i < sims.size(); ++i) {
      const BehaviorProfile& prof = *sims[i].profile;
      double wsum = 0.0;
      for (double w : prof.hourly_weights) wsum += w;
      AIM_CHECK_MSG(wsum > 0.0, "profile '" << prof.name
                                            << "' has an all-zero curve");
      agent_curve_sum[i] = wsum;
      for (std::size_t h = 0; h < 24; ++h) {
        target_by_hour[h] += per_agent * prof.hourly_weights[h] / wsum;
      }
    }
  }

  // Existing (pass A) calls and input tokens per hour.
  std::array<double, 24> existing{};
  double nonroutine_input_sum = 0.0;
  std::size_t nonroutine_count = 0;
  for (const auto& a : sims) {
    for (const auto& c : a.calls) {
      existing[static_cast<std::size_t>(
          std::min<Step>(23, static_cast<Step>(c.step / kStepsPerHour)))] += 1.0;
      nonroutine_input_sum += c.input_tokens;
      ++nonroutine_count;
    }
  }

  // Choose the routine input-token mean so the trace-wide mean hits the
  // calibration target.
  double routine_quota = 0.0;
  for (std::size_t h = 0; h < 24; ++h) {
    routine_quota += std::max(0.0, target_by_hour[h] - existing[h]);
  }
  const double routine_input_mean =
      routine_quota > 0.0
          ? std::clamp((cfg.mean_input_tokens *
                            (routine_quota + static_cast<double>(nonroutine_count)) -
                        nonroutine_input_sum) /
                           routine_quota,
                       64.0, 2048.0)
          : cfg.mean_input_tokens;

  // Awake agents per hour for fill sampling.
  std::array<std::vector<AgentId>, 24> awake_by_hour;
  for (const auto& a : sims) {
    for (std::size_t h = 0; h < 24; ++h) {
      const Step h0 = static_cast<Step>(h * kStepsPerHour);
      const Step h1 = h0 + static_cast<Step>(kStepsPerHour);
      if (a.wake < h1 && a.sleep > h0) awake_by_hour[h].push_back(a.id);
    }
  }

  static const CallType kBurstPattern[4] = {CallType::kPerceive,
                                            CallType::kRetrieve,
                                            CallType::kReact, CallType::kPlan};
  // Output means per routine type, tuned so the trace-wide output mean
  // lands at ~21.9 alongside the heavier plan/reflect/converse calls.
  static const double kBurstOutMean[4] = {16.0, 13.0, 38.0, 35.0};

  // The workload is heavily imbalanced across agents (§2.2, Figure 1):
  // within an hour a few agents dominate, issuing long serial chains, while
  // most agents stay quiet. Skewed per-(agent, hour) activity weights plus
  // heavy-tailed task chain lengths reproduce that sparsity, which is what
  // limits lock-step parallelism in the first place.
  for (std::size_t h = 0; h < 24; ++h) {
    double deficit = target_by_hour[h] - existing[h];
    const auto& candidates = awake_by_hour[h];
    if (candidates.empty()) continue;
    // Mild per-agent skew: the *step-level* dominance (long bursts below)
    // rotates across agents, matching Figure 1 — heavy steps, but hourly
    // totals spread enough that out-of-order execution can overlap them.
    // Heterogeneous runs additionally weight each candidate by its own
    // curve's share of the hour, so a commuter soaks up rush-hour fill and
    // a socialite the evening's.
    std::vector<double> weights(candidates.size());
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      weights[ci] = std::exp(rng.normal(0.0, 0.6));
      if (hetero) {
        const auto idx = static_cast<std::size_t>(candidates[ci]);
        weights[ci] *= std::max(
            1e-6, sims[idx].profile->hourly_weights[h] / agent_curve_sum[idx]);
      }
    }
    const Step h0 = static_cast<Step>(h * kStepsPerHour);
    while (deficit >= 1.0) {
      AgentSim& a =
          sims[static_cast<std::size_t>(candidates[rng.weighted_index(weights)])];
      // Busy hours feature heavy multi-call tasks (long conversations,
      // deep planning); quiet hours are mostly uniform one-or-two-call
      // routines — the §4.3 contrast that makes lock-step sync cheap at
      // 6am and expensive at noon. "Busy" is judged on the selected
      // agent's own curve (identical for every agent when homogeneous).
      double max_weight = 0.0;
      for (double w : a.profile->hourly_weights) {
        max_weight = std::max(max_weight, w);
      }
      const double intensity = a.profile->hourly_weights[h] / max_weight;
      const double p_task = 0.25 * intensity;
      const double task_len_lambda = 1.0 + 7.0 * intensity;
      // In light hours agents run the same clock-driven routines (waking,
      // checking schedules), so their small calls align on common steps —
      // which is why the paper sees parallel-sync do comparatively well in
      // the quiet hour (§4.3). Busy hours are event-driven and unaligned.
      const double p_pulse = 0.9 * (1.0 - intensity);
      const Step lo = std::max(h0, a.wake);
      const Step hi = std::min<Step>(h0 + static_cast<Step>(kStepsPerHour) - 1,
                                     a.sleep - 1);
      if (lo > hi) continue;
      Step s = static_cast<Step>(rng.uniform_int(lo, hi));
      int burst;
      if (rng.bernoulli(p_pulse)) {
        // Clock-aligned routine: snap to the enclosing 2.5-minute boundary.
        s = std::max(lo, static_cast<Step>(s / 15) * 15);
        burst = 1 + static_cast<int>(rng.poisson(0.5));
      } else if (rng.bernoulli(p_task)) {
        burst = 5 + static_cast<int>(rng.poisson(task_len_lambda));
      } else {
        burst = 1 + static_cast<int>(rng.poisson(1.0));  // routine check
      }
      burst = std::min(burst, 24);
      for (int k = 0; k < burst; ++k) {
        const CallType type = kBurstPattern[k % 4];
        a.calls.push_back(
            LlmCall{a.id, s, 0, type,
                    sample_tokens(rng, routine_input_mean, 0.45, 48, 3000),
                    sample_tokens(rng, kBurstOutMean[k % 4], 0.4, 3, 120),
                    prompt_hash_for(a.id, type, -1), -1});
      }
      deficit -= burst;
    }
  }

  // ---- Assemble ----
  SimulationTrace out;
  out.n_agents = cfg.n_agents;
  out.n_steps = day;
  out.start_step = 0;
  out.radius_p = cfg.radius_p;
  out.max_vel = cfg.max_vel;
  out.map_width = map.width();
  out.map_height = map.height();
  out.agents.resize(static_cast<std::size_t>(cfg.n_agents));
  for (std::int32_t i = 0; i < cfg.n_agents; ++i) {
    AgentTrace& at = out.agents[static_cast<std::size_t>(i)];
    at.agent = i;
    at.positions = std::move(positions[static_cast<std::size_t>(i)]);
    AIM_CHECK(at.positions.size() == static_cast<std::size_t>(day) + 1);
    auto& calls = sims[static_cast<std::size_t>(i)].calls;
    std::stable_sort(calls.begin(), calls.end(),
                     [](const LlmCall& x, const LlmCall& y) {
                       return x.step < y.step;
                     });
    std::int32_t seq = 0;
    Step prev = -1;
    for (auto& c : calls) {
      seq = (c.step == prev) ? seq + 1 : 0;
      prev = c.step;
      c.seq = seq;
    }
    at.calls = std::move(calls);
  }
  std::sort(interactions.begin(), interactions.end(),
            [](const Interaction& x, const Interaction& y) {
              if (x.step != y.step) return x.step < y.step;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  interactions.erase(std::unique(interactions.begin(), interactions.end()),
                     interactions.end());
  out.interactions = std::move(interactions);
  out.validate();
  return out;
}

SimulationTrace generate_episode(const world::GridMap& map,
                                 const GeneratorConfig& cfg) {
  AIM_CHECK(cfg.days >= 1);
  if (cfg.days == 1) {
    // Byte-identical to the historical single-day generator.
    return generate(map, cfg);
  }
  std::vector<SimulationTrace> day_traces;
  day_traces.reserve(static_cast<std::size_t>(cfg.days));
  GeneratorConfig day_cfg = cfg;
  for (std::int32_t d = 0; d < cfg.days; ++d) {
    day_cfg.day_index = d;
    if (d > 0) {
      // Cross-day carry-over: day d starts exactly where day d-1 ended.
      day_cfg.start_tiles.clear();
      for (const AgentTrace& a : day_traces.back().agents) {
        day_cfg.start_tiles.push_back(a.positions.back());
      }
    }
    day_traces.push_back(generate(map, day_cfg));
  }
  return concatenate_days(day_traces);
}

SimulationTrace generate_concatenated(
    const GridMap& segment, const std::vector<std::int32_t>& agents_per_segment,
    const GeneratorConfig& base, Step window_begin, Step window_end) {
  AIM_CHECK(!agents_per_segment.empty());
  const std::size_t n_segments = agents_per_segment.size();
  std::vector<std::int32_t> agent_offsets(n_segments, 0);
  std::exclusive_scan(agents_per_segment.begin(), agents_per_segment.end(),
                      agent_offsets.begin(), 0);
  const std::int32_t total = agent_offsets.back() + agents_per_segment.back();
  AIM_CHECK_MSG(base.agent_profiles.empty() ||
                    base.agent_profiles.size() ==
                        static_cast<std::size_t>(total),
                "agent_profiles must cover the combined segment population");
  // Segment k's episode, windowed as soon as it exists so the full-length
  // trace is freed before the next segment is claimed.
  auto generate_segment = [&](std::size_t k) {
    GeneratorConfig cfg = base;
    cfg.n_agents = agents_per_segment[k];
    cfg.seed = base.seed + static_cast<std::uint64_t>(k) * 0x9e3779b9ULL;
    if (!base.agent_profiles.empty()) {
      // Split the heterogeneous assignment across segments in id order.
      const auto begin = base.agent_profiles.begin() + agent_offsets[k];
      cfg.agent_profiles.assign(begin, begin + agents_per_segment[k]);
    }
    SimulationTrace episode = generate_episode(segment, cfg);
    if (window_begin < 0) return episode;
    return slice(episode, window_begin, window_end);
  };
  if (n_segments == 1) return generate_segment(0);

  // Workers claim segment indexes in increasing order and run every
  // segment they claim, so each segment below a failing one runs to
  // completion: the lowest failing index does not depend on the thread
  // count or timing. After a failure, no new segment is claimed.
  std::vector<SimulationTrace> segments(n_segments);
  std::vector<std::exception_ptr> errors(n_segments);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  auto work = [&] {
    while (!failed.load()) {
      const std::size_t k = next.fetch_add(1);
      if (k >= n_segments) return;
      try {
        segments[k] = generate_segment(k);
      } catch (...) {
        errors[k] = std::current_exception();
        failed.store(true);
      }
    }
  };
  const std::size_t n_workers = std::min<std::size_t>(
      n_segments, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> helpers;
  try {
    for (std::size_t i = 1; i < n_workers; ++i) helpers.emplace_back(work);
  } catch (const std::system_error&) {
    // Fewer helpers only lowers parallelism: the caller works too.
  }
  work();
  for (std::thread& t : helpers) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return concatenate_segments(segments, segment.width() + 1);
}

SimulationTrace generate_social_graph(
    const std::vector<std::vector<std::int32_t>>& adjacency,
    const GeneratorConfig& cfg) {
  AIM_CHECK(cfg.n_agents > 0);
  AIM_CHECK(cfg.steps_per_day > 0);
  AIM_CHECK_MSG(cfg.day_index == 0 && cfg.start_tiles.empty(),
                "graph scenarios are single-day");
  AIM_CHECK_MSG(cfg.max_vel >= 1.0 - 1e-9,
                "graph agents hop one edge per step; cfg.max_vel must be >= 1");
  const auto n_nodes = static_cast<std::int32_t>(adjacency.size());
  AIM_CHECK_MSG(n_nodes >= 2, "social graph needs at least two nodes");
  const bool hetero = !cfg.agent_profiles.empty();
  AIM_CHECK_MSG(!hetero || cfg.agent_profiles.size() ==
                               static_cast<std::size_t>(cfg.n_agents),
                "agent_profiles must be empty or one per agent");

  Rng rng(cfg.seed);
  const Step day = cfg.steps_per_day;

  // Per node: the highest-degree neighbor (ties to the smaller id, which
  // sorted adjacency gives for free) — the hub agents drift toward during
  // social hours. This is the graph analogue of the Zipf venue choice: a
  // few well-connected nodes mediate most agent meetings.
  std::vector<std::int32_t> hub_neighbor(static_cast<std::size_t>(n_nodes), -1);
  for (std::int32_t v = 0; v < n_nodes; ++v) {
    std::int32_t best = -1;
    std::size_t best_deg = 0;
    for (std::int32_t nb : adjacency[static_cast<std::size_t>(v)]) {
      const std::size_t deg = adjacency[static_cast<std::size_t>(nb)].size();
      if (deg > best_deg) {
        best_deg = deg;
        best = nb;
      }
    }
    hub_neighbor[static_cast<std::size_t>(v)] = best;
  }

  std::vector<AgentSim> sims(static_cast<std::size_t>(cfg.n_agents));
  std::vector<std::vector<Tile>> positions(
      static_cast<std::size_t>(cfg.n_agents));
  std::vector<double> agent_peak(sims.size(), 1.0);
  for (std::int32_t i = 0; i < cfg.n_agents; ++i) {
    AgentSim& a = sims[static_cast<std::size_t>(i)];
    a.id = i;
    const BehaviorProfile& prof =
        hetero ? cfg.agent_profiles[static_cast<std::size_t>(i)] : cfg.profile;
    a.profile = &prof;
    double peak = 0.0;
    for (double w : prof.hourly_weights) peak = std::max(peak, w);
    AIM_CHECK_MSG(peak > 0.0,
                  "profile '" << prof.name << "' has an all-zero curve");
    agent_peak[static_cast<std::size_t>(i)] = peak;
    Rng agent_stream(agent_day_seed(cfg.seed, i, 0));
    Rng& arng = hetero ? agent_stream : rng;
    // Same clock-driven schedule shape as the grid generator: quarter-hour
    // wake marks keep the morning planning bursts aligned across agents.
    a.wake = clamp_step(
        hour_to_step(arng.normal(prof.wake_hour_mean, prof.wake_hour_sigma)),
        hour_to_step(std::max(0.0, prof.wake_hour_mean - 1.5)),
        hour_to_step(prof.wake_hour_mean + 1.5));
    a.wake = (a.wake / 90) * 90;
    a.social_start = clamp_step(
        hour_to_step(
            arng.normal(prof.social_hour_mean, prof.social_hour_sigma)),
        a.wake + 60, hour_to_step(prof.social_hour_mean + 2.0));
    a.home_start =
        clamp_step(hour_to_step(arng.normal(prof.home_hour_mean, 0.8)),
                   a.social_start + 60,
                   hour_to_step(prof.home_hour_mean + 2.0));
    a.sleep = clamp_step(hour_to_step(arng.normal(prof.sleep_hour_mean, 0.8)),
                         a.home_start + 60, day);
    // Home node: spread the population over the whole graph.
    a.tile = Tile{static_cast<std::int32_t>(arng.uniform_int(0, n_nodes - 1)),
                  0};
    positions[static_cast<std::size_t>(i)].reserve(
        static_cast<std::size_t>(day) + 1);
    positions[static_cast<std::size_t>(i)].push_back(a.tile);
  }

  std::int32_t next_conversation_id = 0;
  std::vector<Interaction> interactions;
  std::map<std::pair<AgentId, AgentId>, Step> last_conversation;
  struct Turn {
    AgentId speaker, partner;
    std::int32_t conv_id, turn_idx;
  };
  std::map<Step, std::vector<Turn>> scheduled_turns;

  // ---- Pass A: movement, conversations, wake-up planning, reflections ----
  for (std::int32_t i = 0; i < cfg.n_agents; ++i) {
    AgentSim& a = sims[static_cast<std::size_t>(i)];
    a.calls.push_back(LlmCall{a.id, a.wake, 0, CallType::kDailyPlan,
                              sample_tokens(rng, 820, 0.12, 400, 1600),
                              sample_tokens(rng, 260, 0.15, 120, 500),
                              prompt_hash_for(a.id, CallType::kDailyPlan, -1),
                              -1});
    const int decomp = static_cast<int>(rng.uniform_int(2, 3));
    for (int k = 0; k < decomp; ++k) {
      a.calls.push_back(
          LlmCall{a.id, a.wake + 1 + k, 0, CallType::kScheduleDecomp,
                  sample_tokens(rng, 700, 0.12, 300, 1400),
                  sample_tokens(rng, 120, 0.2, 40, 300),
                  prompt_hash_for(a.id, CallType::kScheduleDecomp, -1), -1});
    }
    const int reflections = static_cast<int>(rng.uniform_int(2, 3));
    for (int k = 0; k < reflections; ++k) {
      const Step s = static_cast<Step>(rng.uniform_int(
          a.wake + 600, std::max<Step>(a.wake + 601, a.sleep - 60)));
      a.calls.push_back(LlmCall{a.id, std::min(s, day - 1), 0,
                                CallType::kReflect,
                                sample_tokens(rng, 1100, 0.15, 500, 2200),
                                sample_tokens(rng, 110, 0.2, 40, 250),
                                prompt_hash_for(a.id, CallType::kReflect, -1),
                                -1});
    }
  }

  // Node buckets reused across steps (cleared through the touched list, so
  // a step costs O(population), not O(nodes)).
  std::vector<std::vector<AgentId>> node_bucket(
      static_cast<std::size_t>(n_nodes));
  std::vector<std::int32_t> touched;

  for (Step s = 0; s < day; ++s) {
    const auto hour = static_cast<std::size_t>(
        std::min<Step>(23, static_cast<Step>(s / kStepsPerHour)));

    // Emit scheduled conversation turns for this step.
    if (auto it = scheduled_turns.find(s); it != scheduled_turns.end()) {
      for (const Turn& turn : it->second) {
        AgentSim& speaker = sims[static_cast<std::size_t>(turn.speaker)];
        speaker.calls.push_back(LlmCall{
            turn.speaker, s, 0, CallType::kConverse,
            sample_tokens(rng, 560.0 + 38.0 * turn.turn_idx, 0.1, 200, 3000),
            sample_tokens(rng, 26, 0.3, 4, 80),
            prompt_hash_for(turn.speaker, CallType::kConverse, turn.conv_id),
            turn.conv_id});
        interactions.push_back(
            Interaction{s, std::min(turn.speaker, turn.partner),
                        std::max(turn.speaker, turn.partner)});
      }
    }

    // Movement: stay-or-one-hop random walk with the profile's diurnal
    // intensity; social hours bias the hop toward the highest-degree
    // neighbor, funneling the population onto hub nodes.
    for (auto& a : sims) {
      const bool asleep = s < a.wake || s >= a.sleep;
      if (asleep || a.conversing_until >= s) {
        positions[static_cast<std::size_t>(a.id)].push_back(a.tile);
        continue;
      }
      const double intensity = a.profile->hourly_weights[hour] /
                               agent_peak[static_cast<std::size_t>(a.id)];
      if (rng.bernoulli(0.05 + 0.25 * intensity)) {
        const auto& nbrs = adjacency[static_cast<std::size_t>(a.tile.x)];
        if (!nbrs.empty()) {
          const bool social = s >= a.social_start && s < a.home_start;
          const std::int32_t hub =
              hub_neighbor[static_cast<std::size_t>(a.tile.x)];
          std::int32_t dest;
          if (social && hub >= 0 && rng.bernoulli(0.6)) {
            dest = hub;
          } else {
            dest = nbrs[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(nbrs.size()) - 1))];
          }
          a.tile = Tile{dest, 0};
        }
      }
      positions[static_cast<std::size_t>(a.id)].push_back(a.tile);
    }

    // Conversation kick-off: same-node awake idle agents, paired within
    // their node bucket. Filling buckets in agent-id order keeps the pair
    // stream deterministic and avoids the grid generator's O(n^2) pair
    // scan, which would not survive 10k agents.
    touched.clear();
    for (const auto& a : sims) {
      if (s < a.wake || s >= a.sleep || a.conversing_until >= s) continue;
      auto& bucket = node_bucket[static_cast<std::size_t>(a.tile.x)];
      if (bucket.empty()) touched.push_back(a.tile.x);
      bucket.push_back(a.id);
    }
    for (std::int32_t node : touched) {
      auto& bucket = node_bucket[static_cast<std::size_t>(node)];
      for (std::size_t bi = 0; bi + 1 < bucket.size(); ++bi) {
        AgentSim& a = sims[static_cast<std::size_t>(bucket[bi])];
        AgentSim& b = sims[static_cast<std::size_t>(bucket[bi + 1])];
        if (a.conversing_until >= s || b.conversing_until >= s) continue;
        const auto pair_key = std::make_pair(a.id, b.id);
        const BehaviorProfile& pa = *a.profile;
        const BehaviorProfile& pb = *b.profile;
        auto lit = last_conversation.find(pair_key);
        if (lit != last_conversation.end() &&
            s - lit->second < std::max(pa.conversation_cooldown_steps,
                                       pb.conversation_cooldown_steps)) {
          continue;
        }
        const double conv_intensity =
            pa.hourly_weights[hour] / agent_peak[static_cast<std::size_t>(a.id)];
        const double start_prob =
            hetero ? std::sqrt(pa.conversation_start_prob *
                               pb.conversation_start_prob)
                   : pa.conversation_start_prob;
        if (!rng.bernoulli(start_prob * std::max(0.1, conv_intensity))) {
          continue;
        }
        const int n_turns =
            3 + static_cast<int>(rng.poisson(1.4 * pa.hourly_weights[hour] *
                                             pa.conversation_length_scale));
        const std::int32_t conv_id = next_conversation_id++;
        Step turn_step = s + 1;
        for (int t = 0; t < n_turns && turn_step < day; ++t) {
          const AgentId speaker = (t % 2 == 0) ? a.id : b.id;
          const AgentId partner = (t % 2 == 0) ? b.id : a.id;
          scheduled_turns[turn_step].push_back(
              Turn{speaker, partner, conv_id, t});
          turn_step += 1;
        }
        const Step conv_end = std::min<Step>(turn_step, day - 1);
        a.conversing_until = conv_end;
        b.conversing_until = conv_end;
        last_conversation[pair_key] = conv_end;
        ++bi;  // b is taken; move past it
      }
      bucket.clear();
    }
  }

  // ---- Pass B: routine fill to hit the diurnal call-count profile ----
  // Identical to the grid generator's fill: it depends only on schedules,
  // profiles, and the pass-A calls, never on world geometry.
  const double total_target = cfg.target_calls_per_25_agents *
                              (static_cast<double>(cfg.n_agents) / 25.0);

  std::array<double, 24> target_by_hour{};
  std::vector<double> agent_curve_sum(sims.size(), 0.0);
  if (!hetero) {
    double weight_sum = 0.0;
    for (double w : cfg.profile.hourly_weights) weight_sum += w;
    AIM_CHECK(weight_sum > 0.0);
    for (std::size_t h = 0; h < 24; ++h) {
      target_by_hour[h] =
          total_target * cfg.profile.hourly_weights[h] / weight_sum;
    }
  } else {
    const double per_agent = total_target / static_cast<double>(cfg.n_agents);
    for (std::size_t i = 0; i < sims.size(); ++i) {
      const BehaviorProfile& prof = *sims[i].profile;
      double wsum = 0.0;
      for (double w : prof.hourly_weights) wsum += w;
      AIM_CHECK_MSG(wsum > 0.0, "profile '" << prof.name
                                            << "' has an all-zero curve");
      agent_curve_sum[i] = wsum;
      for (std::size_t h = 0; h < 24; ++h) {
        target_by_hour[h] += per_agent * prof.hourly_weights[h] / wsum;
      }
    }
  }

  std::array<double, 24> existing{};
  double nonroutine_input_sum = 0.0;
  std::size_t nonroutine_count = 0;
  for (const auto& a : sims) {
    for (const auto& c : a.calls) {
      existing[static_cast<std::size_t>(
          std::min<Step>(23, static_cast<Step>(c.step / kStepsPerHour)))] += 1.0;
      nonroutine_input_sum += c.input_tokens;
      ++nonroutine_count;
    }
  }

  double routine_quota = 0.0;
  for (std::size_t h = 0; h < 24; ++h) {
    routine_quota += std::max(0.0, target_by_hour[h] - existing[h]);
  }
  const double routine_input_mean =
      routine_quota > 0.0
          ? std::clamp(
                (cfg.mean_input_tokens *
                     (routine_quota + static_cast<double>(nonroutine_count)) -
                 nonroutine_input_sum) /
                    routine_quota,
                64.0, 2048.0)
          : cfg.mean_input_tokens;

  std::array<std::vector<AgentId>, 24> awake_by_hour;
  for (const auto& a : sims) {
    for (std::size_t h = 0; h < 24; ++h) {
      const Step h0 = static_cast<Step>(h * kStepsPerHour);
      const Step h1 = h0 + static_cast<Step>(kStepsPerHour);
      if (a.wake < h1 && a.sleep > h0) awake_by_hour[h].push_back(a.id);
    }
  }

  static const CallType kBurstPattern[4] = {CallType::kPerceive,
                                            CallType::kRetrieve,
                                            CallType::kReact, CallType::kPlan};
  static const double kBurstOutMean[4] = {16.0, 13.0, 38.0, 35.0};

  for (std::size_t h = 0; h < 24; ++h) {
    double deficit = target_by_hour[h] - existing[h];
    const auto& candidates = awake_by_hour[h];
    if (candidates.empty()) continue;
    std::vector<double> weights(candidates.size());
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      weights[ci] = std::exp(rng.normal(0.0, 0.6));
      if (hetero) {
        const auto idx = static_cast<std::size_t>(candidates[ci]);
        weights[ci] *= std::max(
            1e-6, sims[idx].profile->hourly_weights[h] / agent_curve_sum[idx]);
      }
    }
    const Step h0 = static_cast<Step>(h * kStepsPerHour);
    while (deficit >= 1.0) {
      AgentSim& a = sims[static_cast<std::size_t>(
          candidates[rng.weighted_index(weights)])];
      const double intensity = a.profile->hourly_weights[h] /
                               agent_peak[static_cast<std::size_t>(a.id)];
      const double p_task = 0.25 * intensity;
      const double task_len_lambda = 1.0 + 7.0 * intensity;
      const double p_pulse = 0.9 * (1.0 - intensity);
      const Step lo = std::max(h0, a.wake);
      const Step hi = std::min<Step>(h0 + static_cast<Step>(kStepsPerHour) - 1,
                                     a.sleep - 1);
      if (lo > hi) continue;
      Step s = static_cast<Step>(rng.uniform_int(lo, hi));
      int burst;
      if (rng.bernoulli(p_pulse)) {
        s = std::max(lo, static_cast<Step>(s / 15) * 15);
        burst = 1 + static_cast<int>(rng.poisson(0.5));
      } else if (rng.bernoulli(p_task)) {
        burst = 5 + static_cast<int>(rng.poisson(task_len_lambda));
      } else {
        burst = 1 + static_cast<int>(rng.poisson(1.0));
      }
      burst = std::min(burst, 24);
      for (int k = 0; k < burst; ++k) {
        const CallType type = kBurstPattern[k % 4];
        a.calls.push_back(
            LlmCall{a.id, s, 0, type,
                    sample_tokens(rng, routine_input_mean, 0.45, 48, 3000),
                    sample_tokens(rng, kBurstOutMean[k % 4], 0.4, 3, 120),
                    prompt_hash_for(a.id, type, -1), -1});
      }
      deficit -= burst;
    }
  }

  // ---- Assemble ----
  SimulationTrace out;
  out.n_agents = cfg.n_agents;
  out.n_steps = day;
  out.start_step = 0;
  out.radius_p = cfg.radius_p;
  out.max_vel = cfg.max_vel;
  out.map_width = n_nodes;
  out.map_height = 1;
  out.world_kind = WorldKind::kGraph;
  out.graph_adjacency = adjacency;
  out.agents.resize(static_cast<std::size_t>(cfg.n_agents));
  for (std::int32_t i = 0; i < cfg.n_agents; ++i) {
    AgentTrace& at = out.agents[static_cast<std::size_t>(i)];
    at.agent = i;
    at.positions = std::move(positions[static_cast<std::size_t>(i)]);
    AIM_CHECK(at.positions.size() == static_cast<std::size_t>(day) + 1);
    auto& calls = sims[static_cast<std::size_t>(i)].calls;
    std::stable_sort(calls.begin(), calls.end(),
                     [](const LlmCall& x, const LlmCall& y) {
                       return x.step < y.step;
                     });
    std::int32_t seq = 0;
    Step prev = -1;
    for (auto& c : calls) {
      seq = (c.step == prev) ? seq + 1 : 0;
      prev = c.step;
      c.seq = seq;
    }
    at.calls = std::move(calls);
  }
  std::sort(interactions.begin(), interactions.end(),
            [](const Interaction& x, const Interaction& y) {
              if (x.step != y.step) return x.step < y.step;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  interactions.erase(std::unique(interactions.begin(), interactions.end()),
                     interactions.end());
  out.interactions = std::move(interactions);
  out.validate();
  return out;
}

}  // namespace aimetro::trace
