#include "trace/generator.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <exception>
#include <map>
#include <numeric>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_map>
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
  /// The profile's highest hourly weight: an hour's intensity is its
  /// weight over this peak.
  double peak = 0.0;
  // Daily schedule (step indices).
  Step wake = 0, leave_home = 0, lunch_start = 0, lunch_end = 0;
  Step social_start = 0, home_start = 0, sleep = 0;
  // Arenas of the map the agent lives on; never null after init.
  const world::Arena* home = nullptr;
  const world::Arena* work = nullptr;
  const world::Arena* social = nullptr;
  // Navigation.
  const world::Arena* current_target = nullptr;
  std::vector<Tile> path;
  std::size_t path_idx = 0;
  // Conversation state.
  Step conversing_until = -1;
  // Output.
  std::vector<Tile> positions;
  std::vector<LlmCall> calls;
};

Step hour_to_step(double hour) {
  return static_cast<Step>(std::lround(hour * kStepsPerHour));
}

/// The hour of the day step `s` falls in; the last hour absorbs any
/// remainder.
std::size_t hour_of(Step s) {
  return static_cast<std::size_t>(
      std::min<Step>(23, static_cast<Step>(s / kStepsPerHour)));
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
  std::vector<const world::Arena*> workplaces;
  std::vector<double> workplace_w;
  std::vector<const world::Arena*> socials;
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
      vt.workplaces.push_back(arena);
      vt.workplace_w.push_back(w / static_cast<double>(matched.size()));
    }
  }
  // Social venues: Zipf over discovery rank — a heavy alpha concentrates
  // the evening population on one hub venue (power-law contact graph).
  for (const auto& prefix : profile.social_prefixes) {
    for (const auto& arena : map.arenas()) {
      if (arena.name.rfind(prefix, 0) == 0) {
        vt.socials.push_back(&arena);
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

// ---- The day model both worlds share ----
//
// Each generator places and moves its agents, draws the schedule only its
// world has (the grid's commute and lunch), and finds its own kick-off
// candidate pairs. The rest of an agent's day comes from the helpers
// below, so a calibration or conversation rule is written once.

/// The profile's highest hourly weight. An all-zero curve has no busy
/// hour to scale by, so it is rejected here.
double peak_weight(const BehaviorProfile& prof) {
  double peak = 0.0;
  for (double w : prof.hourly_weights) peak = std::max(peak, w);
  AIM_CHECK_MSG(peak > 0.0,
                "profile '" << prof.name << "' has an all-zero curve");
  return peak;
}

/// One AgentSim per agent, with its id, behavior profile and curve peak
/// set: cfg.profile for everyone, or each agent's entry of
/// cfg.agent_profiles.
std::vector<AgentSim> make_agents(const GeneratorConfig& cfg) {
  AIM_CHECK(cfg.n_agents > 0);
  AIM_CHECK_MSG(cfg.agent_profiles.empty() ||
                    cfg.agent_profiles.size() ==
                        static_cast<std::size_t>(cfg.n_agents),
                "agent_profiles must be empty or one per agent");
  std::vector<AgentSim> sims(static_cast<std::size_t>(cfg.n_agents));
  for (std::size_t i = 0; i < sims.size(); ++i) {
    sims[i].id = static_cast<AgentId>(i);
    sims[i].profile = cfg.agent_profiles.empty() ? &cfg.profile
                                                 : &cfg.agent_profiles[i];
    sims[i].peak = peak_weight(*sims[i].profile);
  }
  return sims;
}

/// Daily routines are clock-driven: agents wake on quarter-hour marks, so
/// their wake-up planning bursts align across agents (this is what keeps
/// lock-step sync comparatively cheap in the early-morning quiet hour,
/// §4.3).
Step draw_wake(Rng& rng, const BehaviorProfile& prof) {
  const Step wake = clamp_step(
      hour_to_step(rng.normal(prof.wake_hour_mean, prof.wake_hour_sigma)),
      hour_to_step(std::max(0.0, prof.wake_hour_mean - 1.5)),
      hour_to_step(prof.wake_hour_mean + 1.5));
  return (wake / 90) * 90;
}

/// The evening: social time from no earlier than `social_lo`, then home,
/// then sleep before the day ends.
void draw_evening(Rng& rng, const BehaviorProfile& prof, Step social_lo,
                  Step day, AgentSim& a) {
  a.social_start = clamp_step(
      hour_to_step(rng.normal(prof.social_hour_mean, prof.social_hour_sigma)),
      social_lo, hour_to_step(prof.social_hour_mean + 2.0));
  a.home_start = clamp_step(hour_to_step(rng.normal(prof.home_hour_mean, 0.8)),
                            a.social_start + 60,
                            hour_to_step(prof.home_hour_mean + 2.0));
  a.sleep = clamp_step(hour_to_step(rng.normal(prof.sleep_hour_mean, 0.8)),
                       a.home_start + 60, day);
}

/// Pass A's planning calls, agent by agent: the wake-up burst (daily plan
/// plus schedule decompositions) and reflections at 2-3 random awake
/// steps.
void plan_day(std::vector<AgentSim>& sims, Step day, Rng& rng) {
  for (AgentSim& a : sims) {
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
}

/// Conversations of one day: the turns scheduled for later steps, each
/// pair's last conversation end (its cooldown), and the interaction every
/// emitted turn records.
class ConversationBook {
 public:
  ConversationBook(Step day, bool hetero) : day_(day), hetero_(hetero) {}

  /// Emits the turns scheduled for step `s` as converse calls.
  void emit_turns(Step s, std::vector<AgentSim>& sims, Rng& rng) {
    auto it = scheduled_.find(s);
    if (it == scheduled_.end()) return;
    for (const Turn& turn : it->second) {
      sims[static_cast<std::size_t>(turn.speaker)].calls.push_back(LlmCall{
          turn.speaker, s, 0, CallType::kConverse,
          sample_tokens(rng, 560.0 + 38.0 * turn.turn_idx, 0.1, 200, 3000),
          sample_tokens(rng, 26, 0.3, 4, 80),
          prompt_hash_for(turn.speaker, CallType::kConverse, turn.conv_id),
          turn.conv_id});
      interactions_.push_back(
          Interaction{s, std::min(turn.speaker, turn.partner),
                      std::max(turn.speaker, turn.partner)});
    }
  }

  /// Idle agents a and b (a.id < b.id) are co-located at step `s`: past
  /// their pair cooldown, draws whether they start talking. A started
  /// conversation schedules its turns from s + 1 and keeps both busy until
  /// it ends. Returns whether one started.
  bool try_start(AgentSim& a, AgentSim& b, Step s, Rng& rng) {
    const std::uint64_t pair_key =
        (static_cast<std::uint64_t>(a.id) << 32) |
        static_cast<std::uint32_t>(b.id);
    const BehaviorProfile& pa = *a.profile;
    const BehaviorProfile& pb = *b.profile;
    auto lit = last_end_.find(pair_key);
    if (lit != last_end_.end() &&
        s - lit->second < std::max(pa.conversation_cooldown_steps,
                                   pb.conversation_cooldown_steps)) {
      return false;
    }
    // Socializing follows the initiator's diurnal intensity: frequent,
    // long conversations at the midday peak, rare brief exchanges in the
    // early morning (§4.3: "busy hours feature long conversations").
    const std::size_t hour = hour_of(s);
    const double conv_intensity = pa.hourly_weights[hour] / a.peak;
    // A conversation needs both sides willing: across profiles the pair
    // propensity is the geometric mean, so a hermit (propensity 0) never
    // converses no matter how pushy the other side is. The homogeneous
    // path keeps the plain per-profile propensity (bit-exact with
    // historical traces; sqrt(p*p) can differ by an ulp).
    const double start_prob =
        hetero_ ? std::sqrt(pa.conversation_start_prob *
                            pb.conversation_start_prob)
                : pa.conversation_start_prob;
    if (!rng.bernoulli(start_prob * std::max(0.1, conv_intensity))) {
      return false;
    }
    const int n_turns =
        3 + static_cast<int>(rng.poisson(1.4 * pa.hourly_weights[hour] *
                                         pa.conversation_length_scale));
    const std::int32_t conv_id = next_id_++;
    Step turn_step = s + 1;
    for (int t = 0; t < n_turns && turn_step < day_; ++t) {
      const AgentId speaker = (t % 2 == 0) ? a.id : b.id;
      const AgentId partner = (t % 2 == 0) ? b.id : a.id;
      scheduled_[turn_step].push_back(Turn{speaker, partner, conv_id, t});
      turn_step += 1;
    }
    const Step conv_end = std::min<Step>(turn_step, day_ - 1);
    a.conversing_until = conv_end;
    b.conversing_until = conv_end;
    last_end_[pair_key] = conv_end;
    return true;
  }

  std::vector<Interaction> take_interactions() {
    return std::move(interactions_);
  }

 private:
  struct Turn {
    AgentId speaker, partner;
    std::int32_t conv_id, turn_idx;
  };
  Step day_;
  bool hetero_;
  std::int32_t next_id_ = 0;
  // Turns by the step they are spoken at.
  std::map<Step, std::vector<Turn>> scheduled_;
  // Each pair's last conversation end, keyed (lower id << 32) | higher id.
  std::unordered_map<std::uint64_t, Step> last_end_;
  std::vector<Interaction> interactions_;
};

/// Pass B: routine fill to hit the diurnal call-count profile. It depends
/// only on schedules, profiles and the Pass-A calls, never on the world.
/// Only calls at steps in [keep_begin, keep_end) are stored. The others are
/// still drawn, token counts included, so each kept call draws what it
/// would in a whole day. Nothing draws from `rng` after Pass B, so the fill
/// stops at the first hour that starts at or after keep_end. Each hour
/// draws its agents from a WeightedTable: a binary search over the hour's
/// running sums, which picks exactly the agents the subtractive scan would.
void fill_routine(std::vector<AgentSim>& sims, const GeneratorConfig& cfg,
                  bool hetero, Step keep_begin, Step keep_end, Rng& rng) {
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
      existing[hour_of(c.step)] += 1.0;
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
    const Step h0 = static_cast<Step>(h * kStepsPerHour);
    if (h0 >= keep_end) break;
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
    // The weights are fixed for the hour: their running sums are built
    // once, not per draw.
    const WeightedTable table(std::move(weights));
    while (deficit >= 1.0) {
      AgentSim& a = sims[static_cast<std::size_t>(
          candidates[rng.weighted_index(table)])];
      // Busy hours feature heavy multi-call tasks (long conversations,
      // deep planning); quiet hours are mostly uniform one-or-two-call
      // routines — the §4.3 contrast that makes lock-step sync cheap at
      // 6am and expensive at noon. "Busy" is judged on the selected
      // agent's own curve (identical for every agent when homogeneous).
      const double intensity = a.profile->hourly_weights[h] / a.peak;
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
      const bool keep = s >= keep_begin && s < keep_end;
      for (int k = 0; k < burst; ++k) {
        const CallType type = kBurstPattern[k % 4];
        const std::int32_t input =
            sample_tokens(rng, routine_input_mean, 0.45, 48, 3000);
        const std::int32_t output =
            sample_tokens(rng, kBurstOutMean[k % 4], 0.4, 3, 120);
        if (keep) {
          a.calls.push_back(LlmCall{a.id, s, 0, type, input, output,
                                    prompt_hash_for(a.id, type, -1), -1});
        }
      }
      deficit -= burst;
    }
  }
}

/// Fills `out`, whose world fields the caller has set, with the day's
/// agents and interactions and validates it. Each agent's calls are sorted
/// by step and numbered within a step; with window_begin >= 0 only the
/// calls and interactions in [window_begin, window_end) are kept,
/// filtered after the numbering exactly as slice() would, and the agents'
/// positions must cover [window_begin, window_end].
SimulationTrace assemble(SimulationTrace out, const GeneratorConfig& cfg,
                         std::vector<AgentSim>& sims,
                         std::vector<Interaction> interactions,
                         Step window_begin, Step window_end) {
  const bool windowed = window_begin >= 0;
  out.n_agents = cfg.n_agents;
  out.start_step = windowed ? window_begin : 0;
  out.n_steps = (windowed ? window_end : cfg.steps_per_day) - out.start_step;
  out.radius_p = cfg.radius_p;
  out.max_vel = cfg.max_vel;
  auto outside_window = [&](Step step) {
    return windowed && (step < window_begin || step >= window_end);
  };
  out.agents.resize(sims.size());
  for (std::size_t i = 0; i < sims.size(); ++i) {
    AgentTrace& at = out.agents[i];
    at.agent = static_cast<AgentId>(i);
    at.positions = std::move(sims[i].positions);
    AIM_CHECK(at.positions.size() ==
              static_cast<std::size_t>(out.n_steps) + 1);
    auto& calls = sims[i].calls;
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
    calls.erase(std::remove_if(calls.begin(), calls.end(),
                               [&](const LlmCall& c) {
                                 return outside_window(c.step);
                               }),
                calls.end());
    // A window keeps a small share of the day's Pass-A calls: the trace
    // gives back the capacity the rest took (likewise for interactions).
    if (windowed) calls.shrink_to_fit();
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
  interactions.erase(std::remove_if(interactions.begin(), interactions.end(),
                                    [&](const Interaction& in) {
                                      return outside_window(in.step);
                                    }),
                     interactions.end());
  if (windowed) interactions.shrink_to_fit();
  out.interactions = std::move(interactions);
  out.validate();
  return out;
}

}  // namespace

SimulationTrace generate(const GridMap& map, const GeneratorConfig& cfg) {
  AIM_CHECK(cfg.steps_per_day > 0);
  AIM_CHECK(cfg.day_index >= 0);
  AIM_CHECK_MSG(cfg.radius_p >= 0.0,
                "radius_p must be >= 0, got " << cfg.radius_p);
  AIM_CHECK_MSG(cfg.start_tiles.empty() ||
                    cfg.start_tiles.size() ==
                        static_cast<std::size_t>(cfg.n_agents),
                "start_tiles must be empty or one per agent");
  std::vector<AgentSim> sims = make_agents(cfg);
  const bool hetero = !cfg.agent_profiles.empty();
  // Day 0 seeds exactly as the historical single-day generator; later days
  // of an episode derive an independent stream so each day rolls fresh
  // randomness (schedules, conversations, fill).
  Rng rng(cfg.day_index == 0
              ? cfg.seed
              : splitmix64(cfg.seed + 0x9e3779b97f4a7c15ULL *
                                          static_cast<std::uint64_t>(
                                              cfg.day_index)));

  // Discover available homes on the map. Workplaces and social venues are
  // profile-dependent (arena-name prefixes, so the same profile works on
  // any map family): one venue table per distinct profile in the run.
  std::vector<const world::Arena*> homes;
  for (const auto& arena : map.arenas()) {
    if (arena.name.rfind("home_", 0) == 0) homes.push_back(&arena);
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
  for (std::int32_t i = 0; i < cfg.n_agents; ++i) {
    AgentSim& a = sims[static_cast<std::size_t>(i)];
    const BehaviorProfile& prof = *a.profile;
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
    a.wake = draw_wake(arng, prof);
    a.leave_home = a.wake + static_cast<Step>(arng.uniform_int(120, 300));
    a.lunch_start = clamp_step(
        hour_to_step(
            arng.normal(prof.lunch_hour_mean, prof.lunch_hour_sigma)),
        std::max<Step>(a.leave_home,
                       hour_to_step(prof.lunch_hour_mean - 0.5)),
        hour_to_step(prof.lunch_hour_mean + 0.7));
    a.lunch_end = a.lunch_start + static_cast<Step>(arng.uniform_int(200, 380));
    draw_evening(arng, prof,
                 std::max<Step>(a.lunch_end,
                                hour_to_step(prof.social_hour_mean - 1.5)),
                 day, a);
    // Start in bed at home.
    Tile bed = a.home->rect.center();
    // Crowded maps may share homes: jitter within the plot.
    bed.x = std::clamp(bed.x + static_cast<std::int32_t>(arng.uniform_int(-2, 2)),
                       a.home->rect.x0, a.home->rect.x1);
    a.tile = world::nearest_walkable(map, bed);
    if (!cfg.start_tiles.empty()) {
      // Cross-day carry-over: this day starts exactly where the previous
      // one ended (typically in bed anyway — the routine ends at home).
      a.tile = cfg.start_tiles[static_cast<std::size_t>(i)];
    }
    a.positions.reserve(static_cast<std::size_t>(day) + 1);
    a.positions.push_back(a.tile);
  }

  const world::Arena* const cafe = map.arena("cafe");
  auto target_arena_at = [&](const AgentSim& a, Step s) {
    if (s < a.leave_home) return a.home;
    if (s < a.lunch_start) return a.work;
    if (s < a.lunch_end) {
      // Lunch out only for agents who actually left home for work.
      return (a.work != a.home && cafe) ? cafe : a.work;
    }
    if (s < a.social_start) return a.work;
    if (s < a.home_start) return a.social;
    return a.home;
  };

  // The kick-off scan's list, reused across steps.
  struct Idle {
    Tile tile;
    AgentId agent;
    bool busy;
  };
  std::vector<Idle> idle;
  // A pair more than `reach` tiles apart on either axis is farther than
  // radius_p, so the exact distance test below would reject it too (tile
  // differences are small exact integers). The map extent caps the bound
  // before the integer cast.
  const auto reach = static_cast<std::int32_t>(std::floor(std::min(
      cfg.radius_p, static_cast<double>(map.width() + map.height()))));

  // ---- Pass A: movement, conversations, wake-up planning, reflections ----
  plan_day(sims, day, rng);
  ConversationBook book(day, hetero);
  for (Step s = 0; s < day; ++s) {
    book.emit_turns(s, sims, rng);

    // Movement.
    for (auto& a : sims) {
      const bool asleep = s < a.wake || s >= a.sleep;
      if (asleep || a.conversing_until >= s) {
        a.positions.push_back(a.tile);
        continue;
      }
      const world::Arena* want = target_arena_at(a, s);
      if (want != a.current_target) {
        a.current_target = want;
        const Tile goal = random_tile_in(map, *want, rng);
        a.path = world::find_path(map, a.tile, goal);
        a.path_idx = a.path.empty() ? 0 : 1;  // path[0] == current tile
      }
      if (a.path_idx < a.path.size()) {
        a.tile = a.path[a.path_idx++];
      } else if (rng.bernoulli(0.15)) {
        // Idle wander within the current arena, to a walkable neighbor
        // drawn in +x, -x, +y, -y order.
        const world::Arena* arena = map.arena_at(a.tile);
        const Tile t = a.tile;
        std::array<Tile, 4> candidates;
        std::int64_t n = 0;
        for (const Tile next : {Tile{t.x + 1, t.y}, Tile{t.x - 1, t.y},
                                Tile{t.x, t.y + 1}, Tile{t.x, t.y - 1}}) {
          if (map.walkable(next) && (!arena || arena->rect.contains(next))) {
            candidates[static_cast<std::size_t>(n++)] = next;
          }
        }
        if (n > 0) {
          a.tile =
              candidates[static_cast<std::size_t>(rng.uniform_int(0, n - 1))];
        }
      }
      a.positions.push_back(a.tile);
    }

    // Conversation kick-off: co-located awake idle agents. The scan runs
    // over the agents awake and idle when it starts, in index order; a
    // conversation marks both sides busy for the rest of the scan.
    idle.clear();
    for (const AgentSim& a : sims) {
      if (s < a.wake || s >= a.sleep || a.conversing_until >= s) continue;
      idle.push_back(Idle{a.tile, a.id, false});
    }
    for (std::size_t i = 0; i < idle.size(); ++i) {
      if (idle[i].busy) continue;
      AgentSim& a = sims[static_cast<std::size_t>(idle[i].agent)];
      for (std::size_t j = i + 1; j < idle.size(); ++j) {
        if (idle[j].busy) continue;
        if (std::abs(idle[j].tile.x - a.tile.x) > reach ||
            std::abs(idle[j].tile.y - a.tile.y) > reach) {
          continue;
        }
        AgentSim& b = sims[static_cast<std::size_t>(idle[j].agent)];
        if (euclidean(a.tile.center(), b.tile.center()) > cfg.radius_p) continue;
        if (!book.try_start(a, b, s, rng)) continue;
        idle[j].busy = true;
        break;  // agent a starts at most one conversation per step
      }
    }
  }

  fill_routine(sims, cfg, hetero, 0, day, rng);

  SimulationTrace out;
  out.map_width = map.width();
  out.map_height = map.height();
  return assemble(std::move(out), cfg, sims, book.take_interactions(), -1, -1);
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

SimulationTrace generate_social_graph(world::CsrGraph graph,
                                      const GeneratorConfig& cfg,
                                      Step window_begin, Step window_end) {
  AIM_CHECK(cfg.steps_per_day > 0);
  const bool windowed = window_begin >= 0;
  AIM_CHECK_MSG(!windowed || (window_begin < window_end &&
                              window_end <= cfg.steps_per_day),
                "window [" << window_begin << ", " << window_end
                           << ") is not inside the day");
  AIM_CHECK_MSG(cfg.day_index == 0 && cfg.start_tiles.empty(),
                "graph scenarios are single-day");
  AIM_CHECK_MSG(cfg.max_vel >= 1.0 - 1e-9,
                "graph agents hop one edge per step; cfg.max_vel must be >= 1");
  const std::int32_t n_nodes = graph.node_count();
  AIM_CHECK_MSG(n_nodes >= 2, "social graph needs at least two nodes");
  std::vector<AgentSim> sims = make_agents(cfg);
  const bool hetero = !cfg.agent_profiles.empty();

  Rng rng(cfg.seed);
  const Step day = cfg.steps_per_day;
  // Positions are kept for steps [keep_begin, keep_end] only, and Pass B's
  // routine calls for steps [keep_begin, keep_end). Pass A still walks the
  // whole day, since Pass B draws from the same stream after it and sizes
  // each hour's fill by every Pass-A call; Pass B stops after the window's
  // last hour. So every RNG draw a kept byte depends on stays where it was.
  const Step keep_begin = windowed ? window_begin : 0;
  const Step keep_end = windowed ? window_end : day;
  auto record_position = [&](AgentSim& a, Step step) {
    if (step < keep_begin || step > keep_end) return;
    a.positions.push_back(a.tile);
  };

  // Per node: the highest-degree neighbor (ties to the smaller id, which
  // sorted adjacency gives for free) — the hub agents drift toward during
  // social hours. This is the graph analogue of the Zipf venue choice: a
  // few well-connected nodes mediate most agent meetings.
  std::vector<std::int32_t> hub_neighbor(static_cast<std::size_t>(n_nodes), -1);
  for (std::int32_t v = 0; v < n_nodes; ++v) {
    std::int32_t best = -1;
    std::size_t best_deg = 0;
    for (std::int32_t nb : graph.neighbors(v)) {
      const std::size_t deg = graph.neighbors(nb).size();
      if (deg > best_deg) {
        best_deg = deg;
        best = nb;
      }
    }
    hub_neighbor[static_cast<std::size_t>(v)] = best;
  }

  for (std::int32_t i = 0; i < cfg.n_agents; ++i) {
    AgentSim& a = sims[static_cast<std::size_t>(i)];
    const BehaviorProfile& prof = *a.profile;
    Rng agent_stream(agent_day_seed(cfg.seed, i, 0));
    Rng& arng = hetero ? agent_stream : rng;
    // The grid's day without work or lunch: social time may start an
    // hour after waking.
    a.wake = draw_wake(arng, prof);
    draw_evening(arng, prof, a.wake + 60, day, a);
    // Home node: spread the population over the whole graph.
    a.tile = Tile{static_cast<std::int32_t>(arng.uniform_int(0, n_nodes - 1)),
                  0};
    a.positions.reserve(static_cast<std::size_t>(keep_end - keep_begin) + 1);
    record_position(a, 0);
  }

  // Each step's kick-off lists, one per node, as flat links: a node's
  // first and last listed agent, and each listed agent's successor. Only
  // the nodes in `touched` have a list, and the kick-off clears their
  // heads, so a step costs O(population), not O(nodes).
  std::vector<AgentId> list_head(static_cast<std::size_t>(n_nodes), -1);
  std::vector<AgentId> list_tail(static_cast<std::size_t>(n_nodes), -1);
  std::vector<AgentId> list_next(sims.size(), -1);
  std::vector<std::int32_t> touched;

  // ---- Pass A: movement, conversations, wake-up planning, reflections ----
  plan_day(sims, day, rng);
  ConversationBook book(day, hetero);
  for (Step s = 0; s < day; ++s) {
    const std::size_t hour = hour_of(s);
    book.emit_turns(s, sims, rng);

    // Movement: stay-or-one-hop random walk with the profile's diurnal
    // intensity; social hours bias the hop toward the highest-degree
    // neighbor, funneling the population onto hub nodes. Each hop is
    // checked against the sorted adjacency here, where it is made, since
    // a windowed trace's validate() sees only the window's positions.
    // The agents that move are exactly the awake idle ones the kick-off
    // pairs, and their nodes are final once they have moved, so the same
    // pass lists them: by node, in agent-id order, with nodes in the order
    // their first agent reaches them.
    touched.clear();
    for (auto& a : sims) {
      const bool asleep = s < a.wake || s >= a.sleep;
      if (asleep || a.conversing_until >= s) {
        record_position(a, s + 1);
        continue;
      }
      const double intensity = a.profile->hourly_weights[hour] / a.peak;
      if (rng.bernoulli(0.05 + 0.25 * intensity)) {
        const auto nbrs = graph.neighbors(a.tile.x);
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
          AIM_CHECK_MSG(std::binary_search(nbrs.begin(), nbrs.end(), dest),
                        "agent " << a.id << " hopped from node " << a.tile.x
                                 << " to non-adjacent node " << dest
                                 << " at step " << s);
          a.tile = Tile{dest, 0};
        }
      }
      record_position(a, s + 1);
      const auto node = static_cast<std::size_t>(a.tile.x);
      if (list_head[node] < 0) {
        list_head[node] = a.id;
        touched.push_back(a.tile.x);
      } else {
        list_next[static_cast<std::size_t>(list_tail[node])] = a.id;
      }
      list_tail[node] = a.id;
      list_next[static_cast<std::size_t>(a.id)] = -1;
    }

    // Conversation kick-off: same-node awake idle agents, paired along
    // their node's list. Agent-id order keeps the pair stream
    // deterministic and avoids the grid generator's O(n^2) pair scan,
    // which would not survive 10k agents.
    for (std::int32_t node : touched) {
      AgentId x = list_head[static_cast<std::size_t>(node)];
      while (x >= 0 && list_next[static_cast<std::size_t>(x)] >= 0) {
        const AgentId y = list_next[static_cast<std::size_t>(x)];
        // A started pair is taken; the next pair starts past the partner.
        x = book.try_start(sims[static_cast<std::size_t>(x)],
                           sims[static_cast<std::size_t>(y)], s, rng)
                ? list_next[static_cast<std::size_t>(y)]
                : y;
      }
      list_head[static_cast<std::size_t>(node)] = -1;
    }
  }

  fill_routine(sims, cfg, hetero, keep_begin, keep_end, rng);

  SimulationTrace out;
  out.map_width = n_nodes;
  out.map_height = 1;
  out.world_kind = WorldKind::kGraph;
  out.graph_adjacency = std::move(graph);
  return assemble(std::move(out), cfg, sims, book.take_interactions(),
                  window_begin, window_end);
}

}  // namespace aimetro::trace
