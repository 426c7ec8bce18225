#include "world/world_state.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"

namespace aimetro::world {

WorldState::WorldState(
    const GridMap* map, std::vector<Tile> initial_tiles,
    const std::vector<std::vector<std::int32_t>>* graph_adjacency)
    : map_(map),
      graph_adjacency_(graph_adjacency),
      tiles_(std::move(initial_tiles)),
      index_(8.0) {
  AIM_CHECK(map_ != nullptr);
  if (graph_adjacency_ != nullptr) {
    // The substrate map exists for uniform bounds checks: one row, one
    // column per node.
    AIM_CHECK_MSG(map_->width() ==
                          static_cast<std::int32_t>(graph_adjacency_->size()) &&
                      map_->height() == 1,
                  "graph substrate map must be node_count x 1");
  }
  agent_count_ = tiles_.size();
  std::vector<std::pair<AgentId, Pos>> items;
  items.reserve(tiles_.size());
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    AIM_CHECK_MSG(map_->in_bounds(tiles_[i]),
                  "agent " << i << " starts out of bounds");
    items.emplace_back(static_cast<AgentId>(i), tiles_[i].center());
  }
  index_.bulk_insert(items);
}

Tile WorldState::tile_of(AgentId id) const {
  AIM_CHECK(id >= 0 && static_cast<std::size_t>(id) < tiles_.size());
  return tiles_[static_cast<std::size_t>(id)];
}

void WorldState::set_tile(AgentId id, Tile t) {
  AIM_CHECK(id >= 0 && static_cast<std::size_t>(id) < tiles_.size());
  AIM_CHECK(map_->in_bounds(t));
  tiles_[static_cast<std::size_t>(id)] = t;
  index_.update(id, t.center());
}

std::vector<StepOutcome> WorldState::resolve_conflict_and_commit(
    Step step, const std::vector<StepIntent>& intents) {
  std::vector<StepOutcome> outcomes;
  outcomes.reserve(intents.size());

  // Deterministic processing order: by agent id.
  std::vector<const StepIntent*> ordered;
  ordered.reserve(intents.size());
  for (const auto& in : intents) ordered.push_back(&in);
  std::sort(ordered.begin(), ordered.end(),
            [](const StepIntent* a, const StepIntent* b) {
              return a->agent < b->agent;
            });

  // Tiles claimed by winners this step (movers), used for collision checks.
  std::map<Tile, AgentId> claimed_tiles;
  // Agents in this cluster that are moving away free their tile.
  std::map<Tile, AgentId> vacated;
  for (const StepIntent* in : ordered) {
    if (in->move_to && !(*in->move_to == tile_of(in->agent))) {
      vacated.emplace(tile_of(in->agent), in->agent);
    }
  }

  std::map<std::string, AgentId> claimed_objects;

  for (const StepIntent* in : ordered) {
    AIM_CHECK(in->agent >= 0 &&
              static_cast<std::size_t>(in->agent) < tiles_.size());
    StepOutcome out;
    out.agent = in->agent;
    out.tile = tile_of(in->agent);

    if (in->move_to) {
      const Tile target = *in->move_to;
      if (graph_world()) {
        // Graph nodes are venues, not tiles: they hold crowds, so moves
        // never conflict. Legality is edge membership — stay put or
        // follow one edge of the social graph (one hop per step, the
        // speed limit the dependency rules assume in hop units).
        const auto& nbrs =
            (*graph_adjacency_)[static_cast<std::size_t>(out.tile.x)];
        const bool ok =
            map_->in_bounds(target) &&
            (target == out.tile ||
             std::binary_search(nbrs.begin(), nbrs.end(), target.x));
        if (ok) out.tile = target;
        out.move_ok = ok;
      } else {
        bool ok = map_->walkable(target);
        // One tile per step (Chebyshev move of <= 1): the speed limit the
        // dependency rules assume (max_vel).
        ok = ok && chebyshev(target.center(), out.tile.center()) <= 1.0 + 1e-9;
        // Lost to a lower-id mover this step?
        ok = ok && claimed_tiles.count(target) == 0;
        if (ok && !(target == out.tile)) {
          // Occupied by an agent outside the cluster (or a non-mover)?
          for (AgentId other : index_.query_radius(target.center(), 0.25)) {
            if (other == in->agent) continue;
            auto vit = vacated.find(target);
            const bool other_vacating =
                vit != vacated.end() && vit->second == other;
            if (!other_vacating) {
              ok = false;
              break;
            }
          }
        }
        if (ok) {
          claimed_tiles.emplace(target, in->agent);
          out.tile = target;
          out.move_ok = true;
        } else {
          out.move_ok = false;
        }
      }
    }

    if (in->claim_object) {
      const std::string& obj = *in->claim_object;
      const MapObject* object = map_->object(obj);
      AIM_CHECK_MSG(object != nullptr, "unknown object " << obj);
      // Claims are local interactions: the agent must be on or adjacent to
      // the object's tile. (This also guarantees that competing claimers
      // are coupled into one cluster, keeping out-of-order execution
      // deterministic.)
      if (chebyshev(out.tile.center(), object->tile.center()) > 1.5) {
        out.claim_ok = false;
      } else if (claimed_objects.count(obj) ||
                 (object_holders_.count(obj) &&
                  object_holders_.at(obj) != strformat("agent_%d", in->agent))) {
        out.claim_ok = false;
      } else {
        claimed_objects.emplace(obj, in->agent);
        out.claim_ok = true;
      }
    }

    outcomes.push_back(out);
  }

  // Commit winners.
  for (const StepOutcome& out : outcomes) {
    if (!(out.tile == tiles_[static_cast<std::size_t>(out.agent)])) {
      set_tile(out.agent, out.tile);
    }
  }
  for (const auto& [obj, agent] : claimed_objects) {
    object_holders_[obj] = strformat("agent_%d", agent);
  }
  for (const StepIntent* in : ordered) {
    if (in->emit_event) {
      events_.push_back(WorldEvent{step, tile_of(in->agent), in->agent,
                                   *in->emit_event});
    }
  }
  return outcomes;
}

std::vector<AgentId> WorldState::agents_within(Pos center,
                                               double radius) const {
  return index_.query_radius(center, radius);
}

std::vector<WorldEvent> WorldState::events_near(Pos center, double radius,
                                                Step min_step,
                                                Step max_step) const {
  std::vector<WorldEvent> out;
  for (const WorldEvent& ev : events_) {
    if (ev.step < min_step || ev.step > max_step) continue;
    if (euclidean(ev.tile.center(), center) <= radius) out.push_back(ev);
  }
  // Commit order differs between lock-step and out-of-order execution;
  // sort so observations are schedule-independent.
  std::sort(out.begin(), out.end(),
            [](const WorldEvent& a, const WorldEvent& b) {
              if (a.step != b.step) return a.step < b.step;
              if (a.source != b.source) return a.source < b.source;
              return a.text < b.text;
            });
  return out;
}

const std::string* WorldState::object_holder(const std::string& object) const {
  auto it = object_holders_.find(object);
  return it == object_holders_.end() ? nullptr : &it->second;
}

std::uint64_t WorldState::state_hash() const {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(i) << 40;
    v ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(tiles_[i].x))
         << 20;
    v ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(tiles_[i].y));
    h ^= splitmix64(v);
  }
  for (const auto& [obj, holder] : object_holders_) {
    std::uint64_t v = 0;
    for (char c : obj) v = splitmix64(v ^ static_cast<unsigned char>(c));
    for (char c : holder) v = splitmix64(v ^ static_cast<unsigned char>(c));
    h ^= v;
  }
  std::uint64_t ev_h = 0;
  for (const WorldEvent& ev : events_) {
    std::uint64_t v = splitmix64(static_cast<std::uint64_t>(ev.step) ^
                                 (static_cast<std::uint64_t>(ev.source) << 32));
    for (char c : ev.text) v = splitmix64(v ^ static_cast<unsigned char>(c));
    ev_h ^= v;  // order-insensitive: OOO commits interleave differently
  }
  return splitmix64(h ^ ev_h);
}

}  // namespace aimetro::world
