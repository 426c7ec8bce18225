// Discrete-event executive.
//
// The benchmark harnesses run the entire system (scheduling policies plus
// the simulated LLM serving cluster) under virtual time so a full simulated
// day on eight simulated GPUs completes in milliseconds of wall time and is
// bit-exact reproducible. Events at equal timestamps fire in scheduling
// order (stable sequence numbers).
//
// The queue is a binary heap in a std::vector, and scheduling or firing an
// event does no other bookkeeping: a full SmallVille day replays 1.4M
// events, so per-event hash-set work shows up in the replay's wall time.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"

namespace aimetro::des {

class EventLoop {
 public:
  using Callback = std::function<void()>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time (microseconds).
  SimTime now() const { return now_; }

  /// Schedule `cb` at absolute virtual time `t` (must be >= now()).
  void schedule_at(SimTime t, Callback cb);

  /// Schedule `cb` after `delay` microseconds (>= 0).
  void schedule_after(SimTime delay, Callback cb);

  /// Run until the event queue is empty. Returns the number of events
  /// processed.
  std::uint64_t run();

  /// Run until virtual time would exceed `deadline` (events at exactly
  /// `deadline` are processed; the clock then advances to `deadline`).
  std::uint64_t run_until(SimTime deadline);

  std::size_t pending() const { return heap_.size(); }
  std::uint64_t processed() const { return processed_; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Fire events in order while the earliest one is due at or before
  /// `deadline`.
  std::uint64_t run_due(SimTime deadline);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Event> heap_;  // a max-heap under Later: earliest on top
};

}  // namespace aimetro::des
