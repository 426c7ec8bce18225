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
// Cancellation is the rare path — cancel() scans the heap and records a
// tombstone that the pop path consults only while one is outstanding.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/types.h"

namespace aimetro::des {

using EventId = std::uint64_t;

class EventLoop {
 public:
  using Callback = std::function<void()>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time (microseconds).
  SimTime now() const { return now_; }

  /// Schedule `cb` at absolute virtual time `t` (must be >= now()).
  EventId schedule_at(SimTime t, Callback cb);

  /// Schedule `cb` after `delay` microseconds (>= 0).
  EventId schedule_after(SimTime delay, Callback cb);

  /// Cancel a pending event; returns false if it already fired or was
  /// cancelled before. O(pending): a linear scan of the heap.
  bool cancel(EventId id);

  /// Run until the event queue is empty or stop() is called.
  /// Returns the number of events processed.
  std::uint64_t run();

  /// Run until virtual time would exceed `deadline` (events at exactly
  /// `deadline` are processed; the clock then advances to `deadline`).
  std::uint64_t run_until(SimTime deadline);

  /// Stop after the currently executing event returns.
  void stop() { stopped_ = true; }

  bool empty() const { return pending() == 0; }
  std::size_t pending() const { return heap_.size() - cancelled_.size(); }
  std::uint64_t processed() const { return processed_; }

 private:
  struct Event {
    SimTime time;
    EventId id;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  /// Fire events in order while the earliest live one is due at or
  /// before `deadline` (and stop() has not been called).
  std::uint64_t run_due(SimTime deadline);
  /// Pop cancelled events off the top, so the top is live (or the heap
  /// empty).
  void drop_cancelled_top();

  SimTime now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
  std::vector<Event> heap_;  // a max-heap under Later: earliest on top
  /// Ids of cancelled events still in heap_ (each is removed when its
  /// event reaches the top).
  std::unordered_set<EventId> cancelled_;
};

}  // namespace aimetro::des
