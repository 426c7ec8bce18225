#include "des/event_loop.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace aimetro::des {

EventId EventLoop::schedule_at(SimTime t, Callback cb) {
  AIM_CHECK_MSG(t >= now_, "schedule_at: t=" << t << " < now=" << now_);
  AIM_CHECK(cb != nullptr);
  const EventId id = next_id_++;
  heap_.push_back(Event{t, id, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

EventId EventLoop::schedule_after(SimTime delay, Callback cb) {
  AIM_CHECK_MSG(delay >= 0, "schedule_after: negative delay " << delay);
  return schedule_at(now_ + delay, std::move(cb));
}

bool EventLoop::cancel(EventId id) {
  // Lazy deletion: the event stays in the heap and is discarded when it
  // reaches the top.
  const bool pending =
      std::any_of(heap_.begin(), heap_.end(),
                  [id](const Event& ev) { return ev.id == id; });
  return pending && cancelled_.insert(id).second;
}

void EventLoop::drop_cancelled_top() {
  while (!cancelled_.empty() && !heap_.empty() &&
         cancelled_.erase(heap_.front().id) > 0) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

std::uint64_t EventLoop::run_due(SimTime deadline) {
  stopped_ = false;
  std::uint64_t count = 0;
  while (!stopped_) {
    // Cancelled events go first: the deadline applies to the earliest
    // live event, not to a tombstone.
    drop_cancelled_top();
    if (heap_.empty() || heap_.front().time > deadline) break;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    AIM_CHECK(ev.time >= now_);
    now_ = ev.time;
    ++processed_;
    ++count;
    ev.cb();
  }
  return count;
}

std::uint64_t EventLoop::run() {
  return run_due(std::numeric_limits<SimTime>::max());
}

std::uint64_t EventLoop::run_until(SimTime deadline) {
  const std::uint64_t count = run_due(deadline);
  if (now_ < deadline && !stopped_) now_ = deadline;
  return count;
}

}  // namespace aimetro::des
