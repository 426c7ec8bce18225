#include "des/event_loop.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace aimetro::des {

void EventLoop::schedule_at(SimTime t, Callback cb) {
  AIM_CHECK_MSG(t >= now_, "schedule_at: t=" << t << " < now=" << now_);
  AIM_CHECK(cb != nullptr);
  heap_.push_back(Event{t, next_seq_++, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventLoop::schedule_after(SimTime delay, Callback cb) {
  AIM_CHECK_MSG(delay >= 0, "schedule_after: negative delay " << delay);
  schedule_at(now_ + delay, std::move(cb));
}

std::uint64_t EventLoop::run_due(SimTime deadline) {
  std::uint64_t count = 0;
  while (!heap_.empty() && heap_.front().time <= deadline) {
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
  if (now_ < deadline) now_ = deadline;
  return count;
}

}  // namespace aimetro::des
