// Runtime lock-order validator (the dynamic half of the lock discipline).
//
// Clang's -Wthread-safety proves that guarded state is touched only under
// its lock, but the *ordering* half of the discipline — topology → strip
// in the engine, route → replica in the cost-model client — involves
// locks indexed at runtime (a strip picked by the commit's position, a
// replica picked by least-loaded routing), which static capability
// expressions cannot name. This validator enforces ordering at
// runtime instead, lockdep-style: every common::Mutex / common::SharedMutex
// acquisition is recorded on a per-thread stack, each (held, acquired) pair
// becomes an edge in a global lock-order graph, and the first acquisition
// that would close a cycle — i.e. the first time two locks are ever taken
// in both orders, whether or not the schedule actually deadlocked — is
// reported with both acquisition stacks and aborts.
//
// The registry below is always compiled (so tests can drive it directly
// with fake lock addresses), but the wrapper hooks in common/mutex.h call
// into it only when the build defines AIMETRO_LOCK_DEBUG (CMake option of
// the same name); otherwise the wrappers are zero-cost pass-throughs.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace aimetro::common::lock_debug {

/// A detected lock-discipline violation.
struct Violation {
  enum class Kind {
    /// Acquiring B while holding A after B → … → A was already observed.
    kOrderInversion,
    /// Re-acquiring a lock the thread already holds (UB on std::mutex).
    kRecursive,
  };
  Kind kind = Kind::kOrderInversion;
  const void* held = nullptr;       // a lock the thread already holds
  const void* acquiring = nullptr;  // the lock being acquired
  std::string held_name;
  std::string acquiring_name;
  /// Human-readable report: the conflicting edge chain, the stack recorded
  /// when the opposite order was first established, and the stack of the
  /// current acquisition.
  std::string report;
};

/// Record that the current thread acquired `lock`. `trylock` acquisitions
/// cannot block, so they are pushed onto the held stack (later blocking
/// acquisitions order against them) but add no incoming ordering edges
/// themselves. `shared` marks reader acquisitions of a SharedMutex;
/// ordering edges are tracked identically (reader/writer inversions
/// deadlock just as hard).
void note_acquire(const void* lock, const char* name, bool trylock = false,
                  bool shared = false);

/// Record that the current thread released `lock`. Lenient: releasing a
/// lock that is not on this thread's stack is ignored (it can happen after
/// reset() mid-test).
void note_release(const void* lock) noexcept;

/// Purge a destroyed lock from the graph so a new lock reusing the address
/// does not inherit its edges.
void note_destroy(const void* lock) noexcept;

/// Violation sink. The default handler prints the report to stderr and
/// calls std::abort(); tests install a capturing handler instead. Passing
/// nullptr restores the default. Returns nothing; the handler itself
/// decides whether to abort (the offending edge is NOT added to the graph,
/// so a non-aborting handler sees each inverted pair reported once per
/// offending acquisition).
using Handler = std::function<void(const Violation&)>;
void set_failure_handler(Handler handler);

/// Introspection for tests.
std::size_t edge_count();
/// Locks the *current thread* currently holds (per the recorded stack).
std::size_t held_count();

/// Clear the global graph, the failure handler override, and the calling
/// thread's held stack. Test isolation only.
void reset();

}  // namespace aimetro::common::lock_debug
