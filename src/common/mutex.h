// Annotated lock types: the only mutexes the codebase uses.
//
// These wrap std::mutex / std::shared_mutex with Clang Thread Safety
// capability annotations (common/thread_annotations.h), so every guarded
// member and every REQUIRES contract across the engine, world, task
// pool, and cost-model client is machine-checked by the
// -Wthread-safety CI job. With AIMETRO_LOCK_DEBUG defined (CMake option),
// every acquisition additionally feeds the runtime lock-order validator
// (common/lock_debug.h), which aborts with both stacks on the first
// ordering inversion; without it the wrappers compile to bare std types —
// same size, same code.
//
// Conventions:
//   - Guard state with MutexLock / ReaderLock / WriterLock, never raw
//     lock()/unlock() pairs.
//   - Condition waits use common::CondVar with an explicit while loop at
//     the call site (`while (!cond) cv.wait(mu);`) — predicate lambdas
//     cannot carry capability annotations, open-coded conditions can.
//   - Name locks that participate in a cross-object ordering
//     (Mutex route_mutex_{"llm.route"}) so validator reports read well.
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

#if AIMETRO_LOCK_DEBUG
#include "common/lock_debug.h"
#endif

namespace aimetro::common {

namespace internal {
#if AIMETRO_LOCK_DEBUG
inline void hook_acquire(const void* lock, const char* name,
                         bool trylock = false, bool shared = false) {
  lock_debug::note_acquire(lock, name, trylock, shared);
}
inline void hook_release(const void* lock) { lock_debug::note_release(lock); }
inline void hook_destroy(const void* lock) { lock_debug::note_destroy(lock); }
#else
inline void hook_acquire(const void*, const char*, bool = false,
                         bool = false) {}
inline void hook_release(const void*) {}
inline void hook_destroy(const void*) {}
#endif
}  // namespace internal

/// Annotated std::mutex. The optional name labels lock-order validator
/// reports; it costs nothing when AIMETRO_LOCK_DEBUG is off.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
#if AIMETRO_LOCK_DEBUG
  explicit Mutex(const char* name) : name_(name) {}
  ~Mutex() { internal::hook_destroy(this); }
#else
  explicit Mutex(const char*) {}
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    mu_.lock();
    internal::hook_acquire(this, name());
  }
  bool try_lock() TRY_ACQUIRE(true) {
    const bool ok = mu_.try_lock();
    if (ok) internal::hook_acquire(this, name(), /*trylock=*/true);
    return ok;
  }
  void unlock() RELEASE() {
    internal::hook_release(this);
    mu_.unlock();
  }

  /// The wrapped mutex, for CondVar's adopt-and-wait only.
  std::mutex& native() { return mu_; }

 private:
  const char* name() const {
#if AIMETRO_LOCK_DEBUG
    return name_;
#else
    return nullptr;
#endif
  }

  std::mutex mu_;
#if AIMETRO_LOCK_DEBUG
  const char* name_ = nullptr;
#endif
};

/// Annotated std::shared_mutex (reader/writer). Reader acquisitions feed
/// the lock-order validator too: reader/writer inversions deadlock just as
/// hard as writer/writer ones.
class CAPABILITY("mutex") SharedMutex {
 public:
  SharedMutex() = default;
#if AIMETRO_LOCK_DEBUG
  explicit SharedMutex(const char* name) : name_(name) {}
  ~SharedMutex() { internal::hook_destroy(this); }
#else
  explicit SharedMutex(const char*) {}
#endif

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() {
    mu_.lock();
    internal::hook_acquire(this, name());
  }
  bool try_lock() TRY_ACQUIRE(true) {
    const bool ok = mu_.try_lock();
    if (ok) internal::hook_acquire(this, name(), /*trylock=*/true);
    return ok;
  }
  void unlock() RELEASE() {
    internal::hook_release(this);
    mu_.unlock();
  }

  void lock_shared() ACQUIRE_SHARED() {
    mu_.lock_shared();
    internal::hook_acquire(this, name(), /*trylock=*/false, /*shared=*/true);
  }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    const bool ok = mu_.try_lock_shared();
    if (ok) {
      internal::hook_acquire(this, name(), /*trylock=*/true, /*shared=*/true);
    }
    return ok;
  }
  void unlock_shared() RELEASE_SHARED() {
    internal::hook_release(this);
    mu_.unlock_shared();
  }

 private:
  const char* name() const {
#if AIMETRO_LOCK_DEBUG
    return name_;
#else
    return nullptr;
#endif
  }

  std::shared_mutex mu_;
#if AIMETRO_LOCK_DEBUG
  const char* name_ = nullptr;
#endif
};

/// RAII exclusive lock on a Mutex, with deferred and try variants.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
    held_ = true;
  }
  /// Deferred: construct unlocked, call lock() later.
  MutexLock(Mutex& mu, std::defer_lock_t) EXCLUDES(mu) : mu_(&mu) {}
  /// Try: check owns_lock() after construction.
  MutexLock(Mutex& mu, std::try_to_lock_t) TRY_ACQUIRE(true, mu) : mu_(&mu) {
    held_ = mu_->try_lock();
  }
  ~MutexLock() RELEASE() {
    if (held_) mu_->unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void lock() ACQUIRE() {
    mu_->lock();
    held_ = true;
  }
  void unlock() RELEASE() {
    mu_->unlock();
    held_ = false;
  }
  bool owns_lock() const { return held_; }
  Mutex* mutex() const { return mu_; }

 private:
  Mutex* mu_;
  bool held_ = false;
};

/// RAII shared (reader) lock on a SharedMutex.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(&mu) {
    mu_->lock_shared();
    held_ = true;
  }
  ReaderLock(SharedMutex& mu, std::defer_lock_t) EXCLUDES(mu) : mu_(&mu) {}
  ReaderLock(SharedMutex& mu, std::try_to_lock_t) TRY_ACQUIRE_SHARED(true, mu)
      : mu_(&mu) {
    held_ = mu_->try_lock_shared();
  }
  ~ReaderLock() RELEASE() {
    if (held_) mu_->unlock_shared();
  }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

  void lock() ACQUIRE_SHARED() {
    mu_->lock_shared();
    held_ = true;
  }
  void unlock() RELEASE_SHARED() {
    mu_->unlock_shared();
    held_ = false;
  }
  bool owns_lock() const { return held_; }

 private:
  SharedMutex* mu_;
  bool held_ = false;
};

/// RAII exclusive (writer) lock on a SharedMutex.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
    held_ = true;
  }
  WriterLock(SharedMutex& mu, std::defer_lock_t) EXCLUDES(mu) : mu_(&mu) {}
  WriterLock(SharedMutex& mu, std::try_to_lock_t) TRY_ACQUIRE(true, mu)
      : mu_(&mu) {
    held_ = mu_->try_lock();
  }
  ~WriterLock() RELEASE() {
    if (held_) mu_->unlock();
  }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

  void lock() ACQUIRE() {
    mu_->lock();
    held_ = true;
  }
  void unlock() RELEASE() {
    mu_->unlock();
    held_ = false;
  }
  bool owns_lock() const { return held_; }

 private:
  SharedMutex* mu_;
  bool held_ = false;
};

/// Condition variable for common::Mutex. wait() takes the Mutex itself —
/// not a predicate — so the REQUIRES contract is checkable and the
/// condition re-check lives in the caller, where the analysis can see the
/// lock being held:
///
///   MutexLock lock(mu_);
///   while (!ready_) cv_.wait(mu_);
class CondVar {
 public:
  /// Atomically release `mu`, sleep, re-acquire before returning. The
  /// caller must hold `mu` (checked). Spurious wakeups happen; always wait
  /// in a while loop.
  void wait(Mutex& mu) REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS {
    // Adopt the already-held native mutex, wait, then hand ownership back
    // without unlocking: zero overhead over a bare std::condition_variable.
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace aimetro::common
