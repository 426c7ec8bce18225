// Clang Thread Safety Analysis annotation macros.
//
// The lock discipline the engine depends on — GUARDED_BY comments, the
// topology → strip commit hierarchy, "route before replica" in the
// cost-model client — used to live in prose. These macros turn that prose
// into attributes Clang's -Wthread-safety checks at compile time: a
// function that touches guarded state without holding the right capability
// fails the build in the thread-safety CI job. Under any other compiler
// (or with AIMETRO_NO_THREAD_SAFETY_ANALYSIS defined) every macro expands
// to nothing, so the annotations are free everywhere else.
//
// The macro set and names follow the canonical mutex.h from the Clang
// documentation (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).
// Annotate with the macros, never with raw __attribute__ spellings, so the
// whole surface can be audited with a single grep.
#pragma once

#if defined(__clang__) && !defined(AIMETRO_NO_THREAD_SAFETY_ANALYSIS)
#define AIM_TSA_ATTRIBUTE(x) __attribute__((x))
#else
#define AIM_TSA_ATTRIBUTE(x)  // no-op outside clang
#endif

/// Marks a class as a lockable capability ("mutex" names the kind in
/// diagnostics).
#define CAPABILITY(x) AIM_TSA_ATTRIBUTE(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases a
/// capability (MutexLock, ReaderLock, WriterLock).
#define SCOPED_CAPABILITY AIM_TSA_ATTRIBUTE(scoped_lockable)

/// Data members: reads require the capability held (shared suffices),
/// writes require it held exclusively.
#define GUARDED_BY(x) AIM_TSA_ATTRIBUTE(guarded_by(x))

/// Pointer members: the pointee (not the pointer) is protected by the
/// capability.
#define PT_GUARDED_BY(x) AIM_TSA_ATTRIBUTE(pt_guarded_by(x))

/// Static lock-ordering declarations, checked under -Wthread-safety-beta.
#define ACQUIRED_BEFORE(...) AIM_TSA_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) AIM_TSA_ATTRIBUTE(acquired_after(__VA_ARGS__))

/// Function-call contracts: the caller must hold the capability
/// (exclusively / at least shared) and still holds it on return.
#define REQUIRES(...) AIM_TSA_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  AIM_TSA_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

/// The function acquires / releases the capability itself.
#define ACQUIRE(...) AIM_TSA_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  AIM_TSA_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) AIM_TSA_ATTRIBUTE(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  AIM_TSA_ATTRIBUTE(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  AIM_TSA_ATTRIBUTE(release_generic_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns the given value.
#define TRY_ACQUIRE(...) AIM_TSA_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  AIM_TSA_ATTRIBUTE(try_acquire_shared_capability(__VA_ARGS__))

/// The caller must NOT hold the capability (non-reentrancy contracts).
#define EXCLUDES(...) AIM_TSA_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (tells the analysis so).
#define ASSERT_CAPABILITY(x) AIM_TSA_ATTRIBUTE(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  AIM_TSA_ATTRIBUTE(assert_shared_capability(x))

/// The function returns a reference to the given capability; lets accessor
/// calls like world.mutex() unify with the member they expose.
#define RETURN_CAPABILITY(x) AIM_TSA_ATTRIBUTE(lock_returned(x))

/// Escape hatch for code whose locking is correct but not expressible
/// (e.g. acquiring every element of a dynamic lock array in index order).
/// Every use must carry a comment explaining why the analysis cannot see
/// the discipline.
#define NO_THREAD_SAFETY_ANALYSIS AIM_TSA_ATTRIBUTE(no_thread_safety_analysis)
