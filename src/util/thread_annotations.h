#pragma once
// Clang Thread Safety Analysis attribute macros.
//
// These wrap the `capability`-family attributes so lock discipline can be
// stated in the types and machine-checked at compile time: a member
// declared THINAIR_GUARDED_BY(mu_) cannot be touched on a code path that
// does not hold mu_, a function declared THINAIR_REQUIRES(mu_) cannot be
// called without it, and a THINAIR_SCOPED_CAPABILITY RAII type proves the
// acquire/release pairing. The analysis runs only under clang with
// -Wthread-safety (the CI static-analysis leg builds with it promoted to
// an error); everywhere else the macros expand to nothing, so annotated
// code costs zero on gcc/msvc.
//
// This is the static mirror of the runtime TSan job: TSan observes the
// interleavings that happened to execute, the analysis proves the locking
// argument for every path the compiler can see. See
// docs/static-analysis.md for how the layers fit together.

#if defined(__clang__) && !defined(SWIG)
#define THINAIR_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define THINAIR_THREAD_ANNOTATION(x)  // no-op off clang
#endif

/// A type that models a capability (util::Mutex).
#define THINAIR_CAPABILITY(x) THINAIR_THREAD_ANNOTATION(capability(x))

/// An RAII type whose lifetime equals a region holding a capability.
#define THINAIR_SCOPED_CAPABILITY THINAIR_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define THINAIR_GUARDED_BY(x) THINAIR_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x`.
#define THINAIR_PT_GUARDED_BY(x) THINAIR_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function callable only while holding the listed capabilities.
#define THINAIR_REQUIRES(...) \
  THINAIR_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function callable only while *not* holding them (deadlock guard).
#define THINAIR_EXCLUDES(...) \
  THINAIR_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function that acquires the capability and returns holding it.
#define THINAIR_ACQUIRE(...) \
  THINAIR_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function that releases a held capability.
#define THINAIR_RELEASE(...) \
  THINAIR_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function that acquires the capability iff it returns `result`.
#define THINAIR_TRY_ACQUIRE(result, ...) \
  THINAIR_THREAD_ANNOTATION(try_acquire_capability(result, __VA_ARGS__))

/// Function returning a reference to a capability (lock accessors).
#define THINAIR_RETURN_CAPABILITY(x) \
  THINAIR_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for code the analysis cannot model (e.g. init order).
/// Every use needs a written justification, same as a NOLINT.
#define THINAIR_NO_THREAD_SAFETY_ANALYSIS \
  THINAIR_THREAD_ANNOTATION(no_thread_safety_analysis)
