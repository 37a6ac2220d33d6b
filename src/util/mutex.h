#pragma once
// Annotated synchronisation wrappers for Clang Thread Safety Analysis.
//
// std::mutex and friends carry no capability attributes, so the analysis
// cannot follow them. These are zero-overhead wrappers (one inlined
// forwarding call each) that attach the attributes from
// util/thread_annotations.h:
//
//   util::Mutex      — a std::mutex that is a THINAIR_CAPABILITY.
//   util::MutexLock  — lock_guard with THINAIR_SCOPED_CAPABILITY, so the
//                      analysis knows the region between construction and
//                      destruction holds the mutex.
//   util::Role       — a capability with no runtime state at all, for
//                      single-owner data: a region that calls acquire()
//                      claims the role (e.g. "I am the event loop"),
//                      and THINAIR_GUARDED_BY(role_) turns any touch
//                      outside such a region into a compile error. The
//                      happens-before edge itself comes from elsewhere
//                      (thread join, ctor ordering); the role makes the
//                      ownership *structure* checkable.

#include <mutex>

#include "util/thread_annotations.h"

namespace thinair::util {

class THINAIR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() THINAIR_ACQUIRE() { mu_.lock(); }
  void unlock() THINAIR_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() THINAIR_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  std::mutex mu_;
};

/// RAII lock for util::Mutex — the only way code should hold one.
class THINAIR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) THINAIR_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() THINAIR_RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// A zero-size, zero-cost capability for single-owner state (see the
/// header comment). acquire()/release() are no-ops at runtime; they exist
/// so a code region can claim the role in a way the analysis tracks.
class THINAIR_CAPABILITY("role") Role {
 public:
  Role() = default;
  Role(const Role&) = delete;
  Role& operator=(const Role&) = delete;

  void acquire() const THINAIR_ACQUIRE() {}
  void release() const THINAIR_RELEASE() {}
};

/// RAII claim of a Role for the current scope.
class THINAIR_SCOPED_CAPABILITY RoleLock {
 public:
  explicit RoleLock(const Role* role) THINAIR_ACQUIRE(role) : role_(role) {
    role_->acquire();
  }
  ~RoleLock() THINAIR_RELEASE() { role_->release(); }

  RoleLock(const RoleLock&) = delete;
  RoleLock& operator=(const RoleLock&) = delete;

 private:
  const Role* role_;
};

}  // namespace thinair::util
