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

}  // namespace thinair::util
