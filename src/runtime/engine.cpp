#include "runtime/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "runtime/seed.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace thinair::runtime {

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

packet::PayloadArena& worker_arena() {
  thread_local packet::PayloadArena arena;
  return arena;
}

RunStats run_scenario(const Scenario& scenario, const RunOptions& options,
                      ResultSink& sink) {
  const SweepPlan plan = scenario.plan();
  std::size_t n_cases = plan.size();
  if (options.limit != 0 && options.limit < n_cases) n_cases = options.limit;
  if (n_cases < plan.size()) sink.mark_truncated(n_cases, plan.size());

  // More workers than cases is pure overhead, and kMaxRunThreads bounds
  // runaway requests (e.g. a wrapped negative); neither clamp can change
  // any output byte — the sink re-orders by case index.
  std::size_t threads =
      options.threads == 0 ? hardware_threads() : options.threads;
  threads = std::min(threads, kMaxRunThreads);
  threads = std::min(threads, std::max<std::size_t>(n_cases, 1));

  const auto t0 = std::chrono::steady_clock::now();

  const auto run_case = [&](std::size_t index) {
    // Reset applies the decaying-watermark trim too, so a worker whose
    // arena ballooned on one pathological case gives the memory back
    // instead of pinning the peak for the whole sweep.
    worker_arena().reset();
    worker_arena().trim_to_watermark();
    CaseSpec spec{index, derive_seed(options.master_seed, index),
                  plan.at(index)};
    const CaseResult result = scenario.run(spec);
    sink.push(spec, result);
  };

  // Every thread — the caller and threads - 1 helpers — claims the next
  // index from one shared cursor, so `threads` is the number of threads
  // running cases (and pushing into the sink), and grain-1 claims keep
  // completion order close to index order while absorbing uneven case
  // costs. The first case exception parks the cursor past the end, so
  // no thread claims another case, and is rethrown after the join.
  std::atomic<std::size_t> cursor{0};
  struct ErrBox {
    util::Mutex mu;
    std::exception_ptr first THINAIR_GUARDED_BY(mu);
  } err;
  const auto claim_cases = [&] {
    for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
         i < n_cases; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      try {
        run_case(i);
      } catch (...) {
        cursor.store(n_cases, std::memory_order_relaxed);
        util::MutexLock lock(&err.mu);
        if (!err.first) err.first = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(claim_cases);
    claim_cases();
  }  // the jthreads join here
  std::exception_ptr first_error;
  {
    util::MutexLock lock(&err.mu);
    first_error = err.first;
  }
  if (first_error) std::rethrow_exception(first_error);

  sink.finish();

  const auto t1 = std::chrono::steady_clock::now();
  RunStats stats;
  stats.cases = n_cases;
  stats.plan_cases = plan.size();
  stats.threads = threads;
  stats.wall_s = std::chrono::duration<double>(t1 - t0).count();
  return stats;
}

std::vector<std::pair<CaseSpec, CaseResult>> run_scenario_collect(
    const Scenario& scenario, const RunOptions& options, RunStats* stats) {
  // Build the plan once and hand run_scenario a factory that replays it —
  // plan factories can be expensive (placement enumeration).
  const SweepPlan plan = scenario.plan();
  std::vector<std::pair<CaseSpec, CaseResult>> collected(
      options.limit != 0 ? std::min(options.limit, plan.size())
                         : plan.size());
  Scenario wrapped = scenario;
  wrapped.plan = [&plan] { return plan; };
  wrapped.run = [&](const CaseSpec& spec) {
    CaseResult result = scenario.run(spec);
    // Each case writes its own preallocated element — index-disjoint,
    // so no lock is needed; the thread join publishes the writes.
    collected[spec.index] = {spec, result};
    return result;
  };
  ResultSink sink(scenario.name, nullptr);
  const RunStats run = run_scenario(wrapped, options, sink);
  if (stats != nullptr) *stats = run;
  return collected;
}

}  // namespace thinair::runtime
