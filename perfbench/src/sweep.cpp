// The sweep workloads: a registered paper scenario run through the public
// runtime API (register_builtin_scenarios, ScenarioRegistry::find,
// run_scenario), repeated in passes for the run's duration.
//
// Timed run (perfbench): every pass streams its NDJSON into a SHA-256 and
// must match a single-thread reference pass of the same seed (and, at seed
// 42, the digest pinned in tests/golden_ndjson_test.cpp). Each pass yields
// its cases/s and the 50th/90th percentile of its per-case wall times (a
// case runs its sessions until every terminal holds its key); the run
// reports each at the slow quartile over passes (common.h, kTimeQ /
// kRateQ). Set-up probes run between passes (common.h, SetupProbes).
//
// Traced run (perfbench_traced): pass A is the program with each
// Scenario::run call timed and its allocations counted
// (runtime.busy_share, alloc.*); pass B runs the replica (replica.h) with
// spans on the same engine and thread count, and its NDJSON must hash to
// pass A's.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "replica.h"
#include "runtime/engine.h"
#include "runtime/result_sink.h"
#include "runtime/scenario.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace rt = thinair::runtime;

struct SweepWorkload {
  const char* name;
  const char* scenario;
  std::size_t threads;
};

// fig1/fig2 on one thread; headline on 3 case threads plus the sink's
// drainer, which fills a 4-vCPU host without oversubscribing it.
constexpr SweepWorkload kSweeps[] = {
    {"fig1", "fig1", 1},
    {"fig2", "fig2", 1},
    {"headline_mt", "headline", 3},
};

const SweepWorkload* find_sweep(const std::string& name) {
  for (const SweepWorkload& w : kSweeps)
    if (name == w.name) return &w;
  return nullptr;
}

/// Once-per-run work before the first timed case.
struct Prepared {
  const rt::Scenario* registered = nullptr;
  rt::Scenario bench;  // the registered scenario replaying one expanded plan
  std::size_t cases = 0;
  double plan_ms = 0.0;
  double setup_s = 0.0;
};

Prepared prepare(const SweepWorkload& w, std::uint64_t seed,
                 std::int64_t start_ns) {
  Prepared p;
  rt::register_builtin_scenarios();
  p.registered = rt::ScenarioRegistry::instance().find(w.scenario);
  if (p.registered == nullptr)
    throw std::runtime_error(std::string("scenario not registered: ") +
                             w.scenario);
  const std::int64_t t0 = now_ns();
  const auto plan = std::make_shared<const rt::SweepPlan>(p.registered->plan());
  p.plan_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  p.cases = plan->size();
  p.bench = *p.registered;
  p.bench.plan = [plan] { return *plan; };
  // Warm-up: the first `threads` cases on the workload's thread count
  // start the engine's pool and the sink's drainer and fill this thread's
  // arena and session pools.
  rt::RunOptions warm;
  warm.threads = w.threads;
  warm.master_seed = seed;
  warm.limit = w.threads;
  rt::ResultSink sink(w.name, nullptr);
  (void)rt::run_scenario(p.bench, warm, sink);
  p.setup_s = seconds_since(start_ns);
  return p;
}

std::string ndjson_digest(const rt::Scenario& scenario, std::size_t threads,
                          std::uint64_t seed, double* wall_s = nullptr) {
  rt::RunOptions options;
  options.threads = threads;
  options.master_seed = seed;
  HashingStream out;
  rt::ResultSink sink(scenario.name, &out);
  const std::int64_t t0 = now_ns();
  (void)rt::run_scenario(scenario, options, sink);
  if (wall_s != nullptr) *wall_s = seconds_since(t0);
  return out.hex();
}

void add_host_context(Report& report) {
  for (const auto& [k, v] : host_fingerprint()) report.context_text[k] = v;
  report.context_numbers["host.ref_ms"] = host_ref_ms();
}

int finish(Report& report) {
  report.print();
  return report.correct ? 0 : 1;
}

int run_timed(const SweepWorkload& w, const Options& opt, std::int64_t start_ns) {
  const Prepared p = prepare(w, opt.seed, start_ns);
  Report report;
  if (opt.setup_only) {
    report.attempted = 1;
    report.metrics["setup_s"] = p.setup_s;
    return finish(report);
  }
  add_host_context(report);
  SetupProbes probes(opt.args);

  std::vector<double> pass_rates, pass_p50, pass_p90;
  std::vector<std::string> digests;
  std::vector<std::int64_t> latency(p.cases, 0);
  rt::Scenario timed = p.bench;
  timed.run = [&p, &latency](const rt::CaseSpec& cs) {
    const std::int64_t t0 = now_ns();
    rt::CaseResult result = p.bench.run(cs);
    latency[cs.index] = now_ns() - t0;
    return result;
  };
  double measured_s = 0.0;
  while (pass_rates.size() < 3 || measured_s < opt.seconds) {
    double wall_s = 0.0;
    digests.push_back(ndjson_digest(timed, w.threads, opt.seed, &wall_s));
    measured_s += wall_s;
    pass_rates.push_back(static_cast<double>(p.cases) / wall_s);
    std::vector<double> case_ms;
    for (const std::int64_t ns : latency)
      case_ms.push_back(static_cast<double>(ns) * 1e-6);
    pass_p50.push_back(percentile(case_ms, 0.5));
    pass_p90.push_back(percentile(case_ms, 0.9));
    probes.catch_up(measured_s);
  }
  report.attempted = pass_rates.size() * p.cases;
  const double rss = peak_rss_mb();

  const std::string reference = ndjson_digest(p.bench, 1, opt.seed);
  std::uint64_t bad_passes = 0;
  for (const std::string& d : digests) bad_passes += d != reference;
  if (bad_passes != 0)
    report.fail(std::to_string(bad_passes) + " of " +
                std::to_string(digests.size()) +
                " passes differ from the single-thread reference");
  report.failed = bad_passes * p.cases;
  if (!opt.golden.empty() && reference != opt.golden) {
    report.fail("reference NDJSON " + reference +
                " differs from the pinned golden " + opt.golden);
    report.failed = report.attempted;
  }

  report.metrics["cases_per_s"] = percentile(pass_rates, kRateQ);
  report.metrics["ttk_ms_p50"] = percentile(pass_p50, kTimeQ);
  report.metrics["ttk_ms_p90"] = percentile(pass_p90, kTimeQ);
  std::string rates;
  for (const double r : pass_rates) {
    char buf[32];
    std::snprintf(buf, sizeof buf, rates.empty() ? "%.1f" : " %.1f", r);
    rates += buf;
  }
  report.context_text["pass_rates"] = rates;
  const double setup_s = probes.median_with(p.setup_s);
  report.metrics["setup_s"] = setup_s;
  report.metrics["peak_rss_mb"] = rss;
  report.context_numbers["setup_samples"] =
      static_cast<double>(probes.count() + 1);
  report.context_numbers["passes"] = static_cast<double>(pass_rates.size());
  report.context_numbers["cases_per_pass"] = static_cast<double>(p.cases);
  report.context_numbers["threads"] = static_cast<double>(w.threads);
  report.context_numbers["ttk_samples"] =
      static_cast<double>(pass_rates.size() * p.cases);
  report.context_text["ndjson_sha256"] = reference;
  std::fprintf(stderr,
               "%s: %zu passes x %zu cases on %zu thread(s), %.1f cases/s, "
               "case p50 %.3f ms p90 %.3f ms, setup %.4f s\n",
               w.name, pass_rates.size(), p.cases, w.threads,
               report.metrics["cases_per_s"], report.metrics["ttk_ms_p50"],
               report.metrics["ttk_ms_p90"], setup_s);
  return finish(report);
}

int run_traced(const SweepWorkload& w, const Options& opt,
               std::int64_t start_ns) {
  const Prepared p = prepare(w, opt.seed, start_ns);
  if (p.registered->spec == nullptr)
    throw std::runtime_error("scenario has no spec to replay");
  Replica replica(*p.registered->spec);
  Report report;
  add_host_context(report);

  std::vector<std::int64_t> busy(p.cases, 0);
  std::vector<AllocTally> allocs(p.cases);
  rt::Scenario program = p.bench;
  program.run = [&p, &busy, &allocs](const rt::CaseSpec& cs) {
    const AllocTally a0 = thread_alloc_tally();
    const std::int64_t t0 = now_ns();
    rt::CaseResult result = p.bench.run(cs);
    busy[cs.index] = now_ns() - t0;
    const AllocTally a1 = thread_alloc_tally();
    allocs[cs.index] = {a1.calls - a0.calls, a1.bytes - a0.bytes};
    return result;
  };
  rt::Scenario traced = p.bench;
  traced.run = [&replica](const rt::CaseSpec& cs) {
    return replica.run_case(cs);
  };

  double busy_ms = 0.0, wall_a_ms = 0.0, alloc_calls = 0.0, alloc_bytes = 0.0;
  double frames = 0.0, retransmits = 0.0, gf_bytes = 0.0;
  LayerTotals totals;
  std::size_t passes = 0;
  const std::int64_t begin = now_ns();
  do {
    double wall_a = 0.0;
    const std::string program_digest =
        ndjson_digest(program, w.threads, opt.seed, &wall_a);
    wall_a_ms += wall_a * 1e3;
    for (std::size_t i = 0; i < p.cases; ++i) {
      busy_ms += static_cast<double>(busy[i]) * 1e-6;
      alloc_calls += static_cast<double>(allocs[i].calls);
      alloc_bytes += static_cast<double>(allocs[i].bytes);
    }
    if (!opt.golden.empty() && program_digest != opt.golden)
      report.fail("program NDJSON differs from the pinned golden");

    clear_spans();
    replica.reset_counts();
    std::string replica_digest;
    try {
      replica_digest = ndjson_digest(traced, w.threads, opt.seed);
    } catch (const std::exception& e) {
      report.fail(e.what());
      break;
    }
    if (replica_digest != program_digest)
      report.fail("replica NDJSON " + replica_digest +
                  " differs from the program's " + program_digest);
    totals.add(summarize_spans());
    const ReplicaCounts counts = replica.counts();
    frames += static_cast<double>(counts.frames);
    retransmits += static_cast<double>(counts.retransmits);
    gf_bytes += counts.gf_bytes;
    if (passes == 0 && !opt.trace_out.empty())
      write_spans(opt.trace_out, w.name, opt.seed);
    ++passes;
  } while (report.correct && seconds_since(begin) < opt.seconds);

  // A pass the guard stopped still counts as attempted (and failed).
  const std::size_t counted = std::max<std::size_t>(passes, 1) * p.cases;
  const double cases = static_cast<double>(counted);
  report.attempted = counted;
  report.failed = report.correct ? 0 : counted;
  std::map<std::string, double>& self_ms = totals.self_ms;
  const double root_ms = totals.root_ms;
  auto& m = report.metrics;
  m["channel.calls"] = static_cast<double>(totals.channel_calls) / cases;
  m["channel.self_ms"] = self_ms["channel"] / cases;
  m["net.self_ms"] = self_ms["net"] / cases;
  m["net.frames"] = frames / cases;
  m["net.retransmits"] = retransmits / cases;
  m["core.phase1_ms"] = self_ms["core.phase1"] / cases;
  m["core.phase2_plan_ms"] = self_ms["core.phase2_plan"] / cases;
  m["core.phase2_encode_ms"] = self_ms["core.phase2_encode"] / cases;
  m["core.phase2_repair_ms"] = self_ms["core.phase2_repair"] / cases;
  m["core.unicast_ms"] = self_ms["core.unicast"] / cases;
  m["gf.computed_mb"] = gf_bytes / cases / 1e6;
  m["analysis.eve_ms"] = self_ms["analysis.eve"] / cases;
  m["alloc.calls"] = alloc_calls / cases;
  m["alloc.mb"] = alloc_bytes / cases / 1e6;
  m["runtime.busy_share"] =
      busy_ms / (static_cast<double>(w.threads) * wall_a_ms);
  m["runtime.plan_ms"] = p.plan_ms;
  m["host.ref_ms"] = report.context_numbers["host.ref_ms"];
  const double covered = root_ms - self_ms["glue"];
  m["trace.coverage"] = root_ms > 0.0 ? covered / root_ms : 0.0;
  m["trace.overhead"] = busy_ms > 0.0 ? root_ms / busy_ms - 1.0 : 0.0;
  report.context_numbers["passes"] = static_cast<double>(passes);
  report.context_numbers["cases"] = cases;
  report.context_numbers["spans"] = static_cast<double>(totals.spans);
  if (m["trace.coverage"] < 0.95)
    report.fail("layer self times cover only " +
                std::to_string(m["trace.coverage"] * 100.0) +
                "% of traced case time (need >= 95%)");

  std::fprintf(stderr,
               "%s traced: %zu pass(es) x %zu cases on %zu thread(s); "
               "replica %.3f ms/case vs program %.3f ms/case "
               "(overhead %+.1f%%), layers cover %.1f%% of traced time\n",
               w.name, passes, p.cases, w.threads, root_ms / cases,
               busy_ms / cases, m["trace.overhead"] * 100.0,
               m["trace.coverage"] * 100.0);
  std::fprintf(stderr, "  %-22s %12s %8s\n", "layer", "self ms/case", "share");
  for (const auto& [layer, ms] : self_ms)
    std::fprintf(stderr, "  %-22s %12.4f %7.1f%%\n", layer.c_str(),
                 ms / cases, root_ms > 0.0 ? 100.0 * ms / root_ms : 0.0);
  std::fprintf(stderr,
               "  per case: %.0f channel calls, %.0f frames, %.1f "
               "retransmits, %.3f MB GF computed, %.0f allocations "
               "(%.3f MB)\n",
               m["channel.calls"], m["net.frames"], m["net.retransmits"],
               m["gf.computed_mb"], m["alloc.calls"], m["alloc.mb"]);
  return finish(report);
}

}  // namespace

bool is_sweep_workload(const std::string& name) {
  return find_sweep(name) != nullptr;
}

int run_sweep(const Options& options, std::int64_t start_ns) {
  const SweepWorkload* w = find_sweep(options.workload);
  if (w == nullptr) throw std::invalid_argument("unknown sweep workload");
  return alloc_counting() ? run_traced(*w, options, start_ns)
                          : run_timed(*w, options, start_ns);
}

}  // namespace perfbench
