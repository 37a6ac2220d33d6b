#include "runtime/scenario_spec.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/efficiency.h"
#include "core/session.h"
#include "core/unicast.h"
#include "net/medium.h"
#include "runtime/engine.h"
#include "runtime/result_sink.h"  // format_double — sweep.key overrides
#include "runtime/seed.h"
#include "runtime/spec_parse.h"   // apply_override — sweep.key variants
#include "testbed/experiment.h"
#include "testbed/placements.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace thinair::runtime {

// ------------------------------------------------------------- enum names

std::string_view to_string(Baseline b) {
  switch (b) {
    case Baseline::kGroup: return "group";
    case Baseline::kUnicast: return "unicast";
    case Baseline::kBoth: return "both";
  }
  return "unknown";
}

std::string_view to_string(MetricSet m) {
  switch (m) {
    case MetricSet::kSession: return "session";
    case MetricSet::kEfficiency: return "efficiency";
  }
  return "unknown";
}

std::optional<Baseline> baseline_from_string(std::string_view name) {
  for (const Baseline b : {Baseline::kGroup, Baseline::kUnicast, Baseline::kBoth})
    if (name == to_string(b)) return b;
  return std::nullopt;
}

std::optional<MetricSet> metric_set_from_string(std::string_view name) {
  for (const MetricSet m : {MetricSet::kSession, MetricSet::kEfficiency})
    if (name == to_string(m)) return m;
  return std::nullopt;
}

// --------------------------------------------------------- fluent builder

ScenarioSpec& ScenarioSpec::with_name(std::string n) {
  name = std::move(n);
  return *this;
}
ScenarioSpec& ScenarioSpec::with_description(std::string d) {
  description = std::move(d);
  return *this;
}
ScenarioSpec& ScenarioSpec::on_iid(double p) {
  channel.model = channel::ChannelModelKind::kIid;
  channel.iid_p = p;
  return *this;
}
ScenarioSpec& ScenarioSpec::on_per_link(
    double default_p, std::vector<channel::LinkErasure> links) {
  channel.model = channel::ChannelModelKind::kPerLink;
  channel.default_p = default_p;
  channel.links = std::move(links);
  return *this;
}
ScenarioSpec& ScenarioSpec::on_testbed(channel::TestbedChannel::Config config) {
  channel.model = channel::ChannelModelKind::kTestbed;
  channel.testbed = config;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_n(std::vector<std::size_t> values) {
  topology.n_values = std::move(values);
  return *this;
}
ScenarioSpec& ScenarioSpec::with_n_range(std::size_t lo, std::size_t hi) {
  topology.n_values.clear();
  for (std::size_t n = lo; n <= hi; ++n) topology.n_values.push_back(n);
  return *this;
}
ScenarioSpec& ScenarioSpec::with_placement_cap(std::size_t cap) {
  topology.max_placements = cap;
  return *this;
}
ScenarioSpec& ScenarioSpec::at_cells(std::vector<std::size_t> cells,
                                     std::size_t eve_cell) {
  topology.cells = std::move(cells);
  topology.eve_cell = eve_cell;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_estimator(core::EstimatorKind kind,
                                           std::size_t max_placements) {
  estimator.series = {{kind, max_placements}};
  return *this;
}
ScenarioSpec& ScenarioSpec::add_estimator(core::EstimatorKind kind,
                                          std::size_t max_placements) {
  estimator.series.push_back({kind, max_placements});
  return *this;
}
ScenarioSpec& ScenarioSpec::with_session(SessionSpec s) {
  session = s;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_pool(core::PoolStrategy pool) {
  session.pool = pool;
  return *this;
}
ScenarioSpec& ScenarioSpec::sweep_p(std::vector<double> values) {
  sweep.p_values = std::move(values);
  return *this;
}
ScenarioSpec& ScenarioSpec::sweep_key(std::string key,
                                      std::vector<double> values) {
  sweep.key = std::move(key);
  sweep.values = std::move(values);
  return *this;
}
ScenarioSpec& ScenarioSpec::with_repeats(std::size_t repeats) {
  sweep.repeats = repeats;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_baseline(Baseline b) {
  output.baseline = b;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_metrics(MetricSet m) {
  output.metrics = m;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_analytic(bool on) {
  output.analytic = on;
  return *this;
}

namespace {

// Placement sets are immutable per (n, cap); enumerate each once instead
// of per case — the headline sweep alone would otherwise rebuild a
// 630-element placement vector 1971 times inside the parallel hot path.
const std::vector<testbed::Placement>& cached_placements(
    std::size_t n, std::size_t max_placements) {
  struct Cache {
    util::Mutex mu;
    std::map<std::pair<std::size_t, std::size_t>,
             std::vector<testbed::Placement>>
        map THINAIR_GUARDED_BY(mu);
  };
  static Cache cache;
  util::MutexLock lock(&cache.mu);
  auto [it, inserted] = cache.map.try_emplace({n, max_placements});
  if (inserted) it->second = testbed::sample_placements(n, max_placements);
  return it->second;
}

struct Compiled;

/// One value of the sweep.key axis: the value itself plus the spec
/// variant it compiles to (the base spec with `key = value` applied and
/// the key axis cleared).
struct KeyVariant {
  double value = 0.0;
  std::shared_ptr<const Compiled> compiled;
};

/// Everything the plan and case functions need, resolved once at compile
/// time and shared (immutably) by both closures.
struct Compiled {
  ScenarioSpec spec;
  bool testbed = false;          // channel.model == kTestbed
  bool placement_sweep = false;  // testbed without an explicit placement
  bool estimator_axis = false;   // > 1 estimator series
  bool p_axis = false;           // sweep.p non-empty (iid)
  bool rep_axis = false;         // sweep.repeats > 1
  testbed::Placement explicit_placement;  // when testbed && !placement_sweep
  /// sweep.key axis (empty = absent). When present, every other field
  /// above is unused: the plan and case functions delegate to the
  /// per-value variants, with the key as the slowest axis.
  std::string key;
  std::vector<KeyVariant> variants;
};

[[noreturn]] void fail(const ScenarioSpec& spec, const std::string& what) {
  throw std::invalid_argument(
      (spec.name.empty() ? std::string("spec") : spec.name) + ": " + what);
}

std::size_t series_cap(const Compiled& c, const EstimatorSeries& series) {
  return series.max_placements != 0 ? series.max_placements
                                    : c.spec.topology.max_placements;
}

/// The number of cases make_plan(c) yields for an unkeyed spec, counted
/// without building anything. It saturates at kMaxSweepValues + 1:
/// callers only compare it with the cap, and a saturated count cannot
/// overflow.
std::size_t case_count(const Compiled& c) {
  static constexpr std::size_t kOver = kMaxSweepValues + 1;
  const auto mul = [](std::size_t a, std::size_t b) {
    return a != 0 && b > kOver / a ? kOver : std::min(a * b, kOver);
  };
  const ScenarioSpec& spec = c.spec;
  if (c.placement_sweep) {
    // Every (series, n) pair adds at least one case, so this loop stops
    // within kOver iterations however long the lists are.
    std::size_t total = 0;
    for (const EstimatorSeries& series : spec.estimator.series) {
      const std::size_t cap = series_cap(c, series);
      for (const std::size_t n : spec.topology.n_values) {
        const std::size_t all = testbed::placement_count(n);
        const std::size_t placements = cap == 0 ? all : std::min(cap, all);
        total = std::min(total + mul(placements, spec.sweep.repeats), kOver);
        if (total == kOver) return total;
      }
    }
    return total;
  }
  const std::size_t series = spec.estimator.series.size();
  if (c.testbed) return mul(series, spec.sweep.repeats);
  const std::size_t ps = std::max<std::size_t>(spec.sweep.p_values.size(), 1);
  return mul(mul(mul(series, spec.topology.n_values.size()), ps),
             spec.sweep.repeats);
}

/// A sweep.key value as `--set` text. Integral values are written out in
/// full: format_double's shortest form writes 100000 as "1e+05", which
/// the integer keys reject.
std::string override_text(double value) {
  if (std::signbit(value) || !(value < 0x1p64) || value != std::floor(value))
    return format_double(value);
  char buf[24];  // 2^64 - 1 has 20 digits
  return std::string(
      buf, std::to_chars(buf, buf + sizeof(buf),
                         static_cast<std::uint64_t>(value)).ptr);
}

/// Build the testbed channel once, as every case will: a parameter its
/// constructor rejects (min_distance_m <= 0, say) would otherwise fail
/// each case of the run. A finite coordinate can still be too far away to
/// place: its signal underflows to 0 mW (past about 1e159 m), and every
/// case would throw from TestbedChannel::place. Place each given point
/// once, as the cases do, against a node at every cell centre a case may
/// stand one at and against the other given points.
void check_testbed(const ScenarioSpec& spec) {
  std::optional<channel::TestbedChannel> built;
  try {
    built.emplace(spec.channel.testbed);
  } catch (const std::exception& e) {
    fail(spec, "channel.testbed parameters are invalid (" +
                   std::string(e.what()) + ")");
  }
  if (spec.topology.positions.empty() &&
      !spec.topology.eve_position.has_value())
    return;
  channel::TestbedChannel& ch = *built;
  std::uint16_t id = 0;
  try {
    for (std::size_t cell = 0; cell < channel::CellGrid::kCells; ++cell)
      ch.place_in_cell(packet::NodeId{id++}, channel::CellIndex{cell});
    for (const channel::Vec2 pos : spec.topology.positions)
      ch.place(packet::NodeId{id++}, pos);
    if (spec.topology.eve_position.has_value())
      ch.place(packet::NodeId{id}, *spec.topology.eve_position);
  } catch (const std::exception& e) {
    fail(spec, "topology.positions and eve_position must be placeable (" +
                   std::string(e.what()) + ")");
  }
}

[[noreturn]] void fail_too_many_cases(const ScenarioSpec& spec) {
  fail(spec, "plan has more than " + std::to_string(kMaxSweepValues) +
                 " cases");
}

Compiled validate(const ScenarioSpec& spec) {
  Compiled c;
  c.spec = spec;
  if (spec.name.empty()) fail(spec, "name is empty");
  if (spec.estimator.series.empty()) fail(spec, "estimator.series is empty");
  if (spec.sweep.repeats < 1) fail(spec, "sweep.repeats must be >= 1");
  if (spec.sweep.repeats > kMaxSweepValues)
    fail(spec, "sweep.repeats must be <= " + std::to_string(kMaxSweepValues));
  if (spec.estimator.k_antennas < 1)
    fail(spec, "estimator.k_antennas must be >= 1");
  if (spec.session.x_packets < 1) fail(spec, "session.x_packets must be >= 1");
  if (spec.session.x_packets > kMaxSweepValues)
    fail(spec,
         "session.x_packets must be <= " + std::to_string(kMaxSweepValues));
  if (spec.session.payload_bytes < 1)
    fail(spec, "session.payload_bytes must be >= 1");
  if (spec.session.payload_bytes >
      kMaxRoundPayloadBytes / spec.session.x_packets)
    fail(spec, "session.x_packets x session.payload_bytes must be <= " +
                   std::to_string(kMaxRoundPayloadBytes) +
                   " bytes of x-payloads per round");
  if (spec.session.rounds > kMaxSweepValues)
    fail(spec, "session.rounds must be <= " + std::to_string(kMaxSweepValues));

  const bool iid = spec.channel.model == channel::ChannelModelKind::kIid;
  c.testbed = spec.channel.model == channel::ChannelModelKind::kTestbed;
  c.estimator_axis = spec.estimator.series.size() > 1;
  c.rep_axis = spec.sweep.repeats > 1;

  if (!spec.sweep.p_values.empty()) {
    if (!iid) fail(spec, "sweep.p requires channel.model = iid");
    for (const double p : spec.sweep.p_values)
      if (!(p >= 0.0 && p <= 1.0)) fail(spec, "sweep.p value outside [0, 1]");
    c.p_axis = true;
  }
  if (iid && !(spec.channel.iid_p >= 0.0 && spec.channel.iid_p <= 1.0))
    fail(spec, "channel.p outside [0, 1]");
  if (spec.channel.model == channel::ChannelModelKind::kPerLink) {
    if (!(spec.channel.default_p >= 0.0 && spec.channel.default_p <= 1.0))
      fail(spec, "channel.default_p outside [0, 1]");
    for (const channel::LinkErasure& link : spec.channel.links)
      if (!(link.p >= 0.0 && link.p <= 1.0))
        fail(spec, "channel.links probability outside [0, 1]");
  }
  if (spec.output.analytic &&
      (!iid || spec.output.metrics != MetricSet::kEfficiency))
    fail(spec,
         "output.analytic requires channel.model = iid and output.metrics = "
         "efficiency");
  if (!c.testbed)
    for (const EstimatorSeries& series : spec.estimator.series)
      if (series.kind == core::EstimatorKind::kGeometry)
        fail(spec, "estimator 'geometry' requires channel.model = testbed");

  // A non-finite coordinate has no cell and no path loss: caught here, it
  // would otherwise fail every case in the channel.
  const auto finite = [](channel::Vec2 v) {
    return std::isfinite(v.x) && std::isfinite(v.y);
  };
  if (!std::all_of(spec.topology.positions.begin(),
                   spec.topology.positions.end(), finite) ||
      (spec.topology.eve_position.has_value() &&
       !finite(*spec.topology.eve_position)))
    fail(spec, "topology.positions and eve_position must be finite");

  const bool explicit_topology =
      !spec.topology.cells.empty() || !spec.topology.positions.empty();
  if ((explicit_topology || spec.topology.eve_position.has_value()) &&
      !c.testbed)
    fail(spec,
         "topology.cells/positions/eve_position require channel.model = "
         "testbed");

  if (c.testbed && explicit_topology) {
    std::vector<std::size_t> cells = spec.topology.cells;
    std::size_t eve_cell = spec.topology.eve_cell;
    const channel::CellGrid& grid = spec.channel.testbed.grid;
    if (cells.empty())  // derive the logical cells from the coordinates
      for (const channel::Vec2 pos : spec.topology.positions)
        cells.push_back(grid.cell_of(pos).value);
    if (spec.topology.eve_position.has_value())
      eve_cell = grid.cell_of(*spec.topology.eve_position).value;
    if (!spec.topology.positions.empty() &&
        spec.topology.positions.size() != cells.size())
      fail(spec, "topology.positions must align with topology.cells");
    if (cells.size() < 2 || cells.size() > 8)
      fail(spec, "explicit placement needs 2 to 8 terminals");
    testbed::Placement placement;
    for (const std::size_t cell : cells)
      placement.terminal_cells.push_back(channel::CellIndex{cell});
    placement.eve_cell = channel::CellIndex{eve_cell};
    if (!placement.valid())
      fail(spec,
           "explicit placement is invalid (one distinct cell per node, Eve "
           "in her own)");
    c.explicit_placement = std::move(placement);
  } else {
    if (spec.topology.n_values.empty()) fail(spec, "topology.n is empty");
    for (const std::size_t n : spec.topology.n_values) {
      if (n < 2) fail(spec, "topology.n values must be >= 2");
      if (c.testbed && n > 8)
        fail(spec, "topology.n values outside [2, 8] (testbed placements)");
      // Node ids are 16-bit and Eve takes id n, so n + 1 ids must fit —
      // caught here so the contract "compile throws nothing at run time
      // it could have caught" holds for giant placement-free sweeps.
      if (n > 65534) fail(spec, "topology.n values must be <= 65534");
    }
    c.placement_sweep = c.testbed;
  }
  if (c.testbed) check_testbed(spec);
  // A testbed plan is built as explicit points, one allocation per case.
  if (c.testbed && case_count(c) > kMaxSweepValues) fail_too_many_cases(spec);
  return c;
}

/// validate() plus the sweep.key expansion: a keyed spec compiles one
/// variant per value (the base spec with the override applied and the
/// key axis cleared), each recursively validated; everything else goes
/// straight to validate().
Compiled make_compiled(const ScenarioSpec& spec) {
  if (spec.sweep.key.empty() && spec.sweep.values.empty())
    return validate(spec);
  if (spec.sweep.key.empty() || spec.sweep.values.empty())
    fail(spec, "sweep.key and sweep.values must be set together");

  const std::string& key = spec.sweep.key;
  // sweep.* would self-reference (and sweep.p already is an axis); run.*
  // is execution pinning, not physics; name/description are not numeric.
  if (key.starts_with("sweep.") || key.starts_with("run.") ||
      key == "name" || key == "description")
    fail(spec, "sweep.key cannot target '" + key + "'");

  // Every variant adds at least one case, and the keyed plan is built as
  // explicit points: bound the values before compiling any variant.
  if (spec.sweep.values.size() > kMaxSweepValues) fail_too_many_cases(spec);

  Compiled c;
  c.spec = spec;
  c.key = key;
  // Copied once per value, so it must not carry the values itself.
  ScenarioSpec unkeyed = spec;
  unkeyed.sweep.key.clear();
  unkeyed.sweep.values.clear();
  std::set<double> seen;
  std::size_t cases = 0;
  for (const double value : spec.sweep.values) {
    // Cases find their variant by exact comparison, which a NaN never
    // passes.
    if (!std::isfinite(value)) fail(spec, "sweep.values must be finite");
    if (!seen.insert(value).second)
      fail(spec, "sweep.values has duplicate " + format_double(value));
    ScenarioSpec variant = unkeyed;
    try {
      // The same path/value syntax as `--set key=value`, so exactly the
      // keys an override can reach are sweepable — and a value the key
      // cannot hold (90.5 packets) fails here, at compile time.
      apply_override(variant, key, override_text(value));
    } catch (const SpecError& e) {
      fail(spec, "sweep.key: " + std::string(e.what()));
    }
    auto compiled = std::make_shared<const Compiled>(make_compiled(variant));
    cases += case_count(*compiled);
    if (cases > kMaxSweepValues) fail_too_many_cases(spec);
    c.variants.push_back({value, std::move(compiled)});
  }
  return c;
}

SweepPlan make_plan(const Compiled& c) {
  const ScenarioSpec& spec = c.spec;
  SweepPlan plan;

  if (!c.variants.empty()) {
    // Key axis slowest: variant-major concatenation as explicit points
    // (per-variant grids may differ in shape — the key can retarget
    // topology.n), each point led by the key parameter.
    for (const KeyVariant& kv : c.variants) {
      const SweepPlan sub = make_plan(*kv.compiled);
      for (std::size_t i = 0; i < sub.size(); ++i) {
        Params point;
        point.push_back({c.key, kv.value});
        for (Param& p : sub.at(i)) point.push_back(std::move(p));
        plan.add_point(std::move(point));
      }
    }
    return plan;
  }

  if (c.placement_sweep) {
    // Dependent grid (placement count varies with n and the series cap):
    // explicit points, series-major then n then placement then repetition.
    for (std::size_t si = 0; si < spec.estimator.series.size(); ++si) {
      const std::size_t cap = series_cap(c, spec.estimator.series[si]);
      for (const std::size_t n : spec.topology.n_values) {
        const std::size_t count = cached_placements(n, cap).size();
        for (std::size_t pl = 0; pl < count; ++pl) {
          for (std::size_t rep = 0; rep < spec.sweep.repeats; ++rep) {
            Params point;
            if (c.estimator_axis)
              point.push_back({"estimator", static_cast<double>(si)});
            point.push_back({"n", static_cast<double>(n)});
            point.push_back({"placement", static_cast<double>(pl)});
            if (c.rep_axis) point.push_back({"rep", static_cast<double>(rep)});
            plan.add_point(std::move(point));
          }
        }
      }
    }
    return plan;
  }

  if (c.testbed) {  // explicit placement: one case per (series, repetition)
    for (std::size_t si = 0; si < spec.estimator.series.size(); ++si) {
      for (std::size_t rep = 0; rep < spec.sweep.repeats; ++rep) {
        Params point;
        if (c.estimator_axis)
          point.push_back({"estimator", static_cast<double>(si)});
        if (c.rep_axis) point.push_back({"rep", static_cast<double>(rep)});
        plan.add_point(std::move(point));
      }
    }
    return plan;
  }

  // Placement-free models: a pure cartesian grid.
  if (c.estimator_axis) {
    std::vector<double> codes;
    for (std::size_t si = 0; si < spec.estimator.series.size(); ++si)
      codes.push_back(static_cast<double>(si));
    plan.add_axis("estimator", std::move(codes));
  }
  std::vector<double> ns;
  for (const std::size_t n : spec.topology.n_values)
    ns.push_back(static_cast<double>(n));
  plan.add_axis("n", std::move(ns));
  if (c.p_axis) plan.add_axis("p", spec.sweep.p_values);
  if (c.rep_axis) {
    std::vector<double> reps;
    for (std::size_t rep = 0; rep < spec.sweep.repeats; ++rep)
      reps.push_back(static_cast<double>(rep));
    plan.add_axis("rep", std::move(reps));
  }
  return plan;
}

core::SessionConfig make_session_config(const Compiled& c,
                                        const EstimatorSeries& series) {
  const ScenarioSpec& spec = c.spec;
  core::SessionConfig cfg;
  cfg.x_packets_per_round = spec.session.x_packets;
  cfg.payload_bytes = spec.session.payload_bytes;
  cfg.rounds = spec.session.rounds;
  cfg.rotate_alice = spec.session.rotate_alice;
  cfg.pool_strategy = spec.session.pool;
  cfg.estimator.kind = series.kind;
  cfg.estimator.k_antennas = spec.estimator.k_antennas;
  cfg.estimator.fraction_delta = spec.estimator.fraction_delta;
  cfg.estimator.loo_safety = spec.estimator.safety;
  cfg.arena = &worker_arena();  // reset per case by the engine
  return cfg;
}

core::SessionResult run_testbed_session(const Compiled& c,
                                        const EstimatorSeries& series,
                                        const testbed::Placement& placement,
                                        std::uint64_t seed, bool unicast) {
  const ScenarioSpec& spec = c.spec;
  testbed::ExperimentConfig exp;
  exp.placement = placement;
  exp.terminal_positions = spec.topology.positions;
  exp.eve_position = spec.topology.eve_position;
  exp.session = make_session_config(c, series);
  exp.channel = spec.channel.testbed;
  exp.mac = spec.mac;
  exp.seed = seed;
  return (unicast ? run_unicast_experiment(exp) : run_experiment(exp)).session;
}

core::SessionResult run_flat_session(const Compiled& c,
                                     const EstimatorSeries& series,
                                     std::size_t n, double p,
                                     std::uint64_t seed, bool unicast) {
  const ScenarioSpec& spec = c.spec;
  const std::unique_ptr<channel::ErasureModel> model =
      channel::make_erasure_model(spec.channel.model, p, spec.channel.default_p,
                                  spec.channel.links);
  net::SimMedium medium(*model, channel::Rng(seed), spec.mac);
  for (std::size_t i = 0; i < n; ++i)
    medium.attach(packet::NodeId{static_cast<std::uint16_t>(i)},
                  net::Role::kTerminal);
  medium.attach(packet::NodeId{static_cast<std::uint16_t>(n)},
                net::Role::kEavesdropper);
  const core::SessionConfig cfg = make_session_config(c, series);
  if (unicast) return core::UnicastSession(medium, cfg).run();
  return core::GroupSecretSession(medium, cfg).run();
}

void append_session_metrics(std::vector<Metric>& metrics,
                            const core::SessionResult& r,
                            const std::string& prefix) {
  metrics.push_back({prefix + "reliability", r.reliability()});
  metrics.push_back({prefix + "efficiency", r.efficiency()});
  metrics.push_back({prefix + "secret_rate_bps", r.secret_rate_bps()});
}

CaseResult run_case(const Compiled& c, const CaseSpec& cs) {
  if (!c.variants.empty()) {
    // Dispatch on the key parameter this case carries. The value went
    // into the plan verbatim, so exact double comparison is right.
    const double value = param(cs.params, c.key);
    for (const KeyVariant& kv : c.variants)
      if (kv.value == value) return run_case(*kv.compiled, cs);
    throw std::logic_error(c.spec.name + ": case " + std::to_string(cs.index) +
                           " carries unknown " + c.key + " value");
  }
  const ScenarioSpec& spec = c.spec;
  const std::size_t si =
      c.estimator_axis
          ? static_cast<std::size_t>(param(cs.params, "estimator"))
          : 0;
  const EstimatorSeries& series = spec.estimator.series[si];
  const bool both = spec.output.baseline == Baseline::kBoth;
  const bool unicast_first = spec.output.baseline == Baseline::kUnicast;

  std::size_t n = 0;
  double p = spec.channel.iid_p;
  // First (or only) algorithm runs on the case seed; in both-mode the
  // second run draws from an independent stream so the comparison is
  // uncorrelated (Figure 1's construction).
  core::SessionResult first, second;
  if (c.testbed) {
    const testbed::Placement& placement =
        c.placement_sweep
            ? cached_placements(
                  static_cast<std::size_t>(param(cs.params, "n")),
                  series_cap(c, series))
                  [static_cast<std::size_t>(param(cs.params, "placement"))]
            : c.explicit_placement;
    n = placement.n_terminals();
    first = run_testbed_session(c, series, placement, cs.seed, unicast_first);
    if (both)
      second = run_testbed_session(c, series, placement,
                                   derive_seed2(cs.seed, cs.index), true);
  } else {
    n = static_cast<std::size_t>(param(cs.params, "n"));
    if (c.p_axis) p = param(cs.params, "p");
    first = run_flat_session(c, series, n, p, cs.seed, unicast_first);
    if (both)
      second = run_flat_session(c, series, n, p,
                                derive_seed2(cs.seed, cs.index), true);
  }

  CaseResult result;
  result.group = (c.estimator_axis
                      ? std::string(core::to_string(series.kind)) + " n="
                      : std::string("n=")) +
                 std::to_string(n);

  if (spec.output.metrics == MetricSet::kEfficiency) {
    const std::size_t payload = spec.session.payload_bytes;
    if (both) {
      if (spec.output.analytic)
        result.metrics.push_back(
            {"group_analytic", analysis::group_efficiency(p, n)});
      result.metrics.push_back({"group_sim", first.data_efficiency(payload)});
      if (spec.output.analytic)
        result.metrics.push_back(
            {"unicast_analytic", analysis::unicast_efficiency(p, n)});
      result.metrics.push_back(
          {"unicast_sim", second.data_efficiency(payload)});
    } else {
      if (spec.output.analytic)
        result.metrics.push_back(
            {"analytic", unicast_first ? analysis::unicast_efficiency(p, n)
                                       : analysis::group_efficiency(p, n)});
      result.metrics.push_back({"efficiency", first.data_efficiency(payload)});
    }
  } else {
    if (both) {
      append_session_metrics(result.metrics, first, "group_");
      append_session_metrics(result.metrics, second, "unicast_");
    } else {
      append_session_metrics(result.metrics, first, "");
    }
  }
  return result;
}

}  // namespace

Scenario compile(const ScenarioSpec& spec) {
  const auto c = std::make_shared<const Compiled>(make_compiled(spec));
  Scenario s;
  s.name = spec.name;
  s.description = spec.description;
  s.spec = std::make_shared<const ScenarioSpec>(spec);
  s.plan = [c] { return make_plan(*c); };
  s.run = [c](const CaseSpec& cs) { return run_case(*c, cs); };
  return s;
}

void register_spec(const ScenarioSpec& spec) {
  ScenarioRegistry::instance().add(compile(spec));
}

}  // namespace thinair::runtime
