// The declarative scenario layer: spec parsing and serialisation
// (round-trip guarantee, golden error messages), dotted-path overrides,
// compile() validation, and the determinism contract for spec-defined
// scenarios (byte-identical NDJSON at 1 vs 8 threads).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "runtime/engine.h"
#include "runtime/scenarios.h"
#include "runtime/spec_parse.h"
#include "testbed/sweep.h"

namespace thinair::runtime {
namespace {

// A placement-free spec exercising most knobs; cheap enough to execute.
ScenarioSpec small_iid_spec() {
  SessionSpec session;
  session.x_packets = 40;
  session.rounds = 2;
  return ScenarioSpec{}
      .with_name("small-iid")
      .with_description("iid smoke sweep")
      .on_iid(0.3)
      .sweep_p({0.2, 0.5})
      .with_n({2, 3})
      .with_session(session)
      .with_estimator(core::EstimatorKind::kLooFraction)
      .with_repeats(2);
}

// ------------------------------------------------------------ round trips

TEST(SpecParse, BuiltinSpecsRoundTrip) {
  for (const ScenarioSpec& spec :
       {fig1_spec(), fig2_spec(), headline_spec()}) {
    const std::string text = serialize_spec(spec);
    EXPECT_EQ(parse_spec(text), spec) << text;
    // Serialisation is canonical: a second round trip is a fixed point.
    EXPECT_EQ(serialize_spec(parse_spec(text)), text);
  }
}

TEST(SpecParse, FeaturefulSpecRoundTrips) {
  ScenarioSpec spec = small_iid_spec();
  spec.output.baseline = Baseline::kBoth;
  spec.output.metrics = MetricSet::kEfficiency;
  spec.output.analytic = true;
  spec.estimator.k_antennas = 2;
  spec.mac.data_rate_bps = 2e6;
  EXPECT_EQ(parse_spec(serialize_spec(spec)), spec);

  ScenarioSpec testbed = ScenarioSpec{}
                             .with_name("cells")
                             .on_testbed()
                             .at_cells({0, 4}, 8)
                             .with_estimator(core::EstimatorKind::kGeometry);
  testbed.topology.positions = {{0.5, 0.5}, {2.0, 1.6}};
  testbed.topology.eve_position = channel::Vec2{3.0, 3.0};
  testbed.channel.testbed.interference_enabled = false;
  EXPECT_EQ(parse_spec(serialize_spec(testbed)), testbed);

  ScenarioSpec per_link =
      ScenarioSpec{}
          .with_name("links")
          .on_per_link(0.1, {{0, 1, 0.5}, {1, 0, 0.25}})
          .with_n({3})
          .with_estimator(core::EstimatorKind::kLeaveOneOut);
  EXPECT_EQ(parse_spec(serialize_spec(per_link)), per_link);
}

TEST(SpecParse, RangeSugarAndComments) {
  const ScenarioSpec spec = parse_spec(
      "name = \"r\"  # trailing comment\n"
      "\n"
      "[topology]\n"
      "n = 3..5\n"
      "[sweep]\n"
      "p = 0.1:0.3:0.1\n"
      "[channel]\n"
      "model = \"iid\"\n");
  EXPECT_EQ(spec.topology.n_values, (std::vector<std::size_t>{3, 4, 5}));
  ASSERT_EQ(spec.sweep.p_values.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.sweep.p_values[0], 0.1);
  EXPECT_DOUBLE_EQ(spec.sweep.p_values[2], 0.1 + 2 * 0.1);
  EXPECT_EQ(spec.channel.model, channel::ChannelModelKind::kIid);
}

TEST(SpecParse, RangeEndpointsClampAndHugeRangesAreRejected) {
  // lo + i*step with an endpoint clamp: 0:1:0.05 must end exactly on 1
  // (not 1.0000000000000002, which the probability check would reject).
  const ScenarioSpec spec = parse_spec(
      "[channel]\nmodel = \"iid\"\n[sweep]\np = 0:1:0.05\n");
  ASSERT_EQ(spec.sweep.p_values.size(), 21u);
  EXPECT_EQ(spec.sweep.p_values.front(), 0.0);
  EXPECT_EQ(spec.sweep.p_values.back(), 1.0);

  // A typo'd range is a diagnostic, not a multi-GB allocation. The cap is
  // kMaxSweepValues, the one compile() holds repeats and plans to.
  EXPECT_THROW((void)parse_spec("[topology]\nn = 3..4000000000\n"),
               SpecError);
  EXPECT_THROW((void)parse_spec("[sweep]\np = 0:1:1e-9\n"), SpecError);
  EXPECT_EQ(parse_spec("[topology]\nn = 1..1048576\n").topology.n_values.size(),
            kMaxSweepValues);
  EXPECT_THROW((void)parse_spec("[topology]\nn = 1..1048577\n"), SpecError);
  // An integer list value must fit std::size_t before it is cast.
  EXPECT_THROW((void)parse_spec("[topology]\nn = [3, 1e308]\n"), SpecError);

  // A repeat count is one number, so the parser takes it; compile() is
  // what bounds it, for parsed, --set and code-built specs alike.
  const ScenarioSpec huge =
      parse_spec("name = \"x\"\n[sweep]\nrepeats = 4294967296\n");
  try {
    (void)compile(huge);
    ADD_FAILURE() << "compile accepted 2^32 repeats";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "x: sweep.repeats must be <= 1048576");
  }
}

// ---------------------------------------------------- golden error output

void expect_parse_error(const std::string& text, const std::string& message) {
  try {
    (void)parse_spec(text);
    FAIL() << "no error for: " << text;
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(), message.c_str()) << "for: " << text;
  }
}

TEST(SpecParse, GoldenErrorMessages) {
  expect_parse_error("[channel]\nfrequency = 2.4\n",
                     "line 2: channel.frequency: unknown key");
  expect_parse_error("[channel]\np = banana\n",
                     "line 2: channel.p: expected a number, got 'banana'");
  expect_parse_error("[channel]\np = 1.5\n",
                     "line 2: channel.p: 1.5 outside [0, 1]");
  expect_parse_error("[channel]\n[topology]\n[channel]\n",
                     "line 3: duplicate section [channel]");
  expect_parse_error("[chanel]\n", "line 1: unknown section [chanel]");
  expect_parse_error("wat\n",
                     "line 1: expected 'key = value' or '[section]', got "
                     "'wat'");
  expect_parse_error("oops = 1\n",
                     "line 1: oops: unknown key (top level has only name and "
                     "description)");
  expect_parse_error(
      "[estimator]\nseries = [\"psychic\"]\n",
      "line 2: estimator.series: unknown estimator 'psychic' (one of: "
      "oracle, leave-one-out, k-subset, fraction, loo-fraction, "
      "slot-fraction, geometry)");
  expect_parse_error("[topology]\nn = [3, 4\n",
                     "line 2: topology.n: unterminated list [3, 4");
  expect_parse_error("[topology]\neve_cell = 9\n",
                     "line 2: topology.eve_cell: cell 9 outside [0, 8]");
  expect_parse_error("[session]\nrotate_alice = maybe\n",
                     "line 2: session.rotate_alice: expected true/false (or "
                     "on/off), got 'maybe'");
  expect_parse_error("name = \"unterminated\n",
                     "line 1: name: unterminated string \"unterminated");
}

// --------------------------------------------------- [run] execution pinning

TEST(SpecParse, RunSectionPinsSeedAndThreads) {
  const ScenarioSpec spec = parse_spec("[run]\nseed = 12345\nthreads = 8\n");
  ASSERT_TRUE(spec.run.seed.has_value());
  EXPECT_EQ(*spec.run.seed, 12345u);
  ASSERT_TRUE(spec.run.threads.has_value());
  EXPECT_EQ(*spec.run.threads, 8u);

  // An unpinned spec serializes with no [run] section at all — absence
  // must round-trip as faithfully as presence.
  const ScenarioSpec bare = parse_spec("");
  EXPECT_FALSE(bare.run.seed.has_value());
  EXPECT_FALSE(bare.run.threads.has_value());
  EXPECT_EQ(serialize_spec(bare).find("[run]"), std::string::npos);

  // Partial pinning emits only the pinned key.
  ScenarioSpec seed_only;
  seed_only.run.seed = 7;
  const std::string text = serialize_spec(seed_only);
  EXPECT_NE(text.find("[run]\nseed = 7\n"), std::string::npos);
  EXPECT_EQ(text.find("threads"), std::string::npos);
  EXPECT_EQ(parse_spec(text), seed_only);

  expect_parse_error("[run]\nthreads = 1025\n",
                     "line 2: run.threads: at most 1024 threads (0 = auto)");
  expect_parse_error("[run]\nseed = banana\n",
                     "line 2: run.seed: expected a non-negative integer, got "
                     "'banana'");
}

// ---------------------------------------------------------- --set overrides

TEST(SpecOverride, DottedPathsAssignFields) {
  ScenarioSpec spec = fig2_spec();
  apply_override(spec, "channel.interference", "off");
  EXPECT_FALSE(spec.channel.testbed.interference_enabled);
  apply_override(spec, "topology.n", "[3, 4]");
  EXPECT_EQ(spec.topology.n_values, (std::vector<std::size_t>{3, 4}));
  apply_override(spec, "name", "\"fig2-ablated\"");
  EXPECT_EQ(spec.name, "fig2-ablated");
  apply_override(spec, "estimator.series", "[\"slot-fraction:8\"]");
  ASSERT_EQ(spec.estimator.series.size(), 1u);
  EXPECT_EQ(spec.estimator.series[0].max_placements, 8u);

  EXPECT_THROW(apply_override(spec, "channel.frequency", "2.4"), SpecError);
  EXPECT_THROW(apply_override(spec, "chanel.p", "0.5"), SpecError);
  EXPECT_THROW(apply_override(spec, "channel.p", "nope"), SpecError);
}

// ------------------------------------------------------ compile validation

void expect_compile_error(const ScenarioSpec& spec,
                          const std::string& message_part) {
  try {
    (void)compile(spec);
    FAIL() << "compile accepted an invalid spec";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(message_part), std::string::npos)
        << e.what();
  }
}

TEST(SpecCompile, RejectsInconsistentSpecs) {
  expect_compile_error(ScenarioSpec{}, "name is empty");

  ScenarioSpec spec = small_iid_spec();
  spec.estimator.series.clear();
  expect_compile_error(spec, "estimator.series is empty");

  spec = small_iid_spec();
  spec.estimator.series[0].kind = core::EstimatorKind::kGeometry;
  expect_compile_error(spec, "'geometry' requires channel.model = testbed");

  spec = small_iid_spec();
  spec.output.analytic = true;  // metrics stay kSession
  expect_compile_error(spec, "output.analytic requires");

  spec = fig2_spec();
  spec.sweep.p_values = {0.5};
  expect_compile_error(spec, "sweep.p requires channel.model = iid");

  spec = fig2_spec();
  spec.topology.n_values = {9};
  expect_compile_error(spec, "outside [2, 8]");

  spec = fig2_spec();
  spec.topology.cells = {0, 0, 1};
  expect_compile_error(spec, "explicit placement is invalid");

  spec = small_iid_spec();
  spec.topology.cells = {0, 1};
  expect_compile_error(spec, "require channel.model = testbed");

  // Node ids are 16-bit (Eve takes id n): compile must catch the
  // overflow, not let Medium::attach abort the run.
  spec = small_iid_spec();
  spec.topology.n_values = {70000};
  expect_compile_error(spec, "must be <= 65534");

  spec = small_iid_spec().on_per_link(1.5, {}).sweep_p({});
  expect_compile_error(spec, "channel.default_p outside [0, 1]");

  spec = small_iid_spec().on_per_link(0.1, {{0, 1, 2.0}}).sweep_p({});
  expect_compile_error(spec, "channel.links probability outside [0, 1]");

  spec = small_iid_spec();
  spec.estimator.k_antennas = 0;
  expect_compile_error(spec, "estimator.k_antennas must be >= 1");

  // Sizes compile() must refuse before any plan is built. Each of these
  // once compiled, leaving run_scenario to build millions of explicit
  // points or fail with std::bad_alloc.
  expect_compile_error(fig1_spec().with_repeats(4294967296),
                       "sweep.repeats must be <= 1048576");
  expect_compile_error(headline_spec().with_repeats(4294967296),
                       "sweep.repeats must be <= 1048576");
  // 567 placement cases x 20000 repeats, each an explicit point.
  expect_compile_error(fig2_spec().with_repeats(20000),
                       "plan has more than 1048576 cases");
  expect_compile_error(fig2_spec().with_repeats(200000),
                       "plan has more than 1048576 cases");
  // One explicit placement, 2 series x 2^20 repeats.
  expect_compile_error(
      fig2_spec().at_cells({0, 1, 2}, 8).with_repeats(kMaxSweepValues),
      "plan has more than 1048576 cases");
  // Each variant is 36 x 20000 = 720000 cases, the keyed plan twice that.
  expect_compile_error(
      fig1_spec().sweep_key("session.x_packets", {20, 30}).with_repeats(20000),
      "plan has more than 1048576 cases");
  // Session sizes: each of these once compiled and then failed in the
  // run with std::bad_alloc.
  spec = fig1_spec();
  spec.session.x_packets = 4294967296;
  expect_compile_error(spec, "session.x_packets must be <= 1048576");
  spec = fig1_spec();
  spec.session.payload_bytes = 4294967296;
  expect_compile_error(
      spec, "session.x_packets x session.payload_bytes must be <= 67108864");
  spec = fig1_spec();
  spec.session.rounds = 4294967296;
  expect_compile_error(spec, "session.rounds must be <= 1048576");
  // A NaN key value compiles to a variant no case can find.
  expect_compile_error(
      fig1_spec().sweep_key("estimator.safety", {0.5, std::nan("")}),
      "sweep.values must be finite");

  // The cap is inclusive, and a placement-free plan is decoded on demand,
  // so its case count is not bounded by it.
  EXPECT_EQ(compile(fig1_spec().with_repeats(kMaxSweepValues)).plan().size(),
            36 * kMaxSweepValues);
}

// ------------------------------------------------- compiled scenario shape

TEST(SpecCompile, PlanAxesMatchTheSpec) {
  const Scenario s = compile(small_iid_spec());
  ASSERT_NE(s.spec, nullptr);
  EXPECT_EQ(*s.spec, small_iid_spec());
  const SweepPlan plan = s.plan();
  // 2 n x 2 p x 2 repeats.
  EXPECT_EQ(plan.size(), 8u);
  const auto axes = plan.axis_summaries();
  ASSERT_EQ(axes.size(), 3u);
  EXPECT_EQ(axes[0].name, "n");
  EXPECT_EQ(axes[1].name, "p");
  EXPECT_EQ(axes[2].name, "rep");
  EXPECT_EQ(axes[1].values, (std::vector<double>{0.2, 0.5}));
}

// ---------------------------------------------------- sweep.key axis

TEST(SpecParse, KeySweepRoundTrips) {
  ScenarioSpec spec = small_iid_spec().sweep_key("session.x_packets", {30, 90});
  const std::string text = serialize_spec(spec);
  EXPECT_NE(text.find("key = \"session.x_packets\""), std::string::npos);
  EXPECT_NE(text.find("values = [30, 90]"), std::string::npos);
  EXPECT_EQ(parse_spec(text), spec);
  EXPECT_EQ(serialize_spec(parse_spec(text)), text);

  // Absent key axis stays absent (no "key =" line at all).
  EXPECT_EQ(serialize_spec(small_iid_spec()).find("key ="),
            std::string::npos);
}

TEST(SpecCompile, KeySweepTakesIntegerValuesFrom100000Up) {
  // format_double writes 100000 as "1e+05"; an integer key must still
  // read it. 1048576 packets x 64 B is exactly the per-round cap.
  ScenarioSpec spec =
      fig1_spec().sweep_key("session.x_packets", {100000, 1048576});
  spec.session.payload_bytes = 64;
  const Scenario s = compile(spec);
  const SweepPlan plan = s.plan();
  ASSERT_EQ(plan.size(), 2 * 36u);
  EXPECT_EQ(plan.at(0)[0], (Param{"session.x_packets", 100000.0}));
  EXPECT_EQ(plan.at(36)[0], (Param{"session.x_packets", 1048576.0}));

  // What `thinair describe` prints parses back to the same spec and text.
  const std::string text = serialize_spec(spec);
  EXPECT_EQ(parse_spec(text), spec);
  EXPECT_EQ(serialize_spec(parse_spec(text)), text);
  EXPECT_NO_THROW((void)compile(parse_spec(text)));
}

TEST(SpecCompile, KeySweepIsTheSlowestAxisAndAppliesPerValue) {
  // Sweep the group size through the generic axis; the base n list is
  // shadowed by the override, and the group labels prove each variant
  // really ran with its own value.
  ScenarioSpec spec = small_iid_spec().sweep_key("topology.n", {2, 3});
  spec.topology.n_values = {5};  // replaced per value by the key axis
  spec.sweep.p_values = {0.2};
  spec.sweep.repeats = 1;
  const Scenario s = compile(spec);
  const SweepPlan plan = s.plan();
  ASSERT_EQ(plan.size(), 2u);
  // The key parameter leads every point, under its dotted name.
  EXPECT_EQ(plan.at(0)[0], (Param{"topology.n", 2.0}));
  EXPECT_EQ(plan.at(1)[0], (Param{"topology.n", 3.0}));
  const auto cases = run_scenario_collect(s, RunOptions{});
  ASSERT_EQ(cases.size(), 2u);
  EXPECT_EQ(cases[0].second.group, "n=2");
  EXPECT_EQ(cases[1].second.group, "n=3");
}

TEST(SpecCompile, KeySweepConcatenatesUnevenVariantGrids) {
  // A key that changes the plan's *shape* per value: the placement cap
  // makes variant grids of 1 and 2 cases. Concatenation must cover both
  // exactly — this is why the key axis compiles to explicit points, not
  // a cartesian prefix.
  ScenarioSpec spec = ScenarioSpec{}
                          .with_name("uneven")
                          .on_testbed()
                          .with_n({3})
                          .with_estimator(core::EstimatorKind::kGeometry)
                          .sweep_key("topology.max_placements", {1, 2});
  const SweepPlan plan = compile(spec).plan();
  ASSERT_EQ(plan.size(), 3u);  // cap 1 -> 1 placement, cap 2 -> 2
  EXPECT_EQ(plan.at(0)[0], (Param{"topology.max_placements", 1.0}));
  EXPECT_EQ(plan.at(1)[0], (Param{"topology.max_placements", 2.0}));
  EXPECT_EQ(plan.at(2)[0], (Param{"topology.max_placements", 2.0}));
  EXPECT_EQ(param(plan.at(2), "placement"), 1.0);
}

TEST(SpecCompile, KeySweepRejectsBadAxes) {
  ScenarioSpec spec = small_iid_spec();
  spec.sweep.key = "session.x_packets";  // values left empty
  expect_compile_error(spec, "sweep.key and sweep.values must be set together");

  spec = small_iid_spec();
  spec.sweep.values = {1, 2};  // key left empty
  expect_compile_error(spec, "sweep.key and sweep.values must be set together");

  spec = small_iid_spec().sweep_key("sweep.repeats", {1, 2});
  expect_compile_error(spec, "sweep.key cannot target 'sweep.repeats'");

  spec = small_iid_spec().sweep_key("run.seed", {1, 2});
  expect_compile_error(spec, "sweep.key cannot target 'run.seed'");

  spec = small_iid_spec().sweep_key("session.x_packets", {30, 30});
  expect_compile_error(spec, "sweep.values has duplicate 30");

  // A value the key cannot hold fails at compile, with the override
  // machinery's message inside.
  spec = small_iid_spec().sweep_key("session.x_packets", {90.5});
  expect_compile_error(spec, "sweep.key:");

  spec = small_iid_spec().sweep_key("session.banana", {1});
  expect_compile_error(spec, "unknown key");
}

TEST(SpecCompile, ExplicitCellsRunEndToEnd) {
  ScenarioSpec spec = ScenarioSpec{}
                          .with_name("two-terminals")
                          .on_testbed()
                          .at_cells({0, 4}, 8)
                          .with_estimator(core::EstimatorKind::kGeometry);
  spec.session.x_packets = 36;
  spec.session.rounds = 1;
  const Scenario s = compile(spec);
  EXPECT_EQ(s.plan().size(), 1u);
  const auto cases = run_scenario_collect(s, RunOptions{});
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases[0].second.group, "n=2");
  EXPECT_GE(metric(cases[0].second, "reliability"), 0.0);
}

TEST(SpecCompile, ExplicitPositionsDeriveCells) {
  // Positions only: cells come from the grid, Eve from her coordinates.
  ScenarioSpec spec;
  spec.with_name("positions")
      .on_testbed()
      .with_estimator(core::EstimatorKind::kSlotFraction);
  spec.topology.positions = {{0.5, 0.5}, {3.0, 0.5}, {0.5, 3.0}};
  spec.topology.eve_position = channel::Vec2{3.0, 3.0};
  spec.session.x_packets = 36;
  spec.session.rounds = 1;
  const Scenario s = compile(spec);
  const auto cases = run_scenario_collect(s, RunOptions{});
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases[0].second.group, "n=3");
}

// --------------------------------------------------- determinism contract

std::string run_ndjson(const Scenario& s, std::size_t threads) {
  std::ostringstream out;
  ResultSink sink(s.name, &out);
  RunOptions options;
  options.threads = threads;
  options.master_seed = 21;
  (void)run_scenario(s, options, sink);
  return out.str();
}

TEST(SpecDeterminism, NdjsonByteIdenticalAcrossThreadCounts) {
  // The acceptance property for the whole declarative layer: a scenario
  // that exists only as a parsed spec file is byte-identical at 1 vs 8
  // threads.
  const ScenarioSpec spec = parse_spec(serialize_spec(small_iid_spec()));
  const Scenario s = compile(spec);
  const std::string one = run_ndjson(s, 1);
  EXPECT_EQ(std::count(one.begin(), one.end(), '\n'), 8);
  EXPECT_EQ(one, run_ndjson(s, 8));
}

TEST(SpecDeterminism, KeySweepByteIdenticalAcrossThreadCounts) {
  // The generic axis dispatches per case through per-value variants; the
  // dispatch must not disturb the contract (and the spec, key included,
  // must survive the text round trip first).
  ScenarioSpec spec = small_iid_spec().sweep_key("session.x_packets", {20, 40});
  spec.sweep.p_values = {0.2};
  spec.sweep.repeats = 1;
  const Scenario s = compile(parse_spec(serialize_spec(spec)));
  const std::string one = run_ndjson(s, 1);
  EXPECT_EQ(std::count(one.begin(), one.end(), '\n'), 4);
  EXPECT_NE(one.find("\"session.x_packets\":20"), std::string::npos);
  EXPECT_EQ(one, run_ndjson(s, 8));
}

// ------------------------------------------------------- truncation marks

TEST(Truncation, FooterAndSummaryNote) {
  const Scenario s = compile(small_iid_spec());
  std::ostringstream out;
  ResultSink sink(s.name, &out);
  RunOptions options;
  options.limit = 3;
  const RunStats stats = run_scenario(s, options, sink);
  EXPECT_TRUE(stats.truncated());
  EXPECT_EQ(stats.plan_cases, 8u);
  const std::string ndjson = out.str();
  EXPECT_NE(ndjson.find("\"truncated\":true,\"cases\":3,\"plan_cases\":8"),
            std::string::npos);
  std::ostringstream summary;
  sink.print_summary(summary);
  EXPECT_NE(summary.str().find("first 3 of 8 cases"), std::string::npos);

  // Full runs stay footer-free (byte-compat with pre-footer output).
  std::ostringstream full;
  ResultSink full_sink(s.name, &full);
  (void)run_scenario(s, RunOptions{}, full_sink);
  EXPECT_EQ(full.str().find("truncated"), std::string::npos);
}

// ------------------------------------------------------ built-in pinning

TEST(BuiltinSpecs, Fig1FirstCasePinned) {
  // Golden line: the exact bytes the pre-spec (PR 3) binary emitted for
  // fig1 case 0 at master seed 1. Guards the byte-identity guarantee the
  // declarative rebase made (seeds, params, group labels, metric names
  // and doubles formatting all pinned at once).
  register_builtin_scenarios();
  const Scenario* fig1 = ScenarioRegistry::instance().find(kFig1Scenario);
  ASSERT_NE(fig1, nullptr);
  std::ostringstream out;
  ResultSink sink(fig1->name, &out);
  RunOptions options;
  options.limit = 1;
  (void)run_scenario(*fig1, options, sink);
  const std::string line = out.str().substr(0, out.str().find('\n'));
  EXPECT_EQ(line,
            "{\"scenario\":\"fig1\",\"index\":0,\"seed\":"
            "10451216379200822465,\"group\":\"n=2\",\"params\":{\"n\":2,"
            "\"p\":0.1},\"metrics\":{\"group_analytic\":0.09000000000000001,"
            "\"group_sim\":0.095,\"unicast_analytic\":0.09000000000000001,"
            "\"unicast_sim\":0.08333333333333333}}");
}

TEST(BuiltinSpecs, RunSweepStillMatchesSpecPath) {
  // run_sweep is now a wrapper over the same compile() path; pin the
  // wiring by checking group labels and per-n case counts land intact.
  testbed::SweepConfig cfg;
  cfg.n_min = 7;
  cfg.n_max = 8;
  cfg.max_placements = 4;
  cfg.session.x_packets_per_round = 36;
  cfg.session.rounds = 1;
  const testbed::SweepResult r = run_sweep(cfg);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].n, 7u);
  EXPECT_EQ(r.rows[1].n, 8u);
  EXPECT_EQ(r.rows[0].experiments, 4u);
}

}  // namespace
}  // namespace thinair::runtime
