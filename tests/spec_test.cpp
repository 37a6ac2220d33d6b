// The declarative scenario layer: spec parsing and serialisation
// (round-trip guarantee, golden error messages, pinned describe output),
// dotted-path overrides, key domains, compile() validation, the key
// tables of docs/scenarios.md, and the determinism contract for
// spec-defined scenarios (byte-identical NDJSON at 1 vs 8 threads).
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "runtime/engine.h"
#include "runtime/scenarios.h"
#include "runtime/spec_parse.h"
#include "util/sha256.h"

namespace thinair::runtime {
namespace {

// A placement-free spec exercising most knobs; cheap enough to execute.
ScenarioSpec small_iid_spec() {
  ScenarioSpec spec;
  spec.name = "small-iid";
  spec.description = "iid smoke sweep";
  spec.channel.model = channel::ChannelModelKind::kIid;
  spec.channel.iid_p = 0.3;
  spec.sweep.p_values = {0.2, 0.5};
  spec.topology.n_values = {2, 3};
  spec.session.x_packets = 40;
  spec.session.rounds = 2;
  spec.estimator.series = {{core::EstimatorKind::kLooFraction}};
  spec.sweep.repeats = 2;
  return spec;
}

// A testbed spec with an explicit placement of two terminals.
ScenarioSpec two_cell_spec(std::string name) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.topology.cells = {0, 4};
  spec.topology.eve_cell = 8;
  return spec;
}

ScenarioSpec repeated(ScenarioSpec spec, std::size_t repeats) {
  spec.sweep.repeats = repeats;
  return spec;
}

ScenarioSpec keyed(ScenarioSpec spec, std::string key,
                   std::vector<double> values) {
  spec.sweep.key = std::move(key);
  spec.sweep.values = std::move(values);
  return spec;
}

/// (dotted path, value text) of every "key = value" line of describe
/// output, in order.
std::vector<std::pair<std::string, std::string>> described_keys(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> keys;
  std::string section;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    if (line.front() == '[') {
      section = line.substr(1, line.size() - 2) + ".";
      continue;
    }
    const std::size_t eq = line.find(" = ");
    keys.emplace_back(section + line.substr(0, eq), line.substr(eq + 3));
  }
  return keys;
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

  ScenarioSpec testbed = two_cell_spec("cells");
  testbed.topology.positions = {{0.5, 0.5}, {2.0, 1.6}};
  testbed.topology.eve_position = channel::Vec2{3.0, 3.0};
  testbed.channel.testbed.interference_enabled = false;
  EXPECT_EQ(parse_spec(serialize_spec(testbed)), testbed);

  ScenarioSpec per_link;
  per_link.name = "links";
  per_link.channel.model = channel::ChannelModelKind::kPerLink;
  per_link.channel.default_p = 0.1;
  per_link.channel.links = {{0, 1, 0.5}, {1, 0, 0.25}};
  per_link.topology.n_values = {3};
  per_link.estimator.series = {{core::EstimatorKind::kLeaveOneOut}};
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

std::string sha256_hex(const std::string& text) {
  util::Sha256 hash;
  hash.update(text);
  return hash.hex();
}

TEST(SpecParse, DescribeOutputIsPinned) {
  // SHA-256 of what `thinair describe` prints for each built-in, and for
  // each examples/specs file parsed and written back, recorded before the
  // key list replaced the hand-written serializer: a change to a key's
  // order, text form or default shows here.
  const std::pair<ScenarioSpec, const char*> builtins[] = {
      {fig1_spec(),
       "dfbd5269a96bfb8765d180e78ff02bd7a4edfb604aaf784abac8ca16182a09f8"},
      {fig2_spec(),
       "cbee46ac3342fe883d9d509f5a33f7a4f957fe8eb2cb707472e462590fbe0afd"},
      {headline_spec(),
       "6b0f18b6dee1c3cb5be5fa582c86ab04d697d2a31838f7b6731048f4f50bbd5a"},
  };
  for (const auto& [spec, digest] : builtins)
    EXPECT_EQ(sha256_hex(serialize_spec(spec)), digest) << spec.name;

  const std::pair<const char*, const char*> files[] = {
      {"ablation_estimator.toml",
       "b45a6750764efe339b02486ada40c82f2866a08abdd683f8dd6b2314a2e258eb"},
      {"ablation_pool.toml",
       "198375f79d9cca5260c6bd92cafeb711e82e36a2840cba638d3c6bac35fefb4c"},
      {"ablation_rotation.toml",
       "68bb3f86ccd283602393ee2887f1eec7d2d78717012c89fd90d82eb578789d2d"},
      {"explicit_positions.toml",
       "067de7c12312b29e33f2ae04a719d95d4f09e516c062e7d4924bb76ade4b0a96"},
      {"fig2_iid.toml",
       "106055c129a44531329ef2fc0be97750d2e4b5dd45446cdf5393baab2d3f61b8"},
      {"interference_off.toml",
       "733d9042580742165d16c5e77a33f5467df976ba820d68ed0bce00d8ebd3e5f8"},
  };
  for (const auto& [file, digest] : files) {
    std::ifstream in(std::string(THINAIR_EXAMPLE_SPECS_DIR) + "/" + file);
    ASSERT_TRUE(in) << file;
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(sha256_hex(serialize_spec(parse_spec(text.str()))), digest)
        << file;
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
  // Node ids are 16-bit: 65536 once wrapped to 0 and ran as link 0>1.
  expect_parse_error("[channel]\nlinks = [\"65536>1:0.9\"]\n",
                     "line 2: channel.links: node id 65536 above 65535 in "
                     "link '65536>1:0.9'");
  expect_parse_error("[channel]\nlinks = [\"1>70000:0.9\"]\n",
                     "line 2: channel.links: node id 70000 above 65535 in "
                     "link '1>70000:0.9'");
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
  expect_compile_error(spec, "estimator.series: needs at least one estimator");

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
  // Off the testbed, eve_position once compiled and was ignored.
  spec = small_iid_spec();
  spec.topology.eve_position = channel::Vec2{2.0, 2.0};
  expect_compile_error(spec, "require channel.model = testbed");

  // Node ids are 16-bit (Eve takes id n): compile must catch the
  // overflow, not let Medium::attach abort the run.
  spec = small_iid_spec();
  spec.topology.n_values = {70000};
  expect_compile_error(spec, "must be <= 65534");

  // A spec built in C++ meets the domains a spec file does, with the
  // same messages after the spec's name.
  spec = small_iid_spec();
  spec.channel.model = channel::ChannelModelKind::kPerLink;
  spec.sweep.p_values.clear();
  spec.channel.default_p = 1.5;
  expect_compile_error(spec,
                       "small-iid: channel.default_p: 1.5 outside [0, 1]");
  spec.channel.default_p = 0.1;
  spec.channel.links = {{0, 1, 2.0}};
  expect_compile_error(spec, "channel.links: 2 outside [0, 1]");

  spec = small_iid_spec();
  spec.estimator.k_antennas = 0;
  expect_compile_error(spec, "estimator.k_antennas: must be >= 1");

  // Non-finite coordinates once compiled, then failed every case with
  // "linear_to_db: non-positive power".
  spec = fig2_spec();
  spec.topology.positions = {{std::nan(""), 1.0}, {6.0, 1.0}};
  expect_compile_error(spec, "topology.positions: nan is not finite");
  spec = fig2_spec();
  spec.topology.eve_position = channel::Vec2{HUGE_VAL, 2.0};
  expect_compile_error(spec, "topology.eve_position: inf is not finite");
  // Finite but so far away that the signal underflows to 0 mW: these
  // compiled, then every case failed in TestbedChannel::place. 1e150 m
  // still places.
  spec = fig2_spec();
  spec.topology.positions = {{1e200, 1.0}, {0.5, 3.0}};
  spec.topology.eve_position = channel::Vec2{2.0, 2.0};
  expect_compile_error(spec, "positions and eve_position must be placeable");
  spec.topology.positions[0].x = 1e150;
  EXPECT_NO_THROW((void)compile(spec));
  spec = fig2_spec();  // a placement sweep with Eve at a fixed point
  spec.topology.eve_position = channel::Vec2{1e200, 2.0};
  expect_compile_error(spec, "positions and eve_position must be placeable");
  spec.topology.eve_position->x = 1e150;
  EXPECT_NO_THROW((void)compile(spec));

  // A testbed parameter the channel's constructor rejects: this once
  // compiled, then failed the run with "LogDistancePathLoss:
  // min_distance_m <= 0". Its domain now refuses it in a file too.
  spec = fig2_spec();
  spec.channel.testbed.pathloss.min_distance_m = 0.0;
  expect_compile_error(spec, "channel.min_distance_m: 0 outside (0, inf)");
  expect_parse_error(
      "name = \"d\"\n[topology]\nn = [3]\n[channel]\n"
      "model = \"testbed\"\nmin_distance_m = 0\n",
      "line 6: channel.min_distance_m: 0 outside (0, inf)");
  // In its domain, but no link can carry a signal: the channel builds,
  // and placing a node in each cell finds it.
  spec.channel.testbed.pathloss.min_distance_m = 1e300;
  expect_compile_error(spec, "channel.testbed parameters are invalid "
                             "(linear_to_db: non-positive power)");
  // Each bound in [0, 1], but the loss clamp needs floor <= ceiling.
  spec = fig2_spec();
  spec.channel.testbed.sinr.ceiling = 0.0;
  expect_compile_error(spec,
                       "channel.loss_floor must be <= channel.loss_ceiling");

  // Sizes compile() must refuse before any plan is built. Each of these
  // once compiled, leaving run_scenario to build millions of explicit
  // points or fail with std::bad_alloc.
  expect_compile_error(repeated(fig1_spec(), 4294967296),
                       "sweep.repeats must be <= 1048576");
  expect_compile_error(repeated(headline_spec(), 4294967296),
                       "sweep.repeats must be <= 1048576");
  // 567 placement cases x 20000 repeats, each an explicit point.
  expect_compile_error(repeated(fig2_spec(), 20000),
                       "plan has more than 1048576 cases");
  expect_compile_error(repeated(fig2_spec(), 200000),
                       "plan has more than 1048576 cases");
  // One explicit placement, 3 series x 2^20 repeats.
  spec = repeated(fig2_spec(), kMaxSweepValues);
  spec.topology.cells = {0, 1, 2};
  expect_compile_error(spec, "plan has more than 1048576 cases");
  // Each variant is 36 x 20000 = 720000 cases, the keyed plan twice that.
  expect_compile_error(
      repeated(keyed(fig1_spec(), "session.x_packets", {20, 30}), 20000),
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
      keyed(fig1_spec(), "estimator.safety", {0.5, std::nan("")}),
      "sweep.values: nan is not finite");

  // The cap is inclusive, and a placement-free plan is decoded on demand,
  // so its case count is not bounded by it.
  EXPECT_EQ(compile(repeated(fig1_spec(), kMaxSweepValues)).plan().size(),
            36 * kMaxSweepValues);
}

TEST(SpecCompile, NoKeyValueFailsTheRun) {
  // Every numeric key of each built-in, set to each value a typo or a
  // script can produce. --set or compile() must refuse the value, or the
  // first case must run and write finite metrics: a value compile()
  // accepts must not fail the run or put a non-number in the NDJSON.
  constexpr const char* kValues[] = {"nan", "inf", "-inf", "-1", "0", "1e300"};
  std::size_t tries = 0;
  for (ScenarioSpec base : {fig1_spec(), fig2_spec(), headline_spec()}) {
    base.run.seed = 1;  // so that describe lists the [run] keys too
    base.run.threads = 1;
    for (const auto& [key, text] : described_keys(serialize_spec(base))) {
      double number = 0.0;
      const auto [end, ec] =
          std::from_chars(text.data(), text.data() + text.size(), number);
      if (ec != std::errc{} || end != text.data() + text.size()) continue;
      for (const char* value : kValues) {
        SCOPED_TRACE(base.name + " --set " + key + "=" + value);
        ++tries;
        ScenarioSpec spec = base;
        try {
          apply_override(spec, key, value);
        } catch (const SpecError&) {
          continue;
        }
        Scenario s;
        try {
          s = compile(spec);
        } catch (const std::invalid_argument&) {
          continue;
        }
        RunOptions options;
        options.threads = 1;
        options.limit = 1;
        std::vector<std::pair<CaseSpec, CaseResult>> cases;
        try {
          cases = run_scenario_collect(s, options);
        } catch (const std::exception& e) {
          ADD_FAILURE() << "compiled, then the run failed: " << e.what();
          continue;
        }
        ASSERT_EQ(cases.size(), 1u);
        for (const Metric& m : cases[0].second.metrics)
          EXPECT_TRUE(std::isfinite(m.value)) << m.name << " = " << m.value;
      }
    }
  }
  // 29 numeric keys in each built-in.
  EXPECT_EQ(tries, 3 * 29 * std::size(kValues));
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
  ScenarioSpec spec = keyed(small_iid_spec(), "session.x_packets", {30, 90});
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
      keyed(fig1_spec(), "session.x_packets", {100000, 1048576});
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
  ScenarioSpec spec = keyed(small_iid_spec(), "topology.n", {2, 3});
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
  ScenarioSpec spec;
  spec.name = "uneven";
  spec.topology.n_values = {3};
  spec = keyed(spec, "topology.max_placements", {1, 2});
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

  spec = keyed(small_iid_spec(), "sweep.repeats", {1, 2});
  expect_compile_error(spec, "sweep.key cannot target 'sweep.repeats'");

  spec = keyed(small_iid_spec(), "run.seed", {1, 2});
  expect_compile_error(spec, "sweep.key cannot target 'run.seed'");

  spec = keyed(small_iid_spec(), "session.x_packets", {30, 30});
  expect_compile_error(spec, "sweep.values has duplicate 30");

  // A value the key cannot hold fails at compile, with the override
  // machinery's message inside.
  spec = keyed(small_iid_spec(), "session.x_packets", {90.5});
  expect_compile_error(spec, "sweep.key:");

  spec = keyed(small_iid_spec(), "session.banana", {1});
  expect_compile_error(spec, "unknown key");
}

TEST(SpecCompile, ExplicitCellsRunEndToEnd) {
  ScenarioSpec spec = two_cell_spec("two-terminals");
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
  spec.name = "positions";
  spec.estimator.series = {{core::EstimatorKind::kSlotFraction}};
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
  ScenarioSpec spec = keyed(small_iid_spec(), "session.x_packets", {20, 40});
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

// ------------------------------------------------------ docs key tables

TEST(SpecDocs, EveryKeyHasATableRowAndEveryRowNamesAKey) {
  // docs/scenarios.md documents the format in one "| key | ..." table
  // per section. Its rows and the keys describe writes, with every
  // optional key set, must be the same set.
  ScenarioSpec spec;
  spec.topology.eve_position = channel::Vec2{1.0, 1.0};
  spec.sweep.key = "session.x_packets";
  spec.sweep.values = {30};
  spec.run.seed = 1;
  spec.run.threads = 1;
  std::set<std::string> keys;
  for (const auto& [key, text] : described_keys(serialize_spec(spec)))
    keys.insert(key);
  ASSERT_EQ(keys.size(), 47u);

  std::ifstream doc(THINAIR_SCENARIOS_DOC);
  ASSERT_TRUE(doc) << THINAIR_SCENARIOS_DOC;
  std::set<std::string> rows;
  std::optional<std::string> section;  // a key table's heading, dotted
  bool in_table = false;
  for (std::string line; std::getline(doc, line);) {
    if (line.starts_with("#")) {
      section.reset();
      if (line == "### Top level") section = "";
      if (line.starts_with("### `[") && line.ends_with("]`"))
        section = line.substr(6, line.size() - 8) + ".";
      in_table = false;
    } else if (line.starts_with("| key |")) {
      in_table = section.has_value();
    } else if (!line.starts_with("|")) {
      in_table = false;
    } else if (in_table && line.starts_with("| `")) {
      const std::size_t end = line.find('`', 3);
      EXPECT_TRUE(rows.insert(*section + line.substr(3, end - 3)).second)
          << "two rows for " << line;
    }
  }
  for (const std::string& key : keys)
    EXPECT_TRUE(rows.contains(key)) << key << " has no row";
  for (const std::string& row : rows)
    EXPECT_TRUE(keys.contains(row)) << row << " names no key";
}

}  // namespace
}  // namespace thinair::runtime
