// Randomized fuzz for the spec front-end, two ways:
//
// - round trip: ~500 seeded random ScenarioSpecs must survive
//   parse(describe(S)) == S, serialize as a fixed point, and stay
//   bit-identical when every serialized value is --set back onto them
//   (override idempotence). This is the property the `thinair describe` /
//   `--spec` / `--set` surface is built on;
// - mutation: 20,000 seeded mutants of real spec text (every registered
//   scenario's describe output and every examples/specs file) must parse
//   or throw SpecError, compile or throw std::invalid_argument, and never
//   crash, hang or allocate without bound. `--spec` feeds this parser
//   whatever file it is given.
//
// The hand-picked cases live in spec_test.cpp; this suite walks the space.
#include "runtime/spec_parse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "channel/rng.h"
#include "runtime/result_sink.h"  // format_double
#include "runtime/seed.h"

namespace thinair::runtime {
namespace {

// All random values are chosen exactly representable (small integers
// scaled by powers of two), so equality after a text round-trip cannot
// hinge on double-formatting corner cases — the serializer's
// shortest-round-trip contract is tested separately by the built-in
// suite; here the generator stays conservative so a failure always means
// a front-end bug.

double rnd_prob(channel::Rng& rng) {
  return static_cast<double>(rng.next_byte() % 65) / 64.0;
}

double rnd_double(channel::Rng& rng, double lo, double hi) {
  const double t = static_cast<double>(rng.next_byte()) / 256.0;
  // Snap to 1/16 steps: exactly representable and within [lo, hi].
  const double v = lo + t * (hi - lo);
  return lo + static_cast<double>(static_cast<int>((v - lo) * 16.0)) / 16.0;
}

std::size_t rnd_int(channel::Rng& rng, std::size_t lo, std::size_t hi) {
  return lo + rng.next_byte() % (hi - lo + 1);
}

bool rnd_bool(channel::Rng& rng) { return rng.next_byte() % 2 == 0; }

std::string rnd_string(channel::Rng& rng) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 "
      "-_.:,;!?#[]=\"\\";
  std::string out;
  const std::size_t len = rng.next_byte() % 24;
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint8_t roll = rng.next_byte();
    if (roll < 8) {
      out += '\n';  // exercises the \n escape
    } else {
      out += kAlphabet[roll % (sizeof(kAlphabet) - 1)];
    }
  }
  return out;
}

ScenarioSpec random_spec(std::uint64_t seed) {
  channel::Rng rng(seed);
  ScenarioSpec s;
  s.name = rnd_string(rng);
  s.description = rnd_string(rng);

  // Channel: every model kind, every knob the grammar exposes.
  constexpr channel::ChannelModelKind kModels[] = {
      channel::ChannelModelKind::kIid, channel::ChannelModelKind::kPerLink,
      channel::ChannelModelKind::kTestbed};
  s.channel.model = kModels[rng.next_byte() % std::size(kModels)];
  s.channel.iid_p = rnd_prob(rng);
  s.channel.default_p = rnd_prob(rng);
  const std::size_t n_links = rng.next_byte() % 4;
  for (std::size_t i = 0; i < n_links; ++i)
    s.channel.links.push_back(channel::LinkErasure{
        static_cast<std::uint16_t>(rng.next_byte() % 16),
        static_cast<std::uint16_t>(rng.next_byte() % 16), rnd_prob(rng)});
  // Perfect-square area: side = sqrt(k^2) = k and k * k = area, both
  // exact, so the area <-> side conversion cannot drift.
  const double side = static_cast<double>(rnd_int(rng, 5, 40));
  s.channel.testbed.grid = channel::CellGrid(side * side);
  s.channel.testbed.interference_enabled = rnd_bool(rng);
  s.channel.testbed.pathloss.tx_power_dbm = rnd_double(rng, -10.0, 30.0);
  s.channel.testbed.pathloss.ref_loss_db = rnd_double(rng, 20.0, 60.0);
  s.channel.testbed.pathloss.exponent = rnd_double(rng, 2.0, 5.0);
  s.channel.testbed.pathloss.min_distance_m = rnd_double(rng, 0.5, 2.0);
  s.channel.testbed.interferer.tx_power_dbm = rnd_double(rng, -10.0, 30.0);
  s.channel.testbed.interferer.sidelobe_rejection_db =
      rnd_double(rng, 0.0, 30.0);
  s.channel.testbed.sinr.noise_floor_dbm = rnd_double(rng, -100.0, -80.0);
  s.channel.testbed.sinr.per_threshold_db = rnd_double(rng, 0.0, 10.0);
  s.channel.testbed.sinr.per_scale_db = rnd_double(rng, 1.0, 8.0);
  s.channel.testbed.sinr.floor = rnd_prob(rng) / 2.0;
  s.channel.testbed.sinr.ceiling =
      0.5 + rnd_prob(rng) / 2.0;  // keep ceiling >= floor

  // Topology: n lists (possibly empty), caps, cells, positions.
  s.topology.n_values.clear();
  const std::size_t n_count = rng.next_byte() % 5;
  for (std::size_t i = 0; i < n_count; ++i)
    s.topology.n_values.push_back(rnd_int(rng, 2, 8));
  s.topology.max_placements = rnd_int(rng, 0, 200);
  const std::size_t n_cells = rng.next_byte() % 5;
  for (std::size_t i = 0; i < n_cells; ++i)
    s.topology.cells.push_back(rng.next_byte() % channel::CellGrid::kCells);
  s.topology.eve_cell = rng.next_byte() % channel::CellGrid::kCells;
  const std::size_t n_pos = rng.next_byte() % 3;
  for (std::size_t i = 0; i < n_pos; ++i)
    s.topology.positions.push_back(channel::Vec2{
        rnd_double(rng, 0.0, 30.0), rnd_double(rng, 0.0, 30.0)});
  if (rnd_bool(rng))
    s.topology.eve_position =
        channel::Vec2{rnd_double(rng, 0.0, 30.0), rnd_double(rng, 0.0, 30.0)};

  // Session.
  s.session.x_packets = rnd_int(rng, 1, 255);
  s.session.payload_bytes = rnd_int(rng, 1, 255);
  s.session.rounds = rnd_int(rng, 0, 12);
  s.session.rotate_alice = rnd_bool(rng);
  s.session.pool = rnd_bool(rng) ? core::PoolStrategy::kClassShared
                                 : core::PoolStrategy::kTerminalMds;

  // Estimator axis: 1..3 series over every kind, with and without caps.
  constexpr core::EstimatorKind kKinds[] = {
      core::EstimatorKind::kOracle,      core::EstimatorKind::kLeaveOneOut,
      core::EstimatorKind::kKSubset,     core::EstimatorKind::kFraction,
      core::EstimatorKind::kLooFraction, core::EstimatorKind::kSlotFraction,
      core::EstimatorKind::kGeometry};
  s.estimator.series.clear();
  const std::size_t n_series = rnd_int(rng, 1, 3);  // empty is a parse error
  for (std::size_t i = 0; i < n_series; ++i)
    s.estimator.series.push_back(EstimatorSeries{
        kKinds[rng.next_byte() % std::size(kKinds)], rnd_int(rng, 0, 60)});
  s.estimator.k_antennas = rnd_int(rng, 1, 4);
  s.estimator.fraction_delta = rnd_prob(rng);
  // The safety margin's domain is (0, 1].
  s.estimator.safety = static_cast<double>(1 + rng.next_byte() % 64) / 64.0;

  // Sweep / output / mac.
  const std::size_t n_p = rng.next_byte() % 6;
  for (std::size_t i = 0; i < n_p; ++i)
    s.sweep.p_values.push_back(rnd_prob(rng));
  s.sweep.repeats = rnd_int(rng, 1, 30);
  if (rng.next_byte() % 4 == 0) {
    // The generic key axis: realistic dotted paths (the round trip does
    // not compile the spec, so the target's validity is irrelevant here,
    // but quoting/dots must survive the text form).
    static constexpr const char* kKeys[] = {
        "session.x_packets", "channel.p", "estimator.k_antennas",
        "mac.slot_s"};
    s.sweep.key = kKeys[rng.next_byte() % 4];
    const std::size_t n_vals = rnd_int(rng, 1, 4);
    for (std::size_t i = 0; i < n_vals; ++i)
      s.sweep.values.push_back(static_cast<double>(i + 1) +
                               static_cast<double>(rng.next_byte() % 4) / 4.0);
  }
  const Baseline baselines[] = {Baseline::kGroup, Baseline::kUnicast,
                                Baseline::kBoth};
  s.output.baseline = baselines[rng.next_byte() % 3];
  s.output.metrics = rnd_bool(rng) ? MetricSet::kSession
                                   : MetricSet::kEfficiency;
  s.output.analytic = rnd_bool(rng);
  s.mac.data_rate_bps = static_cast<double>(rnd_int(rng, 1, 100)) * 1e5;
  s.mac.per_frame_overhead_s =
      static_cast<double>(rnd_int(rng, 0, 64)) / 1048576.0;
  s.mac.inter_frame_gap_s =
      static_cast<double>(rnd_int(rng, 0, 64)) / 1048576.0;
  s.mac.slot_duration_s = static_cast<double>(rnd_int(rng, 1, 64)) / 1024.0;

  // Run pinning: walk all four presence states (unset / seed-only /
  // threads-only / both) — the [run] section is emitted conditionally,
  // so absence must round-trip as faithfully as presence.
  if (rnd_bool(rng)) s.run.seed = rng.next_u64();
  if (rnd_bool(rng)) s.run.threads = rnd_int(rng, 0, 16);
  return s;
}

// Replay every serialized "key = value" line of `text` onto `spec` as a
// dotted-path override, tracking the section context exactly as a user's
// --set would name it.
void apply_all_serialized_overrides(ScenarioSpec& spec,
                                    const std::string& text) {
  std::string section;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line.front() == '[') {
      section = line.substr(1, line.size() - 2);
      continue;
    }
    const std::size_t eq = line.find('=');
    ASSERT_NE(eq, std::string::npos) << line;
    std::string key = line.substr(0, eq);
    while (!key.empty() && key.back() == ' ') key.pop_back();
    const std::string value = line.substr(eq + 1);
    const std::string path = section.empty() ? key : section + "." + key;
    ASSERT_NO_THROW(apply_override(spec, path, value))
        << path << " = " << value;
  }
}

TEST(SpecFuzz, FiveHundredRandomSpecsRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ScenarioSpec spec = random_spec(seed);
    const std::string text = serialize_spec(spec);

    // parse(describe(S)) == S ...
    ScenarioSpec parsed;
    ASSERT_NO_THROW(parsed = parse_spec(text));
    ASSERT_EQ(parsed, spec);

    // ... describe is a fixed point ...
    ASSERT_EQ(serialize_spec(parsed), text);

    // ... and --set of every serialized value is idempotent.
    apply_all_serialized_overrides(parsed, text);
    ASSERT_EQ(parsed, spec);
  }
}

// Overrides on a random spec change exactly the named field and applying
// the OLD serialized value restores bit-equality (the --set round trip
// the CLI's describe -> edit -> run loop depends on).
TEST(SpecFuzz, OverrideThenRestoreIsIdentity) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ScenarioSpec spec = random_spec(seed);
    ScenarioSpec mutated = spec;
    apply_override(mutated, "session.x_packets", "13");
    apply_override(mutated, "channel.p", "0.125");
    EXPECT_NE(mutated, spec);
    apply_override(mutated, "session.x_packets",
                   std::to_string(spec.session.x_packets));
    apply_override(mutated, "channel.p",
                   format_double(spec.channel.iid_p));
    EXPECT_EQ(mutated, spec);
  }
}

// ------------------------------------------------------- mutation fuzz

// Whole grammar tokens, so mutants reach past the lexer into the key
// table, the list and range parsers and the keyed-sweep compiler.
constexpr const char* kTokens[] = {
    "=", "[", "]", ",", "\"", "#", "..", ":", ".", "-", "\\", " ", "\n",
    "0", "9", "true", "off", "[sweep]\n", "[topology]\n", "[run]\n",
    "repeats = ", "key = \"session.x_packets\"\n", "values = [20, 30]\n"};

// Numbers past every bound the front-end has to enforce.
constexpr const char* kExtremes[] = {"4294967296", "1e308", "-1", "nan"};

std::vector<std::string> mutation_corpus() {
  std::vector<std::string> corpus;
  register_builtin_scenarios();
  for (const Scenario* s : ScenarioRegistry::instance().list())
    if (s->spec != nullptr) corpus.push_back(serialize_spec(*s->spec));
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(THINAIR_EXAMPLE_SPECS_DIR))
    if (entry.path().extension() == ".toml") files.push_back(entry.path());
  std::sort(files.begin(), files.end());  // directory order is unspecified
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file);
    std::ostringstream text;
    text << in.rdbuf();
    corpus.push_back(text.str());
  }
  return corpus;
}

/// Starts of the lines of `text` (0 and every position after a '\n').
std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts = {0};
  for (std::size_t i = 0; i < text.size(); ++i)
    if (text[i] == '\n') starts.push_back(i + 1);
  return starts;
}

bool is_digit(char ch) {
  return std::isdigit(static_cast<unsigned char>(ch)) != 0;
}

bool numeric_char(char ch) {
  return is_digit(ch) || ch == '.' || ch == 'e' || ch == 'E' || ch == '+' ||
         ch == '-';
}

/// One to four stacked mutations of a random corpus entry.
std::string mutate(const std::vector<std::string>& corpus, channel::Rng& rng) {
  std::string text = corpus[rng.next_below(corpus.size())];
  const std::uint64_t ops = 1 + rng.next_below(4);
  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::size_t at = rng.next_below(text.size() + 1);
    switch (rng.next_below(5)) {
      case 0:  // flip one byte
        if (!text.empty())
          text[rng.next_below(text.size())] ^=
              static_cast<char>(1 + rng.next_below(255));
        break;
      case 1:  // insert a grammar token
        text.insert(at, kTokens[rng.next_below(std::size(kTokens))]);
        break;
      case 2:  // delete a span
        text.erase(at, 1 + rng.next_below(32));
        break;
      case 3: {  // splice a line of any corpus entry in at a line start
        const std::string& donor = corpus[rng.next_below(corpus.size())];
        const std::vector<std::size_t> from = line_starts(donor);
        const std::size_t begin = from[rng.next_below(from.size())];
        const std::size_t end = donor.find('\n', begin);
        const std::vector<std::size_t> to = line_starts(text);
        text.insert(to[rng.next_below(to.size())],
                    donor.substr(begin, end - begin) + "\n");
        break;
      }
      default: {  // replace a number with an extreme
        // (start, length) of each maximal run of number characters that
        // holds a digit.
        std::vector<std::pair<std::size_t, std::size_t>> numbers;
        std::size_t i = 0;
        while (i < text.size()) {
          std::size_t j = i;
          bool digit = false;
          while (j < text.size() && numeric_char(text[j]))
            digit = is_digit(text[j++]) || digit;
          if (digit) numbers.emplace_back(i, j - i);
          i = std::max(j, i + 1);
        }
        if (numbers.empty()) break;
        const auto [pos, len] = numbers[rng.next_below(numbers.size())];
        text.replace(pos, len, kExtremes[rng.next_below(std::size(kExtremes))]);
        break;
      }
    }
  }
  return text;
}

/// The properties every input must hold; returns what broke, or "".
/// Exceptions other than the two documented ones propagate.
std::string check_mutant(const std::string& text) {
  ScenarioSpec spec;
  try {
    spec = parse_spec(text);
  } catch (const SpecError&) {
    return "";
  }
  const std::string once = serialize_spec(spec);
  std::string twice;
  try {
    twice = serialize_spec(parse_spec(once));
  } catch (const SpecError& e) {
    return std::string("serialize_spec output does not parse: ") + e.what();
  }
  if (twice != once)
    return "serialize_spec is not a fixed point through parse:\n" + once +
           "\nthen:\n" + twice;
  Scenario scenario;
  try {
    scenario = compile(spec);
  } catch (const std::invalid_argument&) {
    return "";
  }
  const SweepPlan plan = scenario.plan();
  (void)plan.at(plan.size() - 1);
  return "";
}

TEST(SpecFuzz, MutatedCorpusIsTotal) {
  constexpr std::uint64_t kSeed = 20121029;
  constexpr std::uint64_t kMutations = 20000;
  const std::vector<std::string> corpus = mutation_corpus();
  ASSERT_GE(corpus.size(), 5u);  // fig1, fig2, headline, two example specs
  for (const std::string& text : corpus) ASSERT_EQ(check_mutant(text), "");

  for (std::uint64_t i = 0; i < kMutations; ++i) {
    // Each iteration's mutant depends only on (seed, i), so a failure
    // report reproduces on its own.
    channel::Rng rng(derive_seed(kSeed, i));
    const std::string text = mutate(corpus, rng);
    std::string failure;
    try {
      failure = check_mutant(text);
    } catch (const std::exception& e) {
      failure = std::string("unexpected exception: ") + e.what();
    } catch (...) {
      failure = "unexpected non-standard exception";
    }
    ASSERT_EQ(failure, "") << "seed " << kSeed << ", iteration " << i
                           << ", input:\n" << text;
  }
}

}  // namespace
}  // namespace thinair::runtime
