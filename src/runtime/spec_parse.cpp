#include "runtime/spec_parse.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <type_traits>
#include <vector>

#include "runtime/engine.h"       // kMaxRunThreads
#include "runtime/result_sink.h"  // format_double

namespace thinair::runtime {

namespace {

// ----------------------------------------------------------- lexical bits

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

/// Strip a trailing comment, respecting double-quoted strings.
std::string_view strip_comment(std::string_view line) {
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (ch == '\\' && quoted) {
      ++i;  // skip the escaped character
    } else if (ch == '"') {
      quoted = !quoted;
    } else if (ch == '#' && !quoted) {
      return line.substr(0, i);
    }
  }
  return line;
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw SpecError(path + ": " + what);
}

double parse_number(const std::string& path, std::string_view text) {
  double out = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    fail(path, "expected a number, got '" + std::string(text) + "'");
  return out;
}

std::size_t parse_integer(const std::string& path, std::string_view text) {
  std::size_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    fail(path, "expected a non-negative integer, got '" + std::string(text) +
                   "'");
  return out;
}

/// A quoted string with \" \\ \n escapes, or a bare word.
std::string parse_string(const std::string& path, std::string_view text) {
  if (text.empty() || text.front() != '"') return std::string(text);
  if (text.size() < 2 || text.back() != '"')
    fail(path, "unterminated string " + std::string(text));
  std::string out;
  for (std::size_t i = 1; i + 1 < text.size(); ++i) {
    if (text[i] != '\\') {
      out += text[i];
      continue;
    }
    if (++i + 1 >= text.size())
      fail(path, "dangling escape in " + std::string(text));
    switch (text[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      default:
        fail(path, std::string("unknown escape '\\") + text[i] + "'");
    }
  }
  return out;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (ch == '\n') {
      out += "\\n";
      continue;
    }
    out += ch;
  }
  return out + "\"";
}

/// Split "[a, b, c]" (or a single bare item) into item texts, respecting
/// quotes. "[]" yields an empty list.
std::vector<std::string> split_items(const std::string& path,
                                     std::string_view text) {
  std::vector<std::string> items;
  if (text.empty() || text.front() != '[') {
    items.emplace_back(text);
    return items;
  }
  if (text.back() != ']') fail(path, "unterminated list " + std::string(text));
  text = text.substr(1, text.size() - 2);
  std::size_t start = 0;
  bool quoted = false;
  bool any = false;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && text[i] == '\\' && quoted) {
      ++i;
    } else if (i < text.size() && text[i] == '"') {
      quoted = !quoted;
    } else if (i == text.size() || (text[i] == ',' && !quoted)) {
      const std::string_view item = trim(text.substr(start, i - start));
      if (!item.empty()) {
        items.emplace_back(item);
        any = true;
      } else if (any || i < text.size()) {
        fail(path, "empty list item");
      }
      start = i + 1;
    }
  }
  return items;
}

/// Doubles with range sugar: each item is a number or "lo:hi:step"
/// (inclusive, step > 0) or "lo..hi" (integers, step 1). A range of more
/// than kMaxSweepValues values is a typo ('3..4000000000').
std::vector<double> parse_number_list(const std::string& path,
                                      std::string_view text) {
  std::vector<double> out;
  const auto check_count = [&](const std::string& item, double count) {
    if (count > static_cast<double>(kMaxSweepValues))
      fail(path, "range '" + item + "' expands to more than " +
                     std::to_string(kMaxSweepValues) + " values");
  };
  for (const std::string& item : split_items(path, text)) {
    if (const std::size_t dots = item.find(".."); dots != std::string::npos &&
                                                  item.find(':') ==
                                                      std::string::npos) {
      const double lo = parse_number(path, item.substr(0, dots));
      const double hi = parse_number(path, item.substr(dots + 2));
      if (lo != std::floor(lo) || hi != std::floor(hi) || hi < lo)
        fail(path, "bad range '" + item + "' (want integers lo..hi)");
      check_count(item, hi - lo + 1);
      for (double v = lo; v <= hi; v += 1.0) out.push_back(v);
      continue;
    }
    const std::size_t c1 = item.find(':');
    if (c1 != std::string::npos) {
      const std::size_t c2 = item.find(':', c1 + 1);
      if (c2 == std::string::npos)
        fail(path, "bad range '" + item + "' (want lo:hi:step)");
      const double lo = parse_number(path, item.substr(0, c1));
      const double hi = parse_number(path, item.substr(c1 + 1, c2 - c1 - 1));
      const double step = parse_number(path, item.substr(c2 + 1));
      if (!(step > 0.0) || hi < lo)
        fail(path, "bad range '" + item + "' (want lo <= hi, step > 0)");
      check_count(item, (hi - lo) / step + 1);
      // lo + i*step (not repeated +=) so error never accumulates, with a
      // half-step inclusive bound and a clamp so 0.1:0.9:0.1 ends exactly
      // on 0.9 and 0:1:0.05 never overshoots a probability check.
      for (std::size_t i = 0;; ++i) {
        const double v = lo + static_cast<double>(i) * step;
        if (v > hi + step / 2) break;
        out.push_back(std::min(v, hi));
      }
      continue;
    }
    out.push_back(parse_number(path, item));
  }
  return out;
}

// ---------------------------------------------------------------- domains

/// The values one key may hold. `check` returns "" for an allowed number
/// and the problem otherwise; it sees every number the key holds (each
/// list item, both coordinates of a point, each link's p), integers as
/// doubles. An `optional` key is left out of describe while it is unset
/// or empty.
struct Domain {
  std::string (*check)(double);
  bool optional = false;
};

std::string finite(double v) {
  return std::isfinite(v) ? "" : format_double(v) + " is not finite";
}

std::string probability(double v) {
  return v >= 0.0 && v <= 1.0 ? "" : format_double(v) + " outside [0, 1]";
}

std::string safety_margin(double v) {
  return v > 0.0 && v <= 1.0 ? "" : format_double(v) + " outside (0, 1]";
}

std::string positive(double v) {
  return v > 0.0 && std::isfinite(v) ? ""
                                     : format_double(v) + " outside (0, inf)";
}

std::string non_negative(double v) {
  return v >= 0.0 && std::isfinite(v) ? ""
                                      : format_double(v) + " outside [0, inf)";
}

std::string at_least_one(double v) { return v >= 1.0 ? "" : "must be >= 1"; }

std::string cell(double v) {
  return v < static_cast<double>(channel::CellGrid::kCells)
             ? ""
             : "cell " + format_double(v) + " outside [0, 8]";
}

std::string thread_count(double v) {
  return v <= static_cast<double>(kMaxRunThreads)
             ? ""
             : "at most " + std::to_string(kMaxRunThreads) +
                   " threads (0 = auto)";
}

constexpr Domain kAny{finite};  // every double finite
constexpr Domain kProbability{probability};
constexpr Domain kSafety{safety_margin};
constexpr Domain kPositive{positive};
constexpr Domain kNonNegative{non_negative};
constexpr Domain kAtLeastOne{at_least_one};
constexpr Domain kCell{cell};
constexpr Domain kOptional{finite, true};
constexpr Domain kOptionalThreads{thread_count, true};

// ------------------------------------------------------------ typed values
//
// One overload per ScenarioSpec field type: read() parses a key's text
// into a value, text_of() writes it back in describe's canonical form, and
// check() holds every number in it to the key's domain.

/// Strings, booleans and enums: every value read() accepts is allowed.
template <typename T>
void check(const std::string&, const T&, Domain) {}

void check(const std::string& path, double v, Domain domain) {
  if (const std::string problem = domain.check(v); !problem.empty())
    fail(path, problem);
}

void check(const std::string& path, std::size_t v, Domain domain) {
  check(path, static_cast<double>(v), domain);
}

void check(const std::string& path, channel::Vec2 v, Domain domain) {
  check(path, v.x, domain);
  check(path, v.y, domain);
}

void check(const std::string& path, const channel::LinkErasure& link,
           Domain domain) {
  check(path, link.p, domain);
}

void check(const std::string& path,
           const std::vector<EstimatorSeries>& series, Domain) {
  if (series.empty()) fail(path, "needs at least one estimator");
}

template <typename T>
void check(const std::string& path, const std::vector<T>& items,
           Domain domain) {
  for (const T& item : items) check(path, item, domain);
}

template <typename T>
void check(const std::string& path, const std::optional<T>& value,
           Domain domain) {
  if (value.has_value()) check(path, *value, domain);
}

void read(const std::string& path, std::string_view text, std::string& out) {
  out = parse_string(path, text);
}

void read(const std::string& path, std::string_view text, bool& out) {
  out = text == "true" || text == "on";
  if (!out && text != "false" && text != "off")
    fail(path, "expected true/false (or on/off), got '" + std::string(text) +
                   "'");
}

void read(const std::string& path, std::string_view text, double& out) {
  out = parse_number(path, text);
}

// run.seed reads as a std::size_t.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
              "spec seeds assume 64-bit size_t");

void read(const std::string& path, std::string_view text, std::size_t& out) {
  out = parse_integer(path, text);
}

void read(const std::string& path, std::string_view text,
          std::vector<double>& out) {
  out = parse_number_list(path, text);
}

void read(const std::string& path, std::string_view text,
          std::vector<std::size_t>& out) {
  for (const double v : parse_number_list(path, text)) {
    // A cast from 2^64 and up, or from infinity, is undefined.
    if (!(v >= 0.0 && v < 0x1p64) || v != std::floor(v))
      fail(path, "expected non-negative integers");
    out.push_back(static_cast<std::size_t>(v));
  }
}

/// A flat coordinate list, [x1, y1, x2, y2, ...].
void read(const std::string& path, std::string_view text,
          std::vector<channel::Vec2>& out) {
  const std::vector<double> flat = parse_number_list(path, text);
  if (flat.size() % 2 != 0)
    fail(path,
         "expected an even number of coordinates (x1, y1, x2, y2, ...)");
  for (std::size_t i = 0; i < flat.size(); i += 2)
    out.push_back({flat[i], flat[i + 1]});
}

void read(const std::string& path, std::string_view text,
          std::optional<channel::Vec2>& out) {
  std::vector<channel::Vec2> points;
  read(path, text, points);
  if (points.size() != 1) fail(path, "expected exactly one [x, y] pair");
  out = points[0];
}

template <typename T>
void read(const std::string& path, std::string_view text,
          std::optional<T>& out) {
  T value{};
  read(path, text, value);
  out = value;
}

const char* noun(channel::ChannelModelKind) { return "model"; }
const char* noun(core::EstimatorKind) { return "estimator"; }
const char* noun(core::PoolStrategy) { return "pool strategy"; }
const char* noun(Baseline) { return "baseline"; }
const char* noun(MetricSet) { return "metric set"; }

/// The enumerator whose to_string is `name`. Each enum a spec names counts
/// up from 0, and its to_string answers "unknown" past the last
/// enumerator, which ends the walk: a new enumerator needs only its
/// to_string case to be parsed and listed here.
template <typename E>
E enum_named(const std::string& path, const std::string& name) {
  std::string known;
  for (std::underlying_type_t<E> i = 0;; ++i) {
    const std::string_view candidate = to_string(static_cast<E>(i));
    if (candidate == "unknown") break;
    if (candidate == name) return static_cast<E>(i);
    known += (known.empty() ? "" : ", ") + std::string(candidate);
  }
  fail(path, "unknown " + std::string(noun(E{})) + " '" + name +
                 "' (one of: " + known + ")");
}

template <typename E>
  requires std::is_enum_v<E>
void read(const std::string& path, std::string_view text, E& out) {
  out = enum_named<E>(path, parse_string(path, text));
}

/// "kind" or "kind:cap", e.g. "geometry:60".
EstimatorSeries parse_series_item(const std::string& path,
                                  const std::string& text) {
  const std::string item = parse_string(path, text);
  const std::size_t colon = item.find(':');
  EstimatorSeries series;
  series.kind = enum_named<core::EstimatorKind>(path, item.substr(0, colon));
  if (colon != std::string::npos)
    series.max_placements = parse_integer(path, item.substr(colon + 1));
  return series;
}

void read(const std::string& path, std::string_view text,
          std::vector<EstimatorSeries>& out) {
  for (const std::string& item : split_items(path, text))
    out.push_back(parse_series_item(path, item));
}

/// "tx>rx:p", e.g. "0>1:0.25".
channel::LinkErasure parse_link_item(const std::string& path,
                                     const std::string& text) {
  const std::string item = parse_string(path, text);
  const std::size_t gt = item.find('>');
  const std::size_t colon = item.find(':', gt == std::string::npos ? 0 : gt);
  if (gt == std::string::npos || colon == std::string::npos)
    fail(path, "bad link '" + item + "' (want \"tx>rx:p\", e.g. \"0>1:0.25\")");
  // Node ids are 16-bit; a wider one must not wrap onto another link.
  const auto node_id = [&](const std::string& id_text) {
    const std::size_t id = parse_integer(path, id_text);
    if (id > std::numeric_limits<std::uint16_t>::max())
      fail(path, "node id " + id_text + " above 65535 in link '" + item + "'");
    return static_cast<std::uint16_t>(id);
  };
  channel::LinkErasure link;
  link.tx = node_id(item.substr(0, gt));
  link.rx = node_id(item.substr(gt + 1, colon - gt - 1));
  link.p = parse_number(path, item.substr(colon + 1));
  return link;
}

void read(const std::string& path, std::string_view text,
          std::vector<channel::LinkErasure>& out) {
  for (const std::string& item : split_items(path, text))
    out.push_back(parse_link_item(path, item));
}

std::string text_of(const std::string& s) { return quote(s); }
std::string text_of(bool b) { return b ? "true" : "false"; }
std::string text_of(double v) { return format_double(v); }
std::string text_of(std::size_t v) { return std::to_string(v); }

std::string text_of(channel::Vec2 v) {
  return format_double(v.x) + ", " + format_double(v.y);
}

std::string text_of(const std::optional<channel::Vec2>& v) {
  return "[" + text_of(*v) + "]";
}

std::string text_of(const channel::LinkErasure& link) {
  return quote(std::to_string(link.tx) + ">" + std::to_string(link.rx) + ":" +
               format_double(link.p));
}

std::string text_of(const EstimatorSeries& series) {
  std::string out(core::to_string(series.kind));
  if (series.max_placements != 0) {
    // Append piecewise: `out += ":" + std::to_string(...)` trips gcc 12's
    // -Wrestrict false positive (PR 105329) once inlined into the
    // serializer, and the warning set is promoted to errors in CI.
    out += ':';
    out += std::to_string(series.max_placements);
  }
  return quote(out);
}

template <typename E>
  requires std::is_enum_v<E>
std::string text_of(E e) {
  return quote(std::string(to_string(e)));
}

template <typename T>
std::string text_of(const std::vector<T>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += text_of(items[i]);
  }
  return out + "]";
}

template <typename T>
std::string text_of(const std::optional<T>& value) {
  return text_of(*value);
}

template <typename T>
bool is_set(const T& value) {
  if constexpr (requires { value.has_value(); })
    return value.has_value();
  else if constexpr (requires { value.empty(); })
    return !value.empty();
  else
    return true;
}

// ------------------------------------------------------------- the keys

/// Every key of the spec format, once, in describe's order: its section
/// ("" at the top level), its name, the ScenarioSpec field it sets and
/// the values it may hold. parse_spec, apply_override, serialize_spec and
/// check_keys all walk this list.
template <typename Spec, typename F>
void for_each_key(Spec& spec, F&& f) {
  f("", "name", spec.name, kAny);
  f("", "description", spec.description, kAny);

  auto& ch = spec.channel;
  f("channel", "model", ch.model, kAny);
  f("channel", "p", ch.iid_p, kProbability);
  f("channel", "default_p", ch.default_p, kProbability);
  f("channel", "links", ch.links, kProbability);
  // The grid keeps its side; the key is its floor area.
  auto& tb = ch.testbed;
  const double side = tb.grid.side();
  double area = side * side;
  f("channel", "area_m2", area, kPositive);
  if constexpr (!std::is_const_v<Spec>)
    if (area != side * side) tb.grid = channel::CellGrid(area);
  f("channel", "interference", tb.interference_enabled, kAny);
  f("channel", "tx_power_dbm", tb.pathloss.tx_power_dbm, kAny);
  f("channel", "ref_loss_db", tb.pathloss.ref_loss_db, kAny);
  f("channel", "pathloss_exponent", tb.pathloss.exponent, kAny);
  f("channel", "min_distance_m", tb.pathloss.min_distance_m, kPositive);
  f("channel", "jammer_power_dbm", tb.interferer.tx_power_dbm, kAny);
  f("channel", "sidelobe_rejection_db",
    tb.interferer.sidelobe_rejection_db, kAny);
  f("channel", "noise_floor_dbm", tb.sinr.noise_floor_dbm, kAny);
  f("channel", "per_threshold_db", tb.sinr.per_threshold_db, kAny);
  f("channel", "per_scale_db", tb.sinr.per_scale_db, kPositive);
  f("channel", "loss_floor", tb.sinr.floor, kProbability);
  f("channel", "loss_ceiling", tb.sinr.ceiling, kProbability);

  auto& topo = spec.topology;
  f("topology", "n", topo.n_values, kAny);
  f("topology", "max_placements", topo.max_placements, kAny);
  f("topology", "cells", topo.cells, kCell);
  f("topology", "eve_cell", topo.eve_cell, kCell);
  f("topology", "positions", topo.positions, kAny);
  f("topology", "eve_position", topo.eve_position, kOptional);

  auto& session = spec.session;
  f("session", "x_packets", session.x_packets, kAtLeastOne);
  f("session", "payload_bytes", session.payload_bytes, kAtLeastOne);
  f("session", "rounds", session.rounds, kAny);
  f("session", "rotate_alice", session.rotate_alice, kAny);
  f("session", "pool", session.pool, kAny);

  auto& est = spec.estimator;
  f("estimator", "series", est.series, kAny);
  f("estimator", "k_antennas", est.k_antennas, kAtLeastOne);
  f("estimator", "fraction_delta", est.fraction_delta, kProbability);
  f("estimator", "safety", est.safety, kSafety);

  f("sweep", "p", spec.sweep.p_values, kProbability);
  f("sweep", "repeats", spec.sweep.repeats, kAtLeastOne);
  // The generic axis's dotted path. That it names a key is compile()'s
  // check: it applies the path once per value.
  f("sweep", "key", spec.sweep.key, kOptional);
  f("sweep", "values", spec.sweep.values, kOptional);

  f("output", "baseline", spec.output.baseline, kAny);
  f("output", "metrics", spec.output.metrics, kAny);
  f("output", "analytic", spec.output.analytic, kAny);

  f("run", "seed", spec.run.seed, kOptional);
  f("run", "threads", spec.run.threads, kOptionalThreads);

  f("mac", "data_rate_bps", spec.mac.data_rate_bps, kPositive);
  f("mac", "frame_overhead_s", spec.mac.per_frame_overhead_s, kNonNegative);
  f("mac", "inter_frame_gap_s", spec.mac.inter_frame_gap_s, kNonNegative);
  f("mac", "slot_s", spec.mac.slot_duration_s, kPositive);
}

/// The dotted name of a key in error messages ("channel.p", "name").
std::string path_of(std::string_view section, std::string_view key) {
  return section.empty() ? std::string(key)
                         : std::string(section) + "." + std::string(key);
}

bool is_section(std::string_view name) {
  const ScenarioSpec defaults;
  bool known = false;
  for_each_key(defaults, [&](std::string_view section, std::string_view,
                             const auto&, Domain) {
    known = known || (!name.empty() && section == name);
  });
  return known;
}

/// Assign the key `key` of `section` ("" at the top level) from its value
/// text, held to the key's domain.
void set_key(ScenarioSpec& spec, const std::string& section,
             const std::string& key, std::string_view text) {
  const std::string path = path_of(section, key);
  bool found = false;
  for_each_key(spec, [&](std::string_view s, std::string_view k, auto& field,
                         Domain domain) {
    if (s != section || k != key) return;
    std::remove_cvref_t<decltype(field)> value{};
    read(path, text, value);
    check(path, value, domain);
    field = std::move(value);
    found = true;
  });
  if (found) return;
  if (section.empty())
    fail(key, "unknown key (top level has only name and description)");
  if (!is_section(section)) fail(path, "unknown section '" + section + "'");
  fail(path, "unknown key");
}

}  // namespace

ScenarioSpec parse_spec(std::string_view text) {
  ScenarioSpec spec;
  std::string section;
  std::set<std::string> seen_sections;

  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = std::min(text.find('\n', start), text.size());
    const std::string_view raw = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    const std::string_view line = trim(strip_comment(raw));
    if (line.empty()) {
      if (end == text.size()) break;
      continue;
    }
    const std::string prefix = "line " + std::to_string(line_no) + ": ";

    if (line.front() == '[') {
      if (line.back() != ']')
        throw SpecError(prefix + "unterminated section header " +
                        std::string(line));
      section = std::string(trim(line.substr(1, line.size() - 2)));
      if (!is_section(section))
        throw SpecError(prefix + "unknown section [" + section + "]");
      if (!seen_sections.insert(section).second)
        throw SpecError(prefix + "duplicate section [" + section + "]");
      if (end == text.size()) break;
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos)
      throw SpecError(prefix + "expected 'key = value' or '[section]', got '" +
                      std::string(line) + "'");
    const std::string key{trim(line.substr(0, eq))};
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty()) throw SpecError(prefix + "empty key");
    try {
      set_key(spec, section, key, value);
    } catch (const SpecError& e) {
      throw SpecError(prefix + e.what());
    }
    if (end == text.size()) break;
  }
  return spec;
}

std::string serialize_spec(const ScenarioSpec& spec) {
  std::string out;
  std::string_view section;  // of the last key written
  for_each_key(spec, [&](std::string_view s, std::string_view key,
                         const auto& field, Domain domain) {
    if (domain.optional && !is_set(field)) return;
    if (s != section) {
      section = s;
      out.append("\n[").append(section).append("]\n");
    }
    out.append(key).append(" = ").append(text_of(field)).append("\n");
  });
  return out;
}

void apply_override(ScenarioSpec& spec, std::string_view key,
                    std::string_view value) {
  const std::string_view trimmed_key = trim(key);
  const std::size_t dot = trimmed_key.find('.');
  const std::string section{
      dot == std::string_view::npos ? std::string_view{}
                                    : trimmed_key.substr(0, dot)};
  const std::string field{dot == std::string_view::npos
                              ? trimmed_key
                              : trimmed_key.substr(dot + 1)};
  if (field.empty() || (dot != std::string_view::npos && section.empty()))
    throw SpecError("--set: expected section.key=value, got '" +
                    std::string(key) + "'");
  set_key(spec, section, field, trim(value));
}

void check_keys(const ScenarioSpec& spec) {
  for_each_key(spec, [](std::string_view section, std::string_view key,
                        const auto& field, Domain domain) {
    check(path_of(section, key), field, domain);
  });
}

}  // namespace thinair::runtime
