#include "runtime/spec_parse.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>
#include <sstream>
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

bool parse_bool(const std::string& path, std::string_view text) {
  if (text == "true" || text == "on") return true;
  if (text == "false" || text == "off") return false;
  fail(path, "expected true/false (or on/off), got '" + std::string(text) +
                 "'");
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

std::vector<std::size_t> parse_integer_list(const std::string& path,
                                            std::string_view text) {
  std::vector<std::size_t> out;
  for (const double v : parse_number_list(path, text)) {
    // A cast from 2^64 and up, or from infinity, is undefined.
    if (!(v >= 0.0 && v < 0x1p64) || v != std::floor(v))
      fail(path, "expected non-negative integers");
    out.push_back(static_cast<std::size_t>(v));
  }
  return out;
}

void check_probability(const std::string& path, double p) {
  if (!(p >= 0.0 && p <= 1.0))
    fail(path, format_double(p) + " outside [0, 1]");
}

void check_cell(const std::string& path, std::size_t cell) {
  if (cell >= channel::CellGrid::kCells)
    fail(path, "cell " + std::to_string(cell) + " outside [0, 8]");
}

// ------------------------------------------------------- composite fields

/// "kind" or "kind:cap", e.g. "geometry:60".
EstimatorSeries parse_series_item(const std::string& path,
                                  const std::string& text) {
  const std::string item = parse_string(path, text);
  const std::size_t colon = item.find(':');
  EstimatorSeries series;
  const std::string kind_name = item.substr(0, colon);
  const auto kind = core::estimator_kind_from_string(kind_name);
  if (!kind.has_value()) {
    std::string known;
    for (const std::string_view name : core::estimator_kind_names())
      known += (known.empty() ? "" : ", ") + std::string(name);
    fail(path, "unknown estimator '" + kind_name + "' (one of: " + known + ")");
  }
  series.kind = *kind;
  if (colon != std::string::npos)
    series.max_placements = parse_integer(path, item.substr(colon + 1));
  return series;
}

std::string serialize_series_item(const EstimatorSeries& series) {
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

/// "tx>rx:p", e.g. "0>1:0.25".
channel::LinkErasure parse_link_item(const std::string& path,
                                     const std::string& text) {
  const std::string item = parse_string(path, text);
  const std::size_t gt = item.find('>');
  const std::size_t colon = item.find(':', gt == std::string::npos ? 0 : gt);
  if (gt == std::string::npos || colon == std::string::npos)
    fail(path, "bad link '" + item + "' (want \"tx>rx:p\", e.g. \"0>1:0.25\")");
  channel::LinkErasure link;
  link.tx = static_cast<std::uint16_t>(
      parse_integer(path, item.substr(0, gt)));
  link.rx = static_cast<std::uint16_t>(
      parse_integer(path, item.substr(gt + 1, colon - gt - 1)));
  link.p = parse_number(path, item.substr(colon + 1));
  check_probability(path, link.p);
  return link;
}

std::string serialize_link_item(const channel::LinkErasure& link) {
  return quote(std::to_string(link.tx) + ">" + std::to_string(link.rx) + ":" +
               format_double(link.p));
}

std::vector<channel::Vec2> parse_positions(const std::string& path,
                                           std::string_view text) {
  const std::vector<double> flat = parse_number_list(path, text);
  if (flat.size() % 2 != 0)
    fail(path,
         "expected an even number of coordinates (x1, y1, x2, y2, ...)");
  std::vector<channel::Vec2> out;
  for (std::size_t i = 0; i < flat.size(); i += 2)
    out.push_back({flat[i], flat[i + 1]});
  return out;
}

// --------------------------------------------------------- the key table

const std::vector<std::string>& section_names() {
  static const std::vector<std::string> names = {
      "channel", "topology", "session", "estimator",
      "sweep",   "output",   "run",     "mac"};
  return names;
}

/// Assign one (section, key) = value onto the spec. `path` is the dotted
/// name used in error messages ("channel.p").
void set_field(ScenarioSpec& spec, const std::string& section,
               const std::string& key, std::string_view value) {
  const std::string path = section.empty() ? key : section + "." + key;
  const auto unknown_key = [&]() -> void {
    fail(path, "unknown key");
  };

  if (section.empty()) {
    if (key == "name") {
      spec.name = parse_string(path, value);
    } else if (key == "description") {
      spec.description = parse_string(path, value);
    } else {
      fail(key, "unknown key (top level has only name and description)");
    }
    return;
  }

  if (section == "channel") {
    ChannelSpec& ch = spec.channel;
    if (key == "model") {
      const std::string name = parse_string(path, value);
      const auto kind = channel::channel_model_from_string(name);
      if (!kind.has_value()) {
        std::string known;
        for (const std::string_view k : channel::channel_model_names())
          known += (known.empty() ? "" : ", ") + std::string(k);
        fail(path, "unknown model '" + name + "' (one of: " + known + ")");
      }
      ch.model = *kind;
    } else if (key == "p") {
      ch.iid_p = parse_number(path, value);
      check_probability(path, ch.iid_p);
    } else if (key == "default_p") {
      ch.default_p = parse_number(path, value);
      check_probability(path, ch.default_p);
    } else if (key == "links") {
      ch.links.clear();
      for (const std::string& item : split_items(path, value))
        ch.links.push_back(parse_link_item(path, item));
    } else if (key == "area_m2") {
      const double area = parse_number(path, value);
      if (!(area > 0.0)) fail(path, "area must be > 0");
      ch.testbed.grid = channel::CellGrid(area);
    } else if (key == "interference") {
      ch.testbed.interference_enabled = parse_bool(path, value);
    } else if (key == "tx_power_dbm") {
      ch.testbed.pathloss.tx_power_dbm = parse_number(path, value);
    } else if (key == "ref_loss_db") {
      ch.testbed.pathloss.ref_loss_db = parse_number(path, value);
    } else if (key == "pathloss_exponent") {
      ch.testbed.pathloss.exponent = parse_number(path, value);
    } else if (key == "min_distance_m") {
      ch.testbed.pathloss.min_distance_m = parse_number(path, value);
    } else if (key == "jammer_power_dbm") {
      ch.testbed.interferer.tx_power_dbm = parse_number(path, value);
    } else if (key == "sidelobe_rejection_db") {
      ch.testbed.interferer.sidelobe_rejection_db = parse_number(path, value);
    } else if (key == "noise_floor_dbm") {
      ch.testbed.sinr.noise_floor_dbm = parse_number(path, value);
    } else if (key == "per_threshold_db") {
      ch.testbed.sinr.per_threshold_db = parse_number(path, value);
    } else if (key == "per_scale_db") {
      ch.testbed.sinr.per_scale_db = parse_number(path, value);
    } else if (key == "loss_floor") {
      ch.testbed.sinr.floor = parse_number(path, value);
      check_probability(path, ch.testbed.sinr.floor);
    } else if (key == "loss_ceiling") {
      ch.testbed.sinr.ceiling = parse_number(path, value);
      check_probability(path, ch.testbed.sinr.ceiling);
    } else {
      unknown_key();
    }
    return;
  }

  if (section == "topology") {
    TopologySpec& topo = spec.topology;
    if (key == "n") {
      topo.n_values = parse_integer_list(path, value);
    } else if (key == "max_placements") {
      topo.max_placements = parse_integer(path, value);
    } else if (key == "cells") {
      topo.cells = parse_integer_list(path, value);
      for (const std::size_t cell : topo.cells) check_cell(path, cell);
    } else if (key == "eve_cell") {
      topo.eve_cell = parse_integer(path, value);
      check_cell(path, topo.eve_cell);
    } else if (key == "positions") {
      topo.positions = parse_positions(path, value);
    } else if (key == "eve_position") {
      const std::vector<channel::Vec2> pos = parse_positions(path, value);
      if (pos.size() != 1) fail(path, "expected exactly one [x, y] pair");
      topo.eve_position = pos[0];
    } else {
      unknown_key();
    }
    return;
  }

  if (section == "session") {
    SessionSpec& s = spec.session;
    if (key == "x_packets") {
      s.x_packets = parse_integer(path, value);
    } else if (key == "payload_bytes") {
      s.payload_bytes = parse_integer(path, value);
    } else if (key == "rounds") {
      s.rounds = parse_integer(path, value);
    } else if (key == "rotate_alice") {
      s.rotate_alice = parse_bool(path, value);
    } else if (key == "pool") {
      const std::string name = parse_string(path, value);
      const auto pool = core::pool_strategy_from_string(name);
      if (!pool.has_value())
        fail(path, "unknown pool strategy '" + name +
                       "' (one of: class-shared, terminal-mds)");
      s.pool = *pool;
    } else {
      unknown_key();
    }
    return;
  }

  if (section == "estimator") {
    EstimatorAxis& est = spec.estimator;
    if (key == "series") {
      est.series.clear();
      for (const std::string& item : split_items(path, value))
        est.series.push_back(parse_series_item(path, item));
      if (est.series.empty()) fail(path, "needs at least one estimator");
    } else if (key == "k_antennas") {
      est.k_antennas = parse_integer(path, value);
    } else if (key == "fraction_delta") {
      est.fraction_delta = parse_number(path, value);
      check_probability(path, est.fraction_delta);
    } else if (key == "safety") {
      est.safety = parse_number(path, value);
      check_probability(path, est.safety);
    } else {
      unknown_key();
    }
    return;
  }

  if (section == "sweep") {
    SweepSpec& sw = spec.sweep;
    if (key == "p") {
      sw.p_values = parse_number_list(path, value);
      for (const double p : sw.p_values) check_probability(path, p);
    } else if (key == "repeats") {
      sw.repeats = parse_integer(path, value);
      if (sw.repeats < 1) fail(path, "must be >= 1");
    } else if (key == "key") {
      // The dotted path of the generic axis. Its target must itself be a
      // settable key, but that is compile()'s job (it applies the
      // override per value) — here it is just a string.
      sw.key = parse_string(path, value);
    } else if (key == "values") {
      sw.values = parse_number_list(path, value);
    } else {
      unknown_key();
    }
    return;
  }

  if (section == "output") {
    OutputSpec& out = spec.output;
    if (key == "baseline") {
      const std::string name = parse_string(path, value);
      const auto b = baseline_from_string(name);
      if (!b.has_value())
        fail(path, "unknown baseline '" + name +
                       "' (one of: group, unicast, both)");
      out.baseline = *b;
    } else if (key == "metrics") {
      const std::string name = parse_string(path, value);
      const auto m = metric_set_from_string(name);
      if (!m.has_value())
        fail(path,
             "unknown metric set '" + name + "' (one of: session, efficiency)");
      out.metrics = *m;
    } else if (key == "analytic") {
      out.analytic = parse_bool(path, value);
    } else {
      unknown_key();
    }
    return;
  }

  if (section == "run") {
    RunSpec& run = spec.run;
    if (key == "seed") {
      // parse_integer targets std::size_t == uint64_t on every platform we
      // build; range-check anyway so a 32-bit port fails loudly, not quietly.
      static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                    "spec seeds assume 64-bit size_t");
      run.seed = parse_integer(path, value);
    } else if (key == "threads") {
      const std::size_t n = parse_integer(path, value);
      if (n > kMaxRunThreads)
        fail(path, "at most " + std::to_string(kMaxRunThreads) +
                       " threads (0 = auto)");
      run.threads = n;
    } else {
      unknown_key();
    }
    return;
  }

  if (section == "mac") {
    net::MacParams& mac = spec.mac;
    if (key == "data_rate_bps") {
      mac.data_rate_bps = parse_number(path, value);
    } else if (key == "frame_overhead_s") {
      mac.per_frame_overhead_s = parse_number(path, value);
    } else if (key == "inter_frame_gap_s") {
      mac.inter_frame_gap_s = parse_number(path, value);
    } else if (key == "slot_s") {
      mac.slot_duration_s = parse_number(path, value);
    } else {
      unknown_key();
    }
    return;
  }

  fail(path, "unknown section '" + section + "'");
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
      bool known = false;
      for (const std::string& name : section_names())
        known = known || name == section;
      if (!known)
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
      set_field(spec, section, key, value);
    } catch (const SpecError& e) {
      throw SpecError(prefix + e.what());
    }
    if (end == text.size()) break;
  }
  return spec;
}

std::string serialize_spec(const ScenarioSpec& spec) {
  std::ostringstream out;
  const auto num = [](double v) { return format_double(v); };

  out << "name = " << quote(spec.name) << "\n";
  out << "description = " << quote(spec.description) << "\n";

  const ChannelSpec& ch = spec.channel;
  out << "\n[channel]\n";
  out << "model = \"" << channel::to_string(ch.model) << "\"\n";
  out << "p = " << num(ch.iid_p) << "\n";
  out << "default_p = " << num(ch.default_p) << "\n";
  out << "links = [";
  for (std::size_t i = 0; i < ch.links.size(); ++i)
    out << (i > 0 ? ", " : "") << serialize_link_item(ch.links[i]);
  out << "]\n";
  const double side = ch.testbed.grid.side();
  out << "area_m2 = " << num(side * side) << "\n";
  out << "interference = "
      << (ch.testbed.interference_enabled ? "true" : "false") << "\n";
  out << "tx_power_dbm = " << num(ch.testbed.pathloss.tx_power_dbm) << "\n";
  out << "ref_loss_db = " << num(ch.testbed.pathloss.ref_loss_db) << "\n";
  out << "pathloss_exponent = " << num(ch.testbed.pathloss.exponent) << "\n";
  out << "min_distance_m = " << num(ch.testbed.pathloss.min_distance_m)
      << "\n";
  out << "jammer_power_dbm = " << num(ch.testbed.interferer.tx_power_dbm)
      << "\n";
  out << "sidelobe_rejection_db = "
      << num(ch.testbed.interferer.sidelobe_rejection_db) << "\n";
  out << "noise_floor_dbm = " << num(ch.testbed.sinr.noise_floor_dbm) << "\n";
  out << "per_threshold_db = " << num(ch.testbed.sinr.per_threshold_db)
      << "\n";
  out << "per_scale_db = " << num(ch.testbed.sinr.per_scale_db) << "\n";
  out << "loss_floor = " << num(ch.testbed.sinr.floor) << "\n";
  out << "loss_ceiling = " << num(ch.testbed.sinr.ceiling) << "\n";

  const TopologySpec& topo = spec.topology;
  out << "\n[topology]\n";
  out << "n = [";
  for (std::size_t i = 0; i < topo.n_values.size(); ++i)
    out << (i > 0 ? ", " : "") << topo.n_values[i];
  out << "]\n";
  out << "max_placements = " << topo.max_placements << "\n";
  out << "cells = [";
  for (std::size_t i = 0; i < topo.cells.size(); ++i)
    out << (i > 0 ? ", " : "") << topo.cells[i];
  out << "]\n";
  out << "eve_cell = " << topo.eve_cell << "\n";
  out << "positions = [";
  for (std::size_t i = 0; i < topo.positions.size(); ++i)
    out << (i > 0 ? ", " : "") << num(topo.positions[i].x) << ", "
        << num(topo.positions[i].y);
  out << "]\n";
  if (topo.eve_position.has_value())
    out << "eve_position = [" << num(topo.eve_position->x) << ", "
        << num(topo.eve_position->y) << "]\n";

  const SessionSpec& s = spec.session;
  out << "\n[session]\n";
  out << "x_packets = " << s.x_packets << "\n";
  out << "payload_bytes = " << s.payload_bytes << "\n";
  out << "rounds = " << s.rounds << "\n";
  out << "rotate_alice = " << (s.rotate_alice ? "true" : "false") << "\n";
  out << "pool = \"" << core::to_string(s.pool) << "\"\n";

  const EstimatorAxis& est = spec.estimator;
  out << "\n[estimator]\n";
  out << "series = [";
  for (std::size_t i = 0; i < est.series.size(); ++i)
    out << (i > 0 ? ", " : "") << serialize_series_item(est.series[i]);
  out << "]\n";
  out << "k_antennas = " << est.k_antennas << "\n";
  out << "fraction_delta = " << num(est.fraction_delta) << "\n";
  out << "safety = " << num(est.safety) << "\n";

  out << "\n[sweep]\n";
  out << "p = [";
  for (std::size_t i = 0; i < spec.sweep.p_values.size(); ++i)
    out << (i > 0 ? ", " : "") << num(spec.sweep.p_values[i]);
  out << "]\n";
  out << "repeats = " << spec.sweep.repeats << "\n";
  // Only when set: an absent key axis must serialize to absent keys for
  // the parse(serialize(s)) == s round trip to hold.
  if (!spec.sweep.key.empty()) out << "key = " << quote(spec.sweep.key) << "\n";
  if (!spec.sweep.values.empty()) {
    out << "values = [";
    for (std::size_t i = 0; i < spec.sweep.values.size(); ++i)
      out << (i > 0 ? ", " : "") << num(spec.sweep.values[i]);
    out << "]\n";
  }

  out << "\n[output]\n";
  out << "baseline = \"" << to_string(spec.output.baseline) << "\"\n";
  out << "metrics = \"" << to_string(spec.output.metrics) << "\"\n";
  out << "analytic = " << (spec.output.analytic ? "true" : "false") << "\n";

  // [run] only when something is pinned: an absent key must serialize to
  // an absent key for the parse(serialize(s)) == s round trip to hold.
  if (spec.run.seed.has_value() || spec.run.threads.has_value()) {
    out << "\n[run]\n";
    if (spec.run.seed.has_value()) out << "seed = " << *spec.run.seed << "\n";
    if (spec.run.threads.has_value())
      out << "threads = " << *spec.run.threads << "\n";
  }

  out << "\n[mac]\n";
  out << "data_rate_bps = " << num(spec.mac.data_rate_bps) << "\n";
  out << "frame_overhead_s = " << num(spec.mac.per_frame_overhead_s) << "\n";
  out << "inter_frame_gap_s = " << num(spec.mac.inter_frame_gap_s) << "\n";
  out << "slot_s = " << num(spec.mac.slot_duration_s) << "\n";
  return out.str();
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
  set_field(spec, section, field, trim(value));
}

}  // namespace thinair::runtime
