#pragma once
// Text front-end for ScenarioSpec: a deterministic TOML-subset so
// scenarios are files, not code.
//
//   # comment
//   name = "fig2-iid"            # top-level keys before any section
//   description = "..."
//
//   [channel]                    # one [section] per spec sub-struct
//   model = "iid"                # strings: quoted or bare words
//   p = 0.2                      # numbers: shortest-round-trip doubles
//
//   [topology]
//   n = 3..8                     # integer ranges, or [3, 4, 5] lists
//
//   [sweep]
//   p = 0.1:0.9:0.1              # double ranges (inclusive, fixed step)
//
// The full grammar — every section, key, value form, domain and default —
// is documented in docs/scenarios.md and enforced here with line-accurate
// error messages ("line 4: channel.p: expected a number, got 'banana'").
// spec_parse.cpp names each key once, in one list with its field and its
// domain (the values it may hold), and every function below walks it.
//
// serialize_spec is the inverse: it emits every supported key in
// canonical order, so parse_spec(serialize_spec(s)) == s for every valid
// spec (the `thinair describe` round-trip guarantee), and a serialized
// spec doubles as a template listing every knob.
//
// apply_override implements `--set section.key=value`: one dotted path
// assigned onto an existing spec, using the same key list and value
// syntax as the file format.
//
// check_keys holds a spec built in C++ to the domains a spec file meets;
// compile() calls it.

#include <stdexcept>
#include <string>
#include <string_view>

#include "runtime/scenario_spec.h"

namespace thinair::runtime {

/// Parse or override failure; .what() is the full human-readable message.
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parse a whole spec file. Unset keys keep their ScenarioSpec defaults.
/// Throws SpecError with a "line N: ..." message on malformed input; the
/// result still needs compile() (which validates cross-field consistency).
[[nodiscard]] ScenarioSpec parse_spec(std::string_view text);

/// Serialise a spec in canonical section/key order (see round-trip note
/// above).
[[nodiscard]] std::string serialize_spec(const ScenarioSpec& spec);

/// Assign one dotted-path override: key "channel.p" (or top-level "name"),
/// value in file syntax. Throws SpecError ("channel.p: ...") on an unknown
/// path or a malformed value.
void apply_override(ScenarioSpec& spec, std::string_view key,
                    std::string_view value);

/// Check every key's value against its domain, as parse_spec and
/// apply_override do. Throws SpecError ("channel.p: 1.5 outside [0, 1]")
/// for the first key out of its domain.
void check_keys(const ScenarioSpec& spec);

}  // namespace thinair::runtime
