#!/usr/bin/env python3
"""thinair_lint: project-invariant linter for the thinair codebase.

Compilers check the language; this checks the *project*. Each rule here
encodes an invariant that the determinism contract (byte-identical NDJSON
at any thread count / kernel / build) or the daemon's robustness argument
depends on, but that no general-purpose tool knows to look for:

  unordered-iteration   Iteration order of std::unordered_{map,set} is
                        implementation-defined, so iterating one in a
                        relay/emission/accounting path silently breaks
                        run-to-run determinism. Ordered containers
                        (std::map / sorted vectors) only. A .cpp is also
                        checked against the containers its own header
                        (same stem, .h) declares.
  rng-discipline        All randomness flows from the seeded deterministic
                        generator in src/channel/rng.h. std::rand,
                        std::random_device and time-seeding reintroduce
                        ambient entropy and are banned outside that file.
  ndjson-float-format   The NDJSON emitter must format numbers with
                        std::to_chars: locale-sensitive iostream/to_string
                        formatting can change bytes under a different
                        locale, breaking the golden-SHA gate.
  raw-alloc-hot-path    Payload memory in the per-round hot paths comes
                        from PayloadArena bumps; raw new/malloc there
                        defeats the arena and fragments the round loop.
  netd-wire-decode      Daemon code consumes datagram bytes only through
                        the total decoder (netd/wire.h's decode()) plus
                        the socket wrappers (netd/udp). Ad-hoc byte
                        picking or reinterpret_cast framing bypasses the
                        validated parse that the anti-spoofing argument
                        rests on.

Usage:
  thinair_lint.py --compile-commands build/compile_commands.json
  thinair_lint.py [FILE...]               # lint explicit files
  thinair_lint.py --self-test tests/lint_fixtures

Driven off compile_commands.json the linter checks every translation
unit CMake builds, plus all headers under src/. Findings print as
"file:line: [rule] message" and make the exit status 1.

Suppression: append "// thinair-lint: allow(<rule>)" to the offending
line. Use sparingly and justify in an adjacent comment, exactly like a
NOLINT. The fixture suite (tests/lint_fixtures/) proves via --self-test
that every rule fires on exactly the lines of known-bad code marked
"// finding" and stays quiet on clean code.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Source preparation


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving layout.

    Every stripped character becomes a space so byte offsets and line
    numbers in the result match the original file. A crude scanner is
    enough: the codebase has no raw string literals or trigraphs.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


_ALLOW_RE = re.compile(r"thinair-lint:\s*allow\(([a-z0-9-]+)\)")


def allowed_rules_by_line(text: str) -> dict[int, set[str]]:
    """Per-line suppressions, read from the raw text (they live in comments)."""
    allows: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _ALLOW_RE.finditer(line):
            allows.setdefault(lineno, set()).add(m.group(1))
    return allows


def find_unordered_names(code: str) -> set[str]:
    """Names of variables/members declared as std::unordered_{map,set}.

    Balances angle brackets from the template-argument opener so nested
    templates and multi-argument maps resolve to the right identifier.
    """
    names: set[str] = set()
    for m in re.finditer(r"\bunordered_(?:map|set)\s*<", code):
        i = m.end()  # just past '<'
        depth = 1
        while i < len(code) and depth > 0:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
            i += 1
        tail = code[i:]
        dm = re.match(r"\s*&?\s*([A-Za-z_]\w*)", tail)
        if dm and dm.group(1) not in {"const", "operator"}:
            names.add(dm.group(1))
    return names


def own_header_code(path: Path) -> str:
    """The comment-stripped text of a .cpp's own header (same stem, .h)."""
    header = path.with_suffix(".h")
    if path.suffix != ".cpp" or not header.is_file():
        return ""
    return strip_comments_and_strings(
        header.read_text(encoding="utf-8", errors="replace")
    )


# --------------------------------------------------------------------------
# Rules
#
# Each check gets a file's comment-stripped code and, for a .cpp, its own
# header's ("" otherwise), and reports findings by line of the file.

Finding = tuple[int, str]  # (line, message)


def rule_unordered_iteration(code: str, header: str) -> list[Finding]:
    findings: list[Finding] = []
    names = find_unordered_names(code) | find_unordered_names(header)
    if not names:
        return findings
    name_alt = "|".join(re.escape(x) for x in sorted(names))
    range_for = re.compile(
        r"for\s*\([^;()]*:\s*(?:this->)?(" + name_alt + r")\b"
    )
    iter_for = re.compile(
        r"for\s*\(.*\b(" + name_alt + r")\s*\.\s*c?begin\s*\("
    )
    for lineno, line in enumerate(code.splitlines(), start=1):
        m = range_for.search(line) or iter_for.search(line)
        if m:
            findings.append(
                (
                    lineno,
                    f"iterating unordered container '{m.group(1)}': order is "
                    "implementation-defined and breaks emission determinism; "
                    "use std::map or iterate a sorted key list",
                )
            )
    return findings


_RNG_RE = re.compile(
    r"\bstd::rand\b|\bstd::srand\b|(?<![\w:])srand\s*\(|(?<![\w:])rand\s*\(\s*\)"
    r"|\brandom_device\b|\bmt19937(?:_64)?\b[^;]*\btime\s*\("
)


def rule_rng_discipline(code: str, header: str) -> list[Finding]:
    findings: list[Finding] = []
    for lineno, line in enumerate(code.splitlines(), start=1):
        m = _RNG_RE.search(line)
        if m:
            findings.append(
                (
                    lineno,
                    f"'{m.group(0).strip()}' introduces ambient entropy; all "
                    "randomness must flow from the seeded generator in "
                    "src/channel/rng.h",
                )
            )
    return findings


_FLOAT_FMT_RE = re.compile(
    r"\bstd::to_string\b|\bostringstream\b|\bstringstream\b"
    r"|\bsetprecision\b|\bsnprintf\b|(?<![\w:])sprintf\b|\bstd::format\b"
)


def rule_ndjson_float_format(code: str, header: str) -> list[Finding]:
    findings: list[Finding] = []
    for lineno, line in enumerate(code.splitlines(), start=1):
        m = _FLOAT_FMT_RE.search(line)
        if m:
            findings.append(
                (
                    lineno,
                    f"'{m.group(0)}' in the NDJSON emitter: locale-sensitive "
                    "formatting can change output bytes; format numbers with "
                    "std::to_chars (see append_double/append_u64)",
                )
            )
    return findings


_RAW_ALLOC_RE = re.compile(
    r"(?<![\w:])new\b(?!\s*\()"  # 'new T' but not placement 'new (ptr) T'
    r"|(?<![\w:])(?:std\s*::\s*)?(?:malloc|calloc|realloc)\s*\("
)


def rule_raw_alloc_hot_path(code: str, header: str) -> list[Finding]:
    findings: list[Finding] = []
    for lineno, line in enumerate(code.splitlines(), start=1):
        m = _RAW_ALLOC_RE.search(line)
        if m:
            findings.append(
                (
                    lineno,
                    f"raw allocation '{m.group(0).strip()}' in an arena-backed "
                    "hot path; carve payload memory from PayloadArena (or use "
                    "a container owned outside the round loop)",
                )
            )
    return findings


_WIRE_CAST_RE = re.compile(r"\breinterpret_cast\b")
# Indexing/offset reads into the raw datagram span. Raw receive buffers in
# netd are consistently named 'datagram', 'bytes' or 'buf'; the only code
# allowed to pick bytes out of them is wire.cpp's decode().
_WIRE_INDEX_RE = re.compile(r"\b(datagram|bytes|buf)\s*\[")


def rule_netd_wire_decode(code: str, header: str) -> list[Finding]:
    findings: list[Finding] = []
    for lineno, line in enumerate(code.splitlines(), start=1):
        m = _WIRE_CAST_RE.search(line)
        if m:
            findings.append(
                (
                    lineno,
                    "reinterpret_cast on daemon data: datagrams are consumed "
                    "only through wire::decode()'s validated total parse",
                )
            )
            continue
        m = _WIRE_INDEX_RE.search(line)
        if m:
            findings.append(
                (
                    lineno,
                    f"raw byte access '{m.group(0)}...]' on a datagram buffer: "
                    "parse through wire::decode() so framing stays total and "
                    "spoof-resistant",
                )
            )
    return findings


class Rule:
    def __init__(self, name, check, scope, exclude=()):
        self.name = name
        self.check = check
        self.scope = scope  # regexes over repo-relative posix paths
        self.exclude = exclude

    def applies_to(self, relpath: str) -> bool:
        if any(re.search(p, relpath) for p in self.exclude):
            return False
        return any(re.search(p, relpath) for p in self.scope)


RULES = [
    Rule(
        "unordered-iteration",
        rule_unordered_iteration,
        # Relay / emission / accounting paths where iteration order reaches
        # observable output (NDJSON lines, datagram fan-out, key material).
        scope=[r"^src/netd/", r"^src/runtime/", r"^src/core/", r"^src/analysis/"],
    ),
    Rule(
        "rng-discipline",
        rule_rng_discipline,
        scope=[r"^src/", r"^tools/"],
        exclude=[r"^src/channel/rng\.(h|cpp)$"],
    ),
    Rule(
        "ndjson-float-format",
        rule_ndjson_float_format,
        # The NDJSON emitter proper. Everything else may use to_string for
        # error text; only these files produce golden-hashed output bytes.
        scope=[r"^src/runtime/result_sink\.(h|cpp)$"],
    ),
    Rule(
        "raw-alloc-hot-path",
        rule_raw_alloc_hot_path,
        # The round loop (gf, core, net, packet) draws its payloads from
        # the arena. The hub and NodeSession handle every datagram of a
        # live session and keep their state in owning containers. A raw
        # new/malloc in any of them bypasses the arena or those
        # containers.
        scope=[
            r"^src/gf/",
            r"^src/core/",
            r"^src/net/",
            r"^src/packet/",
            r"^src/netd/hub\.(h|cpp)$",
            r"^src/netd/node_session\.(h|cpp)$",
        ],
    ),
    Rule(
        "netd-wire-decode",
        rule_netd_wire_decode,
        scope=[r"^src/netd/"],
        # wire.cpp IS the decoder; udp.{h,cpp} wraps the socket syscalls
        # whose sockaddr API requires reinterpret_cast.
        exclude=[r"^src/netd/wire\.(h|cpp)$", r"^src/netd/udp\.(h|cpp)$"],
    ),
]

RULES_BY_NAME = {r.name: r for r in RULES}


# --------------------------------------------------------------------------
# Driving


def lint_file(path: Path, relpath: str, only_rule: str | None = None):
    """Returns [(relpath, line, rule, message)] for one file."""
    try:
        raw = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        print(f"thinair_lint: cannot read {path}: {e}", file=sys.stderr)
        return []
    code = strip_comments_and_strings(raw)
    header = own_header_code(path)
    allows = allowed_rules_by_line(raw)
    results = []
    rules = [RULES_BY_NAME[only_rule]] if only_rule else RULES
    for rule in rules:
        if only_rule is None and not rule.applies_to(relpath):
            continue
        for lineno, message in rule.check(code, header):
            if rule.name in allows.get(lineno, set()):
                continue
            results.append((relpath, lineno, rule.name, message))
    return results


def gather_files(args, repo_root: Path) -> list[Path]:
    files: set[Path] = set()
    if args.compile_commands:
        db = json.loads(Path(args.compile_commands).read_text())
        for entry in db:
            p = Path(entry["directory"], entry["file"]).resolve()
            files.add(p)
    for f in args.files:
        files.add(Path(f).resolve())
    if not args.compile_commands and not args.files:
        print(
            "thinair_lint: pass --compile-commands, --self-test or files",
            file=sys.stderr,
        )
        sys.exit(2)
    if args.compile_commands:
        # compile_commands only lists translation units; headers carry the
        # same invariants (inline accessors, templates), so sweep them too.
        for pat in ("src/**/*.h", "tools/**/*.h"):
            files.update(p.resolve() for p in repo_root.glob(pat))
    in_scope = []
    for p in sorted(files):
        try:
            rel = p.relative_to(repo_root).as_posix()
        except ValueError:
            continue  # outside the repo (system headers etc.)
        if rel.startswith(("src/", "tools/")):
            in_scope.append(p)
    return in_scope


_MARKER_RE = re.compile(r"//\s*finding\b")


def marked_lines(path: Path) -> set[int]:
    """Lines of a fixture that carry a '// finding' marker."""
    text = path.read_text(encoding="utf-8", errors="replace")
    return {
        lineno
        for lineno, line in enumerate(text.splitlines(), start=1)
        if _MARKER_RE.search(line)
    }


def run_self_test(fixtures_dir: Path) -> int:
    """Prove each rule fires on exactly the marked lines of its fixtures.

    Fixture layout: <fixtures_dir>/<rule-name>/{bad_*.cpp,clean_*.cpp}; a
    fixture's own header (same stem, .h) is read as in a project lint.
    A bad_* fixture marks each line the rule must fire on with a
    "// finding" comment; a clean_* fixture has no marker. The rule's
    findings must land on exactly the marked lines: a miss, or a finding
    on an unmarked line, fails. Path scoping is bypassed — each fixture is
    checked against exactly its directory's rule, so the fixtures test
    detection, not scoping.
    """
    failures = 0
    checked = 0
    for rule_dir in sorted(p for p in fixtures_dir.iterdir() if p.is_dir()):
        rule_name = rule_dir.name
        if rule_name not in RULES_BY_NAME:
            print(f"FAIL {rule_dir}: no rule named '{rule_name}'")
            failures += 1
            continue
        fixtures = sorted(rule_dir.glob("*.cpp"))
        if not any(f.name.startswith("bad_") for f in fixtures) or not any(
            f.name.startswith("clean_") for f in fixtures
        ):
            print(f"FAIL {rule_dir}: need at least one bad_*.cpp and one clean_*.cpp")
            failures += 1
            continue
        for fix in fixtures:
            checked += 1
            bad = fix.name.startswith("bad_")
            if not bad and not fix.name.startswith("clean_"):
                print(f"FAIL {rule_dir}: unrecognised fixture name {fix.name}")
                failures += 1
                continue
            found = lint_file(fix, fix.name, only_rule=rule_name)
            fired = {line for _, line, _, _ in found}
            marked = marked_lines(fix)
            if bad and not marked:
                problem = "a bad_ fixture needs at least one '// finding' line"
            elif not bad and marked:
                problem = "a clean_ fixture carries a '// finding' marker"
            elif fired != marked:
                problem = (
                    f"missed marked lines {sorted(marked - fired)}, "
                    f"fired on unmarked lines {sorted(fired - marked)}"
                )
            else:
                outcome = f"fired on its {len(fired)} marked line(s)" if bad else "quiet"
                print(f"ok   {rule_name}/{fix.name}: {outcome}")
                continue
            print(f"FAIL {rule_name}/{fix.name}: {problem}")
            for _, line, rname, msg in found:
                print(f"       {fix.name}:{line}: [{rname}] {msg}")
            failures += 1
    missing = set(RULES_BY_NAME) - {
        p.name for p in fixtures_dir.iterdir() if p.is_dir()
    }
    if missing:
        print(f"FAIL: rules without fixtures: {', '.join(sorted(missing))}")
        failures += 1
    print(
        f"self-test: {checked} fixtures, {len(RULES)} rules, "
        f"{failures} failure(s)"
    )
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compile-commands", help="path to compile_commands.json")
    ap.add_argument(
        "--self-test",
        metavar="FIXTURES_DIR",
        help="run the fixture suite instead of linting the project",
    )
    ap.add_argument(
        "--repo-root",
        default=str(Path(__file__).resolve().parent.parent),
        help="repository root for scope matching (default: tools/..)",
    )
    ap.add_argument("files", nargs="*", help="explicit files to lint")
    args = ap.parse_args()

    if args.self_test:
        return run_self_test(Path(args.self_test))

    repo_root = Path(args.repo_root).resolve()
    findings = []
    files = gather_files(args, repo_root)
    for path in files:
        rel = path.relative_to(repo_root).as_posix()
        findings.extend(lint_file(path, rel))
    for rel, line, rule, msg in findings:
        print(f"{rel}:{line}: [{rule}] {msg}")
    if findings:
        print(f"thinair_lint: {len(findings)} finding(s) in {len(files)} files")
        return 1
    print(f"thinair_lint: clean ({len(files)} files, {len(RULES)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
