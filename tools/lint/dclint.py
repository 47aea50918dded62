#!/usr/bin/env python3
"""dclint: the determinism linter.

This repository's headline guarantee is that mining results are
bit-identical at any thread count (DESIGN.md, "The execution engine").
Most ways to break that guarantee are invisible to the compiler and only
probabilistically visible to tests: iterating a hash table, seeding from
wall-clock time, keying a map on pointer values, letting a reduction
reassociate floats. dclint rejects those constructs *textually*, with
file:line diagnostics, before they can land.

Rules live in the RULES table below as data: each has a name, a scope
(directories it applies to), a trigger (regex over comment- and
string-stripped source lines), and a rationale printed with every
diagnostic. `--list-rules` prints the table.

Suppression: a finding on a line carrying `// NOLINT(dclint:<rule>)`
(or on the line after `// NOLINTNEXTLINE(dclint:<rule>)`) is dropped.
Suppressions are per-line and per-rule on purpose -- a file-wide opt-out
would rot. Every suppression should carry a short justification in the
surrounding comment; docs/STATIC_ANALYSIS.md has the conventions.

File discovery: with no positional arguments, the linter reads the
translation-unit list from build/compile_commands.json when present
(`--compile-commands` overrides the path) and unions it with a walk of
src/ and tools/ for *.h / *.cc, so headers -- which compile_commands
never lists -- are covered too. tools/lint/fixtures/ is excluded from
discovery: those files violate one rule each on purpose and are linted
explicitly by dclint_test.py.

Fixtures (and editor integrations linting files outside the repo
layout) can pin the path the scope rules see with a first-lines comment:
`// dclint-as: src/core/whatever.cc`.

Exit status: 0 clean, 1 findings, 2 usage/configuration errors.
Standard library only, like everything else in scripts/ and tools/.
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))

# Directory groups used by rule scopes. "Result-affecting" is the code
# whose behavior reaches mined clusters: the core algorithm, the
# execution engine, and the session layer that drives them. src/obs and
# bench/ are observability -- they may read clocks, but nothing they
# compute flows back into results.
RESULT_AFFECTING = ("src/core", "src/engine", "src/session")
ALL_SRC = ("src",)
SRC_AND_TOOLS = ("src", "tools")
CONCURRENT_SUBSYSTEMS = ("src/core", "src/engine", "src/obs", "src/session")

# Each rule: name, scope (path prefixes it applies to), exclude (path
# prefixes exempt within the scope), trigger (compiled regex, matched
# against comment/string-stripped lines), and rationale (one paragraph,
# printed with each diagnostic). `multiline_context` rules get the whole
# stripped file instead and yield (line, message) themselves.
# `match_raw` rules match the raw line -- needed for #include rules,
# whose quoted path the stripper blanks -- but only where the stripped
# line still carries the `include` token, so a commented-out include or
# an include spelled inside a string literal does not fire.
RULES = [
    {
        "name": "unordered-container",
        "scope": RESULT_AFFECTING,
        "trigger": re.compile(
            r"std::unordered_(map|set|multimap|multiset)\b"),
        "rationale":
            "unordered_* iteration order depends on hash seeding, load "
            "factor, and pointer values; any result-affecting loop over "
            "one is nondeterministic across runs and platforms. Use "
            "std::map/std::set or a sorted vector, or confine the "
            "container to code whose output is order-insensitive.",
    },
    {
        "name": "banned-rand",
        "scope": SRC_AND_TOOLS,
        "trigger": re.compile(
            r"(?<![\w:])(s?rand(_r)?\s*\(|std::random_device)"),
        "rationale":
            "rand()/srand() share hidden global state and "
            "std::random_device is entropy by design; both make runs "
            "unreproducible. All randomness flows through the seeded "
            "deltaclus::Rng (src/util/rng.h).",
    },
    {
        "name": "banned-wallclock",
        "scope": SRC_AND_TOOLS,
        "exclude": ("src/obs",),
        "trigger": re.compile(
            r"(std::chrono::(system|steady|high_resolution)_clock::now"
            r"|(?<![\w:])time\s*\(\s*(nullptr|NULL|0|&)"
            r"|clock_gettime\s*\()"),
        "rationale":
            "Wall-clock reads in result-affecting code mean results (or "
            "iteration counts, or seeds) depend on when the run "
            "happened. Timing belongs to src/obs (obs::MonotonicNowNs, "
            "Stopwatch) and bench/; algorithms take seeds and budgets "
            "as explicit config.",
    },
    {
        "name": "pointer-keyed-container",
        "scope": ALL_SRC,
        "trigger": re.compile(
            r"std::(map|set|multimap|multiset)\s*<\s*[A-Za-z_][\w:<>, ]*\*"),
        "rationale":
            "Ordered containers keyed on pointers iterate in allocation "
            "order, which varies run to run (ASLR, allocator state). "
            "Key on a stable id (index, name) instead.",
    },
    {
        "name": "address-ordering",
        "scope": ALL_SRC,
        "trigger": re.compile(
            r"(std::less<[^>]*\*\s*>|\.get\(\)\s*<\s*\w+\.get\(\))"),
        "rationale":
            "Comparing object addresses gives an allocation-dependent "
            "order. Sort by a stable key; if identity ordering is truly "
            "needed, assign sequential ids at creation.",
    },
    {
        "name": "bare-assert",
        "scope": SRC_AND_TOOLS,
        "trigger": re.compile(r"(?<![\w.])assert\s*\("),
        "rationale":
            "assert() vanishes under NDEBUG and prints no operands. Use "
            "DC_CHECK (always on, streams context) for API-boundary "
            "validation and DC_DCHECK for hot-path invariants "
            "(src/util/check.h, docs/DEVELOPMENT.md).",
    },
    {
        "name": "float-reassoc",
        "scope": RESULT_AFFECTING,
        "trigger": re.compile(
            r"std::(reduce|transform_reduce)\s*(<[^;]*>)?\s*\("),
        "rationale":
            "std::reduce and std::transform_reduce are permitted to "
            "reassociate, so floating-point sums change with the "
            "execution policy and element grouping. Use std::accumulate "
            "or the fixed-lane kernels in src/core/residue.cc, whose "
            "addition order is pinned by the determinism contract.",
    },
    {
        "name": "omp-pragma",
        "scope": ALL_SRC,
        "trigger": re.compile(r"#\s*pragma\s+omp\b"),
        "rationale":
            "OpenMP reductions and schedules do not promise a fixed "
            "combination order, and its threading bypasses the "
            "deterministic pool. Parallelism goes through "
            "engine::ParallelApply, whose shard merge order is a "
            "function of the work-item count only.",
    },
    {
        "name": "storage-raw-plane",
        "scope": SRC_AND_TOOLS,
        "exclude": ("src/storage",),
        "trigger": re.compile(
            r"\b(MatrixPlanes|BindPlanes)\b|\braw_(values|mask)\w*\s*\("),
        "rationale":
            "The data plane is owned by src/storage: raw plane "
            "pointers (MatrixPlanes, BindPlanes, the old raw_values/"
            "raw_mask accessors) must not appear outside it. Consumers "
            "read through the typed stride-1 span accessors "
            "(RowValues/RowMask/ColValues/ColMask on MatrixStore or "
            "DataMatrix), which keep every backend -- in-memory and "
            "mmap -- byte-compatible and backend-blind "
            "(DESIGN.md, \"The storage layer\").",
    },
    {
        "name": "layer-core-no-cli",
        "match_raw": True,
        "scope": ALL_SRC,
        "exclude": ("src/cli",),
        "trigger": re.compile(r'#\s*include\s+"src/cli/'),
        "rationale":
            "The library layers must not reach up into the CLI: "
            "src/cli adapts the library to a binary, not the other way "
            "around. Inverting it couples algorithm code to flag "
            "parsing and process concerns.",
    },
    {
        "name": "layer-lib-no-harness",
        "match_raw": True,
        "scope": ALL_SRC,
        "trigger": re.compile(r'#\s*include\s+"(bench|tests|tools|examples)/'),
        "rationale":
            "Library code including the bench/test/tool harnesses "
            "inverts the dependency graph; harnesses depend on src/, "
            "never vice versa.",
    },
    {
        "name": "layer-util-leaf",
        "match_raw": True,
        "scope": ("src/util",),
        "trigger": re.compile(r'#\s*include\s+"src/(?!util/)'),
        "rationale":
            "src/util is the leaf layer everything else may include; a "
            "util header including core/engine/obs creates cycles and "
            "drags algorithm types into every translation unit.",
    },
    {
        "name": "layer-session-private",
        "match_raw": True,
        "scope": SRC_AND_TOOLS,
        "exclude": ("src/session", "src/cli"),
        "trigger": re.compile(r'#\s*include\s+"src/session/'),
        "rationale":
            "The session layer sits *above* the algorithm layers: "
            "src/session drives core/engine, never the reverse, and "
            "only the CLI adapter consumes sessions directly. Core "
            "code that needs session types forward-declares them (see "
            "src/core/floc.h); anything more couples the algorithm to "
            "checkpoint/driver concerns (DESIGN.md, \"The session "
            "layer\").",
    },
    {
        "name": "layer-session-format-internal",
        "match_raw": True,
        "scope": SRC_AND_TOOLS,
        "exclude": ("src/session",),
        "trigger": re.compile(
            r'#\s*include\s+"src/session/session_format\.h"'),
        "rationale":
            "The .dcs wire format is a private detail of src/session: "
            "every other layer -- the CLI included -- goes through "
            "MiningSession::Checkpoint and Floc::ResumeSession, so the "
            "on-disk layout can evolve behind the versioned header "
            "without rippling through consumers.",
    },
    {
        "name": "layer-core-no-session-friend",
        "scope": SRC_AND_TOOLS,
        "exclude": ("src/session",),
        "trigger": re.compile(
            r"\bfriend\s+(class|struct)\s+(::\s*)?(deltaclus\s*::\s*)?"
            r"session\s*::"),
        "rationale":
            "The dependency between the algorithm layers and the session "
            "layer is one-way: the session drives core phase components "
            "through their public interfaces and receives what it "
            "borrows (config, pool, perf window) at construction. A "
            "friend declaration naming a session class lets the session "
            "reach back into private state and turns the boundary into "
            "a two-way coupling (DESIGN.md, \"The session layer\").",
    },
    {
        "name": "raw-mutex",
        "scope": CONCURRENT_SUBSYSTEMS,
        "trigger": re.compile(
            r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex"
            r"|condition_variable(_any)?|lock_guard|unique_lock"
            r"|scoped_lock)\b"),
        "rationale":
            "Raw std:: synchronization primitives carry no Clang "
            "thread-safety capability, so locking mistakes around them "
            "cannot be caught at compile time. Use dc::Mutex / "
            "dc::MutexLock / dc::CondVar (src/util/mutex.h) and "
            "annotate the protected state with DC_GUARDED_BY.",
    },
    {
        "name": "raw-thread",
        "scope": ALL_SRC,
        "exclude": ("src/engine",),
        "trigger": re.compile(
            r"(std::j?thread\s*[({]|\.detach\s*\(\s*\))"),
        "rationale":
            "Ad-hoc thread spawning bypasses the deterministic pool's "
            "sharding and merge-order guarantees. All parallelism runs "
            "on engine::ThreadPool; detached threads additionally "
            "outlive their data's lifetime guarantees.",
    },
    {
        "name": "std-async",
        "scope": SRC_AND_TOOLS,
        "trigger": re.compile(r"std::async\s*\("),
        "rationale":
            "std::async chooses its own execution policy and thread "
            "placement; nothing about its scheduling is deterministic "
            "or pool-aware. Use engine::ParallelApply.",
    },
    {
        "name": "thread-id-order",
        "scope": RESULT_AFFECTING,
        "trigger": re.compile(
            r"std::this_thread::get_id\s*\(|std::thread::id\b"),
        "rationale":
            "Thread ids are scheduling artifacts: branching on them (or "
            "keying storage by them) in result-affecting code makes "
            "output depend on which worker ran which shard. Use the "
            "shard index ParallelFor hands the body.",
    },
    {
        "name": "banned-getenv",
        "scope": RESULT_AFFECTING,
        "trigger": re.compile(r"(?<![\w:])(std::)?getenv\s*\("),
        "rationale":
            "Environment reads in the algorithm layers make results a "
            "function of ambient process state that no config record "
            "captures. Configuration enters through explicit config "
            "structs (FlocConfig etc.); env translation happens at the "
            "CLI/obs boundary.",
    },
    {
        "name": "simd-confined",
        "scope": SRC_AND_TOOLS,
        "exclude": (
            "src/core/residue_kernels_avx2.cc",
        ),
        "trigger": re.compile(
            r"immintrin\.h|arm_neon\.h|x86intrin\.h"
            r"|(?<![\w:])_mm\d*_\w+|(?<![\w:])__m(128|256|512)[di]?\b"
            r"|(?<![\w:])v(ld1|st1|add|sub|mul|abs|dup)q?_f64"),
        "rationale":
            "Vector intrinsics are confined to the per-ISA kernel TUs "
            "(src/core/residue_kernels_*.cc) -- the only files compiled "
            "with vector-ISA flags, so nothing else can emit "
            "instructions the runtime dispatcher "
            "(src/core/simd_dispatch.h) hasn't verified the CPU "
            "supports. Everything else calls through "
            "ActiveSimdKernels().",
    },
    {
        "name": "lock-free-comment",
        "scope": ALL_SRC,
        "multiline_context": True,
        "rationale":
            "Every std::atomic member embodies a lock-free protocol the "
            "type system cannot check. The ordering argument must be "
            "written down: a `DC_LOCK_FREE:` comment within the 12 "
            "lines above the declaration, stating why the chosen "
            "memory ordering is sufficient (see "
            "src/util/thread_annotations.h).",
    },
]

_RULE_BY_NAME = {rule["name"]: rule for rule in RULES}

# clang-tidy-compatible suppression syntax: the parenthesized list is
# comma-separated and may mix clang-tidy check names with dclint rules,
# so one comment can silence both tools on a line.
_NOLINT = re.compile(r"//\s*NOLINT\(([^)]*)\)")
_NOLINT_NEXT = re.compile(r"//\s*NOLINTNEXTLINE\(([^)]*)\)")


def _nolint_rules(match):
    return {entry.strip()[len("dclint:"):]
            for entry in match.group(1).split(",")
            if entry.strip().startswith("dclint:")}
_DCLINT_AS = re.compile(r"//\s*dclint-as:\s*(\S+)")
_ATOMIC_MEMBER = re.compile(r"(?<![\w:])std::atomic\s*<")
_LOCK_FREE_MARK = "DC_LOCK_FREE"
_LOCK_FREE_LOOKBACK = 12


def strip_comments_and_strings(text):
    """Blanks comments and string/char literal *contents*, preserving
    line structure and literal delimiters, so rule regexes cannot match
    prose like `// replaces the std::thread churn`. Raw strings are
    handled; escapes inside ordinary literals are respected."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_terminator = ""
    while i < n:
        c = text[i]
        if state == "code":
            nxt = text[i + 1] if i + 1 < n else ""
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
                if m and (i == 0 or text[i - 1] == "R"):
                    raw_terminator = ")" + m.group(1) + '"'
                    state = "raw"
                    out.append(text[i:i + m.end()])
                    i += m.end()
                    continue
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(c)
                i += 1
            elif c == "\n":  # unterminated; bail to code to stay line-stable
                state = "code"
                out.append(c)
                i += 1
            else:
                out.append(" ")
                i += 1
        else:  # raw
            end = text.find(raw_terminator, i)
            if end == -1:
                out.append(re.sub(r"[^\n]", " ", text[i:]))
                i = n
            else:
                out.append(re.sub(r"[^\n]", " ", text[i:end]))
                out.append(raw_terminator)
                i = end + len(raw_terminator)
                state = "code"
    return "".join(out)


def effective_path(path, raw_lines):
    """Repo-relative path used for scope matching, honoring a
    `// dclint-as:` override in the first ten lines."""
    for line in raw_lines[:10]:
        m = _DCLINT_AS.search(line)
        if m:
            return m.group(1)
    rel = os.path.relpath(os.path.abspath(path), REPO_ROOT)
    return rel.replace(os.sep, "/")


def _in_scope(rule, rel_path):
    scope = rule.get("scope", ())
    if not any(rel_path == d or rel_path.startswith(d + "/") for d in scope):
        return False
    for d in rule.get("exclude", ()):
        if rel_path == d or rel_path.startswith(d + "/"):
            return False
    return True


def _suppressed(rule_name, lineno, raw_lines):
    if lineno - 1 < len(raw_lines):
        for m in _NOLINT.finditer(raw_lines[lineno - 1]):
            if rule_name in _nolint_rules(m):
                return True
    if lineno >= 2 and lineno - 2 < len(raw_lines):
        for m in _NOLINT_NEXT.finditer(raw_lines[lineno - 2]):
            if rule_name in _nolint_rules(m):
                return True
    return False


def _check_lock_free_comments(stripped_lines, raw_lines):
    """Yields (lineno, message) for std::atomic declarations lacking a
    DC_LOCK_FREE ordering comment in the preceding lines. Uses the raw
    lines for the comment search (the marker lives in comments) and the
    stripped lines for the atomic detection (so prose mentioning
    std::atomic does not count as a declaration)."""
    for idx, line in enumerate(stripped_lines):
        if not _ATOMIC_MEMBER.search(line):
            continue
        # Function-local atomics in expressions still embody a protocol;
        # treat every declaration site the same.
        lo = max(0, idx - _LOCK_FREE_LOOKBACK)
        window = raw_lines[lo:idx + 1]
        if any(_LOCK_FREE_MARK in w for w in window):
            continue
        yield (idx + 1,
               "std::atomic without a DC_LOCK_FREE ordering comment in "
               f"the {_LOCK_FREE_LOOKBACK} lines above")


def lint_file(path, rel_path=None):
    """Lints one file; returns a list of (rel_path, lineno, rule_name,
    message) findings."""
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as err:
        print(f"dclint: cannot read {path}: {err}", file=sys.stderr)
        return [(path, 0, "io-error", str(err))]
    raw_lines = text.splitlines()
    if rel_path is None:
        rel_path = effective_path(path, raw_lines)
    stripped_lines = strip_comments_and_strings(text).splitlines()

    findings = []
    for rule in RULES:
        if not _in_scope(rule, rel_path):
            continue
        if rule.get("multiline_context"):
            hits = _check_lock_free_comments(stripped_lines, raw_lines)
            for lineno, message in hits:
                if not _suppressed(rule["name"], lineno, raw_lines):
                    findings.append((rel_path, lineno, rule["name"], message))
            continue
        trigger = rule["trigger"]
        match_raw = rule.get("match_raw", False)
        lines = raw_lines if match_raw else stripped_lines
        for idx, line in enumerate(lines):
            if not trigger.search(line):
                continue
            if match_raw and (idx >= len(stripped_lines)
                              or "include" not in stripped_lines[idx]):
                continue
            if not _suppressed(rule["name"], idx + 1, raw_lines):
                findings.append(
                    (rel_path, idx + 1, rule["name"],
                     f"banned construct: {trigger.pattern}"))
    return findings


def discover_files(compile_commands_path):
    files = set()
    cc_path = compile_commands_path
    if cc_path is None:
        default = os.path.join(REPO_ROOT, "build", "compile_commands.json")
        cc_path = default if os.path.exists(default) else None
    if cc_path:
        try:
            with open(cc_path, encoding="utf-8") as f:
                for entry in json.load(f):
                    p = entry.get("file", "")
                    if not os.path.isabs(p):
                        p = os.path.join(entry.get("directory", ""), p)
                    p = os.path.normpath(p)
                    rel = os.path.relpath(p, REPO_ROOT)
                    if rel.startswith(("src" + os.sep, "tools" + os.sep)):
                        files.add(p)
        except (OSError, ValueError) as err:
            print(f"dclint: ignoring {cc_path}: {err}", file=sys.stderr)
    # compile_commands.json never lists headers; union with a tree walk.
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(
                os.path.join(REPO_ROOT, top)):
            dirnames[:] = sorted(
                d for d in dirnames
                if os.path.relpath(os.path.join(dirpath, d), REPO_ROOT)
                .replace(os.sep, "/") != "tools/lint/fixtures")
            for name in sorted(filenames):
                if name.endswith((".h", ".cc")):
                    files.add(os.path.join(dirpath, name))
    return sorted(files)


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "files", nargs="*",
        help="files to lint (default: compile_commands.json + src/ "
             "tools/ walk)")
    parser.add_argument(
        "--compile-commands", metavar="PATH", default=None,
        help="compile_commands.json to take the TU list from "
             "(default: build/compile_commands.json when present)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            scope = ", ".join(rule.get("scope", ()))
            exclude = rule.get("exclude", ())
            line = f"{rule['name']}  [{scope}"
            if exclude:
                line += f" except {', '.join(exclude)}"
            line += "]"
            print(line)
            print(f"    {rule['rationale']}\n")
        return 0

    files = args.files or discover_files(args.compile_commands)
    if not files:
        print("dclint: no files to lint", file=sys.stderr)
        return 2

    findings = []
    for path in files:
        findings.extend(lint_file(path))

    for rel_path, lineno, rule_name, message in findings:
        rationale = _RULE_BY_NAME.get(rule_name, {}).get("rationale", "")
        print(f"{rel_path}:{lineno}: [{rule_name}] {message}")
        if rationale:
            print(f"    {rationale}")
        print("    suppress with: "
              f"// NOLINT(dclint:{rule_name})  -- justify in a comment")
    if findings:
        print(f"dclint: {len(findings)} finding(s) in "
              f"{len({f[0] for f in findings})} file(s)", file=sys.stderr)
        return 1
    print(f"dclint: {len(files)} files clean "
          f"({len(RULES)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
