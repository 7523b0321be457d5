#!/usr/bin/env python3
"""Repo-invariant lint: the static checks the compiler cannot express.

Registered as the ctest ``lint.invariants`` (label "lint"), mirroring
tools/check_doc_comments.py.  Fourteen rules, each enforcing a contract the
codebase documents elsewhere:

  determinism      no nondeterminism sources (std::rand, time(),
                   std::random_device, high_resolution_clock) anywhere
                   in src/ outside common/random.* -- the engine's
                   byte-identical-results contract depends on it.
  signal-safety    every function installed as a signal handler in
                   src/serve/server.cpp touches only async-signal-safe
                   operations: stores to lock-free atomic (or
                   `volatile sig_atomic_t`) globals and `write(2)`.
                   Lock-free atomics are preferred -- the handler runs
                   on whichever thread receives the signal while the
                   daemon loop reads the flag from another, and
                   sig_atomic_t is signal-safe but not thread-safe.
  mutex-annotations  concurrent code locks through the annotated
                   vwsdk::Mutex wrappers (common/mutex.h): no raw
                   std::mutex / std::lock_guard / std::condition_variable
                   outside that header, and every Mutex member is named
                   by at least one VWSDK_GUARDED_BY / VWSDK_REQUIRES /
                   VWSDK_EXCLUDES annotation in its file.
  error-codes      the wire names returned by error_code_name() in
                   src/common/error.cpp match the error-code table in
                   docs/SERVE.md exactly (both directions).
  registry-hygiene every mapper .cpp registers itself exactly once, and
                   the linker-anchor bootstrap in the registry .cpp
                   declares and calls each anchor exactly once --
                   a silently dropped registration is invisible at
                   compile time and only fails at a distant call site.
  doc-links        every docs/*.md page is linked from README.md or
                   another docs page -- an orphaned page silently rots.
  ceil-div         no hand-rolled `(a + b - 1) / b` ceiling divisions in
                   src/ -- that form overflows for a near INT64_MAX; use
                   ceil_div / checked_ceil_div (common/math_util.h,
                   common/checked_math.h), whose `a/b + (a%b != 0)`
                   formulation cannot.
  nolint-discipline  every NOLINT / NOLINTNEXTLINE / NOLINTBEGIN in src/
                   names a specific clang-tidy check (no bare or `(*)`
                   blanket suppressions) and carries a justification
                   after the check list (docs/STATIC_ANALYSIS.md).
  window-scan      Algorithm 1's window loop (`for (Dim h =
                   shape.kernel_h ...`) is written only in the scan
                   engine (core/window_scan.cpp) and in
                   enumerate_windows (mapping/parallel_window.cpp) --
                   a mapper that needs another scan configures the
                   engine instead of copying the loop.
  plan-layout      row and column bindings (`RowBinding{` /
                   `ColBinding{`) are constructed in src/ only by the
                   one plan builder (mapping/plan_builder.cpp) -- every
                   mapping is a cut of the same window matrix, so a new
                   mapping sets the cut's strides in that builder
                   instead of writing a second tile loop.
  verify-driver    execute_plan, reference_convolution and
                   build_plan_for_cost are called in src/ only by the
                   verification driver (sim/verifier.cpp) -- every layer,
                   dense or grouped, runs map -> build -> execute ->
                   reference -> compare through run_layer, so stage hooks
                   have one seam.  Declarations and definitions are exempt.
  cell-rule        `cell_weight(` is called in src/ only under
                   src/mapping/ -- the executor and the crossbar reach a
                   tile's cells through column_classes and for_each_cell
                   (mapping/mapping_plan.h), so the cell rule is read in
                   one place and execution stays on the packed blocks.
  env-reads        getenv appears in src/ only in common/thread_pool.cpp
                   (VWSDK_THREADS) and tensor/exec_backend.cpp
                   (VWSDK_REF_BACKEND) -- every environment knob is a
                   deliberate, documented one, not a read buried in a
                   kernel.
  isa-dispatch     `__attribute__((target(...)))`, `__builtin_cpu_supports`
                   and `<immintrin.h>` appear in src/ only in
                   tensor/gemm_backend.cpp -- the one MVM kernel is the
                   one place that picks an instruction set at runtime,
                   so a vectorized loop elsewhere goes through
                   gemm_accumulate instead of a second dispatch.

``--self-test`` first runs every rule against embedded known-bad
snippets and fails if any rule has gone blind; then the real tree is
linted.  Rules operate on an in-memory {path: text} tree so the
self-tests need no temporary files.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Infrastructure: rules see a Tree = dict[str, str] of repo-relative
# posix paths to file text, pre-filtered to the files lint cares about.
# --------------------------------------------------------------------------

Failure = str  # "path:line: message"


def strip_comments(text: str) -> str:
    """C++ text with // and /* */ comments blanked (newlines kept, so
    line numbers survive).  String literals are not parsed; the banned
    tokens do not legitimately appear inside strings in this repo."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.append("".join(c if c == "\n" else " " for c in text[i:end]))
            i = end
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def find_all(pattern: str, text: str) -> list[re.Match]:
    return list(re.finditer(pattern, text, re.MULTILINE))


# --------------------------------------------------------------------------
# Rule: determinism
# --------------------------------------------------------------------------

DETERMINISM_ALLOWED = ("src/common/random.h", "src/common/random.cpp")

# Token -> human name.  `time(` is matched as a call (optionally
# ::-qualified) not preceded by an identifier character or member
# access, so wall_time(...) and obj.time(...) stay legal.
DETERMINISM_BANNED = [
    (r"\bstd::rand\b", "std::rand"),
    (r"(?:::|(?<![\w.:]))s?rand\s*\(", "rand()/srand()"),
    (r"\brandom_device\b", "std::random_device"),
    (r"\bhigh_resolution_clock\b", "high_resolution_clock"),
    (r"(?:::|(?<![\w.:]))time\s*\(", "time()"),
]


def rule_determinism(tree: dict[str, str]) -> list[Failure]:
    """Nondeterminism sources are confined to common/random -- every
    other src/ file must produce byte-identical output run to run."""
    failures = []
    for path, text in sorted(tree.items()):
        if not path.startswith("src/") or path in DETERMINISM_ALLOWED:
            continue
        if not path.endswith((".h", ".cpp")):
            continue
        code = strip_comments(text)
        for pattern, name in DETERMINISM_BANNED:
            for match in find_all(pattern, code):
                failures.append(
                    f"{path}:{line_of(code, match.start())}: nondeterminism "
                    f"source {name} outside common/random (determinism "
                    "contract, docs/CONCURRENCY.md)")
    return failures


# --------------------------------------------------------------------------
# Rule: signal-safety
# --------------------------------------------------------------------------

SERVER_CPP = "src/serve/server.cpp"


def function_body(code: str, name: str) -> tuple[str, int] | None:
    """The brace-balanced body of `name(...) {...}` and its offset."""
    match = re.search(rf"\b{re.escape(name)}\s*\([^)]*\)\s*{{", code)
    if not match:
        return None
    start = match.end() - 1
    depth = 0
    for i in range(start, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return code[start + 1:i], start + 1
    return None


def rule_signal_safety(tree: dict[str, str]) -> list[Failure]:
    """Signal handlers may only store to lock-free atomic / volatile
    sig_atomic_t globals and call write(2) -- the async-signal-safe
    vocabulary."""
    text = tree.get(SERVER_CPP)
    if text is None:
        return [f"{SERVER_CPP}:1: file missing (signal-safety rule has "
                "nothing to check; update vwsdk_lint.py if it moved)"]
    code = strip_comments(text)

    handlers = set()
    for match in find_all(r"\bsa_handler\s*=\s*(\w+)", code):
        handlers.add(match.group(1))
    for match in find_all(r"\bsignal\s*\(\s*\w+\s*,\s*(\w+)\s*\)", code):
        handlers.add(match.group(1))
    handlers -= {"SIG_IGN", "SIG_DFL"}
    if not handlers:
        return [f"{SERVER_CPP}:1: no signal handler found (the daemon "
                "must install SIGINT/SIGTERM handlers; update "
                "vwsdk_lint.py if installation moved)"]

    sig_atomic_globals = {
        m.group(1)
        for m in find_all(
            r"volatile\s+(?:std::)?sig_atomic_t\s+(\w+)", code)
    }
    sig_atomic_globals |= {
        m.group(1)
        for m in find_all(
            r"std::atomic<\s*(?:int|(?:std::)?sig_atomic_t)\s*>\s+(\w+)",
            code)
    }

    failures = []
    for handler in sorted(handlers):
        body_at = function_body(code, handler)
        if body_at is None:
            failures.append(f"{SERVER_CPP}:1: signal handler '{handler}' "
                            "has no body in this file")
            continue
        body, offset = body_at
        # Every call in the body must be write(); everything else on
        # the async-signal-safe list this repo needs is an operator.
        for match in find_all(r"(?<![\w.:])(\w+)\s*\(", body):
            callee = match.group(1)
            if callee in ("write", "if", "while", "for", "switch",
                          "return", "sizeof"):
                continue
            failures.append(
                f"{SERVER_CPP}:{line_of(code, offset + match.start())}: "
                f"signal handler '{handler}' calls '{callee}' -- only "
                "write(2) is async-signal-safe here")
        # Every assignment target that is not a body-local variable
        # must be a volatile sig_atomic_t global.
        locals_ = {
            m.group(1)
            for m in find_all(
                r"(?:const\s+)?(?:int|char|ssize_t|long)\s+(\w+)\s*=", body)
        }
        for match in find_all(r"(?<![\w.:=!<>])(\w+)\s*=[^=]", body):
            target = match.group(1)
            if target in locals_ or target in ("const", "int", "char",
                                               "ssize_t", "long"):
                continue
            if target not in sig_atomic_globals:
                failures.append(
                    f"{SERVER_CPP}:{line_of(code, offset + match.start())}: "
                    f"signal handler '{handler}' writes '{target}', which "
                    "is not a volatile sig_atomic_t global")
    return failures


# --------------------------------------------------------------------------
# Rule: mutex-annotations
# --------------------------------------------------------------------------

MUTEX_HOME = "src/common/mutex.h"
RAW_LOCK_TOKENS = [
    r"\bstd::mutex\b", r"\bstd::recursive_mutex\b", r"\bstd::shared_mutex\b",
    r"\bstd::condition_variable\b", r"\bstd::condition_variable_any\b",
    r"\bstd::lock_guard\b", r"\bstd::unique_lock\b", r"\bstd::scoped_lock\b",
]


def rule_mutex_annotations(tree: dict[str, str]) -> list[Failure]:
    """Raw standard locking types are confined to common/mutex.h; every
    vwsdk::Mutex member is named by at least one thread-safety
    annotation in its file (an unannotated mutex guards nothing the
    compiler can check)."""
    failures = []
    for path, text in sorted(tree.items()):
        if not path.startswith("src/") or path == MUTEX_HOME:
            continue
        if not path.endswith((".h", ".cpp")):
            continue
        code = strip_comments(text)
        for token in RAW_LOCK_TOKENS:
            for match in find_all(token, code):
                failures.append(
                    f"{path}:{line_of(code, match.start())}: raw "
                    f"{match.group(0)} -- use the annotated vwsdk::Mutex / "
                    "MutexLock / CondVar (common/mutex.h) so clang "
                    "-Wthread-safety can check the locking")
        for match in find_all(
                r"(?:^|\s)(?:mutable\s+)?Mutex\s+(\w+)\s*;", code):
            name = match.group(1)
            used = re.search(
                r"VWSDK_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|EXCLUDES|"
                r"ACQUIRE|RELEASE)\s*\(\s*" + re.escape(name), code)
            if not used:
                failures.append(
                    f"{path}:{line_of(code, match.start(1))}: Mutex "
                    f"'{name}' has no VWSDK_GUARDED_BY/REQUIRES/EXCLUDES "
                    "user in this file -- annotate what it protects")
    return failures


# --------------------------------------------------------------------------
# Rule: error-codes
# --------------------------------------------------------------------------

ERROR_CPP = "src/common/error.cpp"
SERVE_MD = "docs/SERVE.md"


def rule_error_codes(tree: dict[str, str]) -> list[Failure]:
    """error_code_name()'s wire names and the docs/SERVE.md error table
    must agree exactly -- the table is the protocol's normative list."""
    code_text = tree.get(ERROR_CPP)
    doc_text = tree.get(SERVE_MD)
    failures = []
    if code_text is None:
        return [f"{ERROR_CPP}:1: file missing (error-codes rule)"]
    if doc_text is None:
        return [f"{SERVE_MD}:1: file missing (error-codes rule)"]

    body_at = function_body(strip_comments(code_text), "error_code_name")
    if body_at is None:
        return [f"{ERROR_CPP}:1: error_code_name() not found"]
    in_code = {m.group(1)
               for m in find_all(r'return\s+"([a-z_]+)"', body_at[0])}

    # Error-table rows are the only SERVE.md rows whose last cell is a
    # bare exit-code integer: | `name` | meaning | 2 |
    in_docs = {m.group(1)
               for m in find_all(r"^\|\s*`([a-z_]+)`\s*\|[^|]*\|\s*\d+\s*\|",
                                 doc_text)}
    if not in_docs:
        return [f"{SERVE_MD}:1: no error-code table rows found (the "
                "`| `code` | meaning | exit |` table moved or changed "
                "shape; update vwsdk_lint.py)"]
    for name in sorted(in_code - in_docs):
        failures.append(f"{SERVE_MD}:1: wire name '{name}' returned by "
                        f"error_code_name() is missing from the error table")
    for name in sorted(in_docs - in_code):
        failures.append(f"{SERVE_MD}:1: documented error code '{name}' is "
                        f"not a wire name error_code_name() returns")
    return failures


# --------------------------------------------------------------------------
# Rule: registry-hygiene
# --------------------------------------------------------------------------

REGISTRIES = [
    # (bootstrap file, registrar-fn pattern, files that must self-register)
    ("src/core/mapper_registry.cpp", r"register_\w+_mapper",
     r"src/core/\w+_mapper\.cpp"),
]


def rule_registry_hygiene(tree: dict[str, str]) -> list[Failure]:
    """Each mapper translation unit calls registry.add exactly
    once inside exactly one register_* anchor, and the bootstrap
    declares + calls every anchor exactly once (the linker anchor is
    what keeps a static-library registration from being dropped)."""
    failures = []
    for bootstrap_path, anchor_pat, unit_pat in REGISTRIES:
        bootstrap = tree.get(bootstrap_path)
        if bootstrap is None:
            failures.append(f"{bootstrap_path}:1: file missing "
                            "(registry-hygiene rule)")
            continue
        bcode = strip_comments(bootstrap)

        declared = [m.group(1) for m in find_all(
            rf"void\s+({anchor_pat})\s*\([^)]*\)\s*;", bcode)]
        called = [m.group(1) for m in find_all(
            rf"(?:detail::)?({anchor_pat})\s*\(\s*(?:built|registry)\s*\)",
            bcode)]
        for anchor in declared:
            if called.count(anchor) != 1:
                failures.append(
                    f"{bootstrap_path}:1: anchor '{anchor}' is declared but "
                    f"called {called.count(anchor)} times in the bootstrap "
                    "(must be exactly once)")
        for anchor in called:
            if anchor not in declared:
                failures.append(
                    f"{bootstrap_path}:1: bootstrap calls '{anchor}' "
                    "without a forward declaration anchor")

        defined: dict[str, str] = {}
        for path, text in sorted(tree.items()):
            if not re.fullmatch(unit_pat, path) and path != bootstrap_path:
                continue
            code = strip_comments(text)
            definitions = [m.group(1) for m in find_all(
                rf"void\s+({anchor_pat})\s*\([^)]*\)\s*{{", code)]
            adds = len(find_all(r"\bregistry\s*\.\s*add\s*\(", code))
            if path != bootstrap_path and not definitions:
                failures.append(
                    f"{path}:1: defines no register_* anchor -- the "
                    "registry bootstrap cannot pull this unit from the "
                    "static library")
                continue
            if adds != len(definitions):
                failures.append(
                    f"{path}:1: {adds} registry.add call(s) across "
                    f"{len(definitions)} register_* definition(s) -- each "
                    "anchor must register exactly once")
            for name in definitions:
                if name in defined:
                    failures.append(
                        f"{path}:1: anchor '{name}' is defined here and in "
                        f"{defined[name]} -- duplicate registration")
                defined[name] = path

        for anchor in declared:
            if anchor not in defined:
                failures.append(
                    f"{bootstrap_path}:1: anchor '{anchor}' has no "
                    "definition in any registered translation unit")
        for anchor, path in sorted(defined.items()):
            if path != bootstrap_path and anchor not in declared:
                failures.append(
                    f"{path}:1: anchor '{anchor}' is defined but the "
                    "bootstrap never declares/calls it -- the linker may "
                    "silently drop this registration")
    return failures


# --------------------------------------------------------------------------
# Rule: doc-links
# --------------------------------------------------------------------------


def rule_doc_links(tree: dict[str, str]) -> list[Failure]:
    """Every docs/*.md page is referenced by name from README.md or
    from another docs page -- no orphaned documentation."""
    failures = []
    doc_pages = [p for p in tree if p.startswith("docs/")
                 and p.endswith(".md")]
    for page in sorted(doc_pages):
        name = page.split("/", 1)[1]
        referenced = False
        for other, text in tree.items():
            if other == page:
                continue
            if (other == "README.md" or
                    (other.startswith("docs/") and other.endswith(".md"))):
                if name in text:
                    referenced = True
                    break
        if not referenced:
            failures.append(f"{page}:1: not linked from README.md or any "
                            "other docs page (orphaned documentation)")
    return failures


# --------------------------------------------------------------------------
# Rule: ceil-div
# --------------------------------------------------------------------------

# The textbook ceiling division `(a + b - 1) / b` (divisor == second
# addend, in either `(a + b - 1)` or `(b - 1 + a)` order).  `a + b - 1`
# overflows for a near INT64_MAX, so the repo's only ceiling-division
# spelling is ceil_div/checked_ceil_div, which use `a/b + (a%b != 0)`.
_OPERAND = r"[A-Za-z_][\w]*(?:(?:\.|->)[A-Za-z_][\w]*)*(?:\(\s*\))?"
CEIL_DIV_PATTERNS = [
    re.compile(r"\(\s*(?:%s)\s*\+\s*(%s)\s*-\s*1\s*\)\s*/\s*(%s)"
               % (_OPERAND, _OPERAND, _OPERAND)),
    re.compile(r"\(\s*(%s)\s*-\s*1\s*\+\s*(?:%s)\s*\)\s*/\s*(%s)"
               % (_OPERAND, _OPERAND, _OPERAND)),
]


def rule_ceil_div(tree: dict[str, str]) -> list[Failure]:
    """Hand-rolled `(a + b - 1) / b` ceiling divisions are banned in
    src/: the `a + b - 1` intermediate overflows near INT64_MAX.  Use
    ceil_div / checked_ceil_div (common/math_util.h,
    common/checked_math.h) instead."""
    failures = []
    for path, text in sorted(tree.items()):
        if not path.startswith("src/") or not path.endswith((".h", ".cpp")):
            continue
        code = strip_comments(text)
        for pattern in CEIL_DIV_PATTERNS:
            for match in pattern.finditer(code):
                if match.group(1) != match.group(2):
                    continue  # (a + b - 1) / c is not a ceiling division
                failures.append(
                    f"{path}:{line_of(code, match.start())}: hand-rolled "
                    f"ceiling division '{match.group(0)}' -- the a+b-1 "
                    "intermediate overflows near INT64_MAX; use ceil_div/"
                    "checked_ceil_div (common/math_util.h)")
    return failures


# --------------------------------------------------------------------------
# Rule: nolint-discipline
# --------------------------------------------------------------------------

# `NOLINT`, optionally NEXTLINE/BEGIN/END, optionally a (check-list),
# then the rest of the line (the justification slot).  Matched on RAW
# text -- NOLINT markers live inside comments by construction.
NOLINT_RE = re.compile(
    r"NOLINT(NEXTLINE|BEGIN|END)?(\([^)\n]*\))?([^\n]*)")
NOLINT_CHECKS_RE = re.compile(r"[a-z][a-z0-9]*(?:[-.][a-z0-9]+)+"
                              r"(?:\s*,\s*[a-z][a-z0-9]*(?:[-.][a-z0-9]+)+)*")


def rule_nolint_discipline(tree: dict[str, str]) -> list[Failure]:
    """Every clang-tidy suppression in src/ must name the specific
    check(s) it silences -- no bare `// NOLINT` and no `NOLINT(*)` -- and
    carry a justification after the check list, so a suppression cannot
    outlive the reason it was added (docs/STATIC_ANALYSIS.md)."""
    failures = []
    for path, text in sorted(tree.items()):
        if not path.startswith("src/") or not path.endswith((".h", ".cpp")):
            continue
        for match in NOLINT_RE.finditer(text):
            where = f"{path}:{line_of(text, match.start())}"
            variant = match.group(1) or ""
            checks = match.group(2)
            rest = match.group(3) or ""
            if checks is None:
                failures.append(
                    f"{where}: bare NOLINT{variant} -- name the specific "
                    f"check(s): NOLINT{variant}(check-name): why")
                continue
            inner = checks[1:-1].strip()
            if not inner or "*" in inner or \
                    not NOLINT_CHECKS_RE.fullmatch(inner):
                failures.append(
                    f"{where}: NOLINT{variant}({inner}) is a blanket or "
                    "malformed suppression -- name the specific clang-tidy "
                    "check(s), e.g. NOLINT(bugprone-integer-division)")
                continue
            if variant == "END":
                continue  # the justification lives on the matching BEGIN
            justification = rest.strip().lstrip(":-").strip()
            if len(justification) < 8:
                failures.append(
                    f"{where}: NOLINT{variant}({inner}) has no "
                    "justification -- append why the finding is a false "
                    "positive or intentional, e.g. "
                    f"NOLINT{variant}({inner}): <reason>")
    return failures


# --------------------------------------------------------------------------
# Rule: window-scan
# --------------------------------------------------------------------------

WINDOW_SCAN_HOMES = ("src/core/window_scan.cpp",
                     "src/mapping/parallel_window.cpp")
# A loop whose counter starts at a kernel height: the PW_h outer loop of
# Algorithm 1, however its counter or shape variable is named.
WINDOW_SCAN_RE = re.compile(
    r"\bfor\s*\(\s*[\w:]+\s+\w+\s*=\s*(?:\w+(?:\.|->))*kernel_h\b")


def rule_window_scan(tree: dict[str, str]) -> list[Failure]:
    """The window scan is written once: outside the engine and
    enumerate_windows, no src/ file may open a loop at the kernel
    height -- configure scan_windows (core/window_scan.h) instead."""
    failures = []
    for path, text in sorted(tree.items()):
        if not path.startswith("src/") or path in WINDOW_SCAN_HOMES:
            continue
        if not path.endswith((".h", ".cpp")):
            continue
        code = strip_comments(text)
        for match in WINDOW_SCAN_RE.finditer(code):
            failures.append(
                f"{path}:{line_of(code, match.start())}: a copy of "
                "Algorithm 1's window loop -- build a WindowScan and call "
                "scan_windows (core/window_scan.h), or walk "
                "enumerate_windows (mapping/parallel_window.h)")
    return failures


PLAN_LAYOUT_HOME = "src/mapping/plan_builder.cpp"
# A binding built by brace initialization -- but not the struct's own
# definition.
PLAN_LAYOUT_RE = re.compile(r"(?<!struct )\b(?:Row|Col)Binding\s*\{")


def rule_plan_layout(tree: dict[str, str]) -> list[Failure]:
    """Plans are laid out once: outside the plan builder no src/ file may
    construct a RowBinding or ColBinding -- cut the window matrix with
    build_plan_for_cost (mapping/plan_builder.h) instead."""
    failures = []
    for path, text in sorted(tree.items()):
        if not path.startswith("src/") or path == PLAN_LAYOUT_HOME:
            continue
        if not path.endswith((".h", ".cpp")):
            continue
        code = strip_comments(text)
        for match in PLAN_LAYOUT_RE.finditer(code):
            failures.append(
                f"{path}:{line_of(code, match.start())}: a binding built "
                "outside the plan builder -- lay plans out with "
                "build_plan_for_cost (mapping/plan_builder.h)")
    return failures


VERIFY_DRIVER_HOME = "src/sim/verifier.cpp"
# A mention of a driver stage, with the word before it when that word
# directly precedes it: a return type there marks a declaration or a
# definition, anything else (`=`, `(`, `return`) a call.
VERIFY_DRIVER_RE = re.compile(
    r"(?:\b(\w+)[\s&*]+)?(?:\w+::)*"
    r"\b(execute_plan|reference_convolution|build_plan_for_cost)\s*\(")
NOT_A_TYPE = {"return", "else"}


def rule_verify_driver(tree: dict[str, str]) -> list[Failure]:
    """The verification sequence is written once: outside the driver no
    src/ file may call execute_plan, reference_convolution or
    build_plan_for_cost -- run layers through run_layer
    (sim/verifier.h) instead."""
    failures = []
    for path, text in sorted(tree.items()):
        if not path.startswith("src/") or path == VERIFY_DRIVER_HOME:
            continue
        if not path.endswith((".h", ".cpp")):
            continue
        code = strip_comments(text)
        for match in VERIFY_DRIVER_RE.finditer(code):
            before = match.group(1)
            if before is not None and before not in NOT_A_TYPE:
                continue
            failures.append(
                f"{path}:{line_of(code, match.start(2))}: "
                f"{match.group(2)} called outside the verification driver "
                "-- run the layer through run_layer (sim/verifier.h)")
    return failures


CELL_RULE_HOME = "src/mapping/"
CELL_RULE_RE = re.compile(r"\bcell_weight\s*\(")


def rule_cell_rule(tree: dict[str, str]) -> list[Failure]:
    """The cell rule is read once: outside src/mapping/ no src/ file may
    call cell_weight -- walk a tile's cells with for_each_cell or its
    packed blocks with column_classes (mapping/mapping_plan.h)."""
    failures = []
    for path, text in sorted(tree.items()):
        if not path.startswith("src/") or path.startswith(CELL_RULE_HOME):
            continue
        if not path.endswith((".h", ".cpp")):
            continue
        code = strip_comments(text)
        for match in CELL_RULE_RE.finditer(code):
            failures.append(
                f"{path}:{line_of(code, match.start())}: cell_weight called "
                "outside src/mapping/ -- walk the tile with for_each_cell or "
                "column_classes (mapping/mapping_plan.h)")
    return failures


# --------------------------------------------------------------------------
# Rule: env-reads
# --------------------------------------------------------------------------

ENV_READS_ALLOWED = ("src/common/thread_pool.cpp",
                     "src/tensor/exec_backend.cpp")
ENV_READ_RE = re.compile(r"\b(?:secure_)?getenv\s*\(")


def rule_env_reads(tree: dict[str, str]) -> list[Failure]:
    """Environment variables are read in src/ only where the documented
    knobs live: VWSDK_THREADS (common/thread_pool.cpp) and
    VWSDK_REF_BACKEND (tensor/exec_backend.cpp)."""
    failures = []
    for path, text in sorted(tree.items()):
        if not path.startswith("src/") or path in ENV_READS_ALLOWED:
            continue
        if not path.endswith((".h", ".cpp")):
            continue
        code = strip_comments(text)
        for match in ENV_READ_RE.finditer(code):
            failures.append(
                f"{path}:{line_of(code, match.start())}: getenv outside "
                "common/thread_pool.cpp and tensor/exec_backend.cpp -- "
                "route a new environment knob through one of them "
                "(env-reads rule)")
    return failures


# --------------------------------------------------------------------------
# Rule: isa-dispatch
# --------------------------------------------------------------------------

ISA_DISPATCH_HOME = "src/tensor/gemm_backend.cpp"
ISA_DISPATCH_RE = re.compile(
    r"__attribute__\s*\(\(\s*target\b|\[\[\s*gnu::target\b"
    r"|\b__builtin_cpu_supports\b|<immintrin\.h>")


def rule_isa_dispatch(tree: dict[str, str]) -> list[Failure]:
    """Instruction-set dispatch lives in the MVM kernel only: target
    attributes, __builtin_cpu_supports and <immintrin.h> appear in src/
    only in tensor/gemm_backend.cpp."""
    failures = []
    for path, text in sorted(tree.items()):
        if not path.startswith("src/") or path == ISA_DISPATCH_HOME:
            continue
        if not path.endswith((".h", ".cpp")):
            continue
        code = strip_comments(text)
        for match in ISA_DISPATCH_RE.finditer(code):
            failures.append(
                f"{path}:{line_of(code, match.start())}: "
                f"`{match.group(0)}` outside tensor/gemm_backend.cpp -- "
                "run the loop through gemm_accumulate, the one runtime-"
                "dispatched kernel (isa-dispatch rule)")
    return failures


# --------------------------------------------------------------------------
# Self-tests: one known-bad snippet per rule; a rule that stays silent
# on its bad snippet has gone blind and the lint run fails.
# --------------------------------------------------------------------------

GOOD_SERVER = """
volatile std::sig_atomic_t g_signal = 0;
extern "C" void handle_signal(int signum) { g_signal = signum; }
int run() {
  struct sigaction action;
  action.sa_handler = handle_signal;
  return 0;
}
"""

GOOD_SERVER_ATOMIC = """
std::atomic<int> g_signal{0};
std::atomic<int> g_wake_fd{-1};
extern "C" void handle_signal(int signum) {
  g_signal = signum;
  const int fd = g_wake_fd;
  if (fd >= 0) {
    const char byte = 1;
    const ssize_t ignored = ::write(fd, &byte, 1);
    (void)ignored;
  }
}
int run() {
  struct sigaction action;
  action.sa_handler = handle_signal;
  return 0;
}
"""

SELF_TESTS = [
    ("determinism", rule_determinism, {
        "src/core/foo.cpp": "int f() { return std::rand(); }",
    }),
    ("determinism", rule_determinism, {
        "src/sim/t.cpp": "long n = ::time(nullptr);",
    }),
    ("signal-safety", rule_signal_safety, {
        SERVER_CPP: """
volatile std::sig_atomic_t g_signal = 0;
extern "C" void handle_signal(int signum) {
  g_signal = signum;
  printf("caught\\n");
}
int run() { struct sigaction a; a.sa_handler = handle_signal; return 0; }
""",
    }),
    ("signal-safety", rule_signal_safety, {
        SERVER_CPP: """
int g_plain = 0;
extern "C" void handle_signal(int signum) { g_plain = signum; }
int run() { struct sigaction a; a.sa_handler = handle_signal; return 0; }
""",
    }),
    ("mutex-annotations", rule_mutex_annotations, {
        "src/core/bad.h": "class C { std::mutex mutex_; };",
    }),
    ("mutex-annotations", rule_mutex_annotations, {
        "src/core/bad.h":
            "class C { Mutex mutex_; int x; };",  # no GUARDED_BY user
    }),
    ("error-codes", rule_error_codes, {
        ERROR_CPP: 'const char* error_code_name(ErrorCode c) {'
                   ' return "zombie_code"; }',
        SERVE_MD: "| `runtime` | boom | 1 |",
    }),
    ("registry-hygiene", rule_registry_hygiene, {
        "src/core/mapper_registry.cpp": """
void register_good_mapper(MapperRegistry& registry);
void bootstrap() { register_good_mapper(built); }
""",
        # registers twice inside one anchor
        "src/core/good_mapper.cpp": """
void register_good_mapper(MapperRegistry& registry) {
  registry.add(a);
  registry.add(b);
}
""",
    }),
    ("registry-hygiene", rule_registry_hygiene, {
        "src/core/mapper_registry.cpp": """
void register_good_mapper(MapperRegistry& registry);
void bootstrap() { register_good_mapper(built); }
""",
        "src/core/good_mapper.cpp": """
void register_good_mapper(MapperRegistry& registry) { registry.add(a); }
""",
        # orphan: defined, never anchored -> linker may drop it
        "src/core/orphan_mapper.cpp": """
void register_orphan_mapper(MapperRegistry& registry) { registry.add(a); }
""",
    }),
    ("doc-links", rule_doc_links, {
        "README.md": "see docs/CLI.md",
        "docs/CLI.md": "the CLI",
        "docs/ORPHAN.md": "nobody links here",
    }),
    ("ceil-div", rule_ceil_div, {
        "src/sim/bad.cpp": "const Count chunk = (n + k - 1) / k;",
    }),
    ("ceil-div", rule_ceil_div, {
        "src/mapping/bad.cpp":
            "Cycles t = (total.cycles() + width - 1) / width;",
    }),
    ("ceil-div", rule_ceil_div, {
        "src/sim/bad2.cpp": "Count c = (k - 1 + n) / k;",
    }),
    ("nolint-discipline", rule_nolint_discipline, {
        "src/core/bad.cpp": "int x = f();  // NOLINT\n",
    }),
    ("nolint-discipline", rule_nolint_discipline, {
        "src/core/bad.cpp":
            "// NOLINTNEXTLINE\nint x = f();\n",
    }),
    ("nolint-discipline", rule_nolint_discipline, {
        "src/core/bad.cpp":
            "int x = f();  // NOLINT(*): silence everything\n",
    }),
    ("window-scan", rule_window_scan, {
        "src/core/my_mapper.cpp": (
            "for (Dim h = shape.kernel_h; h <= shape.padded_h(); "
            "h += shape.stride_h) {}\n"),
    }),
    ("window-scan", rule_window_scan, {
        "src/core/other_mapper.cpp":
            "for (Dim height = context.shape.kernel_h; height < n; ++height)",
    }),
    ("plan-layout", rule_plan_layout, {
        "src/sim/my_plan.cpp":
            "tile.rows.push_back(RowBinding{row, ic, dy, dx, 0});",
    }),
    ("plan-layout", rule_plan_layout, {
        "src/mapping/plan_validate.cpp":
            "const ColBinding probe = ColBinding {0, oc, 0, 0, 0};",
    }),
    ("verify-driver", rule_verify_driver, {
        "src/sim/pipeline.cpp": (
            "ExecutionResult executed =\n"
            "    execute_plan(plan, ifm, weights, options);\n"),
    }),
    ("verify-driver", rule_verify_driver, {
        "src/serve/service.cpp":
            "return vwsdk::reference_convolution(plan, ifm, weights);",
    }),
    ("cell-rule", rule_cell_rule, {
        "src/sim/executor.cpp": (
            "if (const auto k = cell_weight(plan.shape, rb, cb)) {}\n"),
    }),
    ("cell-rule", rule_cell_rule, {
        "src/pim/crossbar.cpp":
            "return vwsdk::cell_weight (shape, row, col).has_value();",
    }),
    ("env-reads", rule_env_reads, {
        "src/sim/executor.cpp":
            'const char* mode = std::getenv("VWSDK_FAST");',
    }),
    ("isa-dispatch", rule_isa_dispatch, {
        "src/sim/executor.cpp": (
            '__attribute__((target("avx2"))) void commit_fast();\n'),
    }),
    ("isa-dispatch", rule_isa_dispatch, {
        "src/pim/crossbar.cpp": (
            "#include <immintrin.h>\n"
            'bool wide = __builtin_cpu_supports("avx512f");\n'),
    }),
    ("nolint-discipline", rule_nolint_discipline, {
        # specific check but no justification
        "src/core/bad.cpp":
            "// NOLINTNEXTLINE(bugprone-integer-division)\nint x = a / b;\n",
    }),
]

# Clean fixtures: every rule must also stay *silent* on a minimal good
# tree, or it would fail the real run with false positives.
CLEAN_TREES = [
    (rule_determinism, {
        "src/common/random.cpp": "int x = std::random_device{}();",
        "src/core/ok.cpp": "Cycles wall_time(int t);  // time() in comment",
    }),
    (rule_signal_safety, {SERVER_CPP: GOOD_SERVER}),
    (rule_signal_safety, {SERVER_CPP: GOOD_SERVER_ATOMIC}),
    (rule_mutex_annotations, {
        "src/common/mutex.h": "class Mutex { std::mutex m_; };",
        "src/core/ok.h":
            "class C { Mutex mutex_; int x VWSDK_GUARDED_BY(mutex_); };",
    }),
    (rule_error_codes, {
        ERROR_CPP: 'const char* error_code_name(ErrorCode c) {'
                   ' return "runtime"; }',
        SERVE_MD: "| `runtime` | boom | 1 |",
    }),
    (rule_doc_links, {
        "README.md": "see docs/CLI.md",
        "docs/CLI.md": "the CLI",
    }),
    (rule_ceil_div, {
        # ceil_div calls, a commented example, a /b-with-different-divisor
        # expression, and a +1-1 that is not the banned shape.
        "src/sim/ok.cpp": (
            "Count a = ceil_div(n, k);\n"
            "// the old form was (n + k - 1) / k\n"
            "Count b = (n + m - 1) / 2;\n"
            "Count c = checked_ceil_div(n, k);\n"),
    }),
    (rule_nolint_discipline, {
        "src/core/ok.cpp": (
            "// NOLINTNEXTLINE(bugprone-integer-division): intentional "
            "truncation, the remainder is spread below\n"
            "int x = a / b;\n"
            "int y = f();  // NOLINT(performance-unnecessary-copy-"
            "initialization): the copy pins lifetime across the callback\n"),
    }),
    (rule_window_scan, {
        "src/core/window_scan.cpp":
            "for (Dim h = shape.kernel_h; h <= shape.padded_h(); ++h) {}",
        "src/mapping/parallel_window.cpp":
            "for (Dim h = shape.kernel_h; h <= shape.padded_h(); ++h) {}",
        # a commented loop, a width loop, and a loop from zero
        "src/core/ok.cpp": (
            "// for (Dim h = shape.kernel_h; ...) lives in the engine\n"
            "for (Dim w = shape.kernel_w; w <= shape.padded_w(); ++w) {}\n"
            "for (Dim h = 0; h < shape.kernel_h; ++h) {}\n"),
    }),
    (rule_plan_layout, {
        "src/mapping/plan_builder.cpp":
            "return RowBinding{row, ic, dy, dx, dup};",
        # the struct definitions, a comment, and reading bindings
        "src/mapping/mapping_plan.h": (
            "struct RowBinding {\n  Dim row = 0;\n};\n"
            "struct ColBinding {\n  Dim col = 0;\n};\n"),
        "src/sim/ok.cpp": (
            "// RowBinding{...} is built by the plan builder\n"
            "for (const RowBinding& rb : tile.rows) {}\n"),
    }),
    (rule_verify_driver, {
        "src/sim/verifier.cpp": (
            "executed = execute_plan(plan, ifm, weights, options);\n"
            "return build_plan_for_cost(shape, geometry, cost);\n"),
        # declarations, definitions, a comment, and a mere mention
        "src/sim/executor.h": (
            "ExecutionResult execute_plan(const MappingPlan& plan,\n"
            "                             const Tensord& ifm);\n"),
        "src/mapping/plan_builder.cpp":
            "MappingPlan build_plan_for_cost(const ConvShape& shape) {}",
        "src/sim/ok.cpp": (
            "// execute_plan(plan, ifm, weights) runs in the driver\n"
            "const char* stage = \"reference_convolution\";\n"),
    }),
    (rule_cell_rule, {
        "src/mapping/mapping_plan.h": (
            "inline std::optional<KernelOffset> cell_weight(\n"
            "    const ConvShape& shape) {}\n"
            "if (const auto k = cell_weight(shape, rb, cb)) {}\n"),
        "src/mapping/mapping_plan.cpp":
            "if (cell_weight(shape, rb, cb).has_value()) {}",
        # a comment, and the walks execution uses
        "src/sim/ok.cpp": (
            "// cell_weight(shape, rb, cb) is the cell rule\n"
            "for_each_cell(shape, tile, fn);\n"
            "const auto classes = column_classes(shape, tile);\n"),
    }),
    (rule_env_reads, {
        "src/common/thread_pool.cpp":
            'const char* env = std::getenv("VWSDK_THREADS");',
        "src/tensor/exec_backend.cpp":
            'const char* env = std::getenv("VWSDK_REF_BACKEND");',
        "src/core/ok.cpp": "// std::getenv(...) lives in thread_pool.cpp\n",
    }),
    (rule_isa_dispatch, {
        ISA_DISPATCH_HOME: (
            "#include <immintrin.h>\n"
            '__attribute__((target("avx2"))) void gemm_avx2();\n'
            'bool avx2 = __builtin_cpu_supports("avx2");\n'),
        # a comment, and other attributes
        "src/pim/ok.cpp": (
            "// __builtin_cpu_supports(...) lives in gemm_backend.cpp\n"
            "[[gnu::always_inline]] inline void f();\n"
            "__attribute__((vector_size(32))) double v;\n"),
    }),
]


def run_self_tests() -> list[str]:
    problems = []
    for name, rule, tree in SELF_TESTS:
        if not rule(tree):
            problems.append(
                f"self-test: rule '{name}' did not fire on its known-bad "
                "snippet -- the rule has gone blind")
    for rule, tree in CLEAN_TREES:
        failures = rule(tree)
        if failures:
            problems.append(
                f"self-test: rule '{rule.__name__}' false-positives on a "
                f"clean tree: {failures[0]}")
    return problems


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

RULES = [
    ("determinism", rule_determinism),
    ("signal-safety", rule_signal_safety),
    ("mutex-annotations", rule_mutex_annotations),
    ("error-codes", rule_error_codes),
    ("registry-hygiene", rule_registry_hygiene),
    ("doc-links", rule_doc_links),
    ("ceil-div", rule_ceil_div),
    ("nolint-discipline", rule_nolint_discipline),
    ("window-scan", rule_window_scan),
    ("plan-layout", rule_plan_layout),
    ("verify-driver", rule_verify_driver),
    ("cell-rule", rule_cell_rule),
    ("env-reads", rule_env_reads),
    ("isa-dispatch", rule_isa_dispatch),
]


def load_tree(root: Path) -> dict[str, str]:
    tree: dict[str, str] = {}
    patterns = ["src/**/*.h", "src/**/*.cpp", "docs/*.md", "README.md"]
    for pattern in patterns:
        for path in root.glob(pattern):
            tree[path.relative_to(root).as_posix()] = path.read_text(
                encoding="utf-8")
    return tree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=Path("."),
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on known-bad input "
                             "before linting the real tree")
    parser.add_argument("--rule", action="append", default=None,
                        help="run only the named rule(s)")
    args = parser.parse_args()

    if args.self_test:
        problems = run_self_tests()
        for problem in problems:
            print(problem)
        if problems:
            return 1
        print(f"vwsdk_lint self-test: {len(SELF_TESTS)} bad-snippet + "
              f"{len(CLEAN_TREES)} clean-tree checks passed")

    tree = load_tree(args.root)
    if not any(p.startswith("src/") for p in tree):
        sys.exit(f"no src/ files found under {args.root} -- wrong --root?")

    failures: list[Failure] = []
    for name, rule in RULES:
        if args.rule and name not in args.rule:
            continue
        failures.extend(rule(tree))
    for failure in failures:
        print(failure)
    print(f"vwsdk_lint: {len(tree)} file(s), {len(failures)} problem(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
