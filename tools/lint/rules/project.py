"""Project-convention rules.

These enforce repo-wide contracts that reviews keep re-litigating:
assertions must go through the contract layer (common/check.hpp), and
the sharded kernel must not grow mutable global state.
"""

from __future__ import annotations

import re
from typing import Iterator

from ..framework import Rule, SelfTestCase, register

# --- assert-style -----------------------------------------------------
#
# A plain assert() silently disappears under -DNDEBUG; the simulator's
# protocol invariants are load-bearing in every build and must use
# ALPU_ASSERT / ALPU_DEBUG_ASSERT / ALPU_INVARIANT (common/check.hpp),
# which also route through the swappable failure handler the tests and
# the determinism auditor rely on.  `static_assert` is fine.

RAW_ASSERT = re.compile(r"(?<![\w:.])assert\s*\(")
CASSERT_INCLUDE = re.compile(r"#\s*include\s*<(?:cassert|assert\.h)>")


def _check_assert_style(path, raw_lines, code_lines,
                        ctx) -> Iterator[tuple[int, str]]:
    del raw_lines, ctx
    if "src" not in path.parts:
        return
    for lineno, code in enumerate(code_lines, start=1):
        if RAW_ASSERT.search(code):
            yield lineno, ("raw assert() (vanishes under NDEBUG; use "
                           "ALPU_ASSERT / ALPU_DEBUG_ASSERT from "
                           "common/check.hpp)")
        elif CASSERT_INCLUDE.search(code):
            yield lineno, ("<cassert> include (the contract layer in "
                           "common/check.hpp replaces it)")


register(Rule(
    id="assert-style", category="project", severity="error",
    description="raw assert() in src/ — protocol invariants must survive "
                "NDEBUG and route through the contract layer",
    check=_check_assert_style,
    self_tests=[
        SelfTestCase("src/nic/x.cpp", "assert(ok && \"bad\");",
                     expect_hit=True),
        SelfTestCase("src/nic/x.cpp", "#include <cassert>",
                     expect_hit=True),
        SelfTestCase("src/nic/x.cpp", "ALPU_ASSERT(ok, \"bad\");",
                     expect_hit=False),
        SelfTestCase("src/nic/x.cpp", "static_assert(sizeof(T) == 8);",
                     expect_hit=False),
        SelfTestCase("tests/x.cpp", "assert(ok);", expect_hit=False),
    ]))


# --- mutable-static ---------------------------------------------------
#
# The sharded kernel runs N engines on N threads; a mutable static in
# src/sim or src/nic is shared state the window protocol does not
# order, i.e. a data race or a cross-shard determinism leak waiting to
# happen.  const/constexpr statics are fine; so are function-local
# static constants.  thread_local is flagged too (it is still hidden
# state that couples a result to which thread ran the shard) — waive it
# with the thread-confinement argument spelled out.

STATIC_DECL = re.compile(
    r"^\s*(?:inline\s+)?(?:static|thread_local)\b"
    r"(?:\s+(?:static|thread_local|inline))*\s+"
    r"(?!const\b|constexpr\b|consteval\b|constinit\b)")
LOOKS_LIKE_FUNCTION = re.compile(
    r"\w\s*\([^)]*$"                                   # params span lines
    r"|\w\s*\([^)]*\)(?:\s*(?:noexcept|const|override"  # trailing specifiers
    r"|final))*\s*(?:->[^;{]*)?[;{=]")
TARGET_DIRS = {"sim", "nic"}


def _check_mutable_static(path, raw_lines, code_lines,
                          ctx) -> Iterator[tuple[int, str]]:
    del raw_lines, ctx
    if not (TARGET_DIRS & set(path.parts)) or "src" not in path.parts:
        return
    for lineno, code in enumerate(code_lines, start=1):
        if not STATIC_DECL.search(code):
            continue
        # Function declarations/definitions ("static void f(...)") and
        # static member functions are not data.
        if LOOKS_LIKE_FUNCTION.search(code):
            continue
        yield lineno, ("mutable static in the sharded kernel (src/sim, "
                       "src/nic): unordered shared state across shard "
                       "threads")


register(Rule(
    id="mutable-static", category="project", severity="error",
    description="mutable static / thread_local data in src/sim or src/nic "
                "(the sharded kernel must not grow hidden shared state)",
    check=_check_mutable_static,
    self_tests=[
        SelfTestCase("src/sim/x.cpp", "static int counter = 0;",
                     expect_hit=True),
        SelfTestCase("src/sim/x.hpp",
                     "static thread_local inline void* lists_[17];",
                     expect_hit=True),
        SelfTestCase("src/sim/x.cpp", "static constexpr int kMax = 4;",
                     expect_hit=False),
        SelfTestCase("src/sim/x.cpp", "static const char* name();",
                     expect_hit=False),
        SelfTestCase("src/sim/x.cpp", "static void helper(int x) {",
                     expect_hit=False),
        SelfTestCase("src/sim/x.hpp",
                     "static void release(void* p, std::size_t n) noexcept {",
                     expect_hit=False),
        SelfTestCase("src/net/x.cpp", "static int counter = 0;",
                     expect_hit=False),
    ]))


# --- firmware-charge-path ---------------------------------------------
#
# Every firmware cost in the NIC goes through Nic::busy(t), which counts
# `t` in NicStats::firmware_busy and returns the delay the firmware
# awaits.  A bare sim::delay in nic.cpp would be firmware time the stats
# never see; a bare `firmware_busy +=` would be time counted but never
# spent.  busy() itself lives in nic.hpp.

FIRMWARE_CHARGE = re.compile(r"\bsim::delay\s*\(|\bfirmware_busy\s*\+=")


def _check_firmware_charge_path(path, raw_lines, code_lines,
                                ctx) -> Iterator[tuple[int, str]]:
    del raw_lines, ctx
    if path.parts[-3:] != ("src", "nic", "nic.cpp"):
        return
    for lineno, code in enumerate(code_lines, start=1):
        if FIRMWARE_CHARGE.search(code):
            yield lineno, ("firmware time charged outside Nic::busy "
                           "(use `co_await busy(t)`)")


register(Rule(
    id="firmware-charge-path", category="project", severity="error",
    description="sim::delay or firmware_busy += in src/nic/nic.cpp — "
                "firmware time goes through Nic::busy only",
    check=_check_firmware_charge_path,
    self_tests=[
        SelfTestCase("src/nic/nic.cpp", "co_await sim::delay(eng, t);",
                     expect_hit=True),
        SelfTestCase("src/nic/nic.cpp", "stats_.firmware_busy += t;",
                     expect_hit=True),
        SelfTestCase("src/nic/nic.cpp", "co_await busy(t);",
                     expect_hit=False),
        SelfTestCase("src/nic/nic.hpp", "stats_.firmware_busy += t;",
                     expect_hit=False),
    ]))
