"""Hot-path rules: allocation and dispatch discipline in the simulator
kernel and the per-message protocol path.

The end-to-end benchmark times these paths (`host_ns_per_msg` and
`sim.event_ns` in bench/e2e): one heap allocation per simulated event is
the difference between the calibrated figures and noise.  The kernel provides pooled alternatives
for every flagged pattern — the slot-pool EventCallback (SBO, no heap
under kInlineBytes), the coroutine FramePool, and the dense containers
in common/dense.hpp.
"""

from __future__ import annotations

import pathlib
import re
from typing import Iterator

from ..framework import Rule, SelfTestCase, register, strip_comments

# The dirs whose per-event code the end-to-end benchmark exercises.
HOT_PATH_DIRS = {"sim", "nic", "net", "mem", "match", "alpu"}


def _on_hot_path(path: pathlib.PurePath) -> bool:
    return bool(HOT_PATH_DIRS & set(path.parts))


# --- raw-new-delete ---------------------------------------------------
#
# Matches raw `new Type` / `delete ptr` expressions.  Allocator-function
# calls (`::operator new(n)` — the pool implementations themselves) and
# placement news (`new (p) T`) have a `(` straight after the keyword and
# do not match.  make_unique/make_shared never match (no bare keyword).

NEW_EXPR = re.compile(r"(?<![\w:])new\s+[A-Za-z_:<(]*[A-Za-z_]")
DELETE_EXPR = re.compile(r"(?<![\w:])delete(?:\[\])?\s+[\w(*]")
ALLOC_FN = re.compile(r"\boperator\s+(?:new|delete)\b")


def _check_raw_new_delete(path, raw_lines, code_lines,
                          ctx) -> Iterator[tuple[int, str]]:
    del raw_lines, ctx
    if not _on_hot_path(path):
        return
    for lineno, code in enumerate(code_lines, start=1):
        if ALLOC_FN.search(code):
            continue  # allocator-function definitions/calls (pool impls)
        if NEW_EXPR.search(code) or DELETE_EXPR.search(code):
            yield lineno, ("raw new/delete on a hot path (use the slot "
                           "pool, FramePool, or std::unique_ptr; pools "
                           "themselves get a waiver)")


register(Rule(
    id="raw-new-delete", category="hotpath", severity="error",
    description="raw new/delete expressions in the per-event code paths "
                "(src/sim, src/nic, src/net, src/mem, src/match, src/alpu)",
    check=_check_raw_new_delete,
    self_tests=[
        SelfTestCase("src/nic/x.cpp", "auto* s = new SendState;",
                     expect_hit=True),
        SelfTestCase("src/nic/x.cpp", "delete state;", expect_hit=True),
        SelfTestCase("src/nic/x.cpp",
                     "auto s = std::make_unique<SendState>();",
                     expect_hit=False),
        SelfTestCase("src/sim/x.hpp", "return ::operator new(n);",
                     expect_hit=False),
        SelfTestCase("src/alpu/x.cpp",
                     'ALPU_ASSERT(ok, "delete past the valid prefix");',
                     expect_hit=False),
        SelfTestCase("src/workload/x.cpp", "auto* s = new SendState;",
                     expect_hit=False),
    ]))


# --- std-function-hot-path --------------------------------------------
#
# std::function type-erases through the heap once the capture exceeds
# its (implementation-defined, ~16-byte) inline buffer; the kernel's
# EventCallback carries kInlineBytes of SBO precisely so per-event
# closures never allocate.  A std::function member on the hot path is
# either dead weight or a silent malloc per event — use EventCallback,
# or waive with the capture-size argument spelled out.

STD_FUNCTION = re.compile(r"\bstd::function\s*<")


def _check_std_function(path, raw_lines, code_lines,
                        ctx) -> Iterator[tuple[int, str]]:
    del raw_lines, ctx
    if not _on_hot_path(path):
        return
    for lineno, code in enumerate(code_lines, start=1):
        if STD_FUNCTION.search(code):
            yield lineno, ("std::function on a hot path (heap-allocates "
                           "past ~16 captured bytes; use sim::EventCallback "
                           "— kInlineBytes of SBO — or waive with a "
                           "capture-size justification)")


register(Rule(
    id="std-function-hot-path", category="hotpath", severity="error",
    description="std::function in the per-event code paths, where the "
                "SBO EventCallback (or a plain function pointer) belongs",
    check=_check_std_function,
    self_tests=[
        SelfTestCase("src/nic/x.hpp",
                     "std::function<void(const Packet&)> handler_;",
                     expect_hit=True),
        SelfTestCase("src/nic/x.hpp", "sim::EventCallback handler_;",
                     expect_hit=False),
        SelfTestCase("src/workload/x.hpp",
                     "std::function<void()> on_done_;", expect_hit=False),
    ]))


# --- map-iteration-scheduling -----------------------------------------
#
# Scheduling events while iterating an ordered map couples event order
# to the map's key order — correct only while the key happens to sort
# the way the protocol needs, and a silent reordering hazard the moment
# someone changes the key type.  Collect names declared as std::map /
# std::multimap anywhere in the tree, then flag range-fors over them
# whose body (the next few lines) schedules or posts events.

MAP_DECL = re.compile(
    r"\bstd::(?:multi)?map\s*<[^;]*>\s+(\w+)\s*[;{=]")
RANGE_FOR = re.compile(r"\bfor\s*\([^():]*:\s*(?:this->)?(\w+)\s*\)")
SCHEDULES = re.compile(
    r"\bschedule_(?:at|in)\s*\(|(?:->|\.)\s*post\s*\(")
BODY_LOOKAHEAD = 8  # lines of loop body scanned after the for(...)


def _collect_map_members(file_lines, ctx) -> None:
    names = ctx.setdefault("ordered_map_names", set())
    for _, lines in file_lines:
        for line in lines:
            m = MAP_DECL.search(strip_comments(line))
            if m:
                names.add(m.group(1))


def _check_map_iteration_scheduling(path, raw_lines, code_lines,
                                    ctx) -> Iterator[tuple[int, str]]:
    del path, raw_lines
    names = ctx.get("ordered_map_names", set())
    for lineno, code in enumerate(code_lines, start=1):
        m = RANGE_FOR.search(code)
        if not m or m.group(1) not in names:
            continue
        body = code_lines[lineno - 1:lineno - 1 + BODY_LOOKAHEAD]
        if any(SCHEDULES.search(b) for b in body):
            yield lineno, (f"event scheduling driven by iteration over "
                           f"ordered map '{m.group(1)}' (event order is "
                           f"coupled to the map's key order)")


register(Rule(
    id="map-iteration-scheduling", category="hotpath", severity="error",
    description="range-for over a std::map that schedules/posts events in "
                "its body (event order becomes a function of key order)",
    check=_check_map_iteration_scheduling, prepare=_collect_map_members,
    self_tests=[
        SelfTestCase(
            "src/sim/x.cpp",
            "std::map<NodeId, State> pending_;\n"
            "for (auto& [id, st] : pending_) {\n"
            "  engine.schedule_at(st.when, cb);\n"
            "}\n",
            expect_hit=True),
        SelfTestCase(
            "src/sim/x.cpp",
            "std::map<NodeId, State> pending_;\n"
            "for (auto& [id, st] : pending_) {\n"
            "  total += st.bytes;\n"
            "}\n",
            expect_hit=False),
    ]))
