"""No host clock under ``src/repro``: a standing lint.

Every decision the system makes is a function of its inputs and its
virtual clock, so the same job gives the same run (ROADMAP aim 3;
``tests/core/test_job_determinism.py`` holds the property end to end).
A wall-clock read is how that breaks — the planner's calibration loop
once fed ``perf_counter`` into plan choice — so importing ``time`` or
``datetime``, or naming ``perf_counter`` / ``monotonic`` / ``time.time``,
anywhere under ``src/repro`` fails here.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent

ALLOWED = {"bench/__main__.py"}
"""``python -m repro.bench`` prints how long each figure took to
regenerate: a report to the person at the terminal, read by no code."""

CLOCK_MODULES = {"time", "datetime"}
CLOCK_NAMES = {"perf_counter", "monotonic"}


def clock_references(tree):
    """``(line, what)`` for every host-clock import or reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in CLOCK_MODULES:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] in CLOCK_MODULES:
                yield node.lineno, f"from {node.module} import ..."
        elif isinstance(node, ast.Name) and node.id in CLOCK_NAMES:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if node.attr in CLOCK_NAMES or (
                node.attr == "time"
                and isinstance(owner, ast.Name) and owner.id == "time"
            ):
                yield node.lineno, f"<expr>.{node.attr}"


def test_no_host_clock_under_src_repro():
    found = {}
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        refs = sorted(clock_references(ast.parse(path.read_text(), rel)))
        if refs:
            found[rel] = refs
    # Equality, not subset: the allow-list names a live site, never a
    # stale exemption.
    assert set(found) == ALLOWED, f"host-clock references: {found}"
