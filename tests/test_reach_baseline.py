"""``reach.baseline`` checked statically, in seconds.

``make reach`` (``benchmarks/reach.py``, about two minutes) runs every
workload under a trace hook before it reads the baseline.  Two of its
failures need no run at all: an entry naming a function that is no
longer defined under ``src/repro``, and an entry without a reason.  This
test reuses the script's own ``functions()`` and ``read_baseline()``, so
a deletion that forgets its baseline entry fails here first.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_reach():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "benchmarks" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    return reach


def test_every_baseline_entry_names_a_defined_function_and_a_reason():
    reach = load_reach()
    entries, bad = reach.read_baseline()
    assert bad == [], "entries without a reason or with a malformed count"
    assert entries, "the baseline lists nothing"
    gone = sorted(set(entries) - set(reach.functions()))
    assert gone == [], "baseline entries whose function is no longer defined"
