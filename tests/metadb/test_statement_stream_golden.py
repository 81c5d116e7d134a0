"""Golden fingerprint of what every end-to-end workload asks of metadb.

Each of the four ``benchmarks/e2e/workloads.py`` workloads runs at
``size="tiny"``, seed 1, and three things are pinned per workload:

* ``repr(virtual_s)`` — the modelled seconds, bit for bit;
* the length and sha256 of the statement stream: one
  ``repr((sql, params, touched))`` per billed statement, in billing
  order, recorded by wrapping ``Database.execute``, ``execute_many`` and
  ``_bill`` (``touched`` is what ``_bill`` charges for);
* the sha256 of every ``Database.dump()`` the run leaves behind.

A change to the metadata path that moves none of these keeps SDM's
behaviour: the same statements, the same rows touched, the same bytes
persisted.  Run this file as a script to print the current values.
"""

import functools
import hashlib
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from repro.metadb import Database

ROOT = Path(__file__).resolve().parents[2]

# workload: (repr(virtual_s), statements, stream sha256, dump sha256s)
GOLDEN = {
    "bulk_datapath": (
        '0.5969254346309756', 130,
        "e0b1216e79d3c17b46b5347cace59ce7d51c41bb9861468b326c388849a25770",
        (
            "cfd047047b34265481888c337c07c3edcb3143422e86b0f77fde5636970f0d99",
        ),
    ),
    "fun3d_e2e": (
        '79.62018425191934', 111,
        "482072c4ec6115470bdb7ee09611d2c0d78f53f5e9bedc3ca069189ad0bae7c6",
        (
            "64387de8f6c1eb18aacc894e1ec76db20fead7c056840da4d4cc61a23f214c85",
            "028f4162e7ca6ab97d71c7e4b856714e36fe7f73c4840036997bbcc528665aab",
        ),
    ),
    "metadb_catalog": (
        '1.4196200000000019', 614,
        "c6b24c3968a122b451daf958603ef85b6dcee7dd1238835ccceb4e2a1e67ab42",
        (
            "cdce907f337e2db35b855f82b00d8da8c3b33ad836d1f9683ab3174aef41630b",
            "c67439e0b090ed96147eb9a072e0935020db0ff1b36ff88c1211611abf7b5f57",
        ),
    ),
    "rt_lifecycle": (
        '26.416844169280036', 249,
        "e774813f45f228646f4ddfdac92533c15e0207b03dc0291ba268581d8727aa8a",
        (
            "86b6e54f0f12cb229b3651d5af0da696562bab284c10d0dfc46f047c5d5e88f8",
            "a8f57e9b42debfc2ab1892c16a24f6d8fdfe2e83a5f6138a922c3bff94e553cf",
        ),
    ),
}


@functools.lru_cache(maxsize=None)
def _workloads():
    spec = importlib.util.spec_from_file_location(
        "e2e_workloads", ROOT / "benchmarks" / "e2e" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(patch):
    """Wrap the statement calls through ``patch(cls, name, fn)``; returns
    the list each billed statement's ``repr((sql, params, touched))`` is
    appended to.  Ranks run one at a time, but a statement's ``_bill``
    may park, so the call being billed is kept per thread."""
    stream = []
    pending = threading.local()
    execute, execute_many, bill = (
        Database.execute, Database.execute_many, Database._bill)

    def executing(self, sql, params=(), proc=None):
        pending.call = (sql, tuple(params))
        return execute(self, sql, params, proc)

    def executing_many(self, sql, param_rows, proc=None):
        param_rows = [tuple(p) for p in param_rows]
        pending.call = (sql, tuple(param_rows))
        return execute_many(self, sql, param_rows, proc)

    def billing(self, touched, proc):
        stream.append(repr(pending.call + (touched,)))
        return bill(self, touched, proc)

    patch(Database, "execute", executing)
    patch(Database, "execute_many", executing_many)
    patch(Database, "_bill", billing)
    return stream


def fingerprint(name, patch):
    workloads = _workloads()
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(1, "tiny")
    stream = _record(patch)
    run = workload.body(inputs, workloads.NullTracer())
    digest = hashlib.sha256("\n".join(stream).encode()).hexdigest()
    dumps = tuple(hashlib.sha256(db.dump().encode()).hexdigest()
                  for db in run.dbs)
    return repr(run.virtual_s), len(stream), digest, dumps


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_workload_fingerprint_is_unchanged(name, monkeypatch):
    assert fingerprint(name, monkeypatch.setattr) == GOLDEN[name]


def test_every_workload_is_pinned():
    assert sorted(GOLDEN) == sorted(_workloads().WORKLOADS)


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(_workloads().WORKLOADS):
        saved = []

        def patch(cls, attr, fn):
            saved.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, fn)

        virtual, n, digest, dumps = fingerprint(name, patch)
        for cls, attr, fn in reversed(saved):
            setattr(cls, attr, fn)
        print(f'    "{name}": (\n        {virtual!r}, {n},\n'
              f'        "{digest}",\n        (')
        for d in dumps:
            print(f'            "{d}",')
        print("        ),\n    ),")
    print("}")
