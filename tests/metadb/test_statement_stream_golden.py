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
persisted.  Run this file as a script to print the current values, or
with ``--stream DIR`` to write each workload's stream to
``DIR/<workload>.txt``, one line per statement, for diffing two trees.
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
        '0.5768454346309755', 122,
        "758b3ef1ea393d3745b2050df9173814db6411aafe449d00dc3dee2c1b0de234",
        (
            "5ee48576ff9fe05fe06fb84cd5d72d359741d455fa465a004311124252533713",
        ),
    ),
    "fun3d_e2e": (
        '79.61518425191935', 109,
        "87b824f0859367df17e2f4cd972c70266ee0d578d3ef2d441df466f1988a93a9",
        (
            "0890d7598496a6a8317ba353ce7d1b3f910d2b7af84eae469848e816094e8704",
            "fd77d8ec1085b2eb74d37d0b369253bbe2d5b5230d079cf6a3ef3323a57c6d5d",
        ),
    ),
    "metadb_catalog": (
        '1.3416800000000004', 583,
        "b6a2e802deeaa63d6b869a2ef466a7d6445e91a00abef6d1ff24d8ad923dec5b",
        (
            "13d92adf6651e1a08991f484aa5e4f1e48e4b28ad76a08b37bb7aad648ca7bda",
            "7911c665580d986f90d06574114fd1961c9927d5a6184757fc1ac19728b17db0",
        ),
    ),
    "rt_lifecycle": (
        '26.364024169280032', 228,
        "1bca90370472b3d8f89aa50de500c51ec4e768440ba2fbc191854ab6a80228e5",
        (
            "eae5710545b606ff3e93c4142d5027a63ae4dade430684577eac410abc1d7e79",
            "40715240a49213edbdfbd9ae9e45f5ed5d7013815b1821caae711ef29cd30dc9",
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


def _run(name, patch):
    """Run one workload at size tiny, seed 1, recording its stream."""
    workloads = _workloads()
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(1, "tiny")
    stream = _record(patch)
    return workload.body(inputs, workloads.NullTracer()), stream


def fingerprint(name, patch):
    run, stream = _run(name, patch)
    digest = hashlib.sha256("\n".join(stream).encode()).hexdigest()
    dumps = tuple(hashlib.sha256(db.dump().encode()).hexdigest()
                  for db in run.dbs)
    return repr(run.virtual_s), len(stream), digest, dumps


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_workload_fingerprint_is_unchanged(name, monkeypatch):
    assert fingerprint(name, monkeypatch.setattr) == GOLDEN[name]


def test_every_workload_is_pinned():
    assert sorted(GOLDEN) == sorted(_workloads().WORKLOADS)


def _unpatched(measure, name):
    """``measure(name, patch)`` with every patch undone afterwards."""
    saved = []

    def patch(cls, attr, fn):
        saved.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, fn)

    try:
        return measure(name, patch)
    finally:
        for cls, attr, fn in reversed(saved):
            setattr(cls, attr, fn)


def _write_streams(out):
    out.mkdir(parents=True, exist_ok=True)
    for name in sorted(_workloads().WORKLOADS):
        stream = _unpatched(_run, name)[1]
        (out / f"{name}.txt").write_text("".join(f"{s}\n" for s in stream))
        print(f"{name}: {len(stream)} statements")


def test_stream_mode_writes_each_pinned_stream(tmp_path, capsys):
    """``--stream DIR`` writes, line for line, the streams ``GOLDEN``
    pins, so two trees' files diff statement by statement."""
    _write_streams(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.txt" for name in GOLDEN)
    for name, (_, n, digest, _) in GOLDEN.items():
        lines = (tmp_path / f"{name}.txt").read_text().splitlines()
        assert len(lines) == n
        assert hashlib.sha256(
            "\n".join(lines).encode()).hexdigest() == digest
    assert capsys.readouterr().out.count(" statements\n") == len(GOLDEN)


def _print_golden():
    print("GOLDEN = {")
    for name in sorted(_workloads().WORKLOADS):
        virtual, n, digest, dumps = _unpatched(fingerprint, name)
        print(f'    "{name}": (\n        {virtual!r}, {n},\n'
              f'        "{digest}",\n        (')
        for d in dumps:
            print(f'            "{d}",')
        print("        ),\n    ),")
    print("}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--stream"]:
        _write_streams(Path(sys.argv[2]))
    else:
        _print_golden()
