"""Smoke tests: the shipped examples run end to end and self-verify.

Each example asserts its own correctness internally (paper-figure
partitioning, read-back equality, growth factors), so "main() completes"
is a meaningful check.  Every shipped example runs here, each in about a
second.
"""

import runpy
import sys

import pytest


def run_example(name, capsys):
    runpy.run_path(f"examples/{name}.py", run_name="__main__")
    return capsys.readouterr().out


def test_quickstart_matches_paper(capsys):
    out = run_example("quickstart", capsys)
    assert "matches the paper's Figure 1 partitioning. OK" in out
    assert "partitioned edges  : [0, 2]" in out
    assert "partitioned edges  : [0, 1, 3]" in out


def test_file_organizations_example(capsys):
    out = run_example("file_organizations", capsys)
    assert "cross-run read of q@t=1 via execution_table verified. OK" in out
    assert "level 1: 6 file(s)" in out
    assert "level 3: 1 file(s)" in out
    # core/regular.py's block-decomposed field, once per level
    assert out.count("field on a 2x2 grid: written and read back") == 3


def test_postprocess_visualization_example(capsys):
    out = run_example("postprocess_visualization", capsys)
    assert "peaks at 0.02602, as the analysts found" in out
    assert "amplitude grew" in out


def test_history_reuse_example(capsys):
    out = run_example("history_reuse", capsys)
    assert "history sped up import+distribution by" in out
    assert out.rstrip().endswith("at P=8. OK")


def test_fun3d_checkpointing_example(capsys):
    out = run_example("fun3d_checkpointing", capsys)
    assert "all organizations verified by read-back. OK" in out


def test_rt_instability_example(capsys):
    out = run_example("rt_instability", capsys)
    assert "file contents verified against the interface model." in out
