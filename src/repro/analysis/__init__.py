"""spmdlint: static and runtime SPMD collective-matching analysis.

Every layer of this codebase assumes the SPMD invariant the paper's
collective-I/O design rests on: *all ranks issue identical collective
sequences on identical communicators*.  A rank-guarded ``bcast`` or a
divergent maintenance enqueue violates it silently — surfacing only as a
hang or corrupted bytes deep in a property run.  This package is the
correctness tooling that catches such divergence before it ships:

* **Static linter** (``python -m repro.analysis`` / ``make lint``) — an
  AST pass over the repo's own source.  Each collective entry point
  (``Communicator`` collectives, ``File`` collective I/O, the two-phase
  ops, the SDM-level helpers) is declared at its definition with
  :func:`~repro.analysis.catalog.collective`; ``taint`` tracks values
  derived from ``comm.rank``; ``rules`` flags collectives reachable on
  only some ranks' paths.  Findings are suppressed inline with
  ``# spmdlint: ok(<rule>) <reason>`` or carried in a committed baseline
  file.

* **Runtime sanitizer** (``SPMD_VERIFY=1``) — :mod:`~repro.analysis.verifier`
  records a :class:`~repro.simt.trace.CollectiveSignature` for every
  collective a rank enters, cross-validates signatures when each
  rendezvous completes (and the full per-context sequences at job end),
  and enriches the simulator's deadlock report with per-rank pending-op
  stacks, so a mismatched or missing collective fails fast with both
  ranks' call sites instead of hanging or corrupting data.
"""

from repro.analysis.catalog import CollectiveSpec, match_call
from repro.analysis.findings import Finding, Suppression, load_baseline, save_baseline
from repro.analysis.linter import LintResult, lint_paths, lint_source
from repro.analysis.report import format_finding, format_runtime_mismatch
from repro.analysis.rules import RULES, check_module
from repro.analysis.verifier import SPMDVerifier, spmd_verify_enabled

__all__ = [
    "CollectiveSpec",
    "Finding",
    "LintResult",
    "RULES",
    "SPMDVerifier",
    "Suppression",
    "check_module",
    "format_finding",
    "format_runtime_mismatch",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "match_call",
    "save_baseline",
    "spmd_verify_enabled",
]
