"""A minimal Rayleigh–Taylor interface model.

The paper's RT code studies thermonuclear flashes; its relevant behaviour
for SDM is purely its *output pattern*: at each checkpoint it writes a node
dataset (vertex field) and a triangle dataset (face field) of fixed byte
ratio.  The model here grows sinusoidal interface perturbations with the
classic RT linear growth rate so the written fields are deterministic,
physical-looking functions of (coordinates, time) — verifiable after read-
back — while the data volumes match the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RTState",
    "amplitudes_at",
    "evolve_interface",
    "mode_patterns",
    "triangle_field_from_nodes",
]

ATWOOD = 0.5
GRAVITY = 9.81
WAVENUMBERS = ((2.0, 3.0), (5.0, 1.0), (1.0, 7.0))
"""Perturbation modes (kx, ky) seeding the instability."""


@dataclass
class RTState:
    """Interface state: per-node amplitude at the current time."""

    time: float
    node_amplitude: np.ndarray


def mode_patterns(coords: np.ndarray) -> list:
    """Each mode's ``sin(kx x) cos(ky y)`` over ``coords``: the part of
    the interface that does not change with time, built once per mesh
    (a run's every step reuses it through :func:`amplitudes_at`)."""
    return [np.sin(kx * coords[:, 0]) * np.cos(ky * coords[:, 1])
            for kx, ky in WAVENUMBERS]


def amplitudes_at(
    patterns: list, time: float, *, atwood: float = ATWOOD
) -> np.ndarray:
    """Node amplitudes at ``time`` from :func:`mode_patterns`: each mode
    grows as ``exp(sqrt(A g k) t)``."""
    total = np.zeros(len(patterns[0]))
    for (kx, ky), pattern in zip(WAVENUMBERS, patterns):
        k = np.hypot(kx, ky)
        growth = np.sqrt(atwood * GRAVITY * k)
        total += 1e-3 * np.exp(growth * time) * pattern
    return total


def evolve_interface(
    coords: np.ndarray, time: float, *, atwood: float = ATWOOD
) -> np.ndarray:
    """Node amplitudes at ``time``: modes grow as ``exp(sqrt(A g k) t)``.

    Pure function of coordinates and time, so every rank can evaluate its
    own nodes without communication (the real code communicates; SDM's
    measured phases exclude compute either way).  A loop over steps
    builds :func:`mode_patterns` once and calls :func:`amplitudes_at`;
    the values are bit for bit the same.
    """
    return amplitudes_at(mode_patterns(coords), time, atwood=atwood)


def triangle_field_from_nodes(
    node_values_global: np.ndarray, triangle_nodes: np.ndarray
) -> np.ndarray:
    """Face field: mean of the three vertex amplitudes per triangle."""
    return node_values_global[triangle_nodes].mean(axis=1)
