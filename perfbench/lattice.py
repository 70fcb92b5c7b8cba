"""Exact lifting of the planted 2-D lattice tables to wide TransE and RotatE tables.

``generate_planted_splits`` places every entity on an integer 2-D lattice and
gives every relation an integer offset, so that (h, r, t) is a positive exactly
when point(h) + offset(r) == point(t). The benchmark needs the same geometry at
the reference width (d300) and for both models:

* TransE repeats (x, y) and (o_x, o_y) across the columns. Small integers are
  exact in float32, so every positive keeps distance 0 after a checkpoint round
  trip and a corruption by lattice step (dx, dy) sits at d/2 * (|dx| + |dy|)
  in L1.
* RotatE gives entity coordinate k the phase a_k*x + b_k*y and relation k the
  phase a_k*o_x + b_k*o_y, so h o r == t holds coordinate-wise. Relation phases
  are wrapped into [-pi, pi) before they are stored, which keeps float32
  rounding of the phase near 1e-7 per coordinate. Frequencies are drawn from
  [0, 2*pi), which makes every nonzero lattice step move many coordinates by a
  large angle; :func:`rotate_gap` measures the smallest such distance exactly.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def lift_transe(points: np.ndarray, offsets: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(entity, relation) tables of width ``dim`` (even) replicating the lattice."""
    if dim % 2:
        raise ValueError("dim must be even")
    return np.tile(points, dim // 2), np.tile(offsets, dim // 2)


def rotate_frequencies(seed: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([int(seed), 0x524F54])
    return rng.uniform(0.0, TWO_PI, dim), rng.uniform(0.0, TWO_PI, dim)


def lift_rotate(points: np.ndarray, offsets: np.ndarray, freq_a: np.ndarray,
                freq_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(entity, relation) tables in checkpoint layout: interleaved re/im and phases.

    Coordinates are integers, so exp(i(a*x + b*y)) is the product of two
    per-axis tables, which is exact to float64 rounding and much cheaper than
    one complex exponential per entry.
    """
    xy = points.astype(np.int64)
    if not np.array_equal(xy, points) or xy.min() < 0:
        raise ValueError("planted points must be non-negative integers")
    axis = np.arange(xy.max() + 1)[:, None]
    entity = np.exp(1j * axis * freq_a)[xy[:, 0]] * np.exp(1j * axis * freq_b)[xy[:, 1]]
    entity = np.ascontiguousarray(entity).view(np.float64)
    phase = offsets[:, 0:1] * freq_a + offsets[:, 1:2] * freq_b
    phase = np.mod(phase + np.pi, TWO_PI) - np.pi
    return entity, phase


def lattice_steps(span: int) -> np.ndarray:
    """Every nonzero integer step (dx, dy) with |dx|, |dy| <= span."""
    r = np.arange(-span, span + 1)
    dx, dy = np.meshgrid(r, r, indexing="ij")
    steps = np.stack([dx.ravel(), dy.ravel()], axis=1)
    return steps[(steps != 0).any(axis=1)]


def transe_gap(dim: int, norm_order: int = 1) -> float:
    """Smallest distance between two distinct lifted TransE lattice points."""
    return float(dim // 2) if norm_order == 1 else float(np.sqrt(dim // 2))


def rotate_gap(freq_a: np.ndarray, freq_b: np.ndarray, span: int, norm_order: int = 1,
               chunk: int = 4096) -> float:
    """Smallest L1/L2 distance between two lifted RotatE points at most ``span`` apart.

    A step (dx, dy) changes coordinate k by the angle a_k*dx + b_k*dy, whose
    chord length is 2*|sin(angle / 2)|.
    """
    steps = lattice_steps(span).astype(np.float64)
    best = np.inf
    for lo in range(0, len(steps), chunk):
        s = steps[lo:lo + chunk]
        chord = 2.0 * np.abs(np.sin(0.5 * (s[:, 0:1] * freq_a + s[:, 1:2] * freq_b)))
        d = chord.sum(axis=1) if norm_order == 1 else np.sqrt((chord * chord).sum(axis=1))
        best = min(best, float(d.min()))
    return best
