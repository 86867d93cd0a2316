"""Group-averaged intertwiners between minimal spaces: the scalar/zero dichotomy.

Averaging any operator over the action produces a map that commutes with it;
between minimal spaces such a map must vanish, and on a single minimal space
it must be a scalar multiple of the projector. The group average
(1/|G|) sum_g B[g.x, g.y] visits each pair of the orbital of (x, y) equally
often, so it is computed as the mean of B over that orbital, read off the
action's orbital-label matrix without touching the group elements. The trial
driver verifies the dichotomy on batches of seeded random operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import MinimalSpace
from .linalg import DEFAULT_TOL, max_abs, subspace_equal
from .perm_action import GroupAction


@dataclass(frozen=True)
class IntertwinerClass:
    """Classification outcome; `residual` is the norm for "zero" and the
    deviation from c * projector for "scalar"."""

    kind: str  # "zero" | "scalar" | "violation"
    constant: complex | None
    residual: float


@dataclass(frozen=True)
class SchurSummary:
    pairs: int
    trials_per_pair: int
    zero_count: int
    scalar_count: int
    violation_count: int
    max_offdiagonal_residual: float
    max_diagonal_residual: float


def group_average(a, src: MinimalSpace, dst: MinimalSpace, action: GroupAction) -> np.ndarray:
    """(1/|G|) sum_alpha L_alpha^-1 P_dst A P_src L_alpha, as orbital means.

    Accepts one (n, n) operator or a stack (..., n, n) and averages each.
    The result commutes with every permutation operator and maps src into dst.
    """
    a = np.asarray(a, dtype=complex)
    n = action.n_points
    if a.ndim < 2 or a.shape[-2:] != (n, n):
        raise ValueError("operator shape does not match the point count")
    b = (dst.projector @ a @ src.projector).reshape(-1, n * n)
    labels = action.orbital_labels.ravel()
    sizes = np.bincount(labels)
    # one bincount over (operator, orbital) bins covers the whole stack
    bins = (labels + sizes.size * np.arange(len(b))[:, None]).ravel()

    def orbital_sums(part):
        return np.bincount(bins, weights=part.ravel(), minlength=sizes.size * len(b))

    sums = orbital_sums(b.real) + 1j * orbital_sums(b.imag)
    means = sums.reshape(len(b), sizes.size) / sizes
    return means[:, labels].reshape(a.shape)


def classify_intertwiner(
    t, src: MinimalSpace, dst: MinimalSpace, tol: float = DEFAULT_TOL
) -> IntertwinerClass:
    """Zero, Scalar(c) with c = trace(T P)/dim, or Violation."""
    tp = np.asarray(t, dtype=complex) @ src.projector
    norm = max_abs(tp)
    if norm <= tol:
        return IntertwinerClass(kind="zero", constant=None, residual=norm)
    if src.id == dst.id or subspace_equal(src.space, dst.space, tol):
        c = complex(np.trace(tp) / src.dim)
        residual = max_abs(tp - c * src.projector)
        if residual <= tol:
            return IntertwinerClass(kind="scalar", constant=c, residual=residual)
        return IntertwinerClass(kind="violation", constant=c, residual=residual)
    return IntertwinerClass(kind="violation", constant=None, residual=norm)


def dichotomy_trials(
    action: GroupAction,
    spaces,
    trials: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> SchurSummary:
    """Classify group averages of seeded random operators for every ordered pair."""
    rng = np.random.default_rng(seed)
    n = action.n_points
    zero = scalar = violation = 0
    max_off = max_diag = 0.0
    for src in spaces:
        for dst in spaces:
            draws = rng.standard_normal((trials, n, n)) + 1j * rng.standard_normal((trials, n, n))
            averaged = group_average(draws, src, dst, action)
            for t in averaged:
                cls = classify_intertwiner(t, src, dst, tol)
                if cls.kind == "zero":
                    zero += 1
                elif cls.kind == "scalar":
                    scalar += 1
                else:
                    violation += 1
                if src.id == dst.id:
                    max_diag = max(max_diag, cls.residual)
                else:
                    max_off = max(max_off, cls.residual)
    return SchurSummary(
        pairs=len(spaces) ** 2,
        trials_per_pair=trials,
        zero_count=zero,
        scalar_count=scalar,
        violation_count=violation,
        max_offdiagonal_residual=max_off,
        max_diagonal_residual=max_diag,
    )
