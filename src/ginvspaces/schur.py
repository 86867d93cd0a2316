"""Group-averaged intertwiners between minimal spaces: the scalar/zero dichotomy.

Averaging any operator over the action produces a map that commutes with it;
between minimal spaces such a map must vanish, and on a single minimal space
it must be a scalar multiple of the projector. The group average
(1/|G|) sum_g B[g.x, g.y] visits each pair of the orbital of (x, y) equally
often, so it is computed as the mean of B over that orbital, read off the
action's orbital-label matrix without touching the group elements.
The projectors lie in the commutant, so avg(P_j A P_i) = P_j avg(A) P_i: the
trials average each seeded random operator once and read every pair
i -> j off block (j, i) of W^H avg(A) W, W = [V_1 ... V_k] the `Frame`'s basis.
For iid standard complex Gaussian entries, the mean over orbital k (s_k pairs)
has variance 1/s_k in each part, independent across orbitals: a trial draws its
r orbital means, never A, and the averages are expanded in chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import Frame, MinimalSpace, _orbital_mean
from .errors import CapExceeded
from .linalg import DEFAULT_TOL, block_max_abs, max_abs, subspace_equal
from .perm_action import GroupAction

# Bytes dichotomy_trials may hold, by `_require_draw_budget`'s estimate, before it
# refuses to start: regular symmetric:6 (n = 720) at the default 100 trials holds 0.4 GB.
DRAW_BYTES_CAP = 2**30
# Bytes of averaged (n, n) complex operators expanded and compressed at once.
CHUNK_BYTES = 64 * 2**20
# Chunk-sized arrays `_compressed_classes` holds at its peak, counting the (chunk, k, k)
# norms, kinds and residuals at k = n; traced peaks beside the draws read 5.2 chunks on
# regular cyclic:60 and :120, and 3.3 on regular symmetric:4, where k = 10 < n.
CHUNK_COPIES = 6


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
    vd, vs = dst.space.basis, src.space.basis
    return _orbital_mean(vd @ (vd.conj().T @ a @ vs) @ vs.conj().T, action.orbital_labels)


def classify_intertwiner(
    t, src: MinimalSpace, dst: MinimalSpace, tol: float = DEFAULT_TOL
) -> IntertwinerClass:
    """Zero, Scalar(c) with c = trace(T P)/dim, or Violation."""
    p = src.projector
    tp = np.asarray(t, dtype=complex) @ p
    norm = max_abs(tp)
    if norm <= tol:
        return IntertwinerClass(kind="zero", constant=None, residual=norm)
    if src.id == dst.id or subspace_equal(src.space, dst.space, tol):
        c = complex(np.trace(tp) / src.dim)
        residual = max_abs(tp - c * p)
        if residual <= tol:
            return IntertwinerClass(kind="scalar", constant=c, residual=residual)
        return IntertwinerClass(kind="violation", constant=c, residual=residual)
    return IntertwinerClass(kind="violation", constant=None, residual=norm)


def _compressed_classes(spaces: Frame, averages: np.ndarray, tol: float):
    """`classify_intertwiner` kinds (0 zero, 1 scalar, 2 violation) and residuals,
    (trials, k, k), of the pair i -> j at (t, j, i) from the averaged operators
    avg(A_t): block (j, i) of W^H avg(A_t) W, zero within tol, and scalar on the
    diagonal when C_ii - (trace C_ii / d_i) I is."""
    w, starts = spaces.basis, spaces.starts
    c = w.conj().T @ averages @ w
    norms = block_max_abs(c, starts, starts)
    dims = np.array([s.dim for s in spaces])
    traces = np.add.reduceat(np.diagonal(c, axis1=-2, axis2=-1), starts, axis=-1)
    diag = np.arange(c.shape[-1])  # shift the diagonal in place, not through a (chunk, k, k) eye
    c[..., diag, diag] -= np.repeat(traces / dims, dims, axis=-1)
    deviation = np.diagonal(block_max_abs(c, starts, starts), axis1=-2, axis2=-1)
    nonzero_diag = np.eye(len(spaces), dtype=bool) & (norms > tol)
    kinds = np.where(norms <= tol, 0, 2)
    kinds[nonzero_diag & (deviation <= tol)[:, :, None]] = 1
    residuals = np.where(nonzero_diag, deviation[:, :, None], norms)
    return kinds, residuals


def _require_draw_budget(trials: int, n: int, r: int) -> int:
    """Trials per chunk, after CapExceeded (before anything is drawn) if the bytes
    held would pass DRAW_BYTES_CAP: 32 B per trial and orbital for the (trials, r)
    draws and means, and CHUNK_COPIES chunks of (n, n) complex averages."""
    step = max(1, CHUNK_BYTES // (n * n * 16))
    held = trials * r * 32 + CHUNK_COPIES * min(trials, step) * n * n * 16
    if held > DRAW_BYTES_CAP:
        raise CapExceeded(
            f"{trials} Schur trials on {n} points hold {held:.3e} bytes, "
            f"past the cap of {DRAW_BYTES_CAP:.3e}"
        )
    return step


def dichotomy_trials(
    action: GroupAction,
    spaces: Frame,
    trials: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> SchurSummary:
    """Classify group averages of one seeded random operator per trial, for every pair."""
    n = action.n_points
    labels = action.orbital_labels
    sizes = n * np.bincount(labels[0])  # pairs per orbital
    step = _require_draw_budget(trials, n, sizes.size)
    re, im = np.random.default_rng(seed).standard_normal((2, trials, sizes.size)) / np.sqrt(sizes)
    means = re + 1j * im
    on_diag = np.eye(len(spaces), dtype=bool)
    counts = np.zeros(3, dtype=int)
    offdiagonal = diagonal = 0.0
    for t in range(0, trials, step):
        kinds, residuals = _compressed_classes(spaces, means[t : t + step][:, labels], tol)
        counts += np.bincount(kinds.ravel(), minlength=3)
        offdiagonal = max(offdiagonal, float(residuals[:, ~on_diag].max(initial=0.0)))
        diagonal = max(diagonal, float(residuals[:, on_diag].max(initial=0.0)))
    return SchurSummary(
        pairs=len(spaces) ** 2,
        trials_per_pair=trials,
        zero_count=int(counts[0]),
        scalar_count=int(counts[1]),
        violation_count=int(counts[2]),
        max_offdiagonal_residual=offdiagonal,
        max_diagonal_residual=diagonal,
    )
