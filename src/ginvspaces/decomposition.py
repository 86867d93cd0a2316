"""Minimal invariant subspaces of a finite transitive permutation action.

Everything here is read off the orbital (commutant) algebra, given by the
action's orbital-label matrix. Orbital indicator matrices span the commutant
of the permutation operators; eigenspace clusters of a generic Hermitian
commutant element are invariant, and their characters give the matrix
Gamma_ij = <chi_i, chi_j> = dim Hom_G(H_i, H_j), whose unit diagonal certifies
each cluster minimal and whose row sums are the isotype multiplicities. The
star table dim(H_i ∩ H(x)) is a trace, ||P_i B_x||_F^2 for an orthonormal
basis B_x of the stabilizer-fixed space H(x), which P_i commutes with; by
Frobenius reciprocity it equals the same multiplicity. Transitivity carries
H(0) onto every H(x), so the table is read at point 0. Multiplicity-freeness
is commutativity of the orbital algebra, tested on the row-0 products of its
basis, and for a transitive action it holds exactly when Gamma = I.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import InternalInconsistency, MinimalityFailure
from .linalg import DEFAULT_TOL, EIG_CLUSTER_TOL, Subspace, bin_sums, block_max_abs
from .linalg import hermitian_eig, max_abs, projector, stacked_bases
from .perm_action import GroupAction, stabilizer, subgroup_point_orbits

VERDICT_G_COLLECTION = "GCollection"
VERDICT_NOT_UNIQUE = "NotUniqueDecomposition"

# Entry differences below this count as ties when fingerprinting projectors
# for the canonical space order; well above same-space noise (~1e-12), well
# below genuine entry differences at the target matrix sizes.
_FINGERPRINT_TOL = 1e-7

# Seeds `_decompose` tries, seed, seed + 1, ..., before a MinimalityFailure stands.
RETRIES = 5


@dataclass(frozen=True)
class RepOperator:
    """Permutation operator L f = f(alpha . x) for one group element."""

    element_index: int
    matrix: np.ndarray


@dataclass(frozen=True)
class MinimalSpace:
    """One candidate: its basis and the eigenvalue of the generating commutant
    element that produced it; `projector` is built from the basis on each read."""

    id: int
    space: Subspace
    eigenvalue: float

    @property
    def dim(self) -> int:
        return self.space.rank

    @property
    def projector(self) -> np.ndarray:
        return projector(self.space)


@dataclass(frozen=True)
class GCollectionReport:
    """Verdicts and residuals for the decomposition of one action."""

    spaces: tuple
    completeness_residual: float
    orthogonality_residual: float
    equivariance_residual: float
    multiplicity_free: bool
    star_table: np.ndarray
    verdict: str

    @property
    def star_all_ones(self) -> bool:
        return bool((self.star_table == 1).all())

    @property
    def dims(self) -> tuple:
        return tuple(s.dim for s in self.spaces)


def rep_operators(action: GroupAction) -> list:
    """Dense 0/1 matrices of L f = f o phi_alpha for every enumerated element.

    L[x, y] = 1 iff y = alpha.x, so L_alpha L_beta = L_{beta alpha}.
    """
    n = action.n_points
    ops = []
    for i, img in enumerate(action.images):
        m = np.zeros((n, n), dtype=float)
        m[np.arange(n), img] = 1.0
        ops.append(RepOperator(element_index=i, matrix=m))
    return ops


def commutant_basis(action: GroupAction) -> list:
    """One 0/1 indicator matrix per orbital; together they span the commutant."""
    labels = action.orbital_labels
    return [(labels == k).astype(float) for k in range(int(labels.max()) + 1)]


def random_commutant_element(basis, seed: int) -> np.ndarray:
    """Seeded Hermitian element of the commutant with uniform[-1,1] coefficients."""
    if not basis:
        raise ValueError("commutant basis must be nonempty")
    rng = np.random.default_rng(seed)
    n = basis[0].shape[0]
    m = np.zeros((n, n), dtype=complex)
    for a in basis:
        ar, br = rng.uniform(-1.0, 1.0, size=2)
        m = m + ar * (a + a.T) + br * 1j * (a - a.T)
    return m


def _orbital_mean(a: np.ndarray, action: GroupAction) -> np.ndarray:
    """Replace every entry of each (n, n) operator in the stack by its orbital's mean."""
    n = action.n_points
    b = a.reshape(-1, n * n)
    labels = action.orbital_labels.ravel()
    sizes = np.bincount(labels)
    # one bincount over (operator, orbital) bins covers the whole stack
    bins = (labels + sizes.size * np.arange(len(b))[:, None]).ravel()
    means = bin_sums(bins, b, sizes.size * len(b)).reshape(len(b), sizes.size) / sizes
    return means[:, labels].reshape(a.shape)


def _commutator_residual(p: np.ndarray, action: GroupAction) -> float:
    """max over generators of |L p - p L| using index gathers instead of dense L."""
    worst = 0.0
    for g in action.generators:
        img = g.images
        inv = np.argsort(img)
        worst = max(worst, max_abs(p[img, :] - p[:, inv]))
    return worst


def character_gram(spaces, action: GroupAction) -> np.ndarray:
    """Gamma_ij = <chi_i, chi_j> = dim Hom_G(H_i, H_j) for invariant spaces H_i.

    Each P_i lies in the commutant, so P_i[x, y] = c_i[label(x, y)], read off
    row 0, which every orbital meets. Then chi_i(g) = tr(L_g P_i) =
    sum_k N[g, k] c_i[k] with N[g, k] = #{x : label(g.x, x) = k}.
    """
    labels = action.orbital_labels
    r, k, g = int(labels.max()) + 1, len(spaces), action.order
    w, starts = stacked_bases([s.space for s in spaces])
    rows = np.add.reduceat(w[0] * w.conj(), starts, axis=1)  # rows[y, i] = P_i[0, y]
    bins = (labels[0][:, None] * k + np.arange(k)).ravel()
    c = bin_sums(bins, rows, r * k).reshape(r, k) / np.bincount(labels[0])[:, None]
    moved = labels[action.images, np.arange(action.n_points)] + r * np.arange(g)[:, None]
    chi = np.bincount(moved.ravel(), minlength=g * r).reshape(g, r) @ c
    return chi.conj().T @ chi / g


def is_minimal(space: MinimalSpace, action: GroupAction, tol: float = DEFAULT_TOL) -> bool:
    """True iff the (invariant) space has <chi, chi> = 1: only scalar self-intertwiners."""
    return abs(character_gram([space], action)[0, 0] - 1) <= tol


def multiplicity_free(action: GroupAction) -> bool:
    """Commutant commutativity: the classical multiplicity-one criterion.

    A commutant element is fixed by its row 0, so M_1 M_2 = M_2 M_1 iff their
    row-0 products agree. Two seeded pairs M = a[labels] with integer a in
    [0, 2^20) are compared exactly in int64 (n 2^40 < 2^63); on a noncommutative
    algebra both miss with probability at most (2 / 2^20)^2 (Schwartz-Zippel).
    """
    labels = action.orbital_labels
    draws = np.random.default_rng(0).integers(0, 2**20, size=(2, 2, int(labels.max()) + 1))
    return all(np.array_equal(a[labels[0]] @ b[labels], b[labels[0]] @ a[labels]) for a, b in draws)


def minimal_decomposition(action: GroupAction, seed: int = 42, tol: float = DEFAULT_TOL) -> list:
    """Minimal invariant subspaces from a generic commutant element.

    A cluster failing invariance or minimality means the random element landed
    on a degeneracy; the draw is retried with fresh seeds up to `RETRIES` times.
    """
    return _decompose(action, seed, tol)[0]


def _decompose(action: GroupAction, seed: int, tol: float) -> tuple:
    """(spaces, completeness, orthogonality, equivariance, Gamma) of the first draw to pass."""
    last = None
    for attempt in range(RETRIES):
        try:
            return _decompose_once(action, seed + attempt, tol)
        except MinimalityFailure as exc:
            last = exc
    raise last


def _certify(check: str, residual: float, tol: float) -> float:
    if residual > tol:
        raise MinimalityFailure(f"{check} residual {residual:.3e} exceeds tol {tol:.3e}")
    return residual


def _decompose_once(action: GroupAction, seed: int, tol: float) -> tuple:
    n = action.n_points
    labels = action.orbital_labels
    # random_commutant_element of the orbital basis, bit for bit: orbital k adds
    # a_k at its pairs and at their transposes, and i b_k antisymmetrized
    a, b = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(int(labels.max()) + 1, 2)).T
    m = a[labels] + a[labels.T] + 1j * (b[labels] - b[labels.T])
    w, v = hermitian_eig(m, tol)
    gap = EIG_CLUSTER_TOL * max(1.0, max_abs(m))

    candidates = []
    lo, equivariance = 0, 0.0
    for i in range(1, n + 1):
        if i == n or w[i] - w[i - 1] > gap:
            sub = Subspace(n, v[:, lo:i], tol)
            p = projector(sub)
            # K = nP: every kernel identity that can fail here is within 2n max|P - mean(P)|
            _certify("cluster commutant", 2 * n * max_abs(p - _orbital_mean(p, action)), tol)
            equivariance = max(equivariance, _commutator_residual(p, action))
            candidates.append((MinimalSpace(len(candidates), sub, float(w[lo])), p[0].copy()))
            lo = i

    ordered = sorted(candidates, key=functools.cmp_to_key(_compare_candidates))
    spaces = [replace(s, id=i) for i, (s, _) in enumerate(ordered)]
    gram = character_gram(spaces, action)
    _certify("character Gram diagonal", max_abs(np.diagonal(gram) - 1), tol)
    completeness = _certify("completeness", completeness_residual(spaces, n), tol)
    orthogonality = _certify("orthogonality", orthogonality_residual(spaces), tol)
    return spaces, completeness, orthogonality, equivariance, gram


def first_support_index(p: np.ndarray, tol: float = _FINGERPRINT_TOL) -> int:
    """Index of the first nonzero column of a projector V V^H, or of V^T (the same)."""
    col_max = np.max(np.abs(p), axis=0)
    hits = np.nonzero(col_max > tol)[0]
    return int(hits[0]) if hits.size else p.shape[1]


def _compare_candidates(a, b) -> int:
    """Order (space, row 0 of P, copied so no view pins P) pairs by dimension,
    then a tolerance-compared fingerprint of the row (it fixes P, as every
    orbital meets row 0; seed-independent for canonical spaces), then eigenvalue."""
    (a, row_a), (b, row_b) = a, b
    if a.dim != b.dim:
        return -1 if a.dim < b.dim else 1
    d = row_a - row_b
    parts = np.empty(2 * d.size)
    parts[0::2] = d.real
    parts[1::2] = d.imag
    hits = np.nonzero(np.abs(parts) > _FINGERPRINT_TOL)[0]
    if hits.size:
        return 1 if parts[hits[0]] > 0 else -1
    if a.eigenvalue != b.eigenvalue:
        return -1 if a.eigenvalue < b.eigenvalue else 1
    return 0


def h_space(action: GroupAction, x: int, tol: float = DEFAULT_TOL) -> Subspace:
    """Functions fixed by every element stabilizing x: constants on stabilizer orbits."""
    stab = stabilizer(action, x)
    orbits = subgroup_point_orbits(action, stab.members)
    n = action.n_points
    basis = np.zeros((n, len(orbits)), dtype=complex)
    for j, orb in enumerate(orbits):
        basis[orb, j] = 1.0 / np.sqrt(len(orb))
    return Subspace(n, basis, tol)


def check_star(spaces, action: GroupAction, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Table of dim(H_i intersect H(x)) over all spaces i and points x, for
    spaces that passed `_decompose`'s cluster certificate.

    P_i commutes with the projector E_0 = B_0 B_0^H onto H(0), so the entry at
    point 0 is the trace ||P_i B_0||_F^2 = ||V_i^H B_0||_F^2, with V_i the basis
    of space i. H(0) is spanned by the indicators of the stabilizer's orbits,
    the label classes of row 0 (sizes s_k), so the entry is
    sum_k ||sum_{y : label(0, y) = k} V_i[y, :]||^2 / s_k. Column 0 is repeated
    across the points: E_x = L_g E_0 L_g^H for g.0 = x, and the orbital mean of
    P_i commutes with every L_g, so |T(i, x) - T(i, 0)| <= 2n max|P_i - mean(P_i)|,
    the certificate, which is at most tol; every column rounds to column 0.
    Every entry is a positive integer for a valid decomposition (the
    multiplicity of H_i's isotype); a trace of 0 or one off an integer by
    more than tol is an internal error. The one-dimensionality condition
    holds iff all entries equal 1.
    """
    row = action.orbital_labels[0]
    w, starts = stacked_bases([s.space for s in spaces])
    sizes = np.bincount(row)
    sums = np.add.reduceat(w[np.argsort(row, kind="stable")], np.cumsum(sizes) - sizes, axis=0)
    traces = np.add.reduceat(np.sum(np.abs(sums) ** 2 / sizes[:, None], axis=0), starts)
    dims = np.rint(traces)
    bad = np.flatnonzero((dims == 0) | (np.abs(traces - dims) > tol))
    if bad.size:
        i = bad[0]
        raise InternalInconsistency(
            f"space {spaces[i].id} meets the stabilizer-fixed space of point 0 "
            f"with trace {float(traces[i])!r}, not a positive integer"
        )
    return np.repeat(dims.astype(int)[:, None], action.n_points, axis=1)


def completeness_residual(spaces, n_points: int) -> float:
    """max |W W^H - I|: the projectors P_i = V_i V_i^H sum to W W^H."""
    w, _ = stacked_bases([s.space for s in spaces])
    return max_abs(w @ w.conj().T - np.eye(n_points))


def orthogonality_residual(spaces) -> float:
    """Largest entry of the off-diagonal Gram blocks V_i^H V_j."""
    w, starts = stacked_bases([s.space for s in spaces])
    blocks = block_max_abs(w.conj().T @ w, starts, starts)
    np.fill_diagonal(blocks, 0.0)
    return float(blocks.max())


def equivariance_residual(spaces, action: GroupAction) -> float:
    return max((_commutator_residual(s.projector, action) for s in spaces), default=0.0)


def build_report(action: GroupAction, seed: int = 42, tol: float = DEFAULT_TOL) -> GCollectionReport:
    """Assemble the decomposition, residuals, star table, and verdict."""
    spaces, completeness, orthogonality, equivariance, gram = _decompose(action, seed, tol)
    mf = multiplicity_free(action)
    star = check_star(spaces, action, tol)
    # each star entry is the multiplicity of its space's isotype, a row sum of
    # Gamma; the multiplicities square-sum to dim of the commutant, r
    mult = np.rint(gram.real).sum(axis=1).astype(int)
    r = int(action.orbital_labels.max()) + 1
    if (star != mult[:, None]).any() or mult.sum() != r or bool((mult == 1).all()) != mf:
        raise InternalInconsistency(
            f"multiplicity_free is {mf}, the star table has entries {np.unique(star).tolist()} "
            f"and Gamma's row sums {np.unique(mult).tolist()} add up to {mult.sum()} of {r}"
        )
    verdict = VERDICT_G_COLLECTION if mf else VERDICT_NOT_UNIQUE
    return GCollectionReport(
        spaces=tuple(spaces),
        completeness_residual=completeness,
        orthogonality_residual=orthogonality,
        equivariance_residual=equivariance,
        multiplicity_free=mf,
        star_table=star,
        verdict=verdict,
    )
