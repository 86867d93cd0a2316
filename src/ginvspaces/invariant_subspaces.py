"""Invariant subspaces as direct sums of minimal spaces.

Any collection of vectors generates a smallest invariant subspace (its orbit
span, the range of the orbital mean of v v^H: the Reynolds operator, with no
sum over the group); its signature is the set of minimal spaces it meets, and
the structure verification asserts that it equals the direct sum over its
signature. When two minimal spaces are isomorphic the equality can fail, and
the twisted-diagonal construction produces a deliberate witness of that.
The minimal spaces come as a `decomposition.Frame`, with stacked basis W:
signatures are blocks of W^H V_y, direct sums are blocks of W, the twisted
diagonal reads the frame's Gamma, and the round trip reads W^H W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import Frame, _invariance_residual, _orbital_mean, multiplicity_free
from .errors import InternalInconsistency, StructureFailure
from .linalg import DEFAULT_TOL, Subspace, block_max_abs, max_abs, orthonormalize, projector
from .linalg import subspace_equal
from .perm_action import GroupAction
from .schur import group_average


@dataclass(frozen=True)
class SignatureSet:
    """Sorted ids of the minimal spaces a subspace projects onto nontrivially."""

    omega: tuple

    def __contains__(self, i) -> bool:
        return i in self.omega

    def __iter__(self):
        return iter(self.omega)

    def __len__(self) -> int:
        return len(self.omega)


@dataclass(frozen=True)
class StructureWitness:
    """A subspace that fails (or is checked against) the direct-sum equality."""

    omega: tuple
    dim_subspace: int
    dim_direct_sum: int
    residual: float


@dataclass(frozen=True)
class StructureReport:
    trials: int
    passes: int
    max_residual: float
    failures: tuple


def orbit_span(vectors, action: GroupAction, tol: float = DEFAULT_TOL) -> Subspace:
    """Smallest invariant subspace containing the given columns; transitive actions only.

    It is the range of sum_g L_g v v^H L_g^H, |G| times the orbital mean of v v^H,
    whose eigenvalues are the squared singular values of the translates over |G|.
    Eigenvectors above tol times the largest are kept (scale-free; v = 0 spans nothing).
    A cut through an eigenvalue cluster is caught by the orbital-mean residual.
    """
    v = np.asarray(vectors, dtype=complex)
    if v.ndim == 1:
        v = v[:, None]
    n = action.n_points
    if v.shape[0] != n:
        raise ValueError("vectors do not match the point count")
    w, u = np.linalg.eigh(_orbital_mean(v @ v.conj().T, action.orbital_labels))
    sub = Subspace(n, u[:, w > tol * w[-1]], tol)
    residual = _invariance_residual(projector(sub), action.orbital_labels)
    if residual > tol:
        why = f"orbit span is not invariant: residual {residual:.3e} exceeds tol {tol:.3e}"
        raise InternalInconsistency(why)
    return sub


def signature(y: Subspace, spaces: Frame, tol: float = DEFAULT_TOL) -> SignatureSet:
    """Ids of the minimal spaces with nonvanishing projection of y."""
    if y.rank == 0:
        return SignatureSet(omega=())
    meets = block_max_abs(spaces.basis.conj().T @ y.basis, spaces.starts, [0])[:, 0] > tol
    return SignatureSet(omega=tuple(sorted(s.id for s, hit in zip(spaces, meets) if hit)))


def direct_sum(omega, spaces: Frame) -> Subspace:
    """The (mutually orthogonal) columns of W that belong to the selected spaces."""
    ids = set(omega.omega if isinstance(omega, SignatureSet) else omega)
    unknown = sorted(ids - {s.id for s in spaces})
    if unknown:
        raise ValueError(f"ids {unknown} are not in the decomposition")
    chosen = np.repeat([s.id in ids for s in spaces], [s.dim for s in spaces])
    tol = max(s.space.tol for s in spaces)
    return Subspace(spaces.basis.shape[0], spaces.basis[:, chosen], tol)


def verify_structure(
    action: GroupAction,
    spaces: Frame,
    trials: int = 50,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> StructureReport:
    """Random orbit spans vs. the direct sums over their signatures.

    Failures are recorded as witnesses. When the decomposition is
    multiplicity-free the equality is a theorem, so a failure there raises
    StructureFailure instead of being recorded quietly.
    """
    rng = np.random.default_rng(seed)
    n = action.n_points
    passes = 0
    max_residual = 0.0
    failures = []
    for _ in range(trials):
        m = int(rng.integers(1, 4))
        vecs = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        y = orbit_span(vecs, action, tol)
        om = signature(y, spaces, tol)
        e = direct_sum(om, spaces)
        residual = max_abs(projector(y) - projector(e))
        if y.rank == e.rank and residual <= tol:
            passes += 1
            max_residual = max(max_residual, residual)
        else:
            failures.append(
                StructureWitness(
                    omega=om.omega,
                    dim_subspace=y.rank,
                    dim_direct_sum=e.rank,
                    residual=residual,
                )
            )
    report = StructureReport(
        trials=trials, passes=passes, max_residual=max_residual, failures=tuple(failures)
    )
    if failures and multiplicity_free(action):
        raise StructureFailure(
            "invariant subspace does not match its direct sum despite a "
            "multiplicity-free decomposition",
            witness=failures[0],
        )
    return report


def twisted_diagonal_witness(
    action: GroupAction,
    spaces: Frame,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> StructureWitness | None:
    """Deliberate counterexample from a pair of isomorphic minimal spaces.

    The graph of a nonzero intertwiner H_i -> H_j is invariant and meets both
    spaces, yet spans neither, so it is strictly smaller than the direct sum
    over its signature. The pair is the first i < j with Gamma_ij >= 1; returns
    None when Gamma is diagonal (the multiplicity-free case).
    """
    pairs = np.argwhere(np.triu(np.rint(spaces.gram.real), 1) >= 1)
    if not pairs.size:
        return None
    i, j = pairs[0]
    n = action.n_points
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    t = group_average(a, spaces[i], spaces[j], action)
    basis = spaces[i].space.basis
    y = orthonormalize(basis + t @ basis, tol)
    om = signature(y, spaces, tol)
    e = direct_sum(om, spaces)
    if max_abs(t) <= max(100 * tol, 1e-6) or subspace_equal(y, e, tol):
        why = f"Gamma pairs spaces {i} and {j}, but max|avg| {max_abs(t):.3e} gives no smaller graph"
        raise InternalInconsistency(why)
    return StructureWitness(
        omega=om.omega,
        dim_subspace=y.rank,
        dim_direct_sum=e.rank,
        residual=max_abs(projector(y) - projector(e)),
    )


def signature_roundtrip_exhaustive(spaces: Frame, tol: float = DEFAULT_TOL):
    """Check signature(direct_sum(omega)) == omega for every subset.

    Returns (ok, n_subsets). A passing round trip makes the subset-to-subspace
    map injective. Exponential in the number of spaces; capped at 12.
    """
    ids = [s.id for s in spaces]
    if len(ids) > 12:
        raise ValueError("exhaustive check is limited to 12 spaces")
    direct_sum(ids, spaces)  # raises ValueError unless the full sum is orthonormal
    w, starts = spaces.basis, spaces.starts
    meets = block_max_abs(w.conj().T @ w, starts, starts) > tol
    # row m is subset m; its direct sum meets exactly the spaces overlapping a member
    masks = (np.arange(2 ** len(ids))[:, None] >> np.arange(len(ids))) & 1
    ok = bool(np.array_equal(masks @ meets.T > 0, masks == 1))
    return ok, len(masks)
