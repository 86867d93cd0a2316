"""Invariant subspaces as direct sums of minimal spaces.

Any collection of vectors generates a smallest invariant subspace (its orbit
span, the range of the orbital mean of v v^H: the Reynolds operator, with no
sum over the group); its signature is the set of minimal spaces it meets, and
the structure verification asserts that it equals the direct sum over its
signature. When two minimal spaces are isomorphic the equality can fail, and
the twisted-diagonal construction produces a deliberate witness of that.
Signatures are blocks of W^H V_y for the stacked basis W = [V_1 ... V_k],
and the exhaustive round trip reads every subset off one overlap matrix of W^H W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import _invariance_residual, _orbital_mean, character_gram, multiplicity_free
from .errors import InternalInconsistency, StructureFailure
from .linalg import DEFAULT_TOL, Subspace, block_max_abs, max_abs, orthonormalize, projector
from .linalg import stacked_bases, subspace_equal
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


def signature(y: Subspace, spaces, tol: float = DEFAULT_TOL) -> SignatureSet:
    """Ids of the minimal spaces with nonvanishing projection of y."""
    if not spaces or y.rank == 0:
        return SignatureSet(omega=())
    w, starts = stacked_bases([s.space for s in spaces])
    meets = block_max_abs(w.conj().T @ y.basis, starts, [0])[:, 0] > tol
    return SignatureSet(omega=tuple(sorted(s.id for s, hit in zip(spaces, meets) if hit)))


def direct_sum(omega, spaces) -> Subspace:
    """Concatenation of the (mutually orthogonal) bases of the selected spaces."""
    by_id = {s.id: s for s in spaces}
    ids = sorted(omega.omega if isinstance(omega, SignatureSet) else omega)
    if not spaces:
        raise ValueError("need at least one space to fix the ambient dimension")
    unknown = [i for i in ids if i not in by_id]
    if unknown:
        raise ValueError(f"ids {unknown} are not in the decomposition")
    ambient = spaces[0].space.ambient_dim
    tol = max(s.space.tol for s in spaces)
    chosen = [by_id[i].space for i in ids]
    basis = stacked_bases(chosen)[0] if chosen else np.zeros((ambient, 0), dtype=complex)
    return Subspace(ambient, basis, tol)


def verify_structure(
    action: GroupAction,
    spaces,
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
    spaces,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> StructureWitness | None:
    """Deliberate counterexample from a pair of isomorphic minimal spaces.

    The graph of a nonzero intertwiner H_i -> H_j is invariant and meets both
    spaces, yet spans neither, so it is strictly smaller than the direct sum
    over its signature. The pair is the first i < j with Gamma_ij >= 1; returns
    None when Gamma is diagonal (the multiplicity-free case).
    """
    pairs = np.argwhere(np.triu(np.rint(character_gram(spaces, action).real), 1) >= 1)
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


def signature_roundtrip_exhaustive(spaces, tol: float = DEFAULT_TOL):
    """Check signature(direct_sum(omega)) == omega for every subset.

    Returns (ok, n_subsets). A passing round trip makes the subset-to-subspace
    map injective. Exponential in the number of spaces; capped at 12.
    """
    ids = [s.id for s in spaces]
    if len(ids) > 12:
        raise ValueError("exhaustive check is limited to 12 spaces")
    direct_sum(ids, spaces)  # raises ValueError unless the full sum is orthonormal
    w, starts = stacked_bases([s.space for s in spaces])
    meets = block_max_abs(w.conj().T @ w, starts, starts) > tol
    # row m is subset m; its direct sum meets exactly the spaces overlapping a member
    masks = (np.arange(2 ** len(ids))[:, None] >> np.arange(len(ids))) & 1
    ok = bool(np.array_equal(masks @ meets.T > 0, masks == 1))
    return ok, len(masks)
