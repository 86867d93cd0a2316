"""Dense complex linear algebra for the rest of the package.

Subspaces are stored as plainly orthonormal column families. Because the
function-space inner product carries the uniform weight 1/n, and that weight
is a scalar multiple of the identity, orthogonal projectors, complements and
intersections coincide with their unweighted counterparts; the weight only
resurfaces in kernel normalization and in reported inner-product values.
Bases are orthonormalized by one thin SVD, and products with a stacked basis
W = [V_1 ... V_k] (`decomposition.Frame`) are reduced block by block.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitian

DEFAULT_TOL = 1e-9
# Eigenvalues closer than this (scaled by max(1, |m|)) are treated as one cluster.
EIG_CLUSTER_TOL = 1e-7


def max_abs(m) -> float:
    """Entrywise max-abs norm; 0 for empty arrays. The residual norm used throughout."""
    a = np.asarray(m)
    return float(np.max(np.abs(a))) if a.size else 0.0


def mu_inner(f, g) -> complex:
    """Inner product of functions on n points under the uniform probability weight."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    return complex(np.vdot(g, f) / f.shape[0])


def mu_norm(f) -> float:
    """Norm induced by `mu_inner`."""
    return float(np.sqrt(abs(mu_inner(f, f))))


def check_finite(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def hermitian_eig(m, tol: float = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Returns (eigenvalues, eigenvectors) with unitary eigenvector columns.
    """
    a = check_finite(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("hermitian_eig requires a square matrix")
    if max_abs(a - a.conj().T) > tol * max(1.0, max_abs(a)):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    return w, v


class Subspace:
    """Subspace of C^ambient_dim spanned by orthonormal basis columns."""

    __slots__ = ("ambient_dim", "basis", "tol")

    def __init__(self, ambient_dim: int, basis, tol: float = DEFAULT_TOL) -> None:
        b = check_finite(basis)
        if b.ndim != 2 or b.shape[0] != ambient_dim:
            raise ValueError("basis must be a 2-d array with ambient_dim rows")
        if b.shape[1] > ambient_dim:
            raise ValueError("rank cannot exceed the ambient dimension")
        gram = b.conj().T @ b
        if max_abs(gram - np.eye(b.shape[1])) > tol:
            raise ValueError("basis columns are not orthonormal within tolerance")
        b.setflags(write=False)
        self.ambient_dim = int(ambient_dim)
        self.basis = b
        self.tol = float(tol)

    @property
    def rank(self) -> int:
        return int(self.basis.shape[1])

    def __repr__(self) -> str:
        return f"Subspace(ambient_dim={self.ambient_dim}, rank={self.rank})"


def orthonormalize(vectors, tol: float = DEFAULT_TOL) -> Subspace:
    """Span-preserving orthonormal basis of the given columns.

    One thin SVD: the left singular vectors whose singular values exceed
    tol * max(1, largest singular value) span the columns' numerical range.
    """
    v = check_finite(vectors)
    if v.ndim != 2:
        raise ValueError("expected a 2-d array of column vectors")
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    return Subspace(v.shape[0], u[:, s > tol * max(1.0, s.max(initial=0.0))], tol)


def block_max_abs(m, row_starts, col_starts) -> np.ndarray:
    """Max-abs of each block of the trailing two axes, cut at the given starts."""
    rows = np.maximum.reduceat(np.abs(m), row_starts, axis=-2)
    return np.maximum.reduceat(rows, col_starts, axis=-1)


def bin_sums(bins, values, size: int) -> np.ndarray:
    """Complex sums of the values falling in each of the integer bins 0..size-1."""
    v = values.ravel()
    return np.bincount(bins, v.real, size) + 1j * np.bincount(bins, v.imag, size)


def projector(s: Subspace) -> np.ndarray:
    """Orthogonal projector onto the subspace."""
    return s.basis @ s.basis.conj().T


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, read off the eigenvalue-1 eigenspace of P_a P_b P_a."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    tol = max(a.tol, b.tol)
    if a.rank == 0 or b.rank == 0:
        return Subspace(a.ambient_dim, np.zeros((a.ambient_dim, 0), dtype=complex), tol)
    m = projector(a) @ projector(b) @ projector(a)
    w, v = hermitian_eig(m, tol)
    keep = w >= 1.0 - tol
    return Subspace(a.ambient_dim, v[:, keep], tol)


def subspace_equal(a: Subspace, b: Subspace, tol: float = DEFAULT_TOL) -> bool:
    """Equal ranks and projectors within tol."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    return a.rank == b.rank and max_abs(projector(a) - projector(b)) <= tol
