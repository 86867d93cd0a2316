"""Reproducing kernels of minimal invariant spaces and their verification.

Under the uniform-probability inner product the kernel of point evaluation of
the projection is K_x(y) = n * P[y, x]: the projector rescaled by the number
of points. The identities are Hermitian symmetry, reproduction, equivariance,
stabilizer fixity, a constant positive diagonal (the trace forces it to equal
the space dimension), and membership, K = P K.

`frame_kernel_properties`, the pipeline's reader, takes each space's basis V and
certificate, O(n d^2) with no n x n array. With E = V^H V - I: symmetry is 0, as
K = n V V^H is Hermitian by construction; reproduction, linear in f, is read on
the basis, K V / n - V = V E; and K_xx = n ||V[x, :]||^2. Three rows are bounds:
equivariance and stabilizer fixity read n times the certificate 2 max|P - mean(P)|,
which bounds |K(g.x, g.y) - K(x, y)| over every g, and membership,
K - P K = -n V E V^H, reads max_x ||(V E)[x, :]|| sqrt(n max K_yy) (Cauchy-Schwarz).
The oracle, `verify_kernel_properties`, reads an explicit kernel matrix in O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import Frame, MinimalSpace, _invariance_residual
from .errors import PropertyViolation
from .linalg import DEFAULT_TOL, bin_sums, max_abs
from .perm_action import GroupAction


@dataclass(frozen=True)
class KernelFamily:
    """Column x holds the kernel vector of point x: matrix[y, x] = K_x(y)."""

    space_id: int
    matrix: np.ndarray


@dataclass(frozen=True)
class KernelPropertyReport:
    space_id: int
    symmetry: float
    reproduction: float
    equivariance: float
    stabilizer_fix: float
    diagonal_spread: float
    diagonal_dim_gap: float
    membership: float
    diagonal_value: float

    @property
    def max_residual(self) -> float:
        return max(
            self.symmetry,
            self.reproduction,
            self.equivariance,
            self.stabilizer_fix,
            self.diagonal_spread,
            self.diagonal_dim_gap,
            self.membership,
        )


def kernel_family(space: MinimalSpace, n_points: int) -> KernelFamily:
    """Kernels of the projection onto the space, scaled for the 1/n weight."""
    if space.space.ambient_dim != n_points:
        raise ValueError("projector shape does not match the point count")
    return KernelFamily(space_id=space.id, matrix=n_points * space.projector)


def verify_kernel_properties(
    family: KernelFamily,
    space: MinimalSpace,
    action: GroupAction,
    tol: float = DEFAULT_TOL,
) -> KernelPropertyReport:
    """Residuals for the five kernel identities plus membership in the space.

    Raises PropertyViolation naming the first identity whose residual exceeds tol.
    """
    k = family.matrix
    v = space.space.basis  # P X is computed as V (V^H X)
    n = action.n_points

    symmetry = max_abs(k - k.conj().T)
    reproduction = max_abs(k @ v / n - v)

    labels = action.orbital_labels
    equivariance = _invariance_residual(k, labels)
    # (y, x) and (y', x) share a label iff some h fixing x carries y to y': column x's
    # classes are its stabilizer's orbits, |orbital| / n points each; lone points are fixed
    size = np.bincount(labels[:, 0])
    shared = size[labels] > 1
    classes = (labels + size.size * np.arange(n))[shared]
    means = bin_sums(classes, k[shared], size.size * n).reshape(n, -1) / size
    stabilizer_fix = 2 * max_abs(k[shared] - means.ravel()[classes])

    membership = max_abs(k - v @ (v.conj().T @ k))
    return _checked_report(family.space_id, space.dim, np.diagonal(k), tol, symmetry,
                           reproduction, equivariance, stabilizer_fix, membership)


def frame_kernel_properties(spaces: Frame, tol: float = DEFAULT_TOL) -> list:
    """`verify_kernel_properties`' report for every space of a certified decomposition,
    read off its basis and certificate as the module docstring says, with the same
    PropertyViolation checks."""
    reports = []
    for s in spaces:
        v = s.space.basis
        n = v.shape[0]
        ve = v @ (v.conj().T @ v - np.eye(s.dim))  # K V / n - V
        diag = n * np.sum(np.abs(v) ** 2, axis=1)  # K_xx
        membership = float(np.sqrt(np.sum(np.abs(ve) ** 2, axis=1).max() * n * diag.max()))
        bound = n * s.certificate
        reports.append(
            _checked_report(s.id, s.dim, diag, tol, 0.0, max_abs(ve), bound, bound, membership)
        )
    return reports


def _checked_report(space_id, dim, diag, tol, symmetry, reproduction, equivariance,
                    stabilizer_fix, membership) -> KernelPropertyReport:
    """The report of the identity rows and the kernel diagonal, after PropertyViolation
    names the first identity past tol, or else a nonpositive diagonal."""
    diagonal_spread = float(max_abs(diag - diag.mean())) if diag.size else 0.0
    diagonal_dim_gap = float(max_abs(diag - dim)) if dim > 0 else float(max_abs(diag))
    report = KernelPropertyReport(
        space_id=space_id,
        symmetry=symmetry,
        reproduction=reproduction,
        equivariance=equivariance,
        stabilizer_fix=stabilizer_fix,
        diagonal_spread=diagonal_spread,
        diagonal_dim_gap=diagonal_dim_gap,
        membership=membership,
        diagonal_value=float(diag.real.mean()) if diag.size else 0.0,
    )
    checks = [
        ("1-symmetry", symmetry),
        ("2-reproduction", reproduction),
        ("3-equivariance", equivariance),
        ("4-stabilizer-fix", stabilizer_fix),
        ("5-diagonal", max(diagonal_spread, diagonal_dim_gap)),
        ("membership", membership),
    ]
    for name, residual in checks:
        if residual > tol:
            raise PropertyViolation(name, residual)
    if dim > 0 and float(diag.real.min()) <= 0.0:
        raise PropertyViolation("5-positivity", float(diag.real.min()))
    return report
