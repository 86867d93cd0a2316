import numpy as np
import pytest

from ginvspaces.errors import NotHermitian
from ginvspaces.linalg import (
    Subspace,
    block_max_abs,
    hermitian_eig,
    intersect,
    max_abs,
    mu_inner,
    orthonormalize,
    projector,
    subspace_equal,
)


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_subspace(n, r, rng):
    a = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    return orthonormalize(a)


def test_eig_identity():
    w, v = hermitian_eig(np.eye(3))
    assert np.allclose(w, [1, 1, 1])
    assert max_abs(v @ v.conj().T - np.eye(3)) < 1e-12


def test_eig_diagonal_ascending():
    w, _ = hermitian_eig(np.diag([2.0, -1.0]))
    assert np.allclose(w, [-1.0, 2.0])


def test_eig_2x2_closed_form():
    w, v = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    # eigenvectors defined up to phase
    assert abs(abs(np.vdot(v[:, 0], minus)) - 1.0) < 1e-12
    assert abs(abs(np.vdot(v[:, 1], plus)) - 1.0) < 1e-12


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        hermitian_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("n", [2, 7, 40, 200])
def test_eig_residual_on_random_hermitian(n):
    rng = np.random.default_rng(n)
    m = random_hermitian(n, rng)
    w, v = hermitian_eig(m)
    resid = max_abs(m - v @ np.diag(w) @ v.conj().T)
    assert resid <= 1e-10 * max(1.0, max_abs(m))
    assert max_abs(v.conj().T @ v - np.eye(n)) < 1e-12
    assert np.all(np.diff(w) >= 0)


def test_orthonormalize_collinear_columns():
    s = orthonormalize(np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex))
    assert s.rank == 1
    assert abs(abs(s.basis[0, 0]) - 1.0) < 1e-12


def test_orthonormalize_empty():
    s = orthonormalize(np.zeros((4, 0), dtype=complex))
    assert s.rank == 0
    assert projector(s).shape == (4, 4)
    assert max_abs(projector(s)) == 0.0


def test_orthonormalize_rank_matches_gram_determinant():
    cols = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    # Gram determinant oracle: det > 0 means full rank 2
    gram = cols.conj().T @ cols
    assert abs(np.linalg.det(gram)) > 1e-9
    s = orthonormalize(cols)
    assert s.rank == 2
    assert max_abs(s.basis.conj().T @ s.basis - np.eye(2)) < 1e-12


def test_orthonormalize_is_span_preserving_and_idempotent():
    rng = np.random.default_rng(5)
    v = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    s = orthonormalize(v)
    p = projector(s)
    assert max_abs(v - p @ v) < 1e-10
    again = orthonormalize(s.basis)
    assert subspace_equal(s, again)


@pytest.mark.parametrize(
    "n,rank,cols,scale",
    [(8, 3, 5, 1.0), (8, 3, 40, 1.0), (5, 5, 12, 1.0), (6, 1, 2, 1.0), (8, 3, 40, 1e6)],
)
def test_orthonormalize_rank_deficient_input(n, rank, cols, scale):
    rng = np.random.default_rng(n * 100 + cols)
    factor = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    mix = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    # at scale 1e6 the rounding noise of the product exceeds tol in absolute terms
    s = orthonormalize(scale * factor @ mix)
    assert s.rank == rank
    q, _ = np.linalg.qr(factor)
    assert max_abs(projector(s) - q @ q.conj().T) < 1e-10


@pytest.mark.parametrize("scale", [1e-12, 1e6])
def test_orthonormalize_scaled_columns(scale):
    rng = np.random.default_rng(9)
    base = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    extra = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
    mixed = orthonormalize(np.concatenate([base, scale * extra], axis=1))
    uniform = orthonormalize(scale * base)
    if scale < 1:
        # below tol in absolute terms, as Gram-Schmidt treated it: a zero column
        assert subspace_equal(mixed, orthonormalize(base))
        assert uniform.rank == 0
    else:
        assert subspace_equal(mixed, orthonormalize(np.concatenate([base, extra], axis=1)))
        assert subspace_equal(uniform, orthonormalize(base))
    assert max_abs(mixed.basis.conj().T @ mixed.basis - np.eye(mixed.rank)) < 1e-12


def test_block_max_abs():
    rng = np.random.default_rng(2)
    starts = [0, 1, 4]
    m = rng.standard_normal((2, 6, 6)) + 1j * rng.standard_normal((2, 6, 6))
    blocks = block_max_abs(m, starts, starts)
    cuts = [0, 1, 4, 6]
    for t in range(2):
        for i in range(3):
            for j in range(3):
                block = m[t, cuts[i]:cuts[i + 1], cuts[j]:cuts[j + 1]]
                assert blocks[t, i, j] == max_abs(block)


def test_intersect_coordinate_planes():
    e = np.eye(3, dtype=complex)
    a = Subspace(3, e[:, [0, 1]])
    b = Subspace(3, e[:, [1, 2]])
    got = intersect(a, b)
    assert got.rank == 1
    assert subspace_equal(got, Subspace(3, e[:, [1]]))


def test_intersect_idempotent():
    rng = np.random.default_rng(11)
    a = random_subspace(5, 2, rng)
    assert subspace_equal(intersect(a, a), a)


def test_intersect_transverse_lines():
    diag = Subspace(2, np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2))
    e1 = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
    # angle oracle: |<u, v>| = 1/sqrt(2) < 1, so the lines meet only at 0
    cos = abs(np.vdot(diag.basis[:, 0], e1.basis[:, 0]))
    assert cos < 1 - 1e-6
    assert intersect(diag, e1).rank == 0


def test_intersect_contained_in_both():
    rng = np.random.default_rng(21)
    a = random_subspace(8, 5, rng)
    b = random_subspace(8, 6, rng)
    cap = intersect(a, b)
    pc = projector(cap)
    assert max_abs(projector(a) @ pc - pc) < 1e-9
    assert max_abs(projector(b) @ pc - pc) < 1e-9


def test_subspace_equal_cases():
    rng = np.random.default_rng(3)
    a = random_subspace(4, 2, rng)
    assert subspace_equal(a, a)
    e = np.eye(2, dtype=complex)
    assert not subspace_equal(Subspace(2, e[:, [0]]), Subspace(2, e[:, [1]]))


def test_subspace_equal_near_identical_lines():
    v = np.array([[1.0], [1e-13]], dtype=complex)
    v = v / np.linalg.norm(v)
    a = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
    b = Subspace(2, v)
    # projector-difference oracle
    assert max_abs(projector(a) - projector(b)) < 1e-9
    assert subspace_equal(a, b, tol=1e-9)


def test_projector_examples():
    full = Subspace(2, np.eye(2, dtype=complex))
    assert max_abs(projector(full) - np.eye(2)) < 1e-12
    zero = Subspace(3, np.zeros((3, 0), dtype=complex))
    assert max_abs(projector(zero)) == 0.0
    diag = Subspace(2, np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2))
    assert max_abs(projector(diag) - 0.5 * np.ones((2, 2))) < 1e-12


def test_projector_idempotent_hermitian():
    rng = np.random.default_rng(9)
    s = random_subspace(7, 3, rng)
    p = projector(s)
    assert max_abs(p @ p - p) < 1e-10
    assert max_abs(p - p.conj().T) < 1e-10


def test_subspace_validation():
    with pytest.raises(ValueError):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        Subspace(3, np.eye(2, dtype=complex))


def test_mu_inner_uniform_weight():
    ones = np.ones(4)
    assert mu_inner(ones, ones) == pytest.approx(1.0)
    f = np.array([2.0, 0.0, 0.0, 0.0])
    assert mu_inner(f, ones) == pytest.approx(0.5)
