import numpy as np
import pytest

from ginvspaces.decomposition import MinimalSpace, minimal_decomposition
from ginvspaces.errors import PropertyViolation
from ginvspaces.kernels import (
    KernelFamily,
    _stabilizer_residual,
    kernel_family,
    verify_kernel_properties,
)
from ginvspaces.linalg import Subspace, max_abs, orthonormalize, projector, subspace_equal
from ginvspaces.perm_action import (
    GroupAction,
    cyclic_generators,
    dihedral_generators,
    enumerate_group,
    group_from_spec,
    stabilizer,
    symmetric_generators,
)


def decompose(gens, seed=42):
    action = enumerate_group(gens)
    return action, minimal_decomposition(action, seed=seed)


def constants_space_of(spaces):
    return next(s for s in spaces if s.dim == 1 and max_abs(s.projector - s.projector[0, 0]) < 1e-9)


def test_constants_kernel_is_identically_one():
    action, spaces = decompose(symmetric_generators(3))
    const = constants_space_of(spaces)
    fam = kernel_family(const, action.n_points)
    assert max_abs(fam.matrix - np.ones((3, 3))) < 1e-12


def test_c4_character_kernels_match_dft_oracle():
    action, spaces = decompose(cyclic_generators(4))
    for j in range(4):
        chi = (1j) ** (j * np.arange(4))
        target = orthonormalize(chi[:, None].astype(complex))
        space = next(s for s in spaces if subspace_equal(s.space, target))
        fam = kernel_family(space, 4)
        expected = np.array([[(1j) ** (j * (y - x)) for x in range(4)] for y in range(4)])
        assert max_abs(fam.matrix - expected) < 1e-12


def test_rank_zero_space_gives_zero_family():
    zero = Subspace(3, np.zeros((3, 0), dtype=complex))
    ms = MinimalSpace(id=0, space=zero, eigenvalue=0.0)
    fam = kernel_family(ms, 3)
    assert max_abs(fam.matrix) == 0.0


@pytest.mark.parametrize(
    "gens",
    [symmetric_generators(3), cyclic_generators(6), dihedral_generators(4)],
    ids=["s3", "c6", "d4"],
)
def test_kernel_properties_hold(gens):
    action, spaces = decompose(gens)
    for s in spaces:
        fam = kernel_family(s, action.n_points)
        report = verify_kernel_properties(fam, s, action, seed=7 + s.id)
        assert report.max_residual <= 1e-9
        # trace oracle for the diagonal law
        assert report.diagonal_value == pytest.approx(np.trace(s.projector).real, abs=1e-9)
        assert report.diagonal_value == pytest.approx(s.dim, abs=1e-9)


def test_s3_two_dimensional_space_has_diagonal_two():
    action, spaces = decompose(symmetric_generators(3))
    std = next(s for s in spaces if s.dim == 2)
    fam = kernel_family(std, 3)
    report = verify_kernel_properties(fam, std, action, seed=3)
    assert report.diagonal_value == pytest.approx(2.0, abs=1e-9)


def test_kernel_equivariance_on_a_full_random_element():
    action, spaces = decompose(dihedral_generators(5))
    rng = np.random.default_rng(23)
    idx = int(rng.integers(action.order))
    img = action.images[idx]
    inv = np.argsort(img)
    for s in spaces:
        k = kernel_family(s, action.n_points).matrix
        assert max_abs(k[:, img] - k[inv, :]) < 1e-9


def test_kernel_membership_in_space():
    action, spaces = decompose(cyclic_generators(5))
    for s in spaces:
        k = kernel_family(s, action.n_points).matrix
        assert max_abs(k - s.projector @ k) <= 1e-9


def test_kernel_matrix_hermitian_to_machine_precision():
    action, spaces = decompose(dihedral_generators(6))
    for s in spaces:
        k = kernel_family(s, action.n_points).matrix
        assert max_abs(k - k.conj().T) <= 1e-12


def test_reproduction_formula_on_random_vectors():
    action, spaces = decompose(symmetric_generators(4))
    rng = np.random.default_rng(91)
    fs = rng.standard_normal((4, 50)) + 1j * rng.standard_normal((4, 50))
    for s in spaces:
        k = kernel_family(s, 4).matrix
        assert max_abs(s.projector @ fs - (k @ fs) / 4) <= 1e-9


def test_property_violation_raised_for_corrupted_family():
    action, spaces = decompose(symmetric_generators(3))
    s = spaces[0]
    bad = KernelFamily(space_id=s.id, matrix=kernel_family(s, 3).matrix + 1e-3)
    with pytest.raises(PropertyViolation) as err:
        verify_kernel_properties(bad, s, action, seed=1)
    assert err.value.residual > 1e-9


def test_family_with_a_column_outside_the_space_violates_membership():
    # C4 acts regularly, so every stabilizer is trivial; without generators and
    # random trials the only check a Hermitian change with an unchanged diagonal
    # can fail is membership. e = (1, 0, 1, 0) is orthogonal to the character
    # (1, i, -1, -i) / 2, and column 1 of K becomes nP[:, 1] + e.
    c4 = enumerate_group(cyclic_generators(4))
    space = MinimalSpace(id=0, space=orthonormalize(np.array([[1], [1j], [-1], [-1j]])),
                         eigenvalue=0.0)
    k = kernel_family(space, 4).matrix.copy()
    e = np.array([1.0, 0.0, 1.0, 0.0])
    k[:, 1] += e
    k[1, :] += e
    unpresented = GroupAction(4, [], c4.images)
    with pytest.raises(PropertyViolation) as err:
        verify_kernel_properties(KernelFamily(0, k), space, unpresented, trials=0)
    assert err.value.prop == "membership"
    assert err.value.residual == pytest.approx(max_abs(k - projector(space.space) @ k))


def test_kernel_family_shape_mismatch():
    _, spaces = decompose(symmetric_generators(3))
    with pytest.raises(ValueError):
        kernel_family(spaces[0], 5)


def stabilizer_residual_by_permutations(k, action, rng):
    """Oracle: the conjugated stabilizers composed as Permutation objects."""
    n = action.n_points
    members = stabilizer(action, 0).members
    col0 = k[:, 0]
    worst = max(max_abs(col0[action.images[e]] - col0) for e in members)
    if n > 1:
        for x in rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False):
            t = action.elements[int(np.nonzero(action.images[:, 0] == x)[0][0])]
            colx = k[:, int(x)]
            for e in members:
                conj = t.compose(action.elements[e]).compose(t.inverse())
                worst = max(worst, max_abs(colx[conj.images] - colx))
    return worst


@pytest.mark.parametrize(
    "spec", ["cyclic:1", "cyclic:6", "dihedral:5", "symmetric:4", "symmetric:5", "regular:symmetric:3"]
)
@pytest.mark.parametrize("seed", [0, 11])
def test_gathered_stabilizer_residual_matches_composed_permutations(spec, seed):
    action = group_from_spec(spec)
    n = action.n_points
    noise = np.random.default_rng(seed)
    k = noise.standard_normal((n, n)) + 1j * noise.standard_normal((n, n))
    got = _stabilizer_residual(k, action, np.random.default_rng(seed))
    assert got == stabilizer_residual_by_permutations(k, action, np.random.default_rng(seed))


def test_kernel_broken_only_away_from_point_0_violates_stabilizer_fixity():
    # u = (2, 1, 1, 1) / sqrt 7 spans a genuine space, not an invariant one:
    # column 0 of K = 4 u u^H is fixed by the stabilizer of 0, so only the
    # conjugated stabilizers at the drawn points 1..3 see it (4/7 off)
    s4 = enumerate_group(symmetric_generators(4))
    space = MinimalSpace(id=0, space=orthonormalize(np.array([[2.0], [1.0], [1.0], [1.0]])),
                         eigenvalue=0.0)
    k = kernel_family(space, 4).matrix
    members = stabilizer(s4, 0).members
    assert max_abs(k[:, 0][s4.images[list(members)]] - k[:, 0]) <= 1e-12
    # no generators, so the equivariance check that would also see it is empty
    unpresented = GroupAction(4, [], s4.images)
    with pytest.raises(PropertyViolation) as err:
        verify_kernel_properties(KernelFamily(space.id, k), space, unpresented, seed=5)
    assert err.value.prop == "4-stabilizer-fix"
    assert err.value.residual == pytest.approx(4 / 7)
