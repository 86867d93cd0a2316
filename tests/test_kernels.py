from dataclasses import replace

import numpy as np
import pytest

from ginvspaces.decomposition import (
    MinimalSpace,
    _invariance_residual,
    frame,
    minimal_decomposition,
)
from ginvspaces.errors import PropertyViolation
from ginvspaces.kernels import (
    KernelFamily,
    frame_kernel_properties,
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
    symmetric_generators,
)


def decompose(gens, seed=42):
    action = enumerate_group(gens)
    return action, minimal_decomposition(action, seed=seed)


def space_of(sub, action):
    """A hand-built space, with its certificate 2 max|P - mean(P)| read as the
    decomposition reads it."""
    certificate = _invariance_residual(projector(sub), action.orbital_labels)
    return MinimalSpace(id=0, space=sub, eigenvalue=0.0, certificate=certificate)


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
    ms = MinimalSpace(id=0, space=zero, eigenvalue=0.0, certificate=0.0)
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
        report = verify_kernel_properties(fam, s, action)
        assert report.max_residual <= 1e-9
        # trace oracle for the diagonal law
        assert report.diagonal_value == pytest.approx(np.trace(s.projector).real, abs=1e-9)
        assert report.diagonal_value == pytest.approx(s.dim, abs=1e-9)


def test_s3_two_dimensional_space_has_diagonal_two():
    action, spaces = decompose(symmetric_generators(3))
    std = next(s for s in spaces if s.dim == 2)
    fam = kernel_family(std, 3)
    report = verify_kernel_properties(fam, std, action)
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
        verify_kernel_properties(bad, s, action)
    assert err.value.residual > 1e-9


def test_family_changed_inside_the_commutant_violates_only_membership():
    # 4(P_a - P_b) for two other characters of C4 lies in the commutant, has a zero
    # diagonal and vanishes on the space, so the only identity it can break is
    # membership: K + 4(P_a - P_b) is Hermitian, invariant, reproduces the basis,
    # with diagonal 1
    c4 = enumerate_group(cyclic_generators(4))
    lines = [orthonormalize((1j ** (j * np.arange(4)))[:, None]) for j in range(3)]
    space = space_of(lines[1], c4)
    k = kernel_family(space, 4).matrix + 4 * (projector(lines[0]) - projector(lines[2]))
    with pytest.raises(PropertyViolation) as err:
        verify_kernel_properties(KernelFamily(0, k), space, c4)
    assert err.value.prop == "membership"
    assert err.value.residual == pytest.approx(max_abs(k - projector(space.space) @ k))
    report = verify_kernel_properties(KernelFamily(0, k), space, c4, tol=np.inf)
    assert report.max_residual == report.membership == pytest.approx(2.0)


@pytest.mark.parametrize("spec", ["symmetric:3", "symmetric:4", "regular:symmetric:3"])
def test_family_changed_only_inside_the_space_violates_reproduction(spec):
    # nP + eps V B V^H with B Hermitian keeps K Hermitian with columns in the space,
    # so symmetry and membership hold; only the basis reproduction can see it
    action = group_from_spec(spec)
    n, eps = action.n_points, 1e-6
    rng = np.random.default_rng(3)
    for s in minimal_decomposition(action, seed=42):
        if s.dim < 2:
            continue
        v = s.space.basis
        b = rng.standard_normal((s.dim, s.dim)) + 1j * rng.standard_normal((s.dim, s.dim))
        b = b + b.conj().T
        k = kernel_family(s, n).matrix + eps * v @ b @ v.conj().T
        with pytest.raises(PropertyViolation) as err:
            verify_kernel_properties(KernelFamily(s.id, k), s, action)
        assert err.value.prop == "2-reproduction"
        assert err.value.residual == pytest.approx(eps * max_abs(v @ b) / n, rel=1e-6)
        report = verify_kernel_properties(KernelFamily(s.id, k), s, action, tol=np.inf)
        assert max(report.symmetry, report.membership) <= 1e-12


def test_kernel_family_shape_mismatch():
    _, spaces = decompose(symmetric_generators(3))
    with pytest.raises(ValueError):
        kernel_family(spaces[0], 5)


def equivariance_by_every_element(k, action):
    """Oracle: max over every enumerated g of |K[g.x, g.y] - K[x, y]|."""
    return max(max_abs(k[np.ix_(g, g)] - k) for g in action.images)


def stabilizer_fix_by_permutations(k, action):
    """Oracle, one value per point x: max over the elements h fixing x, found among
    the enumerated `Permutation`s, of |K_x(h.y) - K_x(y)|."""
    return [
        max(max_abs(k[h.images, x] - k[:, x]) for h in action.elements if h.apply(x) == x)
        for x in range(action.n_points)
    ]


ACTIONS = ["cyclic:7", "dihedral:6", "symmetric:4", "regular:symmetric:3", "s6-pairs"]


@pytest.mark.parametrize("kind", ["kernel", "noise"])
@pytest.mark.parametrize("spec", ACTIONS)
def test_kernel_residuals_bound_every_element_and_every_point(perfbench, spec, kind):
    # the genuine kernel, or a Hermitian matrix with a positive diagonal far from
    # the commutant, read at a tol that lets every residual through
    action = group_from_spec(perfbench.workloads.s6_on_pairs(1) if spec == "s6-pairs" else spec)
    n = action.n_points
    noise = np.random.default_rng(5)
    a = noise.standard_normal((n, n)) + 1j * noise.standard_normal((n, n))
    for s in minimal_decomposition(action, seed=42):
        k = kernel_family(s, n).matrix if kind == "kernel" else a @ a.conj().T
        report = verify_kernel_properties(KernelFamily(s.id, k), s, action, tol=np.inf)
        assert report.equivariance >= equivariance_by_every_element(k, action)
        assert all(report.stabilizer_fix >= r for r in stabilizer_fix_by_permutations(k, action))
        assert (report.equivariance <= 1e-9) == (kind == "kernel")


def broken_away_from_point_0():
    """S4 without generators and K = 4 u u^H, u = (2, 1, 1, 1) / sqrt 7: column 0
    is fixed by the stabilizer of 0, and the other columns are not (4/7 off)."""
    s4 = enumerate_group(symmetric_generators(4))
    space = space_of(orthonormalize(np.array([[2.0], [1.0], [1.0], [1.0]])), s4)
    return GroupAction(4, [], s4.images), space, kernel_family(space, 4).matrix


def test_kernel_outside_the_commutant_fails_equivariance_without_generators():
    # no generator is read: the orbital mean of the diagonal (16, 4, 4, 4) / 7 is 1
    unpresented, space, k = broken_away_from_point_0()
    with pytest.raises(PropertyViolation) as err:
        verify_kernel_properties(KernelFamily(space.id, k), space, unpresented)
    assert err.value.prop == "3-equivariance"
    assert err.value.residual == pytest.approx(2 * (16 / 7 - 1))


def test_stabilizer_fixity_is_read_at_every_point():
    unpresented, space, k = broken_away_from_point_0()
    oracle = stabilizer_fix_by_permutations(k, unpresented)
    assert oracle == pytest.approx([0.0, 4 / 7, 4 / 7, 4 / 7], abs=1e-12)
    report = verify_kernel_properties(KernelFamily(space.id, k), space, unpresented, tol=np.inf)
    # column 1 holds (8, 4, 4, 4) / 7, and the stabilizer of 1 moves 0, 2, 3: mean 16/21
    assert report.stabilizer_fix == pytest.approx(2 * (8 / 7 - 16 / 21))


def test_stabilizer_fixity_fails_on_its_own_inside_the_equivariance_bound():
    # E has zero orbital means, so the equivariance residual is 2 max|E| = 0.9e-9;
    # the stabilizer of 0 moves 1, 2, 3, where column 0 of E holds (1, -1, -1) a
    # with mean -a/3, so stabilizer fixity reads 2 (4a/3) = 1.2e-9 > tol
    s4 = enumerate_group(symmetric_generators(4))
    space = space_of(orthonormalize(np.ones((4, 1))), s4)
    a = 0.45e-9
    e = np.zeros((4, 4))
    e[1, 0], e[2, 0], e[3, 0], e[2, 3] = 1, -1, -1, 1
    e = a * (e + e.T)
    k = kernel_family(space, 4).matrix + e
    with pytest.raises(PropertyViolation) as err:
        verify_kernel_properties(KernelFamily(0, k), space, s4)
    assert err.value.prop == "4-stabilizer-fix"
    assert err.value.residual == pytest.approx(8 * a / 3, rel=1e-6)


# every row but stabilizer fixity
MEASURED = ("symmetry", "reproduction", "equivariance", "diagonal_spread", "diagonal_dim_gap",
            "membership", "diagonal_value")
# the acceptance battery with its negative control, and three larger regular actions
AGREEMENT = (
    [f"regular:cyclic:{n}" for n in range(2, 13)]
    + ["symmetric:3", "symmetric:4"]
    + [f"dihedral:{n}" for n in range(3, 9)]
    + ["regular:symmetric:3", "regular:symmetric:5", "regular:dihedral:30", "regular:cyclic:48"]
)


@pytest.mark.parametrize("spec", AGREEMENT)
def test_frame_rows_agree_with_the_oracle(spec):
    # each row is the oracle's up to the --tol floor 16 n eps, except stabilizer fixity:
    # it reads the equivariance bound, which the oracle's 0 on a trivial stabilizer can
    # sit far below, and which rounding can put a few ulps under the oracle's row
    action = group_from_spec(spec)
    n = action.n_points
    rounding = 16 * n * np.finfo(float).eps
    spaces = minimal_decomposition(action, seed=42)
    for s, row in zip(spaces, frame_kernel_properties(spaces), strict=True):
        oracle = verify_kernel_properties(kernel_family(s, n), s, action)
        assert row.space_id == oracle.space_id == s.id and row.symmetry == 0.0
        for name in MEASURED:
            assert getattr(row, name) == pytest.approx(getattr(oracle, name), abs=rounding)
        assert row.stabilizer_fix == row.equivariance == n * s.certificate
        assert row.stabilizer_fix >= oracle.stabilizer_fix - rounding


def test_scaled_basis_fails_the_same_identity_in_both_readers():
    # (1 + delta) V passes Subspace's orthonormality tol, V^H V - I = 8e-10 I, but its
    # kernel diagonal (1 + delta)^2 d is 1.6e-9 off a plane's dimension
    action = group_from_spec("regular:symmetric:3")
    plane = next(s for s in minimal_decomposition(action, seed=42) if s.dim == 2)
    mutant = replace(plane, space=Subspace(6, (1 + 4e-10) * plane.space.basis))
    with pytest.raises(PropertyViolation) as read:
        frame_kernel_properties(frame([mutant], action))
    with pytest.raises(PropertyViolation) as oracle:
        verify_kernel_properties(kernel_family(mutant, 6), mutant, action)
    assert read.value.prop == oracle.value.prop == "5-diagonal"
    assert read.value.residual == pytest.approx(oracle.value.residual, rel=1e-6)
    assert read.value.residual == pytest.approx(1.6e-9, rel=1e-3)
    [row] = frame_kernel_properties(frame([mutant], action), tol=np.inf)
    report = verify_kernel_properties(kernel_family(mutant, 6), mutant, action, tol=np.inf)
    for name in ("reproduction", "diagonal_spread", "diagonal_dim_gap", "membership"):
        assert getattr(row, name) == pytest.approx(getattr(report, name), rel=1e-4, abs=1e-14)
    assert row.reproduction > 1e-10 and row.membership > 1e-10
