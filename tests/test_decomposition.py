import functools
import json
import sys
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ginvspaces import cli, decomposition, kernels
from ginvspaces.decomposition import (
    Frame,
    MinimalSpace,
    VERDICT_G_COLLECTION,
    VERDICT_NOT_UNIQUE,
    build_report,
    character_gram,
    check_star,
    commutant_basis,
    completeness_residual,
    first_support_index,
    frame,
    h_space,
    is_minimal,
    minimal_decomposition,
    multiplicity_free,
    orthogonality_residual,
    random_commutant_element,
    rep_operators,
)
from ginvspaces.errors import InternalInconsistency, NotTransitive
from ginvspaces.invariant_subspaces import direct_sum
from ginvspaces.linalg import (
    Subspace,
    intersect,
    max_abs,
    mu_inner,
    orthonormalize,
    projector,
    subspace_equal,
)
from ginvspaces.perm_action import (
    Permutation,
    cyclic_generators,
    dihedral_generators,
    enumerate_group,
    group_from_spec,
    is_transitive,
    regular_action,
    symmetric_generators,
)


def make(gens):
    return enumerate_group(gens)


def s3_natural():
    return make(symmetric_generators(3))


def s3_regular():
    return regular_action(s3_natural())


def equivariance_by_every_element(p, action):
    """Oracle: max over every enumerated g of |L_g P - P L_g|, by index gathers."""
    return max(max_abs(p[g, :] - p[:, np.argsort(g)]) for g in action.images)


def character_space(n, j):
    """DFT oracle: the character x -> omega^(j x) of the cyclic translation action."""
    chi = np.exp(2j * np.pi * j * np.arange(n) / n)
    return orthonormalize(chi[:, None])


def dense_operator(action, i):
    m = np.zeros((action.n_points, action.n_points))
    m[np.arange(action.n_points), action.images[i]] = 1.0
    return m


# -- rep operators ------------------------------------------------------------


def test_rep_operator_identity_and_swap():
    c2 = make(cyclic_generators(2))
    ops = rep_operators(c2)
    assert np.array_equal(ops[0].matrix, np.eye(2))
    assert np.array_equal(ops[1].matrix, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_rep_operators_contravariant():
    s3 = s3_natural()
    ops = {op.element_index: op.matrix for op in rep_operators(s3)}
    a = s3.element_index(Permutation([1, 0, 2]))
    b = s3.element_index(Permutation([1, 2, 0]))
    # direct matrix multiply oracle: L_a L_b equals the operator of b after a
    prod_index = s3.element_index(s3.elements[b].compose(s3.elements[a]))
    assert max_abs(ops[a] @ ops[b] - ops[prod_index]) == 0.0


def test_adjoint_identity_under_weighted_inner_product():
    s3 = s3_natural()
    rng = np.random.default_rng(17)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    for gen in s3.generators:
        lf = f[gen.images]
        g_back = g[gen.inverse().images]
        assert abs(mu_inner(lf, g) - mu_inner(f, g_back)) < 1e-13


# -- commutant ----------------------------------------------------------------


def commutant_dimension_oracle(action):
    """Nullspace oracle: solve A L = L A for all generators via kron systems."""
    n = action.n_points
    blocks = []
    for g in action.generators:
        lmat = np.zeros((n, n))
        lmat[np.arange(n), g.images] = 1.0
        blocks.append(np.kron(np.eye(n), lmat) - np.kron(lmat.T, np.eye(n)))
    stacked = np.vstack(blocks)
    s = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(s < 1e-9))


def test_commutant_basis_c2_regular():
    c2 = make(cyclic_generators(2))
    mats = commutant_basis(c2)
    assert np.array_equal(mats[0], np.eye(2))
    assert np.array_equal(mats[1], np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_commutant_basis_s3_natural():
    mats = commutant_basis(s3_natural())
    j = np.ones((3, 3))
    assert np.array_equal(mats[0], np.eye(3))
    assert np.array_equal(mats[1], j - np.eye(3))


@pytest.mark.parametrize(
    "gens",
    [symmetric_generators(3), dihedral_generators(5), cyclic_generators(6)],
    ids=["s3", "d5", "c6"],
)
def test_commutant_basis_commutes_and_spans(gens):
    action = make(gens)
    mats = commutant_basis(action)
    for op in rep_operators(action):
        for a in mats:
            assert max_abs(op.matrix @ a - a @ op.matrix) <= 1e-12
    assert len(mats) == commutant_dimension_oracle(action)


def test_commutant_requires_transitive():
    with pytest.raises(NotTransitive):
        commutant_basis(make([Permutation([1, 0, 2])]))


def test_random_commutant_element_is_hermitian_and_commutes():
    action = make(dihedral_generators(4))
    m = random_commutant_element(commutant_basis(action), seed=2)
    assert max_abs(m - m.conj().T) == 0.0
    for op in rep_operators(action):
        assert max_abs(op.matrix @ m - m @ op.matrix) <= 1e-12


def test_random_commutant_element_trivial_basis():
    m = random_commutant_element([np.eye(3)], seed=5)
    off = m - np.diag(np.diagonal(m))
    assert max_abs(off) == 0.0
    assert np.allclose(np.diagonal(m), m[0, 0])


# -- minimal decomposition ----------------------------------------------------


def test_trivial_group_single_space():
    action = make([Permutation.identity(1)])
    spaces = minimal_decomposition(action, seed=1)
    assert len(spaces) == 1
    assert spaces[0].dim == 1


def test_c3_spaces_match_dft_characters():
    c3 = make(cyclic_generators(3))
    spaces = minimal_decomposition(c3, seed=42)
    assert [s.dim for s in spaces] == [1, 1, 1]
    expected = [character_space(3, j) for j in range(3)]
    for s in spaces:
        assert sum(subspace_equal(s.space, e) for e in expected) == 1
    # every character is hit exactly once
    for e in expected:
        assert sum(subspace_equal(s.space, e) for s in spaces) == 1


def test_s3_natural_constants_and_sum_zero():
    spaces = minimal_decomposition(s3_natural(), seed=42)
    assert [s.dim for s in spaces] == [1, 2]
    constants = orthonormalize(np.ones((3, 1), dtype=complex))
    sum_zero = orthonormalize(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], dtype=complex))
    assert subspace_equal(spaces[0].space, constants)
    assert subspace_equal(spaces[1].space, sum_zero)


@pytest.mark.parametrize(
    "gens",
    [cyclic_generators(7), dihedral_generators(6), symmetric_generators(4)],
    ids=["c7", "d6", "s4"],
)
def test_decomposition_invariants(gens):
    action = make(gens)
    spaces = minimal_decomposition(action, seed=42)
    assert sum(s.dim for s in spaces) == action.n_points
    assert completeness_residual(spaces, action.n_points) <= 1e-9
    assert orthogonality_residual(spaces) <= 1e-9
    assert max(equivariance_by_every_element(s.projector, action) for s in spaces) <= 1e-9


def test_decomposition_deterministic_for_fixed_seed():
    d6 = make(dihedral_generators(6))
    a = minimal_decomposition(d6, seed=9)
    b = minimal_decomposition(d6, seed=9)
    for x, y in zip(a, b):
        assert np.array_equal(x.projector, y.projector)


@pytest.mark.parametrize("seed", [3072, 8125])
def test_projectors_lie_in_the_commutant_within_tol_over_2n(seed):
    # at these seeds a cluster's projector once commuted with the generators
    # to 2e-11 while its kernel nP broke equivariance or the diagonal by 1e-9
    action = group_from_spec("regular:cyclic:48")
    n = action.n_points
    for s in minimal_decomposition(action, seed=seed):
        p = s.projector
        group_mean = sum(p[np.ix_(g, g)] for g in action.images) / action.order
        assert 2 * n * max_abs(p - group_mean) <= 1e-9


def test_decomposition_retains_only_the_bases():
    action = group_from_spec("regular:cyclic:120")
    action.orbital_labels  # cached on the action, not part of the decomposition
    tracemalloc.start()
    try:
        spaces = minimal_decomposition(action)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(spaces) == 120
    # one 120 x 120 complex projector alone is 230 kB; 120 of them are 28 MB
    assert retained < 4 * 2**20


@pytest.mark.parametrize(
    "gens",
    [cyclic_generators(8), dihedral_generators(5), symmetric_generators(4)],
    ids=["c8", "d5", "s4"],
)
def test_seed_independence_when_multiplicity_free(gens):
    action = make(gens)
    assert multiplicity_free(action)
    a = minimal_decomposition(action, seed=3)
    b = minimal_decomposition(action, seed=12345)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert subspace_equal(x.space, y.space)


# -- minimality certificate ---------------------------------------------------


def intertwiner_dimension_bruteforce(p, action):
    """Oracle: average the full matrix-unit basis over the group with dense
    operators and count the independent results."""
    n = action.n_points
    dense = [dense_operator(action, i) for i in range(action.order)]
    rows = []
    for x in range(n):
        for y in range(n):
            unit = np.zeros((n, n))
            unit[x, y] = 1.0
            t = sum(
                np.linalg.inv(l) @ p @ unit @ p @ l for l in dense
            ) / action.order
            rows.append(t.ravel())
    s = np.linalg.svd(np.stack(rows), compute_uv=False)
    return int(np.sum(s > 1e-9 * max(1.0, s[0])))


def test_one_dimensional_invariant_space_is_minimal():
    c2 = make(cyclic_generators(2))
    constants = orthonormalize(np.ones((2, 1), dtype=complex))
    ms = MinimalSpace(id=0, space=constants, eigenvalue=0.0, certificate=0.0)
    assert is_minimal(ms, c2)


def test_full_space_of_c2_is_not_minimal():
    c2 = make(cyclic_generators(2))
    full = Subspace(2, np.eye(2, dtype=complex))
    ms = MinimalSpace(id=0, space=full, eigenvalue=0.0, certificate=0.0)
    assert not is_minimal(ms, c2)


def test_s3_standard_space_minimal_with_bruteforce_oracle():
    s3 = s3_natural()
    spaces = minimal_decomposition(s3, seed=42)
    std = spaces[1]
    assert std.dim == 2
    assert is_minimal(std, s3)
    assert intertwiner_dimension_bruteforce(std.projector, s3) == 1
    full = Subspace(3, np.eye(3, dtype=complex))
    assert intertwiner_dimension_bruteforce(projector(full), s3) == 2


# -- multiplicity and star ----------------------------------------------------


def test_multiplicity_free_cases():
    assert multiplicity_free(make(cyclic_generators(5)))
    assert multiplicity_free(s3_natural())
    assert not multiplicity_free(s3_regular())


def test_h_space_regular_action_is_full():
    c4 = make(cyclic_generators(4))
    hx = h_space(c4, 2)
    assert hx.rank == 4


def test_h_space_s3_natural():
    s3 = s3_natural()
    h0 = h_space(s3, 0)
    assert h0.rank == 2
    expected = orthonormalize(
        np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], dtype=complex)
    )
    assert subspace_equal(h0, expected)


def test_h_space_full_symmetric_group_dim_2():
    s5 = make(symmetric_generators(5))
    for x in range(5):
        assert h_space(s5, x).rank == 2


def test_check_star_cyclic_all_ones():
    c6 = make(cyclic_generators(6))
    spaces = minimal_decomposition(c6, seed=42)
    table = check_star(spaces, c6)
    assert (table == 1).all()


def test_check_star_s3_natural_with_explicit_intersection():
    s3 = s3_natural()
    spaces = minimal_decomposition(s3, seed=42)
    table = check_star(spaces, s3)
    assert (table == 1).all()
    # oracle at x=0 for the 2-dim space: vectors (a, b, b) with a + 2b = 0
    witness = np.array([[-2.0], [1.0], [1.0]], dtype=complex)
    cap = orthonormalize(witness)
    p1 = spaces[1].projector
    assert max_abs(p1 @ cap.basis - cap.basis) < 1e-9


def test_check_star_s3_regular_entries_two():
    reg = s3_regular()
    spaces = minimal_decomposition(reg, seed=42)
    table = check_star(spaces, reg)
    # H(x) is the full space, so each entry is the space dimension
    for i, s in enumerate(spaces):
        assert (table[i] == s.dim).all()
    assert (table == 2).any()


# -- reports ------------------------------------------------------------------


def test_build_report_s3_natural():
    report = build_report(s3_natural(), seed=42)
    assert report.verdict == VERDICT_G_COLLECTION
    assert report.dims == (1, 2)
    assert report.star_all_ones
    assert report.completeness_residual <= 1e-9
    assert report.orthogonality_residual <= 1e-9
    assert report.equivariance_residual <= 1e-9


def test_build_report_s3_regular():
    report = build_report(s3_regular(), seed=42)
    assert report.verdict == VERDICT_NOT_UNIQUE
    assert not report.multiplicity_free
    assert not report.star_all_ones


def test_build_report_c12_matches_dft():
    c12 = make(cyclic_generators(12))
    report = build_report(c12, seed=42)
    assert report.verdict == VERDICT_G_COLLECTION
    assert report.dims == tuple([1] * 12)
    expected = [character_space(12, j) for j in range(12)]
    for s in report.spaces:
        assert sum(subspace_equal(s.space, e) for e in expected) == 1


def test_report_verdict_consistent_with_fields():
    for action in [s3_natural(), s3_regular(), make(cyclic_generators(4))]:
        report = build_report(action, seed=42)
        if report.verdict == VERDICT_G_COLLECTION:
            assert report.multiplicity_free and report.star_all_ones
        elif report.verdict == VERDICT_NOT_UNIQUE:
            assert not report.multiplicity_free
        else:
            assert report.multiplicity_free and not report.star_all_ones


# -- commutant-first algebra against brute-force oracles ----------------------

BATTERY = (
    [f"regular:cyclic:{n}" for n in range(2, 13)]
    + ["symmetric:3", "symmetric:4"]
    + [f"dihedral:{n}" for n in range(3, 9)]
    + ["regular:symmetric:3"]
)


def star_table_by_intersection(spaces, action):
    """Oracle: dim(H_i intersect H(x)) from an explicit eigensolve per entry."""
    return np.array(
        [[intersect(s.space, h_space(action, x)).rank for x in range(action.n_points)]
         for s in spaces]
    )


@pytest.mark.parametrize("spec", BATTERY + ["regular:symmetric:4", "regular:dihedral:7"])
def test_check_star_matches_intersection_oracle(spec):
    action = group_from_spec(spec)
    spaces = minimal_decomposition(action, seed=42)
    table = check_star(spaces, action)
    assert table.dtype.kind == "i"
    assert np.array_equal(table, star_table_by_intersection(spaces, action))


def star_table_by_h_space_traces(spaces, action):
    """Oracle: the trace ||V_i^H B_x||_F^2 with B_x from `h_space`'s stabilizer scan."""
    bases = [h_space(action, x).basis for x in range(action.n_points)]
    return np.array(
        [[np.rint(np.sum(np.abs(s.space.basis.conj().T @ b) ** 2)) for b in bases] for s in spaces],
        dtype=int,
    )


@pytest.mark.parametrize(
    "spec", ["symmetric:6", "s6-pairs", "regular:cyclic:48", "regular:dihedral:12",
             "regular:symmetric:5"]
)
def test_check_star_matches_h_space_traces_past_the_battery(perfbench, spec):
    if spec == "s6-pairs":
        spec = perfbench.workloads.s6_on_pairs(1000)
    action = group_from_spec(spec)
    spaces = minimal_decomposition(action, seed=42)
    assert np.array_equal(check_star(spaces, action), star_table_by_h_space_traces(spaces, action))


def test_certificate_rejects_a_space_whose_star_trace_moves_between_points():
    # u = (e1 + e2)/sqrt(2) on S3 natural lies in H(0) but not in H(1): the
    # per-point traces read 1 and 0.75, so column 0 alone would miss it. Its
    # projector is far from the commutant, so it never reaches check_star.
    action = s3_natural()
    u = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
    traces = [np.sum(np.abs(u @ h_space(action, x).basis) ** 2) for x in range(3)]
    assert traces == pytest.approx([1.0, 0.75, 0.75], abs=1e-12)
    p = np.outer(u, u).astype(complex)
    mean = decomposition._orbital_mean(p, action.orbital_labels)
    certificate = 2 * action.n_points * max_abs(p - mean)
    assert certificate == pytest.approx(2.0)
    assert certificate > 1e8 * 1e-9


def compare_full_projectors(a, b, tol=1e-7):
    """Oracle: dimension, first support, then the first entry of the raveled
    projector difference beyond tol, then eigenvalue."""
    if a.dim != b.dim:
        return -1 if a.dim < b.dim else 1
    fa, fb = first_support_index(a.projector), first_support_index(b.projector)
    if fa != fb:
        return -1 if fa < fb else 1
    d = (a.projector - b.projector).ravel()
    parts = np.stack([d.real, d.imag], axis=1).ravel()
    hits = np.nonzero(np.abs(parts) > tol)[0]
    if hits.size:
        return 1 if parts[hits[0]] > 0 else -1
    if a.eigenvalue != b.eigenvalue:
        return -1 if a.eigenvalue < b.eigenvalue else 1
    return 0


@pytest.mark.parametrize(
    "spec",
    BATTERY + ["regular:cyclic:48", "regular:dihedral:12", "regular:cyclic:60",
               "regular:dihedral:30", "regular:symmetric:5"],
)
def test_canonical_order_matches_full_projector_comparator(spec):
    action = group_from_spec(spec)
    for seed in (42, 1000):
        spaces = minimal_decomposition(action, seed=seed)
        assert all(first_support_index(s.projector) == 0 for s in spaces)
        assert all(first_support_index(s.space.basis.T) == 0 for s in spaces)
        resorted = sorted(spaces, key=functools.cmp_to_key(compare_full_projectors))
        assert [s.id for s in resorted] == list(range(len(spaces)))


def multiplicity_free_pairwise(action):
    """Oracle: every pair of orbital matrices commutes."""
    mats = commutant_basis(action)
    return all(
        max_abs(a @ b - b @ a) <= 1e-12 for i, a in enumerate(mats) for b in mats[i + 1:]
    )


_S3_ON_ITSELF = [g.images.tolist() for g in s3_regular().generators]


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
@example(*_S3_ON_ITSELF)
def test_multiplicity_free_matches_pairwise_commutators(p_images, q_images):
    action = make([Permutation(p_images), Permutation(q_images)])
    assume(is_transitive(action))
    assert multiplicity_free(action) == multiplicity_free_pairwise(action)


@pytest.mark.parametrize(
    "spec", ["regular:symmetric:4", "regular:dihedral:4", "regular:dihedral:5", "cyclic:8"]
)
def test_multiplicity_free_matches_pairwise_commutators_regular(spec):
    action = group_from_spec(spec)
    assert multiplicity_free(action) == multiplicity_free_pairwise(action)


def multiplicity_free_by_histogram(action):
    """Oracle: row 0 of A_i A_j counts, for each y, the points z with (0, z) in
    orbital i and (z, y) in orbital j; one (r, r, n) histogram of label triples,
    symmetric in (i, j) exactly when the orbital algebra commutes."""
    labels = action.orbital_labels
    n = action.n_points
    r = int(labels.max()) + 1
    triples = (labels[0][:, None] * r + labels) * n + np.arange(n)
    products = np.bincount(triples.ravel(), minlength=r * r * n).reshape(r, r, n)
    return bool(np.array_equal(products, products.transpose(1, 0, 2)))


@pytest.mark.parametrize(
    "spec",
    sorted(
        set(BATTERY)
        | {f"dihedral:{n}" for n in range(3, 13)}
        | {f"symmetric:{n}" for n in range(3, 8)}
        | {"s6-pairs", "regular:dihedral:4", "regular:dihedral:12", "regular:cyclic:48",
           "regular:cyclic:60", "regular:dihedral:30", "regular:symmetric:5",
           "regular:dihedral:60", "regular:cyclic:120"}
    ),
)
def test_multiplicity_free_matches_the_histogram_and_burnside_counts_the_labels(perfbench, spec):
    if spec == "s6-pairs":
        spec = perfbench.workloads.s6_on_pairs(1000)
    action = group_from_spec(spec)
    assert multiplicity_free(action) == multiplicity_free_by_histogram(action)
    # Burnside on X x X: the orbitals number sum_g fix(g)^2 / |G|
    fixed = np.count_nonzero(action.images == np.arange(action.n_points), axis=1)
    assert np.sum(fixed**2) == action.order * (int(action.orbital_labels.max()) + 1)


def test_multiplicity_verdict_allocates_no_label_histogram():
    # the (r, r, n) histogram is 14 MB here; two n x n int64 draws are 0.2 MB
    action = group_from_spec("regular:cyclic:120")
    action.orbital_labels
    tracemalloc.start()
    try:
        assert multiplicity_free(action)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize(
    "spec", ["cyclic:7", "dihedral:6", "symmetric:4", "regular:symmetric:3", "s6-pairs"]
)
def test_reported_equivariance_bounds_every_element(perfbench, spec):
    action = group_from_spec(perfbench.workloads.s6_on_pairs(1) if spec == "s6-pairs" else spec)
    report = build_report(action, seed=42)
    oracle = max(equivariance_by_every_element(s.projector, action) for s in report.spaces)
    assert oracle <= report.equivariance_residual <= 1e-9 / action.n_points


def corrupted(space, vector, action):
    """`space` with its subspace replaced by the span of one vector, and that span's
    certificate."""
    sub = orthonormalize(np.asarray(vector, dtype=complex)[:, None])
    certificate = decomposition._invariance_residual(projector(sub), action.orbital_labels)
    return MinimalSpace(id=space.id, space=sub, eigenvalue=0.0, certificate=certificate)


@pytest.mark.parametrize(
    "vector",
    [
        np.random.default_rng(4).standard_normal(5),  # trace strictly between 0 and 1
        np.array([0.0, 1.0, 0.0, 0.0, -1.0]),  # odd under the reflection fixing 0: trace 0
    ],
    ids=["fractional", "zero"],
)
def test_corrupted_space_raises_in_check_star_and_report(monkeypatch, vector):
    d5 = make(dihedral_generators(5))
    spaces = list(minimal_decomposition(d5, seed=42))
    spaces[1] = corrupted(spaces[1], vector, d5)
    spaces = frame(spaces, d5)
    with pytest.raises(InternalInconsistency, match="space 1 .* point 0 with trace"):
        check_star(spaces, d5)
    certified = decomposition._decompose(d5, 42, 1e-9)
    monkeypatch.setattr(decomposition, "_decompose", lambda *a, **k: (spaces, *certified[1:]))
    with pytest.raises(InternalInconsistency, match="point 0"):
        build_report(d5, seed=42)


@pytest.mark.parametrize("action", [s3_natural(), s3_regular()], ids=["s3", "s3-regular"])
def test_verdict_guard_rejects_star_table_disagreeing_with_multiplicity(monkeypatch, action):
    flipped = not multiplicity_free(action)
    monkeypatch.setattr(decomposition, "multiplicity_free", lambda _action: flipped)
    with pytest.raises(InternalInconsistency, match="star table"):
        build_report(action, seed=42)


def test_guard_rejects_star_table_disagreeing_with_gamma(monkeypatch):
    # S3 regular has multiplicities 1, 1, 2, 2; reversed rows still mix 1s and 2s,
    # as a non-multiplicity-free table should, so only Gamma's row sums object
    action = s3_regular()
    star = decomposition.check_star
    monkeypatch.setattr(decomposition, "check_star", lambda *a: star(*a)[::-1])
    with pytest.raises(InternalInconsistency, match="star table"):
        build_report(action, seed=42)


def test_draw_with_gamma_off_the_unit_diagonal_is_retried(monkeypatch):
    action = make(dihedral_generators(6))
    gram = decomposition.character_gram
    calls = []

    def doubled_first(w, starts, act):
        calls.append(starts)
        return gram(w, starts, act) * (2 if len(calls) == 1 else 1)

    monkeypatch.setattr(decomposition, "character_gram", doubled_first)
    spaces = minimal_decomposition(action, seed=5)
    monkeypatch.undo()
    assert len(calls) == 2
    expected = minimal_decomposition(action, seed=6)
    assert [s.eigenvalue for s in spaces] == [s.eigenvalue for s in expected]


@pytest.mark.parametrize("seed", [0, 42, 977])
@pytest.mark.parametrize(
    "spec", ["cyclic:7", "dihedral:6", "symmetric:4", "regular:symmetric:3", "regular:dihedral:5"]
)
def test_generic_element_is_bitwise_the_orbital_basis_sum(monkeypatch, spec, seed):
    # the pipeline gathers its commutant element off the labels; capture it
    action = group_from_spec(spec)
    seen = []
    original = decomposition.hermitian_eig

    def capture(m, tol):
        seen.append(np.array(m))
        return original(m, tol)

    monkeypatch.setattr(decomposition, "hermitian_eig", capture)
    minimal_decomposition(action, seed=seed)
    oracle = random_commutant_element(commutant_basis(action), seed)
    assert seen[0].dtype == oracle.dtype
    assert seen[0].tobytes() == oracle.tobytes()


def intertwiner_dimension_dense(u, v, action, tol=1e-9):
    """Oracle: dim Hom_G(span v, span u), the rank of the compressed dense
    orbital basis u^H A_k v over every k."""
    basis = np.stack(commutant_basis(action))
    rows = (u.conj().T @ basis @ v).reshape(len(basis), -1)
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.count_nonzero(s > tol * max(1.0, float(s[0]))))


@pytest.mark.parametrize(
    "spec", ["cyclic:6", "dihedral:5", "symmetric:4", "regular:symmetric:3", "regular:dihedral:4"]
)
def test_label_intertwiner_dimension_matches_dense_stack(spec):
    # Gamma_ij = dim Hom_G(H_j, H_i) on minimal spaces, and <chi, chi> = dim End_G
    # on invariant sums of them: each pair sum (2 or 4) and the whole space (r)
    action = group_from_spec(spec)
    spaces = minimal_decomposition(action, seed=42)
    gram = spaces.gram
    assert max_abs(gram - np.rint(gram.real)) < 1e-9
    for a in spaces:
        for b in spaces:
            dense = intertwiner_dimension_dense(a.space.basis, b.space.basis, action)
            assert np.rint(gram[a.id, b.id].real) == dense
    r = len(commutant_basis(action))
    pairs = [direct_sum([a.id, b.id], spaces).basis for a in spaces for b in spaces if a.id < b.id]
    whole = np.eye(action.n_points, dtype=complex)
    for v, allowed in [(v, (2, 4)) for v in pairs] + [(whole, (r,))]:
        got = character_gram(v, [0], action)[0, 0]
        assert abs(got - intertwiner_dimension_dense(v, v, action)) < 1e-9
        assert round(got.real) in allowed


def test_frame_stacks_the_bases_once_and_is_the_sequence_of_its_spaces():
    action = group_from_spec("regular:symmetric:3")
    spaces = minimal_decomposition(action, seed=42)
    assert isinstance(spaces, Frame) and isinstance(spaces, Sequence)
    assert [s.dim for s in spaces] == [1, 1, 2, 2]
    assert len(spaces) == 4 and list(spaces) == [spaces[i] for i in range(4)] == list(spaces.spaces)
    assert spaces[-1] is spaces.spaces[-1] and spaces[1:3] == spaces.spaces[1:3]
    assert [s.id for s in spaces] == [0, 1, 2, 3]
    # a hand-built frame keeps the given order; W is bitwise the concatenated bases
    for given in (spaces.spaces, spaces.spaces[::-1]):
        built = frame(given, action)
        dims = [s.dim for s in given]
        assert built.starts.tolist() == np.cumsum([0] + dims[:-1]).tolist()
        stacked = np.concatenate([s.space.basis for s in given], axis=1)
        assert built.basis.dtype == stacked.dtype and built.basis.tobytes() == stacked.tobytes()
        assert not built.basis.flags.writeable
        assert list(built) == list(given)
    assert frame(spaces, action).gram.tobytes() == spaces.gram.tobytes()
    assert build_report(action, seed=42).spaces.basis.tobytes() == spaces.basis.tobytes()


@pytest.mark.parametrize("spec", ["regular:symmetric:3", "regular:cyclic:48"])
def test_decompose_builds_one_frame_and_one_gamma(monkeypatch, capsys, spec):
    # regular symmetric:3 is not multiplicity-free, so the twisted-diagonal witness runs.
    # The kernel rows are read off the frame: no kernel K = nP is built, no
    # `MinimalSpace.projector` is read, and each space's projector is formed once, in
    # `_decompose_once`, where its certificate is computed.
    names = ("frame", "character_gram", "projector")
    originals = {name: getattr(decomposition, name) for name in names}
    originals |= {name: getattr(kernels, name) for name in ("kernel_family", "verify_kernel_properties")}
    calls = {name: [] for name in originals}  # (args, result) of every call

    def counted(name, fn):
        return lambda *a, **kw: calls[name].append((a, fn(*a, **kw))) or calls[name][-1][1]

    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "ginvspaces"]:
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:  # every binding, not just the defining one
                monkeypatch.setattr(module, name, counted(name, fn))
    reads = []
    built = decomposition.MinimalSpace.projector.fget
    monkeypatch.setattr(
        decomposition.MinimalSpace, "projector", property(lambda s: reads.append(s.id) or built(s))
    )
    assert cli.main(["decompose", "--group", spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["structure"]["twisted_diagonal_witness"] is None) == (spec == "regular:cyclic:48")
    counts = {name: len(made) for name, made in calls.items() if name != "projector"}
    assert counts == {"frame": 1, "character_gram": 1, "kernel_family": 0,
                      "verify_kernel_properties": 0}
    [(_, spaces)] = calls["frame"]
    assert len(spaces) == report["decomposition"]["n_spaces"] and reads == []
    projected = [args[0] for args, _ in calls["projector"]]
    assert [sum(sub is s.space for sub in projected) for s in spaces] == [1] * len(spaces)
