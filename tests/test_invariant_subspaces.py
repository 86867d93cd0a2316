from dataclasses import replace

import numpy as np
import pytest

from ginvspaces import invariant_subspaces
from ginvspaces.decomposition import frame, minimal_decomposition, multiplicity_free
from ginvspaces.errors import InternalInconsistency, NotTransitive, StructureFailure
from ginvspaces.invariant_subspaces import (
    SignatureSet,
    direct_sum,
    orbit_span,
    signature,
    signature_roundtrip_exhaustive,
    twisted_diagonal_witness,
    verify_structure,
)
from ginvspaces.linalg import (
    Subspace,
    max_abs,
    mu_norm,
    orthonormalize,
    projector,
    subspace_equal,
)
from ginvspaces.perm_action import (
    GroupAction,
    cyclic_generators,
    dihedral_generators,
    enumerate_group,
    group_from_spec,
    regular_action,
    symmetric_generators,
)
from ginvspaces.schur import group_average


def decompose(gens, seed=42):
    action = enumerate_group(gens)
    return action, minimal_decomposition(action, seed=seed)


def s3_regular_instance():
    action = regular_action(enumerate_group(symmetric_generators(3)))
    return action, minimal_decomposition(action, seed=42)


def test_orbit_span_of_constants_is_constants():
    action, _ = decompose(symmetric_generators(3))
    y = orbit_span(np.ones((3, 1), dtype=complex), action)
    assert y.rank == 1
    assert subspace_equal(y, orthonormalize(np.ones((3, 1), dtype=complex)))


def test_orbit_span_c2_regular_from_point_mass():
    # explicit 2-point orbit oracle: e0 and its translate e1 span everything
    action, _ = decompose(cyclic_generators(2))
    y = orbit_span(np.array([[1.0], [0.0]], dtype=complex), action)
    assert y.rank == 2


def test_orbit_span_empty_input():
    action, _ = decompose(cyclic_generators(3))
    y = orbit_span(np.zeros((3, 0), dtype=complex), action)
    assert y.rank == 0


@pytest.mark.parametrize("shape", [(3,), (3, 2)])
def test_orbit_span_of_zero_vectors_is_empty(shape):
    action, _ = decompose(cyclic_generators(3))
    assert orbit_span(np.zeros(shape, dtype=complex), action).rank == 0


def test_orbit_span_is_invariant():
    action, _ = decompose(dihedral_generators(5))
    rng = np.random.default_rng(31)
    v = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    y = orbit_span(v, action)
    p = projector(y)
    for g in action.generators:
        assert max_abs(p[g.images, :] - p @ p[g.images, :]) <= 1e-9


def svd_orbit_span(v, action, tol=1e-9):
    """Oracle: the thin SVD of the n x |G|m matrix of translates L_g v."""
    v = np.asarray(v, dtype=complex).reshape(action.n_points, -1)
    return orthonormalize(np.transpose(v[action.images], (1, 0, 2)).reshape(action.n_points, -1), tol)


ORACLE_SPECS = [
    "symmetric:5", "symmetric:6", "symmetric:7", "s6-pairs", "regular:cyclic:12",
    "regular:cyclic:48", "regular:cyclic:60", "regular:dihedral:8", "regular:dihedral:12",
    "regular:dihedral:30", "regular:symmetric:3", "regular:symmetric:4",
]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_orbit_span_matches_the_svd_of_all_translates(perfbench, spec):
    if spec == "s6-pairs":
        spec = perfbench.workloads.s6_on_pairs(1000)
    action = group_from_spec(spec)
    spaces = minimal_decomposition(action, seed=42)
    n = action.n_points
    rng = np.random.default_rng(17)
    proper = 0
    for m in (1, 2, 3):
        gaussian = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        # inside a seeded direct sum, so spans can fall short of the whole space
        picked = [s.id for s in spaces if rng.random() < 0.5] or [spaces[-1].id]
        inside = direct_sum(picked, spaces)
        mix = rng.standard_normal((inside.rank, m)) + 1j * rng.standard_normal((inside.rank, m))
        for v in (gaussian, inside.basis @ mix):
            y, oracle = orbit_span(v, action), svd_orbit_span(v, action)
            assert y.rank == oracle.rank
            assert max_abs(projector(y) - projector(oracle)) <= 1e-12
            proper += y.rank < n
    assert proper >= 3


@pytest.mark.parametrize("scale", [1e-8, 1e8])
def test_orbit_span_rank_rule_is_scale_free(scale):
    action = group_from_spec("regular:symmetric:3")
    spaces = minimal_decomposition(action, seed=42)
    v = direct_sum([0, 3], spaces).basis @ np.array([[1.0], [2.0], [0.5j]])
    assert subspace_equal(orbit_span(scale * v, action), orbit_span(v, action))
    assert orbit_span(v, action).rank < 6


def test_orbit_span_needs_a_transitive_action():
    action = enumerate_group([[1, 0, 2, 3], [0, 1, 3, 2]])
    with pytest.raises(NotTransitive):
        orbit_span(np.ones(4), action)


def test_orbit_span_guard_catches_labels_of_another_action():
    # the orbital labels of a relabelled copy average v v^H over the wrong
    # orbitals, so the span is invariant under the copy but not the action;
    # labels computed from the copy's images fail the action's generators
    action = enumerate_group(cyclic_generators(5))
    relabel = np.array([0, 2, 1, 3, 4])
    copy = enumerate_group([relabel[g.images[relabel]] for g in action.generators])
    v = minimal_decomposition(copy, seed=42)[1].space.basis
    assert orbit_span(v, copy).rank == 1
    mixed = GroupAction(5, action.generators, copy.images)
    with pytest.raises(InternalInconsistency, match="orbital labels not invariant"):
        orbit_span(v, mixed)


def test_orbit_span_guard_names_its_residual_and_tol(monkeypatch):
    # without the orbital mean the span is v's own line, which C5 moves
    action = enumerate_group(cyclic_generators(5))
    monkeypatch.setattr(invariant_subspaces, "_orbital_mean", lambda a, labels: a)
    v = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    # P = e0 e0^H has orbital mean 1/5 on the diagonal: 2 (1 - 1/5) = 1.6
    message = r"not invariant: residual 1\.600e\+00 exceeds tol 1\.000e-09"
    with pytest.raises(InternalInconsistency, match=message):
        orbit_span(v, action)


def test_signature_of_minimal_space_is_singleton():
    action, spaces = decompose(symmetric_generators(3))
    for s in spaces:
        assert signature(s.space, spaces).omega == (s.id,)


def test_signature_of_full_space_is_everything():
    action, spaces = decompose(cyclic_generators(4))
    full = Subspace(4, np.eye(4, dtype=complex))
    assert signature(full, spaces).omega == tuple(range(4))


def test_signature_of_two_character_sum():
    action, spaces = decompose(cyclic_generators(4))
    chi0 = np.ones(4, dtype=complex)
    chi1 = (1j) ** np.arange(4)
    y = orthonormalize(np.stack([chi0, chi1], axis=1))
    ids = signature(y, spaces).omega
    assert len(ids) == 2
    # projector norm oracle
    py = projector(y)
    for s in spaces:
        hit = max_abs(s.projector @ py) > 1e-9
        assert hit == (s.id in ids)


def test_direct_sum_edges():
    action, spaces = decompose(cyclic_generators(5))
    assert direct_sum((), spaces).rank == 0
    everything = direct_sum(range(5), spaces)
    assert everything.rank == 5
    constants = next(s for s in spaces if max_abs(s.projector - 0.2) < 1e-9)
    assert subspace_equal(
        direct_sum(SignatureSet((constants.id,)), spaces),
        orthonormalize(np.ones((5, 1), dtype=complex)),
    )


@pytest.mark.parametrize(
    "gens",
    [cyclic_generators(6), symmetric_generators(3), dihedral_generators(4)],
    ids=["c6", "s3", "d4"],
)
def test_verify_structure_passes_on_unique_decompositions(gens):
    action, spaces = decompose(gens)
    report = verify_structure(action, spaces, trials=15, seed=5)
    assert report.passes == report.trials
    assert report.max_residual <= 1e-9
    assert not report.failures


def test_vector_inside_one_space_gives_singleton_signature():
    action, spaces = decompose(symmetric_generators(3))
    std = next(s for s in spaces if s.dim == 2)
    v = std.space.basis[:, [0]]
    y = orbit_span(v, action)
    om = signature(y, spaces)
    assert om.omega == (std.id,)
    assert subspace_equal(y, direct_sum(om, spaces))


def test_monotone_in_signature():
    action, spaces = decompose(cyclic_generators(6))
    small = direct_sum((0, 2), spaces)
    large = direct_sum((0, 2, 4, 5), spaces)
    ps, pl = projector(small), projector(large)
    assert max_abs(pl @ ps - ps) <= 1e-9


def test_direct_sums_are_invariant():
    action, spaces = decompose(dihedral_generators(6))
    for omega in [(0,), (0, 1), tuple(range(len(spaces)))]:
        p = projector(direct_sum(omega, spaces))
        for g in action.generators:
            inv = np.argsort(g.images)
            assert max_abs(p[g.images, :] - p[:, inv]) <= 1e-9


def test_signature_roundtrip_exhaustive_c6():
    action, spaces = decompose(cyclic_generators(6))
    ok, count = signature_roundtrip_exhaustive(spaces)
    assert ok
    assert count == 64


def test_roundtrip_guard_on_large_collections():
    action, spaces = decompose(cyclic_generators(6))
    padded = list(spaces) * 3  # 18 ids, above the exhaustive cap
    with pytest.raises(ValueError):
        signature_roundtrip_exhaustive(padded)


def test_twisted_diagonal_witness_on_s3_regular():
    action, spaces = s3_regular_instance()
    w = twisted_diagonal_witness(action, spaces, seed=7)
    assert w is not None
    assert w.dim_subspace < w.dim_direct_sum
    assert w.residual > 0.1
    assert len(w.omega) == 2


def test_twisted_diagonal_witness_raises_when_gamma_pair_average_vanishes(monkeypatch):
    # Gamma says spaces are isomorphic, so a vanishing average is a contradiction
    action, spaces = s3_regular_instance()
    monkeypatch.setattr(
        invariant_subspaces, "group_average", lambda a, src, dst, act: np.zeros_like(a)
    )
    with pytest.raises(InternalInconsistency, match="Gamma pairs spaces"):
        twisted_diagonal_witness(action, spaces, seed=7)


def test_twisted_diagonal_witness_absent_when_multiplicity_free():
    action, spaces = decompose(dihedral_generators(5))
    assert multiplicity_free(action)
    assert twisted_diagonal_witness(action, spaces, seed=7) is None


def test_structure_report_on_s3_regular_records_not_raises():
    action, spaces = s3_regular_instance()
    report = verify_structure(action, spaces, trials=10, seed=3)
    # random orbit spans almost surely fill whole isotypic blocks, so the
    # equality usually holds; the point is that nothing raised
    assert report.trials == 10


def test_structure_failure_raised_for_incomplete_space_list():
    # deliberately withhold a minimal space: a generic orbit span fills the
    # whole space, but the direct sum over the truncated list cannot
    action, spaces = decompose(symmetric_generators(3))
    with pytest.raises(StructureFailure):
        verify_structure(action, frame(spaces[:1], action), trials=5, seed=1)


def test_norm_equivalence_of_membership_in_the_finite_model():
    # all norms agree on membership: the residual vanishes in the uniform norm
    # iff it vanishes in the weighted 2-norm
    action, spaces = decompose(symmetric_generators(4))
    rng = np.random.default_rng(13)
    y = orbit_span(rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1)), action)
    p = projector(y)
    for _ in range(20):
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        inside = p @ g
        for vec in (g, inside):
            defect = vec - p @ vec
            in_sup = max_abs(defect) <= 1e-9
            in_l2 = mu_norm(defect) <= 1e-9
            assert in_sup == in_l2


SPECS = ["cyclic:6", "dihedral:5", "symmetric:4", "regular:symmetric:3", "regular:dihedral:4"]


def projector_signature(y, spaces, tol=1e-9):
    """Oracle: the spaces whose projector has a nonvanishing product with y's."""
    py = projector(y)
    return tuple(sorted(s.id for s in spaces if max_abs(s.projector @ py) > tol))


@pytest.mark.parametrize("spec", SPECS)
def test_signature_matches_projector_products_on_orbit_spans(spec):
    action = group_from_spec(spec)
    spaces = minimal_decomposition(action, seed=42)
    n = action.n_points
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(12):
        # vectors inside a random direct sum, so signatures are proper subsets too
        picked = rng.random(len(spaces)) < 0.5
        inside = direct_sum([s.id for s, p in zip(spaces, picked) if p], spaces)
        m = int(rng.integers(1, 4))
        vecs = inside.basis @ (rng.standard_normal((inside.rank, m)) + 0j)
        y = orbit_span(vecs, action)
        assert signature(y, spaces).omega == projector_signature(y, spaces)
        seen.add(signature(y, spaces).omega)
    for i, j in [(0, len(spaces) - 1), (len(spaces) - 2, len(spaces) - 1)]:
        # the graph of an averaged map between two spaces (twisted when isomorphic)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        t = group_average(a, spaces[i], spaces[j], action)
        y = orthonormalize(spaces[i].space.basis + t @ spaces[i].space.basis)
        assert signature(y, spaces).omega == projector_signature(y, spaces)
    assert len(seen) > 3
    empty = Subspace(n, np.zeros((n, 0), dtype=complex))
    assert signature(empty, spaces).omega == projector_signature(empty, spaces) == ()


def roundtrip_per_subset(spaces, tol=1e-9):
    """Oracle: the direct sum and projector signature of every subset in turn."""
    ids = [s.id for s in spaces]
    ok = True
    for mask in range(2 ** len(ids)):
        omega = tuple(ids[b] for b in range(len(ids)) if mask >> b & 1)
        ok &= projector_signature(direct_sum(omega, spaces), spaces, tol) == omega
    return ok, 2 ** len(ids)


@pytest.mark.parametrize("spec", SPECS + ["cyclic:1", "regular:cyclic:12"])
def test_roundtrip_matches_per_subset_loop(spec):
    action = group_from_spec(spec)
    spaces = minimal_decomposition(action, seed=42)
    assert signature_roundtrip_exhaustive(spaces) == roundtrip_per_subset(spaces)
    assert signature_roundtrip_exhaustive(spaces)[0]


def test_roundtrip_fails_on_overlapping_spaces():
    # space 1 tilted towards space 0 by 1e-6: orthonormal within the spaces' own
    # loose tolerance, so every direct sum exists, but the two spaces overlap
    action, spaces = decompose(cyclic_generators(6))
    tilted = orthonormalize(spaces[1].space.basis + 1e-6 * spaces[0].space.basis).basis
    loose = []
    for s in spaces:
        sub = Subspace(6, tilted if s.id == 1 else s.space.basis, tol=1e-3)
        loose.append(replace(s, space=sub))
    loose = frame(loose, action)
    assert signature_roundtrip_exhaustive(loose) == roundtrip_per_subset(loose) == (False, 64)


def test_roundtrip_rejects_a_direct_sum_that_is_not_orthonormal():
    action, spaces = decompose(cyclic_generators(6))
    repeated = frame(list(spaces) + [replace(spaces[0], id=len(spaces))], action)
    with pytest.raises(ValueError):
        signature_roundtrip_exhaustive(repeated)
