import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginvspaces.errors import (
    CapExceeded,
    InternalInconsistency,
    InvalidPermutation,
    NotTransitive,
    SpecParseError,
)
from ginvspaces.perm_action import (
    GroupAction,
    Permutation,
    cyclic_generators,
    dihedral_generators,
    enumerate_group,
    group_from_spec,
    is_transitive,
    orbit_of_point,
    orbitals,
    regular_action,
    stabilizer,
    subgroup_point_orbits,
    symmetric_generators,
)


def closure_bruteforce(generators):
    """Oracle: fixpoint of pairwise products over plain tuples, no BFS."""
    elems = {tuple(range(generators[0].n))}
    elems |= {g.key() for g in generators}
    while True:
        new = set()
        for a in elems:
            for b in elems:
                prod = tuple(a[b[i]] for i in range(len(a)))
                if prod not in elems:
                    new.add(prod)
        if not new:
            return elems
        elems |= new


def test_identity_generator_gives_trivial_group():
    action = enumerate_group([Permutation.identity(3)])
    assert action.order == 1
    assert action.n_points == 3


def test_three_cycle_closure_matches_bruteforce():
    gens = [Permutation([1, 2, 0])]
    action = enumerate_group(gens)
    oracle = closure_bruteforce(gens)
    assert action.order == 3
    assert {e.key() for e in action.elements} == oracle


def test_s3_closure_matches_bruteforce():
    gens = [Permutation([1, 0, 2]), Permutation([1, 2, 0])]
    action = enumerate_group(gens)
    oracle = closure_bruteforce(gens)
    assert action.order == 6
    assert {e.key() for e in action.elements} == oracle


@pytest.mark.parametrize(
    "gens",
    [symmetric_generators(3), dihedral_generators(4), cyclic_generators(6)],
    ids=["s3", "d4", "c6"],
)
def test_elements_closed_under_composition_and_inverse(gens):
    action = enumerate_group(gens)
    for i in range(action.order):
        assert action.inverse_index(i) is not None
        for j in range(action.order):
            assert 0 <= action.compose_indices(i, j) < action.order


def test_enumeration_is_deterministic():
    a = enumerate_group(symmetric_generators(4))
    b = enumerate_group(symmetric_generators(4))
    assert [e.key() for e in a.elements] == [e.key() for e in b.elements]
    assert a.elements[0].is_identity()


def test_generators_appear_in_elements():
    gens = dihedral_generators(5)
    action = enumerate_group(gens)
    keys = {e.key() for e in action.elements}
    assert all(g.key() in keys for g in gens)


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        enumerate_group(symmetric_generators(3), cap=3)


def test_invalid_permutations_rejected():
    with pytest.raises(InvalidPermutation):
        Permutation([0, 0, 1])
    with pytest.raises(InvalidPermutation):
        Permutation([0, 1, 3])
    with pytest.raises(InvalidPermutation):
        enumerate_group([Permutation([0, 1]), Permutation([0, 1, 2])])
    with pytest.raises(InvalidPermutation):
        enumerate_group([])


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_compose_inverse_properties(p_images, q_images):
    p = Permutation(p_images)
    q = Permutation(q_images)
    assert p.compose(p.inverse()).is_identity()
    assert p.inverse().compose(p).is_identity()
    # composition applies the right factor first
    r = p.compose(q)
    for i in range(6):
        assert r.apply(i) == p.apply(q.apply(i))


def test_transitivity_cases():
    assert is_transitive(enumerate_group(cyclic_generators(3)))
    swap_only = enumerate_group([Permutation([1, 0, 2])])
    assert not is_transitive(swap_only)
    s3 = enumerate_group(symmetric_generators(3))
    # orbit oracle: apply every element to 0 directly
    orbit = {e.apply(0) for e in s3.elements}
    assert orbit == {0, 1, 2}
    assert is_transitive(s3)


def test_stabilizer_regular_action_trivial():
    c4 = enumerate_group(cyclic_generators(4))
    for x in range(4):
        stab = stabilizer(c4, x)
        assert stab.members == (0,)


def test_stabilizer_s3_matches_exhaustive_check():
    s3 = enumerate_group(symmetric_generators(3))
    stab = stabilizer(s3, 0)
    oracle = tuple(i for i, e in enumerate(s3.elements) if e.apply(0) == 0)
    assert stab.members == oracle
    assert len(stab.members) == 2


def test_stabilizer_trivial_group_is_whole_group():
    triv = enumerate_group([Permutation.identity(1)])
    assert stabilizer(triv, 0).members == (0,)


@pytest.mark.parametrize(
    "gens",
    [symmetric_generators(4), dihedral_generators(6), cyclic_generators(5)],
    ids=["s4", "d6", "c5"],
)
def test_orbit_stabilizer_identity(gens):
    action = enumerate_group(gens)
    for x in range(action.n_points):
        stab = stabilizer(action, x)
        assert len(stab.members) * len(orbit_of_point(action, x)) == action.order


def test_stabilizer_closed_under_composition():
    s4 = enumerate_group(symmetric_generators(4))
    stab = stabilizer(s4, 1)
    members = set(stab.members)
    for i in members:
        for j in members:
            assert s4.compose_indices(i, j) in members


def pair_orbits_bruteforce(action):
    """Oracle: orbit of every pair under the full element list, as frozensets."""
    n = action.n_points
    found = set()
    for x in range(n):
        for y in range(n):
            orbit = frozenset(
                (e.apply(x), e.apply(y)) for e in action.elements
            )
            found.add(orbit)
    return found


def test_orbitals_c2_regular():
    c2 = enumerate_group(cyclic_generators(2))
    obs = orbitals(c2)
    assert [set(o) for o in obs] == [{(0, 0), (1, 1)}, {(0, 1), (1, 0)}]


def test_orbitals_match_pair_orbit_oracle():
    s3 = enumerate_group(symmetric_generators(3))
    obs = orbitals(s3)
    assert len(obs) == 2
    assert {frozenset(o) for o in obs} == pair_orbits_bruteforce(s3)

    c4 = enumerate_group(cyclic_generators(4))
    obs4 = orbitals(c4)
    assert len(obs4) == 4
    assert {frozenset(o) for o in obs4} == pair_orbits_bruteforce(c4)


def test_orbitals_sorted_and_diagonal_first():
    d5 = enumerate_group(dihedral_generators(5))
    obs = orbitals(d5)
    assert set(obs[0]) == {(x, x) for x in range(5)}
    starts = [o[0] for o in obs]
    assert starts == sorted(starts)


def test_orbitals_require_transitivity():
    swap_only = enumerate_group([Permutation([1, 0, 2])])
    with pytest.raises(NotTransitive):
        orbitals(swap_only)


@pytest.mark.parametrize(
    "gens",
    [symmetric_generators(4), dihedral_generators(7), cyclic_generators(9)],
    ids=["s4", "d7", "c9"],
)
def test_orbital_count_equals_stabilizer_orbit_count(gens):
    action = enumerate_group(gens)
    stab = stabilizer(action, 0)
    assert len(orbitals(action)) == len(subgroup_point_orbits(action, stab.members))


def test_regular_action_shape():
    s3 = enumerate_group(symmetric_generators(3))
    reg = regular_action(s3)
    assert reg.n_points == 6
    assert reg.order == 6
    assert is_transitive(reg)
    assert stabilizer(reg, 0).members == (0,)


def test_group_from_spec_families():
    c4 = group_from_spec("cyclic:4")
    assert c4.order == 4 and c4.n_points == 4
    d3 = group_from_spec("dihedral:3")
    assert d3.order == 6 and d3.n_points == 3
    reg = group_from_spec("regular:symmetric:3")
    assert reg.order == 6 and reg.n_points == 6


def test_group_from_spec_json():
    action = group_from_spec('{"points": 3, "generators": [[1, 2, 0]]}')
    assert action.order == 3
    action2 = group_from_spec({"points": 2, "generators": [[1, 0]]})
    assert action2.order == 2


@pytest.mark.parametrize(
    "bad",
    [
        "coxeter:4",
        "cyclic:x",
        "cyclic",
        "dihedral:2",
        '{"points": 3}',
        '{"points": 3, "generators": [[1, 0]]}',
        "{not json",
    ],
)
def test_group_from_spec_rejects_bad_input(bad):
    with pytest.raises(SpecParseError):
        group_from_spec(bad)


def test_non_faithful_presentations_collapse_to_the_image():
    # duplicate and identity generators add nothing; the enumerated group is
    # always the image in the symmetric group
    action = enumerate_group(
        [Permutation([1, 2, 0]), Permutation([1, 2, 0]), Permutation.identity(3)]
    )
    assert action.order == 3


def orbitals_pairwise_reference(action):
    """Reference: the row-major pair scan, one orbit computation per new pair."""
    n = action.n_points
    seen = np.zeros((n, n), dtype=bool)
    result = []
    for x in range(n):
        for y in range(n):
            if seen[x, y]:
                continue
            pairs = np.unique(
                np.stack([action.images[:, x], action.images[:, y]], axis=1), axis=0
            )
            seen[pairs[:, 0], pairs[:, 1]] = True
            result.append([(int(a), int(b)) for a, b in pairs])
    return result


@pytest.mark.parametrize(
    "spec",
    ["cyclic:1", "cyclic:9", "dihedral:6", "dihedral:7", "symmetric:4",
     "regular:cyclic:6", "regular:dihedral:5", "regular:symmetric:3"],
)
def test_orbitals_match_pairwise_reference_in_order(spec):
    action = group_from_spec(spec)
    assert orbitals(action) == orbitals_pairwise_reference(action)
    labels = action.orbital_labels
    for k, orbital in enumerate(orbitals(action)):
        assert all(labels[x, y] == k for x, y in orbital)


def test_orbital_labels_computed_once_per_action(monkeypatch):
    from ginvspaces import decomposition, perm_action, schur

    calls = []
    original = perm_action.subgroup_point_orbits

    def counted(action, members):
        calls.append(action)
        return original(action, members)

    monkeypatch.setattr(perm_action, "subgroup_point_orbits", counted)
    action = group_from_spec("dihedral:5")
    spaces = decomposition.minimal_decomposition(action, seed=1)
    for _ in range(2):
        orbitals(action)
        decomposition.commutant_basis(action)
        decomposition.multiplicity_free(action)
        schur.group_average(np.eye(5), spaces[0], spaces[0], action)
    assert calls == [action]
    assert action.orbital_labels is action.orbital_labels
    with pytest.raises(ValueError):
        action.orbital_labels[0, 0] = 1


# -- the image-matrix group against the Permutation-object construction ------


def enumerate_by_permutations(gens):
    """Oracle: breadth-first closure over Permutation objects, each level
    sorted by image tuple."""
    ident = Permutation.identity(gens[0].n)
    elements, seen, frontier = [ident], {ident.key()}, [ident]
    while frontier:
        discovered = {}
        for e in frontier:
            for g in gens:
                h = e.compose(g)
                if h.key() not in seen:
                    discovered.setdefault(h.key(), h)
        frontier = [discovered[k] for k in sorted(discovered)]
        elements.extend(frontier)
        seen.update(discovered)
    return elements


def translations_by_permutations(elements, gens):
    """Oracle: each generator's left translation of the element list."""
    index = {e.key(): i for i, e in enumerate(elements)}
    return [Permutation([index[g.compose(e).key()] for e in elements]) for g in gens]


@pytest.mark.parametrize(
    "spec",
    [f"cyclic:{n}" for n in (1, 2, 5, 12, 48)]
    + [f"dihedral:{n}" for n in (3, 8, 12)]
    + [f"symmetric:{n}" for n in (1, 3, 4, 5, 6, 7)]
    + [f"regular:cyclic:{n}" for n in (2, 12, 48, 60)]
    + ["regular:dihedral:12", "regular:dihedral:30"]
    + [f"regular:symmetric:{n}" for n in (3, 4, 5)]
    + ["s6-pairs"],
)
def test_image_matrix_matches_permutation_bfs(perfbench, spec):
    if spec == "s6-pairs":
        spec = perfbench.workloads.s6_on_pairs(1000)
    action = group_from_spec(spec)
    gens = list(group_from_spec(spec.removeprefix("regular:")).generators)
    elements = enumerate_by_permutations(gens)
    if spec.startswith("regular:"):
        gens = translations_by_permutations(elements, gens)
        elements = enumerate_by_permutations(gens)
    assert [g.images.tobytes() for g in action.generators] == [g.images.tobytes() for g in gens]
    assert action.images.tobytes() == np.stack([e.images for e in elements]).tobytes()
    inverses = np.stack([e.inverse().images for e in elements])
    assert action.inverse_images.tobytes() == inverses.tobytes()
    assert action.elements == tuple(elements)
    assert action.elements is action.elements


def test_index_lookups_agree_with_permutation_algebra():
    action = enumerate_group(dihedral_generators(5))
    for i, a in enumerate(action.elements):
        assert action.element_index(a) == i
        assert action.inverse_index(i) == action.element_index(a.inverse())
        for j, b in enumerate(action.elements):
            assert action.compose_indices(i, j) == action.element_index(a.compose(b))


def test_group_action_takes_an_image_matrix_starting_at_the_identity():
    images = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    action = GroupAction(3, [Permutation([1, 2, 0])], images)
    assert action.order == 3
    assert action.compose_indices(1, 1) == 2
    with pytest.raises(InternalInconsistency):
        GroupAction(3, [], images[::-1])
    with pytest.raises(InternalInconsistency):
        GroupAction(3, [], np.zeros((0, 3), dtype=np.int64))


@pytest.mark.parametrize(
    "images",
    [[1.0, 0.0], ["1", "0"], [True, False], [None, 0], [2**70, 0], np.array([1.5, 0.5])],
    ids=["float", "str", "bool", "none", "huge", "float-array"],
)
def test_permutation_rejects_non_integer_images(images):
    with pytest.raises(InvalidPermutation, match="integers"):
        Permutation(images)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16, np.uint64])
def test_permutation_accepts_integer_arrays(dtype):
    perm = Permutation(np.array([2, 0, 1], dtype=dtype))
    assert perm.images.dtype == np.int64
    assert perm.key() == (2, 0, 1)
    assert Permutation([2, 0, 1]) == perm


def test_family_larger_than_the_cap_is_refused_by_its_point_count():
    with pytest.raises(CapExceeded):
        group_from_spec("cyclic:6", cap=5)
    with pytest.raises(CapExceeded):
        group_from_spec("regular:dihedral:99999999999999999999")
    assert group_from_spec("cyclic:5", cap=5).order == 5
