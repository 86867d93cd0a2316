import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginvspaces import torus
from ginvspaces.cli import EXIT_OK, main
from ginvspaces.errors import DimensionMismatch
from ginvspaces.torus import (
    FourierFunction,
    TorusPoint,
    act,
    annihilating_functional,
    box_indices,
    completeness_residual_model,
    fejer_monotonicity,
    fejer_smooth,
    inner_product,
    monomial,
    monomial_orthonormality_residual,
    polydisc_rotation_trials,
    polydisc_signature,
    project_k,
    random_function,
    random_point,
    separation_check,
    separation_scan_1d,
    smoothing_commutes_residual,
    unitarity_residual,
)


def test_act_identity_rotation():
    f = FourierFunction(1, 4, {(2,): 1.0, (-1,): 2.0})
    g = act(TorusPoint([1.0]), f)
    assert g.coeffs == f.coeffs


def test_act_quarter_turn_on_square():
    f = monomial(1, 4, (2,))
    g = act(TorusPoint([1j]), f)
    assert g.coefficient((2,)) == pytest.approx(-1.0)


def test_act_inner_products_preserved_against_coefficient_sum():
    rng = np.random.default_rng(2)
    for _ in range(20):
        f = random_function(2, 3, rng)
        g = random_function(2, 3, rng)
        w = random_point(2, rng)
        fw, gw = act(w, f), act(w, g)
        # direct sum-over-coefficients oracle
        direct = sum(
            fw.coeffs[k] * np.conj(gw.coeffs[k]) for k in set(fw.coeffs) & set(gw.coeffs)
        )
        assert abs(inner_product(fw, gw) - direct) < 1e-12
        assert abs(inner_product(fw, gw) - inner_product(f, g)) < 1e-12


def test_monomial_inner_products():
    # normalized measure: same power pairs to 1, distinct powers to 0
    assert inner_product(monomial(1, 4, (3,)), monomial(1, 4, (3,))) == 1.0
    assert inner_product(monomial(1, 4, (3,)), monomial(1, 4, (2,))) == 0.0
    f = FourierFunction(1, 4, {(3,): 2.0, (1,): 1.0})
    assert inner_product(f, monomial(1, 4, (1,))) == pytest.approx(1.0)


def test_project_k_examples():
    f = FourierFunction(1, 4, {(3,): 1.0, (1,): 2.0})
    g = project_k(f, (1,))
    assert g.coeffs == {(1,): 2.0}
    assert project_k(g, (1,)).coeffs == g.coeffs
    total = FourierFunction(1, 4, {})
    for k in box_indices(1, 4):
        total = total + project_k(f, k)
    assert total.coeffs == f.coeffs
    assert project_k(f, (2,)).coeffs == {}


def test_project_k_outside_box_rejected():
    with pytest.raises(ValueError):
        project_k(monomial(1, 2, (1,)), (5,))


def fejer_convolution_oracle(f, d, samples=4096):
    """Sampled convolution with the Fejer kernel on a fine grid (n=1)."""
    theta = 2 * np.pi * np.arange(samples) / samples
    js = np.arange(-d, d + 1)
    weights = 1.0 - np.abs(js) / (d + 1)
    kernel = (weights[None, :] * np.exp(1j * np.outer(theta, js))).sum(axis=1).real
    out = {}
    for k, c in f.coeffs.items():
        fvals = c * np.exp(1j * k[0] * theta)
        conv = np.array(
            [np.mean(fvals * np.roll(kernel[::-1], shift + 1)) for shift in range(samples)]
        )
        # read the smoothed coefficient back off the grid
        coef = np.mean(conv * np.exp(-1j * k[0] * theta))
        out[k] = out.get(k, 0j) + coef
    return out


def test_fejer_degree_two_damps_z_by_two_thirds():
    f = monomial(1, 4, (1,))
    g = fejer_smooth(f, 2)
    assert g.coefficient((1,)) == pytest.approx(2.0 / 3.0)
    oracle = fejer_convolution_oracle(f, 2)
    assert oracle[(1,)] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_fejer_matches_sampled_convolution_oracle():
    f = FourierFunction(1, 3, {(0,): 1.5, (2,): 1.0 - 0.5j, (-3,): 0.25j})
    for d in (1, 2, 4):
        smoothed = fejer_smooth(f, d)
        oracle = fejer_convolution_oracle(f, d)
        for k in f.coeffs:
            assert smoothed.coefficient(k) == pytest.approx(oracle[k], abs=1e-9)


def test_fejer_preserves_constants():
    c = FourierFunction(2, 3, {(0, 0): 2.5 - 1j})
    for d in (0, 1, 7):
        assert fejer_smooth(c, d).coeffs == c.coeffs


def test_fejer_error_monotone_on_random_functions():
    profiles, monotone = fejer_monotonicity(1, 8, functions=20, seed=4)
    assert monotone
    for errs in profiles:
        assert errs[-1] < errs[0]


def test_single_monomial_spaces_are_invariant_lines():
    # each act is a coefficient-wise multiplier, so a one-monomial function
    # stays a multiple of itself under every rotation
    rng = np.random.default_rng(77)
    for _ in range(10):
        k = tuple(int(v) for v in rng.integers(-3, 4, size=2))
        f = monomial(2, 3, k, coeff=1.0 + 0.5j)
        w = random_point(2, rng)
        g = act(w, f)
        assert g.support() == (k,)


def test_polydisc_signature_cases():
    assert polydisc_signature(FourierFunction(2, 3, {(1, 2): 1.0}))
    assert not polydisc_signature(FourierFunction(1, 2, {(-1,): 1.0}))
    assert polydisc_signature(FourierFunction(1, 2, {}))


def test_polydisc_closed_under_rotation():
    trials, preserved = polydisc_rotation_trials(2, 3, trials=25, seed=8)
    assert trials == 25
    assert preserved


def polydisc_support_reference(n, degree, trials, seed):
    """The trials compared through support() tuples, with the fold as a dict loop."""
    rng = np.random.default_rng(seed)
    preserved = True
    for _ in range(trials):
        f = random_function(n, degree, rng)
        folded_coeffs = {}
        for k, c in f.coeffs.items():
            key = tuple(map(abs, k))
            folded_coeffs[key] = folded_coeffs.get(key, 0j) + c
        folded = FourierFunction(n, degree, folded_coeffs)
        rotated = torus.act(random_point(n, rng), folded)
        same_support = rotated.support() == folded.support()
        preserved &= polydisc_signature(folded) and polydisc_signature(rotated) and same_support
    return trials, preserved


@pytest.mark.parametrize("n, degree, seed", [(1, 4, 0), (2, 3, 8), (3, 2, 5), (3, 4, 29)])
def test_polydisc_trials_match_a_support_tuple_reference(n, degree, seed):
    expected = polydisc_support_reference(n, degree, 20, seed)
    assert polydisc_rotation_trials(n, degree, trials=20, seed=seed) == expected == (20, True)


def test_polydisc_trials_see_a_rotation_that_drops_a_coefficient(monkeypatch):
    rotate = torus.act

    def dropping(w, f):
        out = rotate(w, f).array.copy()
        out.flat[np.flatnonzero(out)[-1]] = 0  # one supported coefficient zeroed
        return FourierFunction._of(out)

    monkeypatch.setattr(torus, "act", dropping)
    assert polydisc_rotation_trials(2, 3, trials=5, seed=8) == (5, False)
    assert polydisc_support_reference(2, 3, 5, 8) == (5, False)


def test_separation_examples():
    g = monomial(1, 4, (2,))
    assert separation_check([(1,)], g)
    inside = FourierFunction(1, 4, {(1,): 1.0, (0,): 2.0})
    assert not separation_check([(0,), (1,)], inside)
    rng = np.random.default_rng(19)
    for _ in range(10):
        f = random_function(1, 4, rng)
        assert not separation_check(f.support(), f)


def test_separation_scan_small_box():
    pairs, mismatches = separation_scan_1d(degree=2)
    assert pairs == (2**5 - 1) * 2**5
    assert mismatches == 0


def test_separation_scan_agrees_with_check_pair_by_pair():
    for degree in (1, 2):
        box = box_indices(1, degree)
        nb = len(box)
        checked = 0
        for g_mask in range(1, 2**nb):
            g = FourierFunction(1, degree, {box[b]: 1.0 for b in range(nb) if g_mask >> b & 1})
            for o_mask in range(2**nb):
                omega = [box[b] for b in range(nb) if o_mask >> b & 1]
                assert separation_check(omega, g) == bool(g_mask & ~o_mask), (g_mask, o_mask)
                checked += 1
        # the scan holds the same pairs to the same rule
        assert separation_scan_1d(degree=degree) == (checked, 0)


def test_functional_vanishes_on_span_and_is_one_on_g():
    # g has terms inside omega = {0, 1} and outside it
    g = FourierFunction(1, 3, {(0,): 1.0, (1,): -2j, (2,): 2.0 - 1.0j, (-3,): 0.5})
    omega = np.zeros(7, dtype=bool)  # cells of multi-indices -3..3
    omega[[3, 4]] = True
    vanishes, value = annihilating_functional(omega, g.array)
    assert vanishes
    assert value == pytest.approx(1.0, abs=1e-15)
    assert separation_check([(0,), (1,)], g)
    # a span holding the whole support leaves no outside component to pair with
    omega[[0, 5]] = True
    vanishes, value = annihilating_functional(omega, g.array)
    assert vanishes and value == 0
    assert not separation_check([(-3,), (0,), (1,), (2,)], g)


def test_add_pads_to_the_larger_box():
    f = FourierFunction(1, 2, {(2,): 1.0, (-1,): 0.5j})
    g = FourierFunction(1, 4, {(4,): 2.0, (-1,): 1.0})
    for total in (f + g, g + f):
        assert total.degree == 4
        assert total.array.shape == (9,)
        assert total.coeffs == {(-1,): 1.0 + 0.5j, (2,): 1.0, (4,): 2.0}
    assert (g - f).coeffs == {(-1,): 1.0 - 0.5j, (2,): -1.0, (4,): 2.0}
    h = FourierFunction(2, 1, {(1, -1): 1.0}) + FourierFunction(2, 3, {(3, 0): 2.0})
    assert h.array.shape == (7, 7)
    assert h.support() == ((1, -1), (3, 0))
    assert inner_product(f, g) == pytest.approx(0.5j)


def test_aligned_pads_only_the_smaller_box():
    f = FourierFunction(2, 1, {(1, -1): 1.0})
    g = FourierFunction(2, 3, {(3, 0): 2.0, (1, -1): 0.5j})
    h = FourierFunction(2, 1, {(0, 1): 2.0})
    same = f._aligned(h)
    assert same[0] is f.array and same[1] is h.array
    for pair, small in ((f._aligned(g), 0), (g._aligned(f), 1)):
        assert pair[1 - small] is g.array
        assert pair[small].shape == (7, 7)
        assert pair[small][2:5, 2:5].tolist() == f.array.tolist()
        assert np.count_nonzero(pair[small]) == 1


def test_same_degree_torus_suites_never_pad(monkeypatch, capsys):
    def no_pad(*args, **kwargs):
        raise AssertionError("np.pad ran on operands of one degree")

    monkeypatch.setattr(np, "pad", no_pad)
    assert main(["torus", "--n", "3", "--degree", "8"]) == EXIT_OK
    assert '"orthonormality_residual": 0' in capsys.readouterr().out


def test_coefficient_views_are_read_only():
    f = FourierFunction(1, 2, {(1,): 1.0})
    with pytest.raises(TypeError):
        f.coeffs[(1,)] = 2.0
    with pytest.raises(ValueError):
        f.array[0] = 1.0
    assert f.coefficient((5,)) == 0j


def test_array_suites_match_loop_references():
    # the per-monomial and per-projection loops the array suites replace
    n, d = 2, 1
    box = box_indices(n, d)
    loop_orthonormality = max(
        abs(inner_product(monomial(n, d, a), monomial(n, d, b)) - (a == b)) for a in box for b in box
    )
    assert monomial_orthonormality_residual(n, d) == loop_orthonormality == 0.0
    rng = np.random.default_rng(7)
    loop_completeness = 0.0
    for _ in range(5):
        f = random_function(n, d, rng)
        total = FourierFunction(n, d, {})
        for k in box:
            total = total + project_k(f, k)
        loop_completeness = max(loop_completeness, (f - total).norm2())
    assert completeness_residual_model(n, d, trials=5, seed=7) == loop_completeness == 0.0


def test_orthonormality_suite_sees_a_broken_inner_product_or_monomial(monkeypatch):
    parseval = torus._parseval
    cells = torus._cells
    # a small box (whole Gram matrix) and a large one (blocks in a seeded order)
    for n, d in ((2, 2), (3, 4)):
        assert monomial_orthonormality_residual(n, d) == 0.0
        monkeypatch.setattr(torus, "_parseval", lambda a, b: 0.5 * parseval(a, b))
        assert monomial_orthonormality_residual(n, d) == 0.5
        monkeypatch.setattr(torus, "_parseval", parseval)
        # a cell map folding cells 2j and 2j + 1 together makes two monomials one
        monkeypatch.setattr(torus, "_cells", lambda *args, **kw: cells(*args, **kw) // 2 * 2)
        if n == 2:
            assert monomial_orthonormality_residual(n, d) == 1.0
        else:  # combinations, relative to the largest diagonal entry of R.R^H
            assert monomial_orthonormality_residual(n, d) > 0.01
        monkeypatch.setattr(torus, "_cells", cells)


@pytest.mark.parametrize("pair", [(0, 1), (10, 4000), (100, 2000), (2456, 2457), (7, 4912)])
def test_large_box_orthonormality_sees_one_merged_pair_of_cells(monkeypatch, pair):
    # the all-ones combination sees a merge of any two cells, wherever they lie
    cells = torus._cells
    kept, merged = pair

    def merging(*args, **kw):
        out = cells(*args, **kw)
        return np.where(out == merged, kept, out)

    assert monomial_orthonormality_residual(3, 8) == 0.0
    monkeypatch.setattr(torus, "_cells", merging)
    assert monomial_orthonormality_residual(3, 8) > 0.0


def test_large_box_orthonormality_sees_a_parseval_without_conjugation(monkeypatch):
    # real rows cannot tell a @ b.T from a @ b^H; the combinations are complex
    monkeypatch.setattr(torus, "_parseval", lambda a, b: a @ b.T)
    assert monomial_orthonormality_residual(3, 4) > 0.1


def test_completeness_suite_sees_a_broken_projection(monkeypatch):
    projected = torus._projected
    assert completeness_residual_model(2, 3, trials=5, seed=4) == 0.0
    monkeypatch.setattr(torus, "_projected", lambda f, cells: 0.5 * projected(f, cells))
    f = FourierFunction(1, 2, {(1,): 2.0})
    assert project_k(f, (1,)).coefficient((1,)) == 1.0
    assert completeness_residual_model(2, 3, trials=5, seed=4) > 0.1


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_arithmetic_rejects_coefficients_that_overflow():
    z = monomial(1, 2, (1,), 1e308)
    for overflow in (lambda: z + z, lambda: z - (-1.0) * z, lambda: 10.0 * z):
        with pytest.raises(ValueError, match="finite"):
            overflow()
    assert (z - z).support() == ()


_NONFINITE = [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 1.0),
              complex(1.0, -np.inf)]


@pytest.mark.parametrize("value", _NONFINITE, ids=["nan-re", "nan-im", "inf-re", "inf-im"])
def test_nonfinite_real_or_imaginary_part_is_rejected(value):
    with pytest.raises(ValueError, match="finite"):
        FourierFunction(2, 1, {(0, 1): 1.0, (1, -1): value})
    array = np.zeros((3, 3), dtype=complex)
    array[2, 0] = value
    with pytest.raises(ValueError, match="finite"):
        FourierFunction._of(array)


def test_multi_index_beyond_int64_is_outside_the_box():
    huge = 10**20
    with pytest.raises(ValueError, match="outside the degree-2 box"):
        FourierFunction(1, 2, {(huge,): 1.0})
    g = FourierFunction(2, 2, {(1, 0): 1.0})
    with pytest.raises(ValueError, match="outside"):
        project_k(g, (0, -huge))
    assert g.coefficient((huge, 0)) == 0j
    # omega indices outside the box span nothing in it
    assert separation_check([(huge, 0), (-huge, 1)], g)
    assert not separation_check([(huge, 0), (1, 0)], g)


def test_unitarity_residual_tiny():
    assert unitarity_residual(2, 4, trials=30, seed=3) <= 1e-12


def test_smoothing_commutes_with_rotation():
    assert smoothing_commutes_residual(2, 4, trials=20, seed=6) <= 1e-13


def test_rotation_isolation_recovers_each_monomial():
    # rotations along a base-(2d+1) frequency vector turn coefficient isolation
    # into inverse discrete Fourier transforms: solving that system reproduces
    # every monomial of the support at machine precision
    n, d = 2, 4
    rng = np.random.default_rng(40)
    box = box_indices(n, d)
    support_size = 40
    picks = [box[i] for i in rng.choice(len(box), size=support_size, replace=False)]
    coeffs = {k: complex(rng.standard_normal(), rng.standard_normal()) for k in picks}
    f = FourierFunction(n, d, coeffs)

    base = 2 * d + 1
    m = base**n
    codes = {k: sum(k[j] * base**j for j in range(n)) % m for k in f.support()}
    assert len(set(codes.values())) == len(codes)

    rotations = [
        TorusPoint(np.exp(2j * np.pi * np.array([base**j for j in range(n)]) * t / m))
        for t in range(m)
    ]
    rotated = [act(w, f) for w in rotations]
    for target in f.support():
        # inverse transform along the rotation index
        recovered = {}
        for t, g in enumerate(rotated):
            phase = np.exp(-2j * np.pi * codes[target] * t / m) / m
            for k, c in g.coeffs.items():
                recovered[k] = recovered.get(k, 0j) + phase * c
        for k, c in recovered.items():
            expected = f.coeffs[target] if k == target else 0.0
            assert abs(c - expected) < 1e-9


def test_dimension_and_degree_validation():
    with pytest.raises(DimensionMismatch):
        FourierFunction(4, 2, {})
    with pytest.raises(DimensionMismatch):
        act(TorusPoint([1.0, 1.0]), monomial(1, 2, (1,)))
    with pytest.raises(ValueError):
        FourierFunction(1, 2, {(3,): 1.0})
    with pytest.raises(ValueError):
        TorusPoint([2.0])
    with pytest.raises(DimensionMismatch):
        inner_product(monomial(1, 2, (1,)), monomial(2, 2, (1, 0)))


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=-4, max_value=4).map(lambda k: (k,)),
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        max_size=6,
    ),
    st.floats(min_value=0.0, max_value=2 * np.pi, allow_nan=False),
)
def test_rotation_roundtrip_and_fejer_support(coeffs, angle):
    f = FourierFunction(1, 4, coeffs)
    w = TorusPoint.from_angles([angle])
    w_inv = TorusPoint(np.conj(w.w))
    back = act(w_inv, act(w, f))
    for k in set(f.coeffs) | set(back.coeffs):
        assert abs(back.coefficient(k) - f.coefficient(k)) <= 1e-12 * max(
            1.0, abs(f.coefficient(k))
        )
    smoothed = fejer_smooth(f, 3)
    assert set(smoothed.coeffs) <= set(f.coeffs)


# -- oracles: the broadcast functional, the np.unique draw and the tuple-built fold


def broadcast_functional(omega, g):
    """The functional as one broadcast of omega against g over the cell axis 0."""
    outside = np.where(omega, 0, g)
    norm_sq = (outside * outside.conj()).real.sum(axis=0)
    functional = outside / np.where(norm_sq > 0, norm_sq, 1.0)
    # its value on the monomial at cell k is the conjugated entry at k
    vanishes = ~np.any(omega & (functional != 0), axis=0)
    return vanishes, (g * functional.conj()).sum(axis=0)


def broadcast_oracle(omega, g):
    """broadcast_functional on (cells, spans) and (cells, functions) stacks, or 1-D."""
    omega, g = np.asarray(omega), np.asarray(g)
    spans = omega.reshape(omega.shape + (1,) * (g.ndim - 1))
    functions = g.reshape(g.shape[:1] + (1,) * (omega.ndim - 1) + g.shape[1:])
    return broadcast_functional(spans, functions)


def broadcast_scan(degree):
    """The separation scan in blocks of 4 supports through broadcast_functional."""
    nb = 2 * degree + 1
    subsets = np.arange(2**nb)
    masks = ((subsets >> np.arange(nb)[:, None]) & 1) == 1
    pairs = mismatches = 0
    for start in range(1, 2**nb, 4):
        g_sets = subsets[start : start + 4]
        g = masks[:, g_sets, None].astype(float)
        vanishes, value = broadcast_functional(masks[:, None, :], g)
        separated = vanishes & (value.real >= 0.5)
        expected = (g_sets[:, None] & ~subsets[None, :]) != 0
        mismatches += int(np.count_nonzero(separated != expected))
        pairs += separated.size
    return pairs, mismatches


def unique_draw(n, degree, rng, max_terms=12):
    """random_function with the last draw of each cell picked by np.unique."""
    size = (2 * degree + 1) ** n
    origin = size // 2
    m = int(rng.integers(1, min(max_terms, size) + 1))
    first = int(rng.integers(max(size - 1, 1)))
    if 0 < origin <= first:
        first += 1
    cells = np.concatenate([[first], rng.integers(0, size, size=m)])
    parts = rng.standard_normal((m + 1, 2))
    values = parts[:, 0] + 1j * parts[:, 1]
    last_draws = m - np.unique(cells[::-1], return_index=True)[1]
    flat = np.zeros(size, dtype=complex)
    np.add.at(flat, cells[last_draws], values[last_draws])
    return FourierFunction._of(flat.reshape((2 * degree + 1,) * n))


def tuple_fold(n, degree):
    """The cells of k -> |k| built from the multi-index tuples of the box."""
    return torus._cells([tuple(map(abs, k)) for k in box_indices(n, degree)], n, degree)


def test_contracted_functional_matches_the_broadcast_one():
    rng = np.random.default_rng(31)
    for cells, spans, functions in ((9, 40, 7), (25, 16, 5), (1, 3, 2)):
        omega = rng.random((cells, spans)) < 0.5
        real = rng.standard_normal((cells, functions)) * (rng.random((cells, functions)) < 0.6)
        for g in (real, real * np.exp(2j * np.pi * rng.random((cells, functions)))):
            vanishes, value = annihilating_functional(omega, g)
            expected_vanishes, expected_value = broadcast_oracle(omega, g)
            assert vanishes.shape == value.shape == (spans, functions)
            assert np.array_equal(vanishes, expected_vanishes)
            assert value.dtype == expected_value.dtype
            np.testing.assert_allclose(value, expected_value, rtol=0, atol=8 * np.finfo(float).eps)
            # one span against the stack, and the stack against one function
            for args in ((omega[:, 0], g), (omega, g[:, 0]), (omega[:, 0], g[:, 0])):
                got, want = annihilating_functional(*args), broadcast_oracle(*args)
                assert np.shape(got[0]) == np.shape(want[0])
                assert np.array_equal(got[0], want[0])
                np.testing.assert_allclose(got[1], want[1], rtol=0, atol=8 * np.finfo(float).eps)


def test_contracted_functional_on_one_span_and_function_returns_scalars():
    g = FourierFunction(1, 3, {(0,): 1.0, (1,): -2j, (2,): 2.0 - 1.0j, (-3,): 0.5}).array
    for cells in ([3, 4], [0, 3, 4, 5], []):  # [0, 3, 4, 5] holds the whole support
        omega = np.zeros(7, dtype=bool)
        omega[cells] = True
        vanishes, value = annihilating_functional(omega, g)
        expected_vanishes, expected_value = broadcast_functional(omega, g)
        assert type(vanishes) is type(expected_vanishes) is np.bool_
        assert type(value) is type(expected_value) is np.complex128
        assert vanishes == expected_vanishes
        assert value == pytest.approx(expected_value, abs=8 * np.finfo(float).eps)
    assert value == pytest.approx(1.0) and annihilating_functional(g != 0, g)[1] == 0


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_separation_scan_matches_the_broadcast_scan(degree):
    subsets = 2 ** (2 * degree + 1)
    assert separation_scan_1d(degree) == broadcast_scan(degree) == ((subsets - 1) * subsets, 0)


def keeping_inside(omega, g):
    """A functional pairing against all of g, its component inside the span included."""
    functional = g / (g * g.conj()).real.sum(axis=0)
    vanishes = (omega.astype(float).T @ (functional != 0)) == 0
    return vanishes, np.broadcast_to((g * functional.conj()).sum(axis=0), vanishes.shape)


def scaled_value(omega, g):
    vanishes, value = annihilating_functional(omega, g)
    return vanishes, 0.4 * value


@pytest.mark.parametrize("tampered", [keeping_inside, scaled_value])
def test_separation_scan_sees_a_broken_functional(monkeypatch, tampered):
    monkeypatch.setattr(torus, "annihilating_functional", tampered)
    for degree in (2, 4):
        pairs, mismatches = separation_scan_1d(degree)
        assert pairs == (2 ** (2 * degree + 1) - 1) * 2 ** (2 * degree + 1)
        assert mismatches > 0


def test_random_function_matches_the_unique_draw():
    for n in (1, 2, 3):
        for degree in range(5):
            for seed in (0, 3, 17):
                rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(4):
                    f, expected = random_function(n, degree, rng), unique_draw(n, degree, reference)
                    assert np.array_equal(f.array, expected.array)
                    assert not f.array.flags.writeable
                assert rng.bit_generator.state == reference.bit_generator.state


def test_random_function_keeps_the_last_draw_of_a_cell():
    # n = 2, d = 2, seed 1 draws cells 13, 18, 23, 0, 3, 20, 23: cell 23 twice
    replay = np.random.default_rng(1)
    m = int(replay.integers(1, 13))
    cells = [int(replay.integers(24)) + 1, *replay.integers(0, 25, size=m).tolist()]
    parts = replay.standard_normal((m + 1, 2))
    assert cells == [13, 18, 23, 0, 3, 20, 23]
    f = random_function(2, 2, np.random.default_rng(1))
    assert f.array.flat[23] == complex(*parts[6]) != complex(*parts[2])
    assert np.count_nonzero(f.array) == 6
    assert np.array_equal(f.array, unique_draw(2, 2, np.random.default_rng(1)).array)


def test_box_cells_match_the_tuple_built_ones(monkeypatch):
    seen = []
    projected = torus._projected
    def recording(f, cells):
        seen.append(cells)
        return projected(f, cells)

    monkeypatch.setattr(torus, "_projected", recording)
    for n in (1, 2, 3):
        for degree in range(6):
            assert np.array_equal(torus._folded_cells(n, degree), tuple_fold(n, degree))
            seen.clear()
            assert completeness_residual_model(n, degree, trials=1) == 0.0
            assert np.array_equal(seen[0], torus._cells(box_indices(n, degree), n, degree))


@pytest.mark.parametrize("n, degree", [(1, 8), (3, 8)])
def test_torus_report_bytes_match_the_oracles(monkeypatch, capsys, n, degree):
    argv = ["torus", "--n", str(n), "--degree", str(degree)]
    assert main(argv) == EXIT_OK
    report = capsys.readouterr().out
    monkeypatch.setattr(torus, "annihilating_functional", broadcast_oracle)
    monkeypatch.setattr(torus, "random_function", unique_draw)
    monkeypatch.setattr(torus, "_folded_cells", tuple_fold)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == report


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degree_zero_fejer_profiles_are_steady(capsys, n):
    assert main(["torus", "--n", str(n), "--degree", "0"]) == EXIT_OK
    fejer = json.loads(capsys.readouterr().out)["suites"]["fejer"]
    assert fejer["error_profiles"] == [[0.0] * 5] * 20
    assert fejer["monotone"] is True


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fejer_monotonicity_sees_a_smoother_that_leaves_f_or_halves_it(monkeypatch, n):
    monkeypatch.setattr(torus, "fejer_smooth", lambda f, d: f)
    for degree in (1, 2, 8):
        profiles, monotone = fejer_monotonicity(n, degree, functions=5, seed=2)
        assert profiles == [[0.0] * 5] * 5 and not monotone
    # a constant is kept by every kernel: a profile above 0 at degree 0 is not steady
    monkeypatch.setattr(torus, "fejer_smooth", lambda f, d: 0.5 * f)
    assert not fejer_monotonicity(n, 0, functions=5, seed=2)[1]
