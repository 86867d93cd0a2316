import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginvspaces import torus
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
        assert monomial_orthonormality_residual(n, d) == 1.0
        monkeypatch.setattr(torus, "_cells", cells)


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
