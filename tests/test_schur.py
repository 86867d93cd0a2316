import re
import tracemalloc

import numpy as np
import pytest

from ginvspaces import schur
from ginvspaces.decomposition import (
    _orbital_mean,
    minimal_decomposition,
    multiplicity_free,
    rep_operators,
)
from ginvspaces.errors import CapExceeded
from ginvspaces.linalg import max_abs
from ginvspaces.perm_action import (
    cyclic_generators,
    enumerate_group,
    group_from_spec,
    regular_action,
    symmetric_generators,
)
from ginvspaces.schur import (
    DRAW_BYTES_CAP,
    _compressed_classes,
    _require_draw_budget,
    classify_intertwiner,
    dichotomy_trials,
    group_average,
)


def decompose(gens, seed=42):
    action = enumerate_group(gens)
    return action, minimal_decomposition(action, seed=seed)


def average_dense_oracle(a, src, dst, action):
    """Oracle: literal dense-matrix averaging via the rep operators."""
    b = dst.projector @ a @ src.projector
    total = np.zeros_like(b)
    for op in rep_operators(action):
        total += np.linalg.inv(op.matrix) @ b @ op.matrix
    return total / action.order


def test_averaging_identity_recovers_projector():
    action, spaces = decompose(symmetric_generators(3))
    for s in spaces:
        t = group_average(np.eye(3), s, s, action)
        assert max_abs(t - s.projector) < 1e-12


def test_averaging_zero_gives_zero():
    action, spaces = decompose(cyclic_generators(3))
    t = group_average(np.zeros((3, 3)), spaces[0], spaces[1], action)
    assert max_abs(t) == 0.0


def test_group_average_matches_dense_oracle_and_commutes():
    action, spaces = decompose(symmetric_generators(3))
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for src in spaces:
        for dst in spaces:
            t = group_average(a, src, dst, action)
            assert max_abs(t - average_dense_oracle(a, src, dst, action)) < 1e-12
            for op in rep_operators(action):
                assert max_abs(op.matrix @ t - t @ op.matrix) <= 1e-10
            # maps src into dst
            assert max_abs(t - dst.projector @ t @ src.projector) < 1e-12


def test_cross_pair_averages_vanish():
    action, spaces = decompose(symmetric_generators(3))
    rng = np.random.default_rng(11)
    src, dst = spaces[0], spaces[1]
    for _ in range(25):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert max_abs(group_average(a, src, dst, action)) <= 1e-10


def test_classify_scalar_and_zero():
    action, spaces = decompose(symmetric_generators(3))
    s = spaces[1]
    cls = classify_intertwiner(2.0 * s.projector, s, s)
    assert cls.kind == "scalar"
    assert cls.constant == pytest.approx(2.0)
    cls0 = classify_intertwiner(np.zeros((3, 3)), s, s)
    assert cls0.kind == "zero"


def test_classify_violation_for_non_averaged_map():
    action, spaces = decompose(symmetric_generators(3))
    src, dst = spaces[0], spaces[1]
    t = dst.space.basis[:, [0]] @ src.space.basis.conj().T
    cls = classify_intertwiner(t, src, dst)
    assert cls.kind == "violation"


def test_scalar_recovery_from_scaled_identity():
    action, spaces = decompose(cyclic_generators(4))
    lam = 0.7 - 0.3j
    for s in spaces:
        t = group_average(lam * np.eye(4), s, s, action)
        cls = classify_intertwiner(t, s, s)
        assert cls.kind == "scalar"
        assert cls.constant == pytest.approx(lam)


def test_batch_average_matches_single():
    action, spaces = decompose(cyclic_generators(5))
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
    batch = group_average(stack, spaces[1], spaces[2], action)
    for i in range(4):
        single = group_average(stack[i], spaces[1], spaces[2], action)
        assert max_abs(batch[i] - single) < 1e-12


def test_stack_average_matches_dense_oracle_without_multiplicity_freeness():
    # S3 acting on itself: isomorphic minimal spaces, so cross averages need not vanish
    action = regular_action(enumerate_group(symmetric_generators(3)))
    spaces = minimal_decomposition(action, seed=42)
    rng = np.random.default_rng(19)
    stack = rng.standard_normal((3, 2, 6, 6)) + 1j * rng.standard_normal((3, 2, 6, 6))
    nonzero = 0
    for src in spaces:
        for dst in spaces:
            averaged = group_average(stack, src, dst, action)
            assert averaged.shape == stack.shape
            for index in np.ndindex(stack.shape[:2]):
                oracle = average_dense_oracle(stack[index], src, dst, action)
                assert max_abs(averaged[index] - oracle) < 1e-12
                nonzero += max_abs(oracle) > 1e-6
    assert nonzero > len(spaces) * 6  # the isomorphic pair adds nonzero cross averages


def test_dichotomy_trials_counts():
    action, spaces = decompose(cyclic_generators(4))
    summary = dichotomy_trials(action, spaces, trials=20, seed=5)
    assert summary.pairs == 16
    assert summary.zero_count == 12 * 20
    assert summary.scalar_count == 4 * 20
    assert summary.violation_count == 0
    assert summary.max_offdiagonal_residual <= 1e-9
    assert summary.max_diagonal_residual <= 1e-9


def test_group_average_validates_shape():
    action, spaces = decompose(cyclic_generators(3))
    with pytest.raises(ValueError):
        group_average(np.eye(4), spaces[0], spaces[0], action)


BATTERY = (
    [f"regular:cyclic:{n}" for n in range(2, 13)]
    + ["symmetric:3", "symmetric:4"]
    + [f"dihedral:{n}" for n in range(3, 9)]
    + ["regular:symmetric:3"]
)
KIND_CODES = {"zero": 0, "scalar": 1, "violation": 2}


@pytest.mark.parametrize("spec", BATTERY)
def test_compressed_dichotomy_matches_classify_per_trial_and_pair(spec):
    action = group_from_spec(spec)
    spaces = minimal_decomposition(action, seed=42)
    n, trials, seed = action.n_points, 4, 13
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((trials, n, n)) + 1j * rng.standard_normal((trials, n, n))
    kinds, residuals = _compressed_classes(spaces, _orbital_mean(draws, action), 1e-9)
    assert kinds.shape == residuals.shape == (trials, len(spaces), len(spaces))
    counts = {"zero": 0, "scalar": 0, "violation": 0}
    for t in range(trials):
        for i, src in enumerate(spaces):
            for j, dst in enumerate(spaces):
                cls = classify_intertwiner(group_average(draws[t], src, dst, action), src, dst)
                counts[cls.kind] += 1
                assert kinds[t, j, i] == KIND_CODES[cls.kind]
                if cls.kind != "violation":
                    assert residuals[t, j, i] <= 1e-9
    # dichotomy_trials draws its own orbital means; the counts do not depend on the draw
    summary = dichotomy_trials(action, spaces, trials=trials, seed=seed)
    assert (summary.zero_count, summary.scalar_count, summary.violation_count) == (
        counts["zero"], counts["scalar"], counts["violation"]
    )
    # violations are exactly the nonzero averages between isomorphic spaces
    assert (summary.violation_count == 0) == multiplicity_free(action)


def test_draw_budget_admits_regular_symmetric_6_at_default_trials():
    # estimator only: nothing is drawn, so no stack near the cap is allocated
    _require_draw_budget(100, 720)
    most = DRAW_BYTES_CAP // (720 * 720 * 16)
    _require_draw_budget(most, 720)
    with pytest.raises(CapExceeded, match=re.escape(f"{(most + 1) * 720 * 720 * 16:.3e} bytes")):
        _require_draw_budget(most + 1, 720)


@pytest.mark.parametrize("spec", ["regular:symmetric:3", "regular:dihedral:12", "regular:cyclic:12"])
@pytest.mark.parametrize("chunk", [1, 3])
def test_chunked_trials_match_one_chunk(monkeypatch, spec, chunk):
    action = group_from_spec(spec)
    spaces = minimal_decomposition(action, seed=42)
    whole = dichotomy_trials(action, spaces, trials=8, seed=7)
    monkeypatch.setattr(schur, "CHUNK_BYTES", chunk * action.n_points**2 * 16)
    assert dichotomy_trials(action, spaces, trials=8, seed=7) == whole


def test_zero_trials_count_nothing():
    action, spaces = decompose(cyclic_generators(4))
    summary = dichotomy_trials(action, spaces, trials=0, seed=5)
    assert (summary.pairs, summary.trials_per_pair) == (16, 0)
    assert summary.zero_count == summary.scalar_count == summary.violation_count == 0
    assert summary.max_offdiagonal_residual == summary.max_diagonal_residual == 0.0


def test_averaged_draws_are_orbital_means_of_iid_gaussian_operators(monkeypatch):
    # the mean of s_k iid standard complex entries: variance 1/s_k in each part
    action = group_from_spec("dihedral:7")
    spaces = minimal_decomposition(action, seed=42)
    chunks = []
    classes = schur._compressed_classes
    monkeypatch.setattr(
        schur, "_compressed_classes", lambda s, a, tol: chunks.append(a) or classes(s, a, tol)
    )
    dichotomy_trials(action, spaces, trials=20_000, seed=3)
    averages = np.concatenate(chunks)
    assert averages.shape == (20_000, 7, 7)
    labels = action.orbital_labels
    for k in range(int(labels.max()) + 1):
        on_orbital = averages[:, labels == k]
        assert np.array_equal(on_orbital, np.repeat(on_orbital[:, :1], on_orbital.shape[1], axis=1))
        expected = 1.0 / on_orbital.shape[1]
        for part in (on_orbital[:, 0].real, on_orbital[:, 0].imag):
            assert np.var(part) == pytest.approx(expected, rel=0.05)


def test_chunked_trials_never_hold_the_whole_stack(monkeypatch):
    action = group_from_spec("regular:cyclic:60")
    spaces = minimal_decomposition(action, seed=42)
    n, trials = action.n_points, 400
    monkeypatch.setattr(schur, "CHUNK_BYTES", 4 * n * n * 16)
    tracemalloc.start()
    try:
        dichotomy_trials(action, spaces, trials=trials, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < trials * n * n * 16 / 10
